"""The witness representations of thm3.6 and cor3.12 are built from the
cores of the bound check's own evaluations. The route they replaced stays
here as the reference: canonical witnesses from build_witness with the
SVD-based (1,5)-inverse, and the group inverse of a new.b from
group_inverse. Both routes must give the same report up to the roundoff of
the deviations they measure."""

import math

import numpy as np
import pytest

from ginv import (
    EnsembleConfig,
    bound_thm36,
    build_witness,
    cor_12_variants,
    gen_scenario,
    group_inverse,
    idempotent_from_matrix,
    one_five_inverse,
    run_check,
)
from ginv import perturbation
from ginv.errors import DimMismatch, NoGroupInverse, NotExists
from ginv.linalg import spectral_norm
from ginv.serialize import dumps, report_to_json

from conftest import draw_solvable

DEVIATIONS = ("representation_deviation", "statement_rep_deviation", "group_rep_deviation")


def _canonical_witness_representations(aux, s, q_prime, new):
    """_witness_representations through canonical witnesses and SVD-based
    (1,5)-inverses."""
    a, b, p, q, tol = s.a, s.base.b, s.p, s.q, s.tol
    eye = np.eye(s.n, dtype=complex)

    def represent(v, w):
        return b + b @ one_five_inverse(a @ v, tol) @ a @ (v - w) @ (eye - a @ b)

    try:
        w = build_witness(p, q, tol).w
        rep = represent(build_witness(p, q_prime, tol).w, w)
        aux["representation_deviation"] = spectral_norm(rep - new.b)
    except (NotExists, DimMismatch):
        aux["representation_deviation"] = math.inf
    stmt_feasible = q_prime.rank + q.rank == s.n
    aux["statement_witness_feasible"] = 1.0 if stmt_feasible else 0.0
    if stmt_feasible:
        try:
            rep2 = represent(build_witness(q_prime, q, tol).w, w)
            aux["statement_rep_deviation"] = spectral_norm(rep2 - new.b)
        except (NotExists, DimMismatch):
            aux["statement_rep_deviation"] = math.inf
    return True


def _canonical_strict_new(aux, s, q_new, new):
    """cor3.12's part of the statement, with the group inverse of a new.b
    from group_inverse."""
    strict_ok = new._strict_12
    aux["new_inverse_strict"] = 1.0 if strict_ok else 0.0
    _canonical_witness_representations(aux, s, q_new, new)
    a, b = s.a, s.base.b
    try:
        rep = b + b @ group_inverse(a @ new.b, s.tol) @ a @ (new.b - b) @ s.q.m
        aux["group_rep_deviation"] = spectral_norm(rep - new.b)
    except (NoGroupInverse, np.linalg.LinAlgError):
        aux["group_rep_deviation"] = math.inf
    return strict_ok


_CANONICAL_EXTRA = {"thm3.6": _canonical_witness_representations, "cor3.12": _canonical_strict_new}


@pytest.fixture
def canonical_route(monkeypatch):
    """canonical_route(fn) runs fn with thm3.6 and cor3.12 on the reference route."""
    bound = perturbation._bound

    def routed(theorem, s, *args, extra=None, **kwargs):
        return bound(theorem, s, *args, extra=_CANONICAL_EXTRA.get(theorem, extra), **kwargs)

    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(perturbation, "_bound", routed)
            return fn()

    return run


def _assert_routes_agree(report, reference):
    """Every field but the deviations byte-equal; the deviations present on
    both routes alike, finite alike, at roundoff where the identity holds,
    and the literal reading's miss equal to 1e-10 relative."""
    got, ref = report_to_json(report), report_to_json(reference)
    got_aux, ref_aux = got.pop("aux"), ref.pop("aux")
    assert dumps(got) == dumps(ref)
    assert list(got_aux) == list(ref_aux)
    for key in got_aux:
        if key not in DEVIATIONS:
            assert dumps(got_aux[key]) == dumps(ref_aux[key]), key
    for key in DEVIATIONS:
        if key not in got_aux:
            continue
        new, old = report.aux[key], reference.aux[key]
        assert math.isfinite(new) == math.isfinite(old), key
        if key == "statement_rep_deviation":
            assert new == pytest.approx(old, rel=1e-10, abs=0.0)
        else:
            assert new <= 1e-11 and old <= 1e-11, key


@pytest.mark.parametrize("theorem", ["thm3.6", "cor3.12"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generated_scenarios_agree_with_the_canonical_route(canonical_route, theorem, n):
    seen = {key: 0 for key in DEVIATIONS}
    for rank in range(1, n):
        config = EnsembleConfig(n_range=(n, n), rank_range=(rank, rank), count=4, seed=31 + n, theorems=(theorem,))
        for index in range(config.count):
            _, report = run_check(theorem, gen_scenario(config, index, theorem))
            _, reference = canonical_route(lambda: run_check(theorem, gen_scenario(config, index, theorem)))
            _assert_routes_agree(report, reference)
            for key in seen:
                seen[key] += key in report.aux
    # the comparison reached every deviation the check reports
    assert seen["representation_deviation"] > 0
    assert (seen["group_rep_deviation"] > 0) == (theorem == "cor3.12")
    if n % 2 == 0:  # rank q' + rank q = n only where rank q = n / 2
        assert seen["statement_rep_deviation"] > 0


def _edge_instance(n, full):
    """(a, p, q) with rank p = n (p = 1, q = 0, a invertible) or rank p = 0
    (p = 0, q = 1, a = 0, so that (1 - q') a = a holds as cor3.12 needs)."""
    a, _, _ = draw_solvable(40 + n, n_lo=n, n_hi=n, full_rank=True)
    one, zero = idempotent_from_matrix(np.eye(n)), idempotent_from_matrix(np.zeros((n, n)))
    return (a, one, zero) if full else (np.zeros((n, n), dtype=complex), zero, one)


@pytest.mark.parametrize("full", [False, True], ids=["rank-0", "rank-n"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ranks_zero_and_n_agree_with_the_canonical_route(canonical_route, n, full):
    a, p, q = _edge_instance(n, full)
    # the only idempotents of rank 0 and n are 0 and 1, so q' = q
    for check in (lambda: bound_thm36(a, p, q, q), lambda: cor_12_variants(a, p, q, q_prime=q)):
        report = check()
        assert report.hypothesis_satisfied and report.holds
        _assert_routes_agree(report, canonical_route(check))
