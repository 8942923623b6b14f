"""The witness representations of thm3.6 and cor3.12 are built from the
cores of the bound check's own evaluations, and their deviations decide
part of holds. The route they replaced stays here as the reference (the
canonical route): witnesses from build_witness with the SVD-based
(1,5)-inverse, and the group inverse of a new.b from group_inverse. Both
routes must give the same report up to the roundoff of the deviations they
measure.

The literal reading of the alternative witness convention, v = Q' M0 with
Q' a basis of col q', was dropped from the checks: on a rational instance
it misses the new inverse in exact arithmetic (see the last test)."""

import math

import numpy as np
import pytest

from ginv import (
    EnsembleConfig,
    bound_thm36,
    build_witness,
    compute_outer_pql_exact,
    cor_12_variants,
    gen_scenario,
    group_inverse,
    idempotent_from_matrix,
    one_five_inverse,
    perturb_idempotent,
    run_check,
)
from ginv import perturbation
from ginv.errors import DimMismatch, NoGroupInverse, NotExists
from ginv.exact import ExactMatrix
from ginv.linalg import spectral_norm
from ginv.serialize import dumps, report_to_json

from conftest import draw_solvable

DEVIATIONS = ("representation_deviation", "group_rep_deviation")


def _canonical_witness_representations(aux, s, e, scale):
    """_witness_representations through the witnesses of build_witness and
    an SVD-based (1,5)-inverse; e.outer is the new inverse."""
    a, b, p, tol = s.a, s.base.b, s.p, s.tol
    eye = np.eye(s.n, dtype=complex)
    try:
        w = build_witness(p, s.q, tol).w
        v = build_witness(p, s.q_prime, tol).w
        rep = b + b @ one_five_inverse(a @ v, tol) @ a @ (v - w) @ (eye - a @ b)
        aux["representation_deviation"] = spectral_norm(rep - e.outer.b)
    except (NotExists, DimMismatch):
        aux["representation_deviation"] = math.inf
    return aux["representation_deviation"] <= scale


def _canonical_strict_new(aux, s, e, scale):
    """cor3.12's part of the statement, with the group inverse of a new.b
    from group_inverse."""
    new = e.outer
    strict_ok = new._strict_12
    aux["new_inverse_strict"] = 1.0 if strict_ok else 0.0
    rep_ok = _canonical_witness_representations(aux, s, e, scale)
    a, b = s.a, s.base.b
    try:
        rep = b + b @ group_inverse(a @ new.b, s.tol) @ a @ (new.b - b) @ s.q.m
        aux["group_rep_deviation"] = spectral_norm(rep - new.b)
    except (NoGroupInverse, np.linalg.LinAlgError):
        aux["group_rep_deviation"] = math.inf
    return strict_ok and rep_ok and aux["group_rep_deviation"] <= scale


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
    """Every field but the deviations byte-equal, holds included; the
    deviations present on both routes alike and at roundoff."""
    got, ref = report_to_json(report), report_to_json(reference)
    got_aux, ref_aux = got.pop("aux"), ref.pop("aux")
    assert dumps(got) == dumps(ref)
    assert list(got_aux) == list(ref_aux)
    for key in got_aux:
        if key not in DEVIATIONS:
            assert dumps(got_aux[key]) == dumps(ref_aux[key]), key
    for key in DEVIATIONS:
        if key in got_aux:
            assert report.aux[key] <= 1e-11 and reference.aux[key] <= 1e-11, key


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


def test_a_corrupted_representation_fails_the_check(diag_instance, monkeypatch):
    a, p, q = diag_instance
    # moving the column space of q while pinning its kernel keeps q' a = 0
    q_prime = perturb_idempotent(q, 0.05, seed=2, mode="range")
    checks = (lambda: bound_thm36(a, p, q, q_prime), lambda: cor_12_variants(a, p, q, q_prime=q_prime))
    for check in checks:
        assert check().holds
    factored = perturbation._factored_group
    monkeypatch.setattr(perturbation, "_factored_group", lambda f, g, gf: 2.0 * factored(f, g, gf))
    for check in checks:
        report = check()
        assert report.hypothesis_satisfied and report.lhs <= report.rhs
        assert report.aux["representation_deviation"] > 1e-3
        assert not report.holds
    # the group representation alone decides cor3.12 as well
    monkeypatch.setattr(perturbation, "_witness_representations", lambda aux, s, new, scale: True)
    report = checks[1]()
    assert report.aux["group_rep_deviation"] > 1e-3 and not report.holds


def _exact_idempotent(x):
    """x diag(1, 0) x^-1, built as the exact oracle builds its idempotents."""
    x = ExactMatrix.from_strings(x)
    return x @ ExactMatrix.from_strings([["1", "0"], ["0", "0"]]) @ x.inverse()


def test_the_literal_reading_misses_the_new_inverse_in_exact_arithmetic():
    # rank q' + rank q = n, so the literal reading v = Q' M0 is defined
    a = ExactMatrix.from_strings([["2", "2"], ["2", "1"]])
    p = _exact_idempotent([["0", "1"], ["1", "-1"]])
    q = _exact_idempotent([["1", "1"], ["1", "0"]])
    q_prime = _exact_idempotent([["10", "1"], ["9", "0"]])
    eye = ExactMatrix.identity(2)
    b = compute_outer_pql_exact(a, p, q)
    b_new = compute_outer_pql_exact(a, p, q_prime)

    def annihilator(m):
        """Rows spanning the vectors that annihilate col m."""
        return m.conj_transpose().null_basis().conj_transpose()

    def group(f, g):
        """(f g)^# = f (g f)^-2 g from a rank factorization."""
        gf_inv = (g @ f).inverse()
        return f @ gf_inv @ gf_inv @ g

    u, m0, m0_new, q_basis = p.column_basis(), annihilator(q), annihilator(q_prime), q_prime.column_basis()

    def represent(v, f, g):
        return b + b @ group(f, g) @ a @ (v - u @ m0) @ (eye - a @ b)

    # the reading the checks keep is exact: v = U M0', a v = (a U) M0'
    assert (represent(u @ m0_new, a @ u, m0_new) - b_new).is_zero()
    # the literal reading: v = Q' M0, a v = (a Q') M0
    miss = represent(q_basis @ m0, a @ q_basis, m0) - b_new
    assert miss == ExactMatrix.from_strings([["0", "0"], ["-1/8", "1/4"]])

    # in floating point the literal reading, on the witnesses of build_witness
    # as the checks once evaluated it, misses by the same sqrt(5)/8
    af, bf = a.to_complex(), b.to_complex()
    pf, qf, q_prime_f = (idempotent_from_matrix(m.to_complex()) for m in (p, q, q_prime))
    w, v = build_witness(pf, qf).w, build_witness(q_prime_f, qf).w
    literal = bf + bf @ one_five_inverse(af @ v) @ af @ (v - w) @ (np.eye(2) - af @ bf)
    assert spectral_norm(literal - b_new.to_complex()) == pytest.approx(math.sqrt(5) / 8, abs=1e-12)
    # while the bound check on the same instance holds, representation included
    report = bound_thm36(af, pf, qf, q_prime_f)
    assert report.hypothesis_satisfied and report.holds
    assert report.aux["representation_deviation"] <= 1e-12
