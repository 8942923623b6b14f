"""Each matrix is decomposed once: the one-SVD summary, the Gram-check fast
path, the SVD budget of the solver, and scenarios that carry their base
inverse."""

from dataclasses import replace

import numpy as np
import pytest

from ginv import (
    CHECKS,
    EnsembleConfig,
    RandomStream,
    compute_outer_pql,
    exists_outer_pql,
    gen_scenario,
    idempotent_from_matrix,
    random_idempotent,
    run_check,
)
from ginv.linalg import spectral_norm
from ginv.serialize import dumps, report_to_json, scenario_from_json, scenario_to_json
from ginv.subspaces import Subspace, _norm_range_kernel, gap, kernel_of, range_of

EPS = np.finfo(float).eps


def _with_singular_values(stream, n, values):
    u = np.linalg.qr(stream.normal_matrix(n, n))[0]
    v = np.linalg.qr(stream.normal_matrix(n, n))[0]
    s = np.zeros(n)
    s[: len(values)] = values
    return (u * s) @ v.conj().T


def _summary_cases():
    stream = RandomStream(11)
    return {
        "full-rank": stream.normal_matrix(6, 6),
        "rank-deficient": stream.normal_matrix(6, 3) @ stream.normal_matrix(3, 6),
        # ||m|| = 1e-3: scaled by ||m|| the cutoff would keep the 1e-12
        # direction, scaled by max(||m||, 1) it drops it.
        "norm-below-one": _with_singular_values(stream, 6, [1e-3, 5e-4, 1e-12]),
        "empty": np.zeros((0, 0), dtype=complex),
        "no-rows": np.zeros((0, 3), dtype=complex),
        "no-columns": np.zeros((3, 0), dtype=complex),
    }


@pytest.mark.parametrize("name", list(_summary_cases()))
def test_one_svd_summary_matches_the_separate_calls(name):
    m = _summary_cases()[name]
    nm, col, ker = _norm_range_kernel(m)
    ref_norm = spectral_norm(m)
    scale = max(ref_norm, 1.0)
    ref_col = range_of(m, scale=scale)
    ref_ker = kernel_of(m, scale=scale)
    assert abs(nm - ref_norm) <= 4 * EPS * ref_norm
    assert col.dim == ref_col.dim and ker.dim == ref_ker.dim
    assert gap(col, ref_col).gap <= 1e-12
    assert gap(ker, ref_ker).gap <= 1e-12
    if name == "norm-below-one":
        assert col.dim == 2 and range_of(m).dim == 3


def _scaled_basis(n, k, stretch, columns, seed=3):
    """Orthonormal n x k basis whose first `columns` columns are stretched so
    that B^H B - I = diag(stretch, ..., 0, ...)."""
    q = np.linalg.qr(RandomStream(seed).normal_matrix(n, k))[0]
    f = np.ones(k)
    f[:columns] = np.sqrt(1.0 + stretch)
    return q * f


@pytest.mark.parametrize(
    "k, defect, columns, accepted",
    [(3, 1e-10, 1, True), (3, 5e-9, 1, True), (3, 2e-8, 1, False), (4, 6e-9, 4, True)],
    ids=["1e-10", "5e-9", "2e-8", "frobenius-above-spectral-below"],
)
def test_gram_fast_path_keeps_the_spectral_verdict(k, defect, columns, accepted):
    b = _scaled_basis(6, k, defect, columns)
    d = b.conj().T @ b - np.eye(k)
    assert (spectral_norm(d) <= 1e-8) == accepted
    if k == 4:  # the Frobenius test alone would reject this basis
        assert np.linalg.norm(d) > 1e-8
    try:
        Subspace(6, b)
        verdict = True
    except ValueError:
        verdict = False
    assert verdict == accepted


@pytest.fixture
def svd_counter(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)

    def count(fn):
        calls.clear()
        fn()
        return len(calls)

    return count


def test_svd_budget_on_a_fixed_n6_instance(svd_counter):
    stream = RandomStream(5)
    a = stream.normal_matrix(6, 6)
    p = random_idempotent(6, 3, 0.3, stream)
    q = random_idempotent(6, 3, 0.3, stream)
    assert exists_outer_pql(a, p, q).exists
    assert svd_counter(lambda: compute_outer_pql(a, p, q)) <= 15
    assert svd_counter(lambda: exists_outer_pql(a, p, q)) <= 5
    assert svd_counter(lambda: idempotent_from_matrix(p.m)) <= 2


def _report_text(theorem, scenario):
    return dumps(report_to_json(run_check(theorem, scenario)[1]))


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_cached_and_lazy_base_give_the_same_report(theorem):
    config = EnsembleConfig(n_range=(2, 6), rank_range=(1, 5), count=4, seed=21, theorems=(theorem,))
    for index in range(config.count):
        s = gen_scenario(config, index, theorem)
        assert "base" in vars(s)  # generation stores the inverse it solved
        lazy = replace(s)  # same inputs, nothing cached
        assert "base" not in vars(lazy)
        assert _report_text(theorem, s) == _report_text(theorem, lazy)
        np.testing.assert_array_equal(s.base.b, lazy.base.b)


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_decoded_scenario_solves_its_base_on_first_use(theorem):
    config = EnsembleConfig(n_range=(2, 6), rank_range=(1, 5), count=1, seed=22, theorems=(theorem,))
    decoded = scenario_from_json(scenario_to_json(gen_scenario(config, 0, theorem)))
    assert "base" not in vars(decoded)
    text = _report_text(theorem, decoded)
    # Decoding its own JSON again reproduces the scenario bit for bit, so
    # the lazily solved base gives the same report once more.
    again = scenario_from_json(scenario_to_json(decoded))
    assert _report_text(theorem, again) == text
    np.testing.assert_array_equal(decoded.base.b, compute_outer_pql(decoded.a, decoded.p, decoded.q, decoded.tol).b)
