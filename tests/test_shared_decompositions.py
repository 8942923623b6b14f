"""Each matrix is decomposed once: the one-SVD summary, the exact Gram
check, the SVD budget of the solver, scenarios that carry the existence
evaluation of their base (its inverse and the norms of a and b) and the
quantities the checkers share, bound checks that start from the
scenario and its base's decompositions, and a classification that is worked
out only when it is read."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from ginv import (
    CHECKS,
    EnsembleConfig,
    RandomStream,
    Scenario,
    bound_thm34,
    bound_thm36,
    bound_thm38,
    bound_thm39,
    classify_strict,
    compute_l,
    compute_outer_pql,
    cor_12_variants,
    exists_outer_pql,
    gen_scenario,
    idempotent_from_matrix,
    is_stable,
    random_idempotent,
    run_campaign,
    run_check,
)
from ginv import harness, subspaces
from ginv.gen_inverse import GInvResult
from ginv.linalg import DEFAULT_TOL, _inverse, rank, spectral_norm, try_inverse
from ginv.perturbation import _res_scale
from ginv.serialize import dumps, report_to_json, scenario_from_json, scenario_to_json
from ginv.subspaces import Subspace, _gap_and_equal, _norm_range_kernel, gap, intersection_trivial, kernel_of, range_of, subspaces_equal

from conftest import draw_solvable

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
    nm, col, ker, _ = _norm_range_kernel(m)
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


@pytest.mark.parametrize("n, r", [(1, 0), (1, 1), (4, 0), (4, 2), (4, 4), (7, 3)])
def test_the_complements_of_a_validated_idempotent_come_from_its_svd(svd_counter, n, r):
    p = idempotent_from_matrix(random_idempotent(n, r, 0.3, RandomStream(40 + n + r)).m)
    complements = {}
    assert svd_counter(lambda: complements.update(range=subspaces.orthocomplement(p.range), kernel=subspaces.orthocomplement(p.kernel))) == 0
    loose = replace(DEFAULT_TOL, tol_rank=1e-6, tol_eq=1e-7)
    for side in ("range", "kernel"):
        s, c = getattr(p, side), complements[side]
        assert s.dim + c.dim == n
        assert spectral_norm(s.basis.conj().T @ c.basis) <= 1e-14
        assert subspaces.orthocomplement(s) is c
        assert subspaces.orthocomplement(s, loose) is c


@pytest.mark.parametrize("name", list(_summary_cases()))
def test_each_complement_of_a_summary_is_its_svd_slice(svd_counter, name):
    m = _summary_cases()[name]
    _, col, ker, _ = _norm_range_kernel(m)
    if m.size:
        u, _, vh = np.linalg.svd(m)
        r = col.dim
        slices = {"range": (col, u[:, r:]), "kernel": (ker, vh[:r, :].conj().T)}
        for side, (s, expected) in slices.items():
            c = {}
            assert svd_counter(lambda: c.update(first=subspaces.orthocomplement(s))) == 0
            assert np.array_equal(c["first"].basis, expected), side
            assert subspaces.orthocomplement(s) is c["first"], side


def test_a_computed_complement_is_kept_for_every_tolerance(svd_counter):
    s = range_of(RandomStream(7).normal_matrix(5, 2))
    loose = replace(DEFAULT_TOL, tol_rank=1e-6)
    c = {}
    assert svd_counter(lambda: c.update(first=subspaces.orthocomplement(s, loose))) == 1
    assert svd_counter(lambda: c.update(second=subspaces.orthocomplement(s))) == 0
    assert c["first"] is c["second"] and c["first"].dim == 3


@pytest.fixture
def block_counter(monkeypatch):
    """Counts the blocks of normals a stream makes (RandomStream._ahead)."""
    made = []
    ahead = RandomStream._ahead
    monkeypatch.setattr(RandomStream, "_ahead", lambda self, count: made.append(count) or ahead(self, count))

    def count(fn):
        made.clear()
        fn()
        return len(made)

    return count


def test_svd_budget_on_a_fixed_n6_instance(svd_counter):
    stream = RandomStream(5)
    a = stream.normal_matrix(6, 6)
    p = random_idempotent(6, 3, 0.3, stream)
    q = random_idempotent(6, 3, 0.3, stream)
    assert exists_outer_pql(a, p, q).exists
    # 3, under a budget of 15, while the complement of col(q) took an SVD of
    # its own
    assert svd_counter(lambda: compute_outer_pql(a, p, q)) <= 2
    # 4 while the report took the stacked SVDs that its core margin settles
    assert svd_counter(lambda: exists_outer_pql(a, p, q)) <= 2
    assert svd_counter(lambda: idempotent_from_matrix(p.m)) <= 1  # 2 before the Frobenius pre-test


def test_a_rotated_solve_takes_no_svd_of_its_own(svd_counter):
    """basis_seed rotates the core, whose singular values are those of the
    core that the existence test decomposed and judged: the rotated core is
    solved behind that test, with no SVD of its own (one more while it was
    judged again at its own sigma_max)."""
    stream = RandomStream(5)
    a = stream.normal_matrix(6, 6)
    p = random_idempotent(6, 3, 0.3, stream)
    q = random_idempotent(6, 3, 0.3, stream)
    plain = svd_counter(lambda: compute_outer_pql(a, p, q))
    assert svd_counter(lambda: compute_outer_pql(a, p, q, basis_seed=7)) == plain


def test_the_shared_strict_base_weighs_its_flags_once(monkeypatch):
    """cor3.11-3.13 share each index's strict base, whose _strict_12 the
    strict family reads to accept the draw and every check reads again: its
    three threshold tests (ba = p, 1 - ab = q, aba = a) run once per index,
    not 12 times, as when each flag was weighed again on every read."""
    weighed = []
    within = GInvResult._residual_within
    monkeypatch.setattr(GInvResult, "_residual_within", lambda self, name: weighed.append(self) or within(self, name))
    bases = {}
    gen = harness.gen_scenario

    def generating(config, index, theorem, **kw):
        s = gen(config, index, theorem, **kw)
        bases.setdefault(index, set()).add(s.base)
        return s

    monkeypatch.setattr(harness, "gen_scenario", generating)
    config = EnsembleConfig(count=6, seed=1, theorems=("cor3.11", "cor3.12", "cor3.13"))
    assert run_campaign(config).ok
    assert sorted(bases) == list(range(config.count))
    for index, shared in bases.items():
        (base,) = shared
        assert sum(r is base for r in weighed) == 3, index


def test_idempotent_validation_falls_back_to_the_spectral_norm(svd_counter):
    # m^2 - m = diag(d, d, d, d) with d = e (1 + e): its Frobenius norm 2d
    # exceeds the bound tol_eq (1 + ||m||^2) ~ 2e-9, its spectral norm d
    # does not, so only the SVD of the residual can accept m.
    e = 1.5e-9
    m = np.diag([1 + e] * 4 + [0.0, 0.0])
    residual = m @ m - m
    bound = DEFAULT_TOL.tol_eq * (1 + (1 + e) ** 2)
    assert spectral_norm(residual) < bound < np.linalg.norm(residual)
    assert svd_counter(lambda: idempotent_from_matrix(m)) == 2
    with pytest.raises(ValueError, match="not idempotent"):
        idempotent_from_matrix(np.diag([1 + 3 * e] * 4 + [0.0, 0.0]))


def _report_text(theorem, scenario):
    return dumps(report_to_json(run_check(theorem, scenario)[1]))


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_cached_and_lazy_base_give_the_same_report(theorem):
    config = EnsembleConfig(n_range=(2, 6), rank_range=(1, 5), count=4, seed=21, theorems=(theorem,))
    for index in range(config.count):
        s = gen_scenario(config, index, theorem)
        # generation hands over the evaluation that it solved the base from
        assert "_evaluation" in vars(s) and s.base is s._evaluation.outer
        lazy = replace(s)  # same inputs, nothing cached
        assert "_evaluation" not in vars(lazy) and "base" not in vars(lazy)
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


def _eager_classification(a, p, q, b, tol):
    """classify_strict as it was first written, all at once: the reference
    for the classification that is worked out on first access."""
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    na = spectral_norm(a)
    nb, col_b, ker_b, _ = _norm_range_kernel(b, tol)
    ab = a @ b
    ba = b @ a
    residuals = {
        "bab_b": spectral_norm(ba @ b - b),
        "aba_a": spectral_norm(ab @ a - a),
        "ba_p": spectral_norm(ba - p.m),
        "one_ab_q": spectral_norm(eye - ab - q.m),
        "gap_range": gap(col_b, p.range).gap,
        "gap_kernel": gap(ker_b, q.range).gap,
    }
    e = tol.tol_eq
    outer = (
        residuals["bab_b"] <= e * (1.0 + na * nb * nb)
        and residuals["gap_range"] <= 10 * e
        and residuals["gap_kernel"] <= 10 * e
    )
    l_inverse = residuals["aba_a"] <= e * (1.0 + na * na * nb)
    strict_pq = residuals["ba_p"] <= e * (1.0 + na * nb + p.norm) and residuals["one_ab_q"] <= e * (
        1.0 + na * nb + q.norm
    )
    flags = {"outer_pql": outer, "l_inverse": l_inverse, "strict_pq": strict_pq, "strict_12": strict_pq and l_inverse}
    return flags, residuals


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_lazy_classification_matches_the_eager_one(theorem):
    config = EnsembleConfig(n_range=(2, 6), rank_range=(1, 5), count=4, seed=23, theorems=(theorem,))
    for index in range(config.count):
        s = gen_scenario(config, index, theorem)
        run_check(theorem, s)  # may or may not read the base's flags
        flags, residuals = _eager_classification(s.a, s.p, s.q, s.base.b, s.tol)
        assert s.base.flags == flags
        assert s.base.residuals == residuals  # exact float equality
        fresh = classify_strict(s.a, s.p, s.q, s.base.b, s.tol)
        assert "flags" not in vars(fresh) and "residuals" not in vars(fresh)
        assert fresh.residuals == residuals and fresh.flags == flags
        assert repr(fresh) == repr(s.base)


def test_solving_does_not_classify_until_asked():
    a, p, q = draw_solvable(4)
    result = compute_outer_pql(a, p, q)
    assert not {"flags", "residuals"} & set(vars(result))
    assert result.flags == _eager_classification(a, p, q, result.b, DEFAULT_TOL)[0]
    assert {"flags", "residuals"} <= set(vars(result))


def _wrapper_report(theorem, s):
    """The public bound function of a check id, called on the scenario's fields."""
    calls = {
        "thm3.4": lambda: bound_thm34(s.a, s.p, s.q, s.p_prime, s.tol),
        "thm3.6": lambda: bound_thm36(s.a, s.p, s.q, s.q_prime, s.tol),
        "thm3.8": lambda: bound_thm38(s.a, s.p, s.q, s.p_prime, s.q_prime, s.tol),
        "thm3.9": lambda: bound_thm39(s.a, s.delta_a, s.p, s.q, s.p_prime, s.q_prime, s.tol),
        "cor3.11": lambda: cor_12_variants(s.a, s.p, s.q, p_prime=s.p_prime, tol=s.tol),
        "cor3.12": lambda: cor_12_variants(s.a, s.p, s.q, q_prime=s.q_prime, tol=s.tol),
        "cor3.13": lambda: cor_12_variants(s.a, s.p, s.q, p_prime=s.p_prime, q_prime=s.q_prime, tol=s.tol),
    }
    return dumps(report_to_json(calls[theorem]()))


@pytest.mark.parametrize("theorem", ["thm3.4", "thm3.6", "thm3.8", "thm3.9", "cor3.11", "cor3.12", "cor3.13"])
def test_public_bound_functions_match_the_check_path(theorem):
    config = EnsembleConfig(n_range=(2, 6), rank_range=(1, 5), count=6, seed=24, theorems=(theorem,))
    for index in range(config.count):
        s = gen_scenario(config, index, theorem)
        assert _wrapper_report(theorem, s) == _report_text(theorem, s)


# The most SVDs one check of a generated n = 6 scenario makes. thm3.4, thm3.6,
# thm3.8, thm3.9, cor3.11, cor3.12 and cor3.13 made 3, 4, 3, 5, 3, 5 and 3
# while the norm of the new inverse took an SVD of its own. thm3.6, thm3.8,
# thm3.9, cor3.12 and cor3.13 made 5, 4, 6, 6 and 4 while the complement of
# col(q) took an SVD of its own. thm3.6 made 8
# and cor3.12 9 while they also evaluated the literal reading of the
# alternative witness convention, and 10 and 13 while their witness
# representations took canonical bases and SVD-based group inverses. They were 5, 11, 6, 8, 12, 20 and 15 while
# the core margin did not settle the subspace tests of the new inverse and
# each threshold test on a residual took its SVD. Before the bound checks reused the base's decompositions of a, its
# complement of col(q), the distances measured by the perturbation search,
# and computed only the residuals they read, these were 8, 19, 9, 10, 20, 35
# and 23, under a budget of 20 for thm3.4, thm3.8 and thm3.9; they were 35
# when each check solved its base again.
_N6_BOUND_BUDGET = {"thm3.4": 2, "thm3.6": 3, "thm3.8": 2, "thm3.9": 4, "cor3.11": 2, "cor3.12": 4, "cor3.13": 2}


@pytest.mark.parametrize("theorem", list(_N6_BOUND_BUDGET))
def test_svd_budget_of_a_bound_check_at_n6(svd_counter, theorem):
    config = EnsembleConfig(n_range=(6, 6), rank_range=(1, 5), count=10, seed=3, theorems=(theorem,))
    for index in range(config.count):
        s = gen_scenario(config, index, theorem)
        assert svd_counter(lambda: run_check(theorem, s)) <= _N6_BOUND_BUDGET[theorem]


BOUND_IDS = tuple(_N6_BOUND_BUDGET)


def _bound_campaign():
    config = EnsembleConfig(n_range=(2, 6), count=20, seed=1, theorems=BOUND_IDS)
    return config.count * len(BOUND_IDS), lambda: run_campaign(config)


def test_svd_budget_of_a_bound_campaign(svd_counter, monkeypatch):
    instances, campaign = _bound_campaign()
    # an SVD run inside numpy.linalg (np.linalg.pinv takes one) bypasses
    # svd_counter; the campaign makes none
    hidden = []
    inner = np.linalg._linalg.svd
    monkeypatch.setattr(np.linalg._linalg, "svd", lambda *args, **kwargs: hidden.append(1) or inner(*args, **kwargs))
    # 9.91 per instance while the base draw took ||a|| and ||b||, and the
    # check ||b'||, each by an SVD of its own; 10.78 while the complement of
    # col(q) took an SVD of its own; 11.97 while random_idempotent took three SVDs and every
    # move searched Cayley rotations, one distance per build; 12.23 while
    # thm3.6 and cor3.12 also evaluated the literal
    # reading of the alternative witness convention; 13.09 while their
    # witness representations took canonical bases and SVD-based group
    # inverses; 18.52 while
    # the core margin did not settle the subspace tests and each threshold
    # test on a residual took its SVD; 20.48 before
    # the perturb_idempotent endgame interpolated and cor3.11 and cor3.13
    # shared ||a p' - a||; 28.21 before the bound checks reused the base's
    # decompositions
    assert svd_counter(campaign) / instances <= 8.35
    assert not hidden


def test_normal_blocks_of_a_bound_campaign(block_counter):
    instances, campaign = _bound_campaign()
    # 2.14 per instance while each normal draw made its own; 146/140 while a
    # draw shared through _once restored the state alone, so the next draw
    # made a fresh block
    assert block_counter(campaign) / instances <= 68 / 140


def _svd_key(a, *args, **kwargs):
    """What makes two SVD calls the same decomposition: the input bytes,
    shape and type. The flags do not count: the values of a matrix that was
    fully decomposed already are a second decomposition all the same."""
    a = np.asarray(a)
    return hashlib.sha256(a.tobytes()).hexdigest(), a.shape, a.dtype.str


def _repeated_svd_inputs(monkeypatch, campaign) -> int:
    """How many SVD calls of campaign() repeat an earlier call's input."""
    keys = []
    svd = np.linalg.svd

    def recording(*args, **kwargs):
        keys.append(_svd_key(*args, **kwargs))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    campaign()
    return len(keys) - len(set(keys))


def test_a_bound_campaign_decomposes_each_matrix_once(monkeypatch):
    _, campaign = _bound_campaign()
    # 40/140 repeated inputs, flags aside, while the base draw took ||a||
    # after the existence evaluation had decomposed a (0/140 with the flags
    # in the key); 0.16 repeated decompositions per instance while cor3.11 and cor3.13
    # each tested the side condition a p' = a on the same p' (0.14), the
    # Illinois endgame of perturb_idempotent sampled one distance twice and
    # two 1x1 group inverses coincided; 4.53 before the bound checks reused
    # the base's
    assert _repeated_svd_inputs(monkeypatch, campaign) == 0


def test_svd_budget_of_compute_l_at_n6(svd_counter):
    theorem = "tm2.7"  # its scenarios have an inner-outer base inverse
    s = gen_scenario(EnsembleConfig(n_range=(6, 6), count=1, seed=3, theorems=(theorem,)), 0, theorem)
    # 20 with two existence evaluations, 9 while every evaluation took the
    # complement of col(q) again, 8 while the core margin did not settle the
    # subspace tests and a b a = a took its SVDs
    assert svd_counter(lambda: compute_l(s.a, s.p, s.q, s.tol)) <= 3


def _factor_cases():
    stream = RandomStream(13)
    tol_inv = DEFAULT_TOL.tol_inv
    return {
        "invertible": stream.normal_matrix(5, 5),
        "singular": stream.normal_matrix(5, 3) @ stream.normal_matrix(3, 5),
        "zero": np.zeros((4, 4), dtype=complex),
        "empty": np.zeros((0, 0), dtype=complex),
        # sigma_max = 2, sigma_min 1% above and below tol_inv * sigma_max
        "just-above": _with_singular_values(stream, 4, [2.0, 1.0, 0.5, 2.0 * tol_inv * 1.01]),
        "just-below": _with_singular_values(stream, 4, [2.0, 1.0, 0.5, 2.0 * tol_inv * 0.99]),
    }


@pytest.mark.parametrize("name", list(_factor_cases()))
def test_update_factor_helper_matches_try_inverse(name):
    m = _factor_cases()[name]
    (invertible, sigma_min, _, _), inverse = _inverse(m, DEFAULT_TOL)
    reference = try_inverse(m, DEFAULT_TOL)
    assert invertible == (reference is not None)
    assert invertible == (name in ("invertible", "empty", "just-above"))
    if invertible:
        np.testing.assert_array_equal(inverse, reference)
    else:
        assert inverse is None
    if m.size:
        assert sigma_min == float(np.linalg.svd(m, compute_uv=False)[-1])
    else:
        assert sigma_min == float("inf")


def _gap_cases():
    stream = RandomStream(17)
    m = range_of(stream.normal_matrix(5, 2))
    rotated = Subspace(5, m.basis @ np.linalg.qr(stream.normal_matrix(2, 2))[0])
    return {
        "equal": (m, rotated),
        "same-dimension": (m, range_of(stream.normal_matrix(5, 2))),
        "different-dimension": (m, range_of(stream.normal_matrix(5, 3))),
        "zero-and-line": (range_of(np.zeros((5, 1))), range_of(stream.normal_matrix(5, 1))),
    }


@pytest.mark.parametrize("name", list(_gap_cases()))
def test_gap_helper_matches_gap_and_subspaces_equal(name):
    m, n = _gap_cases()[name]
    g, (equal, _, _, _) = _gap_and_equal(m, n, DEFAULT_TOL)
    assert g == gap(m, n)
    assert equal == subspaces_equal(m, n, DEFAULT_TOL)
    assert equal == (name == "equal")


def _n6_scenario(theorem):
    return gen_scenario(EnsembleConfig(n_range=(6, 6), count=1, seed=3, theorems=(theorem,)), 0, theorem)


_N6_CHECK_BUDGET = {
    "tm2.7": 9,
    "lemas1": 10,
    "cor2.8": 9,
    "lemma2.10": 7,
    "thm2.4": 5,
    "thm2.7": 10,
    "lemma2.6": 3,
    "thm2.12": 11,
}


# The second parameter is the budget in force when the case was added (for
# the first four, before the base's inner-outer direct sum was tested once);
# it keeps the case ids stable, and each current budget in _N6_CHECK_BUDGET
# must stay at or below it.
@pytest.mark.parametrize(
    "theorem, former_budget",
    [("tm2.7", 28), ("lemas1", 29), ("cor2.8", 13), ("lemma2.10", 11), ("thm2.4", 12), ("thm2.7", 15), ("lemma2.6", 6), ("thm2.12", 16)],
)
def test_svd_budget_of_a_section2_check_at_n6(svd_counter, theorem, former_budget):
    s = _n6_scenario(theorem)
    # 37, 36 and 17 with each checker's own prelude; lemas1 and lemma2.10
    # made 29 and 12 while their gap hypotheses computed both one-sided gaps,
    # and tm2.7, lemas1 and lemma2.10 made 26, 23 and 10 while the
    # inner-outer direct sum of the base was tested twice; tm2.7 and lemas1
    # made 25 and 22 while each evaluation took the complement of col(q)
    # again; tm2.7, thm2.4 and lemma2.6 made 24, 12 and 6 while the scenario
    # decomposed a_bar apart from its existence evaluation; tm2.7, lemas1,
    # lemma2.10, thm2.4, thm2.7 and thm2.12 made 21, 21, 9, 11, 15 and 16
    # while the core margin did not settle the subspace tests and each
    # threshold test on a residual took its SVD; tm2.7, lemas1, cor2.8,
    # thm2.4, thm2.7, lemma2.6 and thm2.12 made 12, 11, 11, 6, 12, 4 and 13
    # while every gap took both one-sided SVDs and the update's residual scale
    # took ||b|| of a + delta_a by an SVD.
    budget = _N6_CHECK_BUDGET[theorem]
    assert budget <= former_budget
    assert svd_counter(lambda: run_check(theorem, s)) <= budget


SECTION2_IDS = ("thm2.4", "lemma2.6", "thm2.7", "cor2.8", "tm2.7", "lemma2.10", "lemas1", "thm2.12")


def _section2_campaign():
    config = EnsembleConfig(n_range=(2, 6), count=12, seed=1, theorems=SECTION2_IDS)
    return config.count * len(SECTION2_IDS), lambda: run_campaign(config)


def test_svd_budget_of_a_section2_campaign(svd_counter):
    instances, campaign = _section2_campaign()
    # 24.20 per instance when every id built its own scenario and decompositions,
    # 20.67 while the inner-outer direct sum of an l-aligned base was tested twice,
    # 20.46 while the complement of col(q) was taken again, stability always took
    # the stacked SVD, every flag worked out all six residuals and the shift
    # took ||a|| once more, 17.88 while the scenario decomposed a_bar and
    # [col a_bar, col q] apart from its existence evaluation of a_bar, 17.46
    # while the core margin did not settle the subspace tests and each
    # threshold test on a residual took its SVD, 13.375 while random_idempotent
    # took three SVDs and an l-aligned base tested its direct sum before oblique,
    # 12.375 while the complement of col(q) took an SVD of its own, 11.875
    # while the base draw took ||a|| and ||b|| by SVDs of their own, 10.875
    # while every gap took both one-sided SVDs and the update's residual
    # scale took ||b|| of a + delta_a by an SVD of its own, 9.573 while the
    # outer_rank and l_aligned families each decomposed the rank-r a they
    # both draw
    assert svd_counter(campaign) / instances <= 899 / 96


def test_the_update_is_compared_with_one_svd(svd_counter):
    # ||_updated - b|| is the one SVD: ||b|| of a + delta_a is 1 / sigma_min of
    # the core its existence evaluation decomposed
    config = EnsembleConfig(n_range=(2, 6), count=12, seed=1, theorems=("thm2.4",))
    compared = 0
    for index in range(config.count):
        s = gen_scenario(config, index, "thm2.4")
        if s._right_factor[0].truth and s._left_factor[0].truth and s._bar.exists(l_mode=False):
            s._updated
            assert svd_counter(s._update_vs) == 1
            dev, update = s._update_vs()
            assert update.cutoff == pytest.approx(_res_scale(s._bar.na, spectral_norm(s._bar.outer.b), s.tol)(0.0).cutoff, rel=1e-12)
            compared += 1
    assert compared >= config.count // 2


def test_normal_blocks_of_a_section2_campaign(block_counter):
    instances, campaign = _section2_campaign()
    # 3.27 per instance while each normal draw made its own; 64/96 while a
    # draw shared through _once restored the state alone and the families
    # drew their common ingredients each on their own
    assert block_counter(campaign) / instances <= 24 / 96


def test_repeated_decompositions_of_a_section2_campaign(monkeypatch):
    instances, campaign = _section2_campaign()
    # 0.96 repeated decompositions per instance while the scenario decomposed
    # a_bar and [col a_bar, col q] apart from its existence evaluation of a_bar
    # (0.38), 0.625 while random_idempotent took three SVDs, and 0.375 while
    # the complement of col(q) took an SVD of its own; 69/96 with the inputs
    # keyed without their flags while the base draw took ||a|| and ||b|| by
    # SVDs of their own (33/96 with the flags in the key); 20/96 while the
    # outer_rank and l_aligned base families each decomposed the rank-r a
    # they draw from the same stream position (12/96) and, when n = 2r, the
    # outer and outer_rank families each validated the p and q they draw at
    # the same positions (8/96)
    assert _repeated_svd_inputs(monkeypatch, campaign) == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_the_a_bar_evaluation_answers_as_the_public_functions(n):
    zero_shifts = 0
    for theorem in SECTION2_IDS:
        config = EnsembleConfig(n_range=(n, n), count=6, seed=34, theorems=(theorem,))
        for index in range(config.count):
            s = gen_scenario(config, index, theorem)
            a_bar = s.a + s.delta_a
            assert is_stable(s) == intersection_trivial(range_of(a_bar, s.tol), s.q.range, s.tol)
            if not s.delta_a.any():
                assert s._bar is s._evaluation
                zero_shifts += 1
            if theorem == "thm2.4":
                report = run_check(theorem, s)[1]
                direct = exists_outer_pql(a_bar, s.p, s.q, s.tol)
                assert report.aux["sigma_min_core"] == direct.sigma_min_core
                assert dict((name, truth) for name, truth, _ in report.conditions)["perturbed_exists"] == direct.exists
    assert zero_shifts == 2  # lemma2.6 at indices 0 and 3


def test_svd_budget_of_l_aligned_generation_at_n6(svd_counter):
    # 23 when the base's existence was evaluated a second time to solve it,
    # 16 while the shift took ||a|| once more, 15 while the core margin did
    # not settle the base's subspace tests, 12 while random_idempotent took
    # three SVDs and the base tested its direct sum before oblique, 10 while
    # the complement of col(q) took an SVD of its own, 9 while the base draw
    # took ||a|| and ||b|| by SVDs of their own
    assert svd_counter(lambda: _n6_scenario("tm2.7")) <= 7


@pytest.mark.parametrize("theorem", ["tm2.7", "lemma2.10", "lemas1"])
def test_generated_base_keeps_its_existence_evaluation(theorem):
    s = _n6_scenario(theorem)
    assert vars(s)["_evaluation"].outer is s.base
    fresh = replace(s)  # evaluates and solves again
    assert fresh._evaluation.smin == s._evaluation.smin
    np.testing.assert_array_equal(fresh.base.b, s.base.b)


@pytest.mark.parametrize("n", range(2, 7))
def test_generation_primes_the_distances_the_search_measured(n):
    for theorem in BOUND_IDS:
        config = EnsembleConfig(n_range=(n, n), count=3, seed=31, theorems=(theorem,))
        for index in range(config.count):
            s = gen_scenario(config, index, theorem)
            for name, moved, start in (("_dp", s.p_prime, s.p), ("_dq", s.q_prime, s.q)):
                if moved is None:
                    assert name not in vars(s)
                else:  # exact float equality
                    assert vars(s)[name] == spectral_norm(moved.m - start.m) == getattr(replace(s), name)


def _flag_cases():
    """GInvResults to classify: strict, outer-only and l-aligned bases, their
    moved inverses, and matrices that are no inverse at all."""
    for theorem in ("cor3.11", "cor3.13", "thm3.8", "tm2.7"):
        config = EnsembleConfig(n_range=(2, 6), count=6, seed=32, theorems=(theorem,))
        for index in range(config.count):
            s = gen_scenario(config, index, theorem)
            yield s.a, s.p, s.q, s.base.b
            moved_p = s.p_prime or s.p
            yield s.a, moved_p, s.q_prime or s.q, s.base.b
            yield s.a, s.p, s.q, s.base.b + 1e-6 * RandomStream(index).normal_matrix(s.n, s.n)


def test_each_flag_works_out_only_the_residuals_it_needs():
    needs = {
        "_outer_pql": {"_bab_b", "_gap_range", "_gap_kernel"},
        "_l_inverse": {"_aba_a"},
        "_strict_pq": {"_ba_p", "_one_ab_q"},
        "_strict_12": {"_ba_p", "_one_ab_q", "_aba_a"},
    }
    residuals = {"_bab_b", "_aba_a", "_ba_p", "_one_ab_q", "_gap_range", "_gap_kernel"}
    seen = set()
    for a, p, q, b in _flag_cases():
        flags = classify_strict(a, p, q, b).flags
        for name, needed in needs.items():
            fresh = classify_strict(a, p, q, b)
            verdict = getattr(fresh, name)
            assert verdict == flags[name[1:]]
            computed = residuals & set(vars(fresh))
            assert computed <= needed and "residuals" not in vars(fresh) and "flags" not in vars(fresh)
            seen.add((name, verdict))
    assert {(name, v) for name in needs for v in (True, False)} <= seen, seen


def _stability_as_before(s):
    """The truth and residual of Scenario._stable as first written: both verdicts from one
    SVD of the stacked bases, also when the dimensions decide alone."""
    m, k = s._bar.col_a, s.q.range
    if m.dim == 0 or k.dim == 0:
        return True, 0.0
    stacked = np.hstack([m.basis, k.basis])
    dims = m.dim + k.dim
    trivial = dims <= s.n and rank(stacked, s.tol) == dims
    return trivial, float(dims - rank(stacked, s.tol, 1.0))


@pytest.mark.parametrize("theorem", ["lemma2.6", "thm2.7", "lemma2.10", "tm2.7"])
def test_stability_verdict_skips_the_stacked_svd_when_dimensions_decide(svd_counter, theorem):
    config = EnsembleConfig(n_range=(2, 6), count=30, seed=33, theorems=(theorem,))
    by_dims = set()
    for index in range(config.count):
        s = replace(gen_scenario(config, index, theorem))  # nothing cached
        col_bar = s._bar.col_a
        too_many = col_bar.dim + s.q.rank > s.n
        assert svd_counter(lambda: s._bar._trivial_q.truth) == (0 if too_many or col_bar.dim == 0 or s.q.rank == 0 else 1)
        assert svd_counter(lambda: s._stable) == (1 if too_many and col_bar.dim else 0)
        _, decision, defect, _ = s._stable
        assert (decision.truth, defect) == _stability_as_before(s)
        by_dims.add(too_many)
    assert by_dims == {True, False}


ALL_IDS = tuple(sorted(set(CHECKS) - {"selftest-bad-bound"}))


def _new_inverse(theorem, s):
    """The inverse a bound check compares with the base: for the moved
    idempotents, of a + delta_a under thm3.9 and of a under the others."""
    a = s.a + s.delta_a if theorem == "thm3.9" else s.a
    return compute_outer_pql(a, s.p_prime or s.p, s.q_prime or s.q, s.tol).b


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_the_norms_a_scenario_reads_come_from_its_evaluations(seed):
    # ||b|| = 1 / sigma_min of the core; spectral_norm(b) takes the SVD of b
    checked = 0
    for magnitudes in ((0.5,), (0.0, 1e-3, 0.9)):
        config = EnsembleConfig(n_range=(2, 6), count=30, seed=seed, theorems=ALL_IDS, perturbation_magnitudes=magnitudes)
        for index in range(config.count):
            memo = {}
            for theorem in ALL_IDS:
                s = gen_scenario(config, index, theorem, _memo=memo)
                assert s.norm_a is s._evaluation.na
                pairs = [(s.norm_b, s.base.b)]
                report = run_check(theorem, s)[1]
                if "norm_lhs" in getattr(report, "aux", {}):
                    pairs.append((report.aux["norm_lhs"], _new_inverse(theorem, s)))
                for value, b in pairs:
                    assert abs(value - spectral_norm(b)) <= 1e-12 * spectral_norm(b)
                    checked += 1
    assert checked > 2 * config.count * len(ALL_IDS)


def test_the_norm_of_the_inverse_for_a_rank_zero_p_is_zero():
    n = 3
    s = Scenario(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex), np.zeros((n, n)), np.eye(n))
    assert s._evaluation.smin == float("inf")
    assert s.norm_b == 0.0 and not s.base.b.any()
