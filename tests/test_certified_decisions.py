"""Decisions settled without an SVD equal the exact ones.

Threshold tests on a norm take the Frobenius test of `linalg._norm_within`
first, and `_Evaluation` settles trivial and direct_sum from its core margin
(`_Evaluation._certified`). Forcing both never to decide must change no
decision and no output: on a seeded grid of inputs placed just above and
below each threshold and each margin, and on a campaign of every check id.
The one exception is by design: a report's cutoffs and closest call name
the comparison that decided, and the core-margin certificate is a
comparison of its own.
"""

import contextlib
import json

import numpy as np
import pytest

from conftest import draw_solvable
from ginv import (
    CHECKS,
    DEFAULT_TOL,
    EnsembleConfig,
    NotExists,
    RandomStream,
    Tolerances,
    classify_strict,
    compute_l,
    compute_outer_pql,
    cor_12_variants,
    exists_l,
    exists_outer_pql,
    gen_scenario,
    oblique,
    random_idempotent,
    range_of,
    run_campaign,
)
from ginv import gen_inverse, idempotents, linalg, perturbation, subspaces
from ginv.gen_inverse import GInvResult, _Evaluation, _checked
from ginv.linalg import _EPS, _inverse, _norm_within, spectral_norm
from ginv.perturbation import _update
from ginv.serialize import bound_reports_to_csv, campaign_report_to_json, dumps, report_to_json
from ginv.subspaces import orthocomplement

MODULES = (linalg, subspaces, idempotents, gen_inverse, perturbation)
TOLERANCES = {
    "default": Tolerances(),
    "loose-1e-6": Tolerances(tol_rank=1e-6, tol_eq=1e-6),
    "loose-1e-3": Tolerances(tol_rank=1e-3, tol_eq=1e-3),
}
NORMS_A = (1e-12, 1e-6, 1.0, 1e4)
# Each size of the grid with one of the tolerances, so that every tolerance
# meets small and large sizes.
GRID = [(n, list(TOLERANCES)[n % 3]) for n in range(2, 9)]
# Where the grid places a value against its threshold: the factors below 1
# and above 1 that the threshold is multiplied by.
SIDES = (1 - 1e-3, 1 - 1e-8, 1 + 1e-8, 1 + 1e-3)


def _never(x, low, exact):
    return exact()


def _force_exact(mp):
    """Make the Frobenius test and the core-margin certificate never decide."""
    for module in MODULES:
        if hasattr(module, "_norm_within"):
            mp.setattr(module, "_norm_within", _never)
    mp.setattr(_Evaluation, "_certified", property(lambda self: False))


@pytest.fixture
def exact_only(monkeypatch):
    """Every decision by its exact test, with the SVD."""
    _force_exact(monkeypatch)


@contextlib.contextmanager
def _exact_tests():
    with pytest.MonkeyPatch.context() as mp:
        _force_exact(mp)
        yield


def _outcome(fn):
    """fn()'s value, or the type and message of what it raised."""
    try:
        return "value", fn()
    except Exception as e:  # the same error must come from both paths
        return type(e).__name__, str(e)


def _both(fn):
    """(fn()'s outcome as it runs, its outcome with the exact tests only)."""
    certified = _outcome(fn)
    with _exact_tests():
        exact = _outcome(fn)
    return certified, exact


class _Spy:
    """Counts the Frobenius tests that decided without calling exact()."""

    def __init__(self, mp):
        self.decided = 0

        def spy(x, low, exact):
            called = []

            def recorded():
                called.append(1)
                return exact()

            verdict = _norm_within(x, low, recorded)
            self.decided += not called
            return verdict

        for module in MODULES:
            if hasattr(module, "_norm_within"):
                mp.setattr(module, "_norm_within", spy)


def _crossing(decide, lo, hi, steps=44):
    """The scale where decide(t) turns from True to False, by bisection in
    the geometric mean; decide(lo) must be True and decide(hi) False."""
    assert decide(lo) and not decide(hi)
    for _ in range(steps):
        mid = np.sqrt(lo * hi)
        if decide(mid):
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


def _rank_one(stream, n, norm):
    x = stream.normal_matrix(n, 1)
    y = stream.normal_matrix(n, 1)
    m = x @ y.conj().T
    return m * (norm / spectral_norm(m))


@pytest.mark.parametrize("n", range(2, 9))
def test_the_frobenius_test_gives_the_exact_verdict(n):
    stream = RandomStream(400 + n)
    decided = 0
    for t in (1e-12, 1e-9, 1.0, 1e6):
        for x in (_rank_one(stream, n, t), stream.normal_matrix(n, n) * t):
            x_norm = spectral_norm(x)
            for side in SIDES + (1.0,):
                bound = x_norm * side

                def exact():
                    return spectral_norm(x) <= bound

                calls = []
                verdict = _norm_within(x, bound, lambda: calls.append(1) or exact())
                assert verdict == exact()
                decided += not calls
                # a lower bound of the threshold may only make it fall back
                assert _norm_within(x, bound * 0.5, exact) == exact()
    assert decided > 0  # the rank-one residuals well below their bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_frobenius_test_leaves_nan_and_inf_to_the_exact_test(bad):
    x = np.eye(3, dtype=complex) * 1e-20
    x[1, 2] = bad
    for low in (1.0, np.inf, np.nan):
        calls = []
        assert _norm_within(x, low, lambda: calls.append(1) or "exact") == "exact"
        assert calls == [1]

    def exact():
        return spectral_norm(x) <= 1.0

    assert _outcome(lambda: _norm_within(x, 1.0, exact)) == _outcome(exact)
    finite = np.eye(3, dtype=complex)
    assert _norm_within(finite, np.nan, lambda: "exact") == "exact"


def _strict_base(stream, n, r, scale, tol):
    """(a, p, q, b) with b the strict inverse of a, ||a|| about scale."""
    a = stream.normal_matrix(n, r) @ stream.normal_matrix(r, n)
    a = a * (scale / spectral_norm(a))
    b = np.linalg.pinv(a)
    p = idempotents.idempotent_from_matrix(b @ a, tol)
    q = idempotents.idempotent_from_matrix(np.eye(n) - a @ b, tol)
    return a, p, q, b


FLAGS = ("_outer_pql", "_l_inverse", "_strict_pq", "_strict_12")


@pytest.mark.parametrize("n, tol_name", GRID)
def test_each_result_flag_equals_its_exact_test(n, tol_name):
    tol = TOLERANCES[tol_name]
    stream = RandomStream(500 + n)
    cases = crossings = 0
    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        for scale in NORMS_A:
            r = stream.randint(1, n - 1)
            a, p, q, b = _strict_base(stream, n, r, scale, tol)
            direction = _rank_one(stream, n, spectral_norm(b))
            for flag in FLAGS:

                def flag_at(t, flag=flag):
                    return getattr(GInvResult(b + t * direction, a, p, q, tol), flag)

                scales = [0.0]
                with _exact_tests():
                    if flag_at(0.0) and not flag_at(1.0):
                        t_star = _crossing(flag_at, 1e-20, 1.0)
                        scales += [t_star * side for side in SIDES]
                        crossings += 1
                for t in scales:
                    certified, exact = _both(lambda: flag_at(t))
                    assert certified == exact, (flag, scale, t)
                    cases += 1
                    fresh = GInvResult(b + t * direction, a, p, q, tol)
                    assert fresh.flags[flag[1:]] == exact[1]
    assert crossings >= len(NORMS_A) * len(FLAGS) // 2
    assert spy.decided > 0, cases


@pytest.mark.parametrize("tol_name", list(TOLERANCES))
def test_a_result_flag_with_nan_raises_as_the_exact_test(tol_name):
    tol = TOLERANCES[tol_name]
    a, p, q, b = _strict_base(RandomStream(7), 4, 2, 1.0, tol)
    b = b.copy()
    b[0, 0] = np.nan
    for flag in FLAGS:
        certified, exact = _both(lambda: getattr(GInvResult(b, a, p, q, tol), flag))
        assert certified == exact and certified[0] == "LinAlgError"


@pytest.mark.parametrize("n, tol_name", GRID)
def test_the_update_agreement_test_equals_its_exact_test(n, tol_name):
    tol = TOLERANCES[tol_name]
    stream = RandomStream(600 + n)
    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        for scale in NORMS_A:
            b = stream.normal_matrix(n, n) * scale
            d = stream.normal_matrix(n, n) * (0.1 / scale)
            eye = np.eye(n, dtype=complex)
            right = _inverse(eye + d @ b, tol)
            left = _inverse(eye + b @ d, tol)
            tilt = _rank_one(stream, n, spectral_norm(left[1]))

            def updated(t):
                tilted = (left[0], left[1] + t * tilt)
                return _update(b, d, right, tilted, tol, lambda: spectral_norm(b)).tobytes()

            with _exact_tests():
                t_star = _crossing(lambda t: _outcome(lambda: updated(t))[0] == "value", 1e-20, 1e200)
            for t in [0.0] + [t_star * side for side in SIDES]:
                certified, exact = _both(lambda: updated(t))
                assert certified == exact, (scale, t)
                assert certified[0] in ("value", "RepresentationMismatch")
        nan_left = (left[0], np.full((n, n), np.nan, dtype=complex))
        certified, exact = _both(lambda: _update(b, d, right, nan_left, tol, lambda: spectral_norm(b)))
        assert certified == exact and certified[0] == "LinAlgError"
    assert spy.decided > 0


@pytest.mark.parametrize("kernel_side", [False, True], ids=["range-side", "kernel-side"])
@pytest.mark.parametrize("n, tol_name", GRID)
def test_the_side_condition_of_the_strict_variants_equals_its_exact_test(n, tol_name, kernel_side):
    tol = TOLERANCES[tol_name]
    stream = RandomStream(700 + n + 20 * kernel_side)
    crossings = 0
    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        for scale in NORMS_A:
            r = stream.randint(1, n - 1)
            a, p, q, _ = _strict_base(stream, n, r, scale, tol)
            moved = q if kernel_side else p
            # e = m x y^H (1 - m) keeps m + t e idempotent for every t, and
            # makes the side condition's residual the rank-one t (a m x)(...)
            # or t (m x)(... a)
            x = stream.normal_matrix(n, 1)
            y = stream.normal_matrix(n, 1)
            e = moved.m @ x @ y.conj().T @ (np.eye(n) - moved.m)
            e = e / spectral_norm(e)

            def report(t):
                m = idempotents.idempotent_from_matrix(moved.m + t * e, tol)
                kw = {"q_prime": m} if kernel_side else {"p_prime": m}
                return dumps(report_to_json(cor_12_variants(a, p, q, tol=tol, **kw)))

            def holds(t):
                return _outcome(lambda: report(t))[0] != "SideConditionViolated"

            scales = [0.0, 1e-6, 1.0]
            with _exact_tests():
                if not holds(1e12):  # the residual and the threshold both grow like t
                    t_star = _crossing(holds, 1e-20, 1e12)
                    scales += [t_star * side for side in SIDES]
                    crossings += 1
            for t in scales:
                certified, exact = _both(lambda: report(t))
                assert certified == exact, (scale, t)
    assert spy.decided > 0 and crossings >= 1


def _evaluation_case(stream, n, r, norm_a, tilt_kernel, tilt_image, s_min, skew):
    """(a, p, q) with the core M0 a U equal to a matrix C whose smallest
    singular value is s_min: a = (M0^H + W) C Y^H with W in col q and
    Y = U + Z, Z orthogonal to col p. The tilts turn ker a toward col p and
    a col(p) toward col q; ||a|| is about norm_a."""
    p = random_idempotent(n, r, skew, stream)
    q = random_idempotent(n, n - r, skew, stream)
    u = p.range.basis
    m0 = orthocomplement(q.range).basis.conj().T
    w = q.range.basis @ stream.normal_matrix(n - r, r) * tilt_image
    z = (np.eye(n) - u @ u.conj().T) @ stream.normal_matrix(n, r) * tilt_kernel
    v1 = np.linalg.qr(stream.normal_matrix(r, r))[0]
    v2 = np.linalg.qr(stream.normal_matrix(r, r))[0]
    sv = np.linspace(norm_a, s_min, r) if r > 1 else np.array([s_min])
    c = (v1 * sv) @ v2.conj().T
    a = (m0.conj().T + w) @ c @ (u + z).conj().T
    return a, p, q


def _decisions(a, p, q, tol):
    """trivial and direct_sum of a fresh evaluation whose core goes first."""
    e = _Evaluation(*_checked(a, p, q, tol), tol)
    e.exists(l_mode=False)
    return e._trivial.truth, e._direct_sum.truth, e.exists(l_mode=False)


@pytest.mark.parametrize("n, tol_name", GRID)
def test_the_core_margin_certificate_equals_the_stacked_svds(n, tol_name):
    tol = TOLERANCES[tol_name]
    stream = RandomStream(800 + n)
    certified_cases = verdicts = 0
    seen = set()
    for norm_a in NORMS_A:
        margin = gen_inverse._CORE_K * n * max(tol.tol_rank, _EPS) * max(norm_a, 1.0)
        cutoff = n * tol.tol_rank * max(norm_a, 1.0)
        targets = [margin * side for side in SIDES] + [cutoff * f for f in (0.5, 2.0, 10.0)] + [norm_a]
        for s_min in targets:
            if s_min > norm_a:
                continue
            for tilt_kernel, tilt_image in ((0.0, 0.0), (1.0, 1.0), (1e3, 0.0), (0.0, 1e3), (1e6, 1e6)):
                r = stream.randint(1, n - 1)
                a, p, q = _evaluation_case(stream, n, r, norm_a, tilt_kernel, tilt_image, s_min, 0.3)
                e = _Evaluation(*_checked(a, p, q, tol), tol)
                e.smin
                certified_cases += e._certified
                certified, exact = _both(lambda: _decisions(a, p, q, tol))
                assert certified == exact, (norm_a, s_min, tilt_kernel, tilt_image)
                if certified[0] == "value":
                    verdicts += 1
                    seen.add(certified[1][:2])
                    report = exists_outer_pql(a, p, q, tol)
                    assert (report.trivial_kernel_intersection, report.direct_sum) == exact[1][:2]
    assert verdicts > 0 and (True, True) in seen
    # s <= ||a||, so from tol_rank = 1/(K n) on the margin is out of reach
    assert certified_cases > 0 or gen_inverse._CORE_K * n * tol.tol_rank >= 1


def test_the_core_margin_certificate_sees_false_subspace_tests_on_the_grid():
    seen = set()
    for n in range(2, 9):
        stream = RandomStream(850 + n)
        for tol in TOLERANCES.values():
            for tilt in (1e6, 1e9):
                a, p, q = _evaluation_case(stream, n, stream.randint(1, n - 1), 1.0, tilt, tilt, 1.0, 0.3)
                certified, exact = _both(lambda: _decisions(a, p, q, tol))
                assert certified == exact
                seen.add(exact[1][:2])
    assert any(not all(v) for v in seen), seen


def test_an_evaluation_with_nan_or_an_overflowing_core_fails_as_the_exact_tests():
    stream = RandomStream(9)
    p = random_idempotent(4, 2, 0.3, stream)
    q = random_idempotent(4, 2, 0.3, stream)
    a = stream.normal_matrix(4, 4)
    a[0, 1] = np.nan
    certified, exact = _both(lambda: exists_outer_pql(a, p, q))
    assert certified == exact and certified[0] == "ValueError"
    # entries of +-1.7e308: the core overflows to NaN, and its SVD must not
    # raise LinAlgError ahead of the ValueError that a col(p) gives
    huge = np.where(np.random.default_rng(0).random((4, 4)) < 0.5, -1.7e308, 1.7e308).astype(complex)
    with np.errstate(all="ignore"):
        certified, exact = _both(lambda: exists_outer_pql(huge, p, q))
    assert certified == exact and certified[0] == "ValueError"


def test_solve_decomposes_the_core_first_also_where_the_inverse_does_not_exist():
    stream = RandomStream(14)
    a = stream.normal_matrix(4, 4)
    p = random_idempotent(4, 2, 0.3, stream)
    # col q holds a t for a t in col p, so a col(p) and col q do not split C^4
    image = a @ p.range.basis[:, :1]
    q = oblique(range_of(np.hstack([image, stream.normal_matrix(4, 1)])), range_of(stream.normal_matrix(4, 2)))
    e = _Evaluation(*_checked(a, p, q, DEFAULT_TOL), DEFAULT_TOL)
    with pytest.raises(NotExists):
        e.solve()
    assert not e._direct_sum.truth and "_core" in vars(e)  # solve() decomposes the core first too
    expecting = _Evaluation(*_checked(a, p, q, DEFAULT_TOL), DEFAULT_TOL)
    with pytest.raises(NotExists):
        expecting.outer
    assert "_core" in vars(expecting) and not expecting._certified
    assert not exists_outer_pql(a, p, q).exists


def test_compute_requests_whose_inverse_exists_run_no_subspace_test(monkeypatch):
    calls = []
    draws = [draw_solvable(seed) for seed in range(20)]
    for name in ("_meet", "map_subspace", "_direct_sum"):
        original = getattr(gen_inverse, name)
        monkeypatch.setattr(gen_inverse, name, lambda *args, _name=name, _f=original, **kw: calls.append(_name) or _f(*args, **kw))
    for a, p, q in draws:
        compute_outer_pql(a, p, q)
    assert calls == []


def test_the_inner_outer_report_keeps_its_certificate_where_the_outer_test_fails():
    # col p at an angle of 0.01 to ker a, and a of singular values 1 and 1e-9:
    # a col(p) keeps a direction of about 1e-11 only, which the outer test's
    # direct sum drops, while the core margin passes tol_inv ||a||
    a = np.diag([1.0, 1e-9, 0.0]).astype(complex)
    pb = np.array([[1.0, 0.0], [0.0, np.sin(0.01)], [0.0, np.cos(0.01)]])
    qb = np.array([[0.0], [0.3], [1.0]])
    p, q = pb @ np.linalg.pinv(pb), qb @ np.linalg.pinv(qb)
    assert not exists_outer_pql(a, p, q).exists
    report = exists_l(a, p, q)
    assert report.exists and report.certificates is not None
    # compute_l answers from the same solve: the certificate, with a b a = a
    result = compute_l(a, p, q)
    np.testing.assert_array_equal(result.b, report.certificates[0])
    assert result.flags["l_inverse"]


def _inner_outer_answers(a, p, q, tol):
    """(exists_l's verdict, whether a b a = a holds on its certificate,
    whether compute_l succeeds)."""
    report = exists_l(a, p, q, tol)
    aba = report.exists and classify_strict(a, p, q, report.certificates[0], tol).flags["l_inverse"]
    try:
        result = compute_l(a, p, q, tol)
    except NotExists:
        return report.exists, aba, False
    np.testing.assert_array_equal(result.b, report.certificates[0])
    return report.exists, aba, True


@pytest.mark.parametrize("theorem", ["tm2.7", "lemma2.10", "lemas1"])
def test_compute_l_succeeds_exactly_where_exists_l_holds_with_aba_a(theorem):
    config = EnsembleConfig(n_range=(2, 6), count=30, seed=35, theorems=(theorem,), perturbation_magnitudes=(0.0, 1e-3, 0.5))
    seen = set()
    for index in range(config.count):
        s = gen_scenario(config, index, theorem)
        for x in (s.a, s.a + s.delta_a):
            exists, aba, succeeded = _inner_outer_answers(x, s.p, s.q, s.tol)
            assert succeeded == (exists and aba)
            seen.add(succeeded)
    assert seen == {True, False}


ALL_IDS = tuple(sorted(set(CHECKS) - {"selftest-bad-bound"}))


def _campaign_texts(seed):
    """The campaign JSON without wall_time, the CSV and every report's JSON."""
    config = EnsembleConfig(n_range=(2, 6), rank_range=(1, 5), count=10, seed=seed, theorems=ALL_IDS)
    reports = []
    result = run_campaign(config, on_report=lambda th, i, kind, r: reports.append((th, i, r)))
    campaign = campaign_report_to_json(result)
    campaign.pop("wall_time")
    csv = bound_reports_to_csv([r for _, _, r in reports if r.kind == "bound"])
    return dumps(campaign), csv, [(th, i, dumps(report_to_json(r))) for th, i, r in reports]


@pytest.fixture(scope="module")
def campaign_outputs():
    return {seed: _campaign_texts(seed) for seed in (21, 22)}


def _without_decisions(text):
    report = json.loads(text)
    del report["cutoffs"], report["closest_call"]
    return dumps(report)


# The ids whose conditions include an existence test of a + delta_a, which
# the core-margin certificate settles when it can.
_CERTIFIABLE = {"thm2.4", "tm2.7"}


@pytest.mark.parametrize("seed", [21, 22])
def test_a_campaign_is_byte_identical_with_the_exact_tests_only(exact_only, campaign_outputs, seed):
    assert len(ALL_IDS) == 15
    campaign, csv, reports = _campaign_texts(seed)
    assert (campaign, csv) == campaign_outputs[seed][:2]
    assert [r[:2] for r in reports] == [r[:2] for r in campaign_outputs[seed][2]]
    for (theorem, _, text), (_, _, expected) in zip(reports, campaign_outputs[seed][2]):
        if theorem in _CERTIFIABLE:
            text, expected = _without_decisions(text), _without_decisions(expected)
        assert text == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_basis_with_nan_or_inf_is_not_orthonormal(bad):
    basis = np.eye(3, 2, dtype=complex)
    basis[2, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not orthonormal"):
        subspaces.Subspace(3, basis)
