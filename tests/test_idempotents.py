"""Idempotent construction, membership characterizations, perturbation."""

import math

import numpy as np
import pytest

import ginv.idempotents as idempotents
from ginv.errors import NotComplementary, PerturbationTooLarge
from ginv.idempotents import (
    Idempotent,
    _perturb_idempotent,
    idempotent_from_matrix,
    oblique,
    perturb_idempotent,
    projector,
    random_idempotent,
)
from ginv.linalg import DEFAULT_TOL, orth_basis, rank, spectral_norm
from ginv.randomstream import RandomStream
from ginv.subspaces import Subspace, direct_sum_is_all, gap, kernel_of, range_of, subspace_from_columns


def span(*cols):
    return subspace_from_columns(np.column_stack([np.array(c, dtype=complex) for c in cols]))


def test_projector_onto_coordinate_plane():
    p = projector(span([1, 0, 0], [0, 1, 0]))
    assert spectral_norm(p.m - np.diag([1.0, 1.0, 0.0])) <= 1e-14
    assert p.rank == 2
    assert spectral_norm(p.m - p.m.conj().T) <= 1e-14
    assert spectral_norm(p.m) == pytest.approx(1.0, abs=1e-12)


def test_projector_of_zero_subspace():
    from ginv.subspaces import zero_subspace

    p = projector(zero_subspace(3))
    assert spectral_norm(p.m) == 0.0
    assert p.rank == 0


def test_oblique_tilted_kernel():
    t = span([1, 0])
    s = span([1, 1])
    e = oblique(t, s)
    assert spectral_norm(e.m - np.array([[1.0, -1.0], [0.0, 0.0]])) <= 1e-12


def test_oblique_orthogonal_case_matches_projector():
    e = oblique(span([1, 0, 0], [0, 1, 0]), span([0, 0, 1]))
    assert spectral_norm(e.m - np.diag([1.0, 1.0, 0.0])) <= 1e-12


def test_oblique_rejects_non_complementary():
    with pytest.raises(NotComplementary):
        oblique(span([1, 0]), span([1, 0]))
    with pytest.raises(NotComplementary):
        oblique(span([1, 0, 0]), span([0, 1, 0]))


def test_oblique_unique_for_rotated_bases():
    stream = RandomStream(5)
    n = 5
    t = subspace_from_columns(stream.normal_matrix(n, 2))
    s = subspace_from_columns(stream.normal_matrix(n, 3))
    e1 = oblique(t, s)
    # re-present the same pair through mixed basis columns
    from ginv.subspaces import Subspace

    u1, _ = np.linalg.qr(stream.normal_matrix(2, 2))
    u2, _ = np.linalg.qr(stream.normal_matrix(3, 3))
    e2 = oblique(Subspace(n, t.basis @ u1), Subspace(n, s.basis @ u2))
    assert spectral_norm(e1.m - e2.m) <= 1e-10


def test_oblique_norm_grows_as_angle_closes():
    t = span([1, 0])
    norms = []
    for theta in (math.pi / 2, math.pi / 4, math.pi / 8, math.pi / 16):
        s = span([math.cos(theta), math.sin(theta)])
        e = oblique(t, s)
        norms.append(spectral_norm(e.m))
        assert norms[-1] == pytest.approx(1.0 / math.sin(theta), rel=1e-10)
    assert norms == sorted(norms)


def test_idempotent_from_matrix_validates():
    e = idempotent_from_matrix(np.array([[1.0, -1.0], [0.0, 0.0]]))
    assert e.rank == 1
    assert gap(e.range, span([1, 0])).gap <= 1e-12
    assert gap(e.kernel, span([1, 1])).gap <= 1e-12
    with pytest.raises(ValueError):
        idempotent_from_matrix(np.diag([1.0, 0.5]))
    with pytest.raises(ValueError):
        idempotent_from_matrix(np.zeros((2, 3)))


def test_a_residual_that_overflows_is_not_idempotent():
    # m^2 - m = diag(inf, 0) has a NaN norm, which fails the rule rather than passing it
    with pytest.raises(ValueError, match="not idempotent"):
        idempotent_from_matrix(np.diag([1e200, 0.0]))
    # an exactly idempotent m of norm 1e200 is still one: its residual is exactly 0
    e = idempotent_from_matrix(np.array([[1.0, 1e200], [0.0, 0.0]]))
    assert e.rank == 1 and e.norm == pytest.approx(1e200)


def test_an_idempotency_cutoff_past_double_range_does_not_pass_every_residual():
    # eigenvalues 1 and 1e150: the residual 1e305 is above tol_eq ||m||^2 =
    # 1e301, which read inf as tol_eq (1 + ||m||^2) and passed it
    with pytest.raises(ValueError, match="not idempotent: \\|\\|m\\^2 - m\\|\\| = 1.000e\\+305"):
        idempotent_from_matrix(np.array([[1.0, 1e155], [0.0, 1e150]]))


def test_complement_swaps_range_and_kernel():
    p = random_idempotent(4, 2, skew=0.5, seed=3)
    c = p.complement()
    assert spectral_norm(c.m - (np.eye(4) - p.m)) <= 1e-14
    assert gap(c.range, p.kernel).gap <= 1e-12
    assert gap(c.kernel, p.range).gap <= 1e-12
    back = c.complement()
    assert spectral_norm(back.m - p.m) <= 1e-14


def test_random_idempotent_edge_ranks():
    assert spectral_norm(random_idempotent(3, 0).m) == 0.0
    assert spectral_norm(random_idempotent(3, 3).m - np.eye(3)) == 0.0


def test_random_idempotent_skewed():
    p = random_idempotent(4, 2, skew=1.0, seed=7)
    nm = spectral_norm(p.m)
    assert spectral_norm(p.m @ p.m - p.m) <= 1e-12 * (1.0 + nm * nm)
    assert p.rank == 2
    assert nm > 1.0 + 1e-6  # genuinely oblique


def test_random_idempotent_deterministic():
    p1 = random_idempotent(5, 2, skew=0.4, seed=11)
    p2 = random_idempotent(5, 2, skew=0.4, seed=11)
    assert np.array_equal(p1.m, p2.m)


def test_random_idempotent_refuses_a_skew_beyond_the_rank_cutoff():
    # n tol_rank ||p||_F must stay below 1 for p to keep rank r; the largest
    # skew also overflows ||p||_F
    assert random_idempotent(5, 2, skew=1e6, seed=3).rank == 2
    for skew in (1e10, 1e200):
        with pytest.raises(PerturbationTooLarge, match="too extreme"):
            random_idempotent(5, 2, skew=skew, seed=3)


def test_random_idempotent_zero_skew_is_hermitian():
    p = random_idempotent(5, 3, skew=0.0, seed=2)
    assert spectral_norm(p.m - p.m.conj().T) <= 1e-12


def test_left_membership_characterizes_range():
    stream = RandomStream(13)
    for i in range(10):
        n = stream.randint(2, 6)
        r = stream.randint(1, n - 1)
        p = random_idempotent(n, r, skew=0.5, seed=stream.spawn(i))
        # columns inside the range are fixed by p
        x = p.range.basis @ stream.normal_matrix(r, 3)
        assert spectral_norm(p.m @ x - x) <= 1e-10 * max(spectral_norm(x), 1.0) * spectral_norm(p.m)
        # and a fixed matrix has its columns inside the range
        y = p.m @ stream.normal_matrix(n, 2)
        assert gap(range_of(y), p.range).delta_mn <= 1e-9


def test_right_membership_characterizes_kernel():
    stream = RandomStream(15)
    for i in range(10):
        n = stream.randint(2, 6)
        r = stream.randint(1, n - 1)
        p = random_idempotent(n, r, skew=0.5, seed=stream.spawn(i))
        x = stream.normal_matrix(3, n) @ p.m
        # x p = x, equivalently x kills the kernel of p
        assert spectral_norm(x @ p.m - x) <= 1e-9 * max(spectral_norm(x), 1.0) * spectral_norm(p.m)
        assert spectral_norm(x @ p.kernel.basis) <= 1e-9 * max(spectral_norm(x), 1.0)


def test_kernel_equals_complement_range():
    p = random_idempotent(5, 2, skew=0.7, seed=9)
    one_minus = np.eye(5) - p.m
    assert gap(p.kernel, range_of(one_minus, scale=max(spectral_norm(one_minus), 1.0))).gap <= 1e-9
    assert gap(p.range, kernel_of(one_minus, scale=max(spectral_norm(one_minus), 1.0))).gap <= 1e-9


def test_perturb_zero_magnitude_is_identity_operation():
    p = random_idempotent(4, 2, seed=1)
    assert perturb_idempotent(p, 0.0) is p


def test_perturb_respects_requested_distance():
    p = idempotent_from_matrix(np.diag([1.0, 0.0]))
    moved = perturb_idempotent(p, 0.1, seed=3)
    d = spectral_norm(moved.m - p.m)
    assert 0.05 <= d <= 0.1 + 1e-9
    nm = spectral_norm(moved.m)
    assert spectral_norm(moved.m @ moved.m - moved.m) <= 1e-10 * (1.0 + nm * nm)


def test_perturb_preserves_rank_and_moves_subspaces_little():
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0]))
    moved = perturb_idempotent(p, 0.05, seed=4)
    assert moved.rank == 2
    d = spectral_norm(moved.m - p.m)
    assert d <= 0.05 + 1e-9
    assert gap(moved.range, p.range).gap <= d + 1e-12


def test_perturb_mode_pins_the_other_subspace():
    p = random_idempotent(4, 2, skew=0.3, seed=6)
    rng_only = perturb_idempotent(p, 0.08, seed=5, mode="range")
    assert gap(rng_only.kernel, p.kernel).gap <= 1e-12
    assert gap(rng_only.range, p.range).gap > 1e-6
    ker_only = perturb_idempotent(p, 0.08, seed=5, mode="kernel")
    assert gap(ker_only.range, p.range).gap <= 1e-12
    assert gap(ker_only.kernel, p.kernel).gap > 1e-6


def test_perturb_input_validation():
    p = random_idempotent(3, 1, seed=1)
    with pytest.raises(ValueError):
        perturb_idempotent(p, -0.1)
    with pytest.raises(ValueError):
        perturb_idempotent(p, 0.1, mode="sideways")
    full = random_idempotent(3, 3)
    assert perturb_idempotent(full, 0.5) is full
    skewed = random_idempotent(4, 2, skew=0.3, seed=1)
    for bad in (float("nan"), float("inf"), "0.1", True, np.bool_(True), 10**400):
        with pytest.raises(ValueError):
            perturb_idempotent(skewed, bad)
    moved = perturb_idempotent(skewed, np.float64(0.1), seed=2)
    assert np.array_equal(moved.m, perturb_idempotent(skewed, 0.1, seed=2).m)
    assert perturb_idempotent(skewed, 0, seed=2) is skewed


def test_an_unknown_mode_is_rejected_before_any_early_return():
    skewed = random_idempotent(4, 2, skew=0.3, seed=1)
    # a zero magnitude, and rank 0 and rank n, return p unchanged for a known mode
    for p, magnitude in ((skewed, 0.0), (random_idempotent(3, 0), 0.1), (random_idempotent(3, 3), 0.1)):
        assert perturb_idempotent(p, magnitude, mode="range") is p
        with pytest.raises(ValueError, match="unknown mode"):
            perturb_idempotent(p, magnitude, mode="bogus")


# The magnitudes of the move contract: 1e6 is far beyond any base's norm.
FAR = 1e6
MAGNITUDES = (0.5, 0.05, 1e-3, 1e-6, 5.0, FAR)


def _pin_gap_bound(moved, mag):
    """The gap allowed between the pinned subspace of a move and p's.

    idempotent_from_matrix reads it from an SVD of p', whose backward error
    is of order eps ||p'||, and the zero singular values of an idempotent lie
    at least 1 below the others, so the basis it gives turns by about
    eps ||p'|| (Wedin's sin-theta theorem): 1e-12 up to magnitude 5, and
    1e-15 ||p'|| (about 4.5 eps ||p'||) beyond.
    """
    return 1e-12 if mag <= 5.0 else 1e-15 * moved.norm


@pytest.mark.parametrize("mode", ["both", "range", "kernel"])
def test_perturb_contract_on_seeded_grid(mode):
    for n in range(2, 7):
        for r in range(1, n):
            p = random_idempotent(n, r, skew=0.3, seed=100 * n + r)
            seed = 1000 * n + r
            for mag in MAGNITUDES:
                moved = perturb_idempotent(p, mag, seed=seed, mode=mode)
                d = spectral_norm(moved.m - p.m)
                assert d <= mag, (n, r, mag)
                # At mag 1e-6 the distance, a difference of matrices of norm
                # about 1, carries roundoff near 1e-10 * mag, so only the
                # bound is asked for there.
                if mag >= 1e-3:
                    assert mag - d <= 1e-12 * mag, (n, r, mag)
                nm = spectral_norm(moved.m)
                assert spectral_norm(moved.m @ moved.m - moved.m) <= 1e-10 * (1.0 + nm * nm)
                assert moved.rank == r
                if mode == "range":
                    assert gap(moved.kernel, p.kernel).gap <= _pin_gap_bound(moved, mag), (n, r, mag)
                    assert spectral_norm(moved.m @ p.kernel.basis) <= 1e-10 * nm
                if mode == "kernel":
                    assert gap(moved.range, p.range).gap <= _pin_gap_bound(moved, mag), (n, r, mag)
                    assert spectral_norm(moved.m @ p.range.basis - p.range.basis) <= 1e-10 * nm
                again = perturb_idempotent(p, mag, seed=seed, mode=mode)
                assert np.array_equal(again.m, moved.m)


def test_the_taylor_form_of_the_chart_is_its_product_form_to_roundoff():
    # (1 + tR)(p + tK)(1 - tR) = p + t(K + R) + t^2(RK - KR) - t^3 RKR
    for n in range(2, 7):
        for r in range(1, n):
            p = random_idempotent(n, r, skew=0.3, seed=100 * n + r).m
            g = RandomStream(1000 * n + r).normal_matrix(2 * n, n)
            eye = np.eye(n)
            rm = (eye - p) @ g[:n] @ p
            km = p @ g[n:] @ (eye - p)
            rm, km = rm / np.linalg.norm(rm), km / np.linalg.norm(km)
            chart = idempotents._chart(p, km, rm)
            for t in (1e-3, 0.5, 3.0, 40.0):
                product = (eye + t * rm) @ (p + t * km) @ (eye - t * rm)
                scale = (1.0 + t) ** 3 * max(spectral_norm(p), 1.0)
                assert spectral_norm(chart(t) - product) <= 1e-14 * scale, (n, r, t)


@pytest.mark.parametrize("mode", ["both", "range", "kernel"])
def test_perturb_core_hands_back_the_distance_it_measured(mode):
    for n in range(2, 7):
        for r in range(n + 1):
            p = random_idempotent(n, r, skew=0.3, seed=200 * n + r)
            for mag in (0.0, 0.5, 0.05, 1e-6, FAR):
                moved, dist = _perturb_idempotent(p, mag, 3000 * n + r, DEFAULT_TOL, mode)
                public = perturb_idempotent(p, mag, seed=3000 * n + r, mode=mode)
                assert moved.m.tobytes() == public.m.tobytes()
                assert dist == spectral_norm(moved.m - p.m)  # exact float equality
                assert (moved is p) == (mag == 0.0 or r in (0, n))


def test_a_move_takes_its_bases_from_its_matrix():
    # the rule by which a scenario file decodes the moved idempotent
    p = random_idempotent(5, 2, skew=0.3, seed=8)
    for mode in ("both", "range", "kernel"):
        moved = perturb_idempotent(p, 0.3, seed=9, mode=mode)
        again = idempotent_from_matrix(moved.m)
        assert _same_bytes(moved.range.basis, again.range.basis)
        assert _same_bytes(moved.kernel.basis, again.kernel.basis)


def test_a_request_beyond_the_rank_cutoff_is_refused():
    # tol_rank n ||p'|| must stay below 1, the least nonzero singular value
    # of an idempotent, for p' to keep the rank of p
    p = random_idempotent(6, 2, skew=0.3, seed=4)
    limit = 1.0 / (6 * DEFAULT_TOL.tol_rank) - p.norm
    for mode in ("both", "range", "kernel"):
        assert perturb_idempotent(p, 0.5 * limit, seed=5, mode=mode).rank == 2
        with pytest.raises(PerturbationTooLarge):
            perturb_idempotent(p, limit, seed=5, mode=mode)


def _directions(p, seed):
    """R = (1 - p) G1 p and K = p G2 (1 - p) from one 2n x n draw, and the stream after it."""
    n = p.n
    stream = RandomStream(seed)
    g = stream.normal_matrix(2 * n, n)
    eye = np.eye(n)
    return (eye - p.m) @ g[:n] @ p.m, p.m @ g[n:] @ (eye - p.m), stream


@pytest.mark.parametrize("mode", ["range", "kernel"])
def test_one_subspace_moves_are_the_closed_form(mode):
    for n in range(2, 7):
        for r in range(1, n):
            p = random_idempotent(n, r, skew=0.3, seed=40 * n + r)
            rng, ker, ref = _directions(p, 500 * n + r)
            step = rng if mode == "range" else ker
            stream = RandomStream(500 * n + r)
            moved, dist = _perturb_idempotent(p, 0.2, stream, DEFAULT_TOL, mode)
            assert stream._state == ref._state
            # p' - p is the step scaled to the measured distance
            s = dist / spectral_norm(step)
            assert spectral_norm(moved.m - p.m - s * step) <= 1e-14
            assert spectral_norm(step @ step) <= 1e-12 * spectral_norm(step) ** 2


def test_both_moves_lie_on_the_chart():
    for n in range(2, 7):
        for r in range(1, n):
            p = random_idempotent(n, r, skew=0.3, seed=60 * n + r)
            rng, ker, _ = _directions(p, 700 * n + r)
            rng, ker = rng / np.linalg.norm(rng), ker / np.linalg.norm(ker)
            eye = np.eye(n)
            for mag in (1e-4, 0.3, 5.0):
                moved = perturb_idempotent(p, mag, seed=700 * n + r)
                # p (p(t) - p) (1 - p) = t K recovers the chart parameter
                t = np.vdot(ker, p.m @ (moved.m - p.m) @ (eye - p.m)).real
                chart = (eye + t * rng) @ (p.m + t * ker) @ (eye - t * rng)
                assert spectral_norm(chart - moved.m) <= 1e-13 * max(1.0, spectral_norm(moved.m)) ** 2, (n, r, mag)
            for t in (1e-3, 0.5, 3.0, 40.0):
                m = (eye + t * rng) @ (p.m + t * ker) @ (eye - t * rng)
                nm = spectral_norm(m)
                assert spectral_norm(m @ m - m) <= 1e-13 * (1.0 + nm * nm)
                assert spectral_norm(p.m @ (m - p.m) @ (eye - p.m) - t * ker) <= 1e-13 * (1.0 + nm) * (1.0 + t)


def test_random_idempotent_is_the_closed_form():
    for n in range(2, 7):
        for r in range(1, n):
            for skew in (0.0, 0.3):
                stream = RandomStream(80 * n + r)
                g = stream.normal_matrix(n, r)
                basis = np.linalg.qr(g, mode="complete")[0]
                t, c = basis[:, :r], basis[:, r:]
                z = stream.normal_matrix(r, n - r)
                p = random_idempotent(n, r, skew, seed=80 * n + r)
                want = t @ t.conj().T - skew * (t @ z) @ c.conj().T if skew else t @ t.conj().T
                assert _same_bytes(p.m, want)
                assert gap(p.range, subspace_from_columns(g)).gap <= 1e-12
                assert gap(p.kernel, subspace_from_columns(c + skew * t @ z)).gap <= 1e-12
                again = idempotent_from_matrix(p.m)
                assert _same_bytes(p.range.basis, again.range.basis)
                assert _same_bytes(p.kernel.basis, again.kernel.basis)


def _oblique_matrix_rank_first(tb, sb, tol):
    """The construction with the rank test of [tb sb] run before the solve,
    as it was before the norm certificate."""
    n, r = tb.shape
    k = sb.shape[1]
    if r + k != n:
        return None
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    if k == 0:
        return np.eye(n, dtype=complex)
    x = np.hstack([tb, sb])
    if rank(x, tol) != n:
        return None
    d = np.zeros((n, n), dtype=complex)
    d[:r, :r] = np.eye(r)
    return np.linalg.solve(x.T, (x @ d).T).T


def _same_verdict_and_matrix(tb, sb):
    n = tb.shape[0]
    try:
        got = oblique(Subspace(n, tb), Subspace(n, sb)).m
    except NotComplementary:
        got = None
    want = _oblique_matrix_rank_first(tb, sb, DEFAULT_TOL)
    assert (got is None) == (want is None)
    assert got is None or np.array_equal(got, want)
    return want


def test_oblique_matrix_matches_the_rank_first_rule_on_a_seeded_grid():
    for n in range(2, 7):
        for r in range(n + 1):
            for skew in (0.0, 0.3):
                p = random_idempotent(n, r, skew=skew, seed=10 * n + r)
                for mag in (0.0, 1e-3, 0.1, 0.5, 2.0, 8.0):
                    moved = perturb_idempotent(p, mag, seed=17 * n + r)
                    assert _same_verdict_and_matrix(moved.range.basis, moved.kernel.basis) is not None


def _same_bytes(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _tilted_pair(n, r, phi, stream):
    """Orthonormal bases of a rank-r range and a kernel whose least angle to it is phi."""
    q, _ = np.linalg.qr(stream.normal_matrix(n, n))
    sb = q[:, r:].copy()
    sb[:, 0] = math.cos(phi) * q[:, 0] + math.sin(phi) * q[:, r]
    return q[:, :r], sb


def test_oblique_matrix_matches_the_rank_first_rule_at_the_cutoff():
    # The rank cutoff sits near phi = 2e-10 n and the certificate near
    # phi = 6e-10 n, so the pairs below both fail the certificate, and the
    # rank test then decides, both ways.
    stream = RandomStream(23)
    outcomes = set()
    for n in range(2, 7):
        for r in range(1, n):
            for phi in [0.0] + list(n * np.geomspace(1e-11, 1e-7, 41)):
                tb, sb = _tilted_pair(n, r, phi, stream)
                m = _same_verdict_and_matrix(tb, sb)
                certified = m is not None and 4 * n * DEFAULT_TOL.tol_rank * np.linalg.norm(m) <= 1
                outcomes.add("singular" if m is None else "certified" if certified else "rank test")
    assert outcomes == {"singular", "certified", "rank test"}


def test_a_move_makes_one_svd_per_distance_and_one_to_validate(monkeypatch):
    p = random_idempotent(6, 3, skew=0.3, seed=4)
    counts = {"svd": 0, "distance": 0}
    svd, norm = np.linalg.svd, idempotents.spectral_norm

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counting_norm(x):
        counts["distance"] += 1
        return norm(x)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(idempotents, "spectral_norm", counting_norm)
    for mode in ("both", "range", "kernel"):
        counts.update(svd=0, distance=0)
        perturb_idempotent(p, 0.5, seed=7, mode=mode)
        # a one-subspace move measures its step and its distance
        assert counts["distance"] >= 3 if mode == "both" else counts["distance"] == 2
        assert counts["svd"] == counts["distance"] + 1, mode


# The mean builds per "both" search over the grid of
# test_perturb_contract_on_seeded_grid (n 2-6, every rank from 1 to n - 1),
# per magnitude: 5.933, 4.933, 4.067, 7.533, 9.200 and 16.400 since the
# first step jumps to the first-order prediction of the request; 6.267,
# 5.800, 4.933, 8.133, 9.200 and 16.400 while it jumped to the last point
# of the doubling grid below that prediction. The Cayley rotations took
# 6.356, 5.333, 4.911 and 7.800 for the first four over all three modes (a
# one-subspace move now measures two norms and builds nothing), and 5.0 and
# 1e6 lay beyond their reach. At 1e-6 roundoff in the distance exceeds the
# stop band, so that count depends on the last bits of the distances and
# its ceiling leaves room.
_BUILDS_PER_SEARCH = {0.5: 5.94, 0.05: 4.94, 1e-3: 4.07, 1e-6: 12.0, 5.0: 9.2, FAR: 16.4}


def test_builds_per_search_on_the_seeded_grid(monkeypatch):
    count = [0]
    norm = idempotents.spectral_norm

    def counting_norm(x):
        count[0] += 1
        return norm(x)

    monkeypatch.setattr(idempotents, "spectral_norm", counting_norm)
    builds = {mag: [] for mag in _BUILDS_PER_SEARCH}
    for mode in ("both", "range", "kernel"):
        for n in range(2, 7):
            for r in range(1, n):
                p = random_idempotent(n, r, skew=0.3, seed=100 * n + r)
                for mag in builds:
                    count[0] = 0
                    perturb_idempotent(p, mag, seed=1000 * n + r, mode=mode)
                    if mode == "both":
                        builds[mag].append(count[0])
                    else:  # the step's norm and the distance, never a second aim
                        assert count[0] == 2, (mode, n, r, mag)
    for mag, ceiling in _BUILDS_PER_SEARCH.items():
        assert len(builds[mag]) == 15
        assert sum(builds[mag]) / 15 <= ceiling, mag


def _l_aligned_pairs():
    """(range, kernel) candidates as harness._base_l_aligned draws them, and
    pairs tilted across the rank cutoff."""
    stream = RandomStream(29)
    for n in range(2, 7):
        for r in range(1, n):
            for _ in range(4):
                a = stream.normal_matrix(n, r) @ stream.normal_matrix(r, n)
                yield Subspace(n, orth_basis(stream.normal_matrix(n, n - r))), range_of(a, scale=max(spectral_norm(a), 1.0))
            for phi in [0.0] + list(n * np.geomspace(1e-11, 1e-7, 9)):
                sb, tb = _tilted_pair(n, n - r, phi, stream)
                yield Subspace(n, sb), Subspace(n, tb)


def test_oblique_rejects_exactly_the_pairs_direct_sum_is_all_rejects():
    # harness._base_l_aligned takes a NotComplementary from oblique as its
    # rejected draw, in place of a direct_sum_is_all pre-check
    outcomes = set()
    for t, s in _l_aligned_pairs():
        try:
            oblique(t, s)
            built = True
        except NotComplementary:
            built = False
        assert built == direct_sum_is_all(t, s)
        outcomes.add(built)
    assert outcomes == {True, False}
