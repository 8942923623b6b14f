"""Idempotent construction, membership characterizations, perturbation."""

import math

import numpy as np
import pytest

import ginv.idempotents as idempotents
from ginv.errors import NotComplementary
from ginv.idempotents import (
    Idempotent,
    _cayley,
    _oblique_matrix,
    _perturb_idempotent,
    idempotent_from_matrix,
    oblique,
    perturb_idempotent,
    projector,
    random_idempotent,
)
from ginv.linalg import DEFAULT_TOL, rank, spectral_norm
from ginv.randomstream import RandomStream
from ginv.subspaces import gap, kernel_of, range_of, subspace_from_columns


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


SATURATING = 1e6


@pytest.mark.parametrize("mode", ["both", "range", "kernel"])
def test_perturb_contract_on_seeded_grid(mode):
    # A request the rotation family cannot reach returns its farthest sampled
    # point, the same one for every such request with the same seed. With
    # these seeds, 5.0 is out of reach on 28 of the 45 draws.
    for n in range(2, 7):
        for r in range(1, n):
            p = random_idempotent(n, r, skew=0.3, seed=100 * n + r)
            seed = 1000 * n + r
            far = perturb_idempotent(p, SATURATING, seed=seed, mode=mode)
            assert spectral_norm(far.m - p.m) < SATURATING * (1 - 1e-8)
            for mag in (0.5, 0.05, 1e-3, 1e-6, 5.0, SATURATING):
                moved = perturb_idempotent(p, mag, seed=seed, mode=mode)
                d = spectral_norm(moved.m - p.m)
                assert d <= mag, (n, r, mag)
                if d < mag * (1 - 1e-8):
                    assert np.array_equal(moved.m, far.m), (n, r, mag)
                # A result short of the request lands within 1e-12 * mag of it.
                # At mag 1e-6 the distance, a difference of matrices of norm
                # about 1, carries roundoff near 1e-10 * mag, so the search
                # there ends once the sampled distances stop rising with the
                # angle instead.
                if mag >= 1e-3 and not np.array_equal(moved.m, far.m):
                    assert mag - d <= 1e-12 * mag, (n, r, mag)
                nm = spectral_norm(moved.m)
                assert spectral_norm(moved.m @ moved.m - moved.m) <= 1e-10 * (1.0 + nm * nm)
                assert moved.rank == r
                if mode == "range":
                    assert gap(moved.kernel, p.kernel).gap <= 1e-12
                    assert spectral_norm(moved.m @ p.kernel.basis) <= 1e-10 * nm
                if mode == "kernel":
                    assert gap(moved.range, p.range).gap <= 1e-12
                    assert spectral_norm(moved.m @ p.range.basis - p.range.basis) <= 1e-10 * nm
                again = perturb_idempotent(p, mag, seed=seed, mode=mode)
                assert np.array_equal(again.m, moved.m)


@pytest.mark.parametrize("mode", ["both", "range", "kernel"])
def test_perturb_core_hands_back_the_distance_it_measured(mode):
    for n in range(2, 7):
        for r in range(n + 1):
            p = random_idempotent(n, r, skew=0.3, seed=200 * n + r)
            for mag in (0.0, 0.5, 0.05, 1e-6, SATURATING):
                moved, dist = _perturb_idempotent(p, mag, 3000 * n + r, DEFAULT_TOL, mode)
                public = perturb_idempotent(p, mag, seed=3000 * n + r, mode=mode)
                assert moved.m.tobytes() == public.m.tobytes()
                assert dist == spectral_norm(moved.m - p.m)  # exact float equality
                assert (moved is p) == (mag == 0.0 or r in (0, n))


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
    got = _oblique_matrix(tb, sb, DEFAULT_TOL)
    want = _oblique_matrix_rank_first(tb, sb, DEFAULT_TOL)
    assert (got is None) == (want is None)
    assert got is None or np.array_equal(got, want)
    return want


def test_oblique_matrix_matches_the_rank_first_rule_on_a_seeded_grid():
    stream = RandomStream(17)
    for n in range(2, 7):
        for r in range(n + 1):
            for skew in (0.0, 0.3):
                p = random_idempotent(n, r, skew=skew, seed=10 * n + r)
                rotate = _cayley(stream, (p.range.basis, p.kernel.basis), (True, True))
                for theta in (0.0, 1e-3, 0.1, 0.5, 2.0, 8.0):
                    assert _same_verdict_and_matrix(*rotate(theta)) is not None


def _cayley_one_side_at_a_time(stream, bases, moves):
    """The rotations of a search as first built, the reference for `_cayley`:
    one n x n draw per side, one eigh per moving side and a Cayley factor
    worked out per side at every angle."""
    n = bases[0].shape[0]
    rotations = []
    for basis, moves_it in zip(bases, moves):
        g = stream.normal_matrix(n, n)
        if not moves_it:
            rotations.append(lambda theta, basis=basis: basis)
            continue
        w, v = np.linalg.eigh(1j * (g - g.conj().T))
        nk = max(-w[0], w[-1])
        half = -0.5j * (w / nk if nk > 0 else w)
        c = v.conj().T @ basis
        rotations.append(lambda theta, v=v, half=half, c=c: v @ (((1 + theta * half) / (1 - theta * half))[:, None] * c))
    return lambda theta: [rotate(theta) for rotate in rotations]


_MOVES = {"both": (True, True), "range": (True, False), "kernel": (False, True)}


def _same_bytes(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("mode", list(_MOVES))
def test_one_pass_rotations_match_the_one_side_at_a_time_construction(mode):
    for n in range(2, 7):
        for r in range(1, n):
            p = random_idempotent(n, r, skew=0.3, seed=40 * n + r)
            bases = (p.range.basis, p.kernel.basis)
            fast, ref = RandomStream(500 * n + r), RandomStream(500 * n + r)
            if r % 2:  # start from a position with a pending spare normal
                assert fast.normal() == ref.normal()
            rotate = _cayley(fast, bases, _MOVES[mode])
            rotate_ref = _cayley_one_side_at_a_time(ref, bases, _MOVES[mode])
            assert (fast._state, fast._spare_normal) == (ref._state, ref._spare_normal)
            for theta in (0.0, 1e-6, 1e-4, 3e-3, 0.1, 0.7, 2.0, 16.0):
                got, want = rotate(theta), rotate_ref(theta)
                assert all(_same_bytes(x, y) for x, y in zip(got, want)), (n, r, theta)
                for x, basis, moves_it in zip(got, bases, _MOVES[mode]):
                    assert (x is basis) == (not moves_it)


@pytest.mark.parametrize("mode", list(_MOVES))
def test_one_pass_search_matches_the_one_side_at_a_time_construction(mode, monkeypatch):
    searches = {}
    for reference in (False, True):
        if reference:
            oblique_matrix = idempotents._oblique_matrix
            monkeypatch.setattr(idempotents, "_cayley", _cayley_one_side_at_a_time)
            # the selector built by _oblique_matrix itself at every build
            monkeypatch.setattr(idempotents, "_oblique_matrix", lambda tb, sb, tol, d=None: oblique_matrix(tb, sb, tol))
        for n in range(2, 7):
            for r in range(1, n):
                p = random_idempotent(n, r, skew=0.3, seed=60 * n + r)
                for mag in (1e-6, 1e-4, 1e-2, 0.3, 1.0):
                    stream = RandomStream(700 * n + r)
                    moved, dist = _perturb_idempotent(p, mag, stream, DEFAULT_TOL, mode)
                    searches.setdefault((n, r, mag), []).append((moved, dist, stream._state, stream._spare_normal))
    for key, ((got, dist, *end), (want, want_dist, *want_end)) in searches.items():
        assert _same_bytes(got.m, want.m), key
        assert _same_bytes(got.range.basis, want.range.basis), key
        assert _same_bytes(got.kernel.basis, want.kernel.basis), key
        assert dist == want_dist and end == want_end, key


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


def test_a_certified_search_makes_one_svd_per_build(monkeypatch):
    p = random_idempotent(6, 3, skew=0.3, seed=4)
    counts = {"svd": 0, "build": 0}
    svd, oblique_matrix = np.linalg.svd, idempotents._oblique_matrix

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counting_build(*args):
        counts["build"] += 1
        return oblique_matrix(*args)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(idempotents, "_oblique_matrix", counting_build)
    for mode in ("both", "range", "kernel"):
        counts.update(svd=0, build=0)
        perturb_idempotent(p, 0.5, seed=7, mode=mode)
        assert counts["build"] >= 3
        assert counts["svd"] == counts["build"], mode


# The mean builds per search over the grid of test_perturb_contract_on_seeded_grid
# (n 2-6, every rank from 1 to n - 1, all three modes), per magnitude. The
# inverse-interpolation endgame takes 6.356, 5.333, 4.911 and 7.800; Illinois
# false position took 9.11, 7.71, 7.60 and 27.4. At 1e-6 roundoff in the
# distance exceeds the stop band, so that count depends on the last bits of
# the distances and its ceiling leaves room.
_BUILDS_PER_SEARCH = {0.5: 6.36, 0.05: 5.34, 1e-3: 4.92, 1e-6: 12.0}


def test_builds_per_search_on_the_seeded_grid(monkeypatch):
    count = [0]
    oblique_matrix = idempotents._oblique_matrix

    def counting_build(*args):
        count[0] += 1
        return oblique_matrix(*args)

    monkeypatch.setattr(idempotents, "_oblique_matrix", counting_build)
    builds = {mag: [] for mag in _BUILDS_PER_SEARCH}
    for mode in ("both", "range", "kernel"):
        for n in range(2, 7):
            for r in range(1, n):
                p = random_idempotent(n, r, skew=0.3, seed=100 * n + r)
                for mag in builds:
                    count[0] = 0
                    perturb_idempotent(p, mag, seed=1000 * n + r, mode=mode)
                    builds[mag].append(count[0])
    for mag, ceiling in _BUILDS_PER_SEARCH.items():
        assert len(builds[mag]) == 45
        assert sum(builds[mag]) / 45 <= ceiling, mag
