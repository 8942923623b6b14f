"""Subspace objects, the gap metric, and splitting predicates."""

import math
import sys

import numpy as np
import pytest

from ginv import CHECKS, EnsembleConfig, NotExists, compute_outer_pql, exists_outer_pql, idempotent_from_matrix, run_campaign
from ginv import subspaces
from ginv.errors import MismatchedAmbient
from ginv.linalg import spectral_norm
from ginv.randomstream import RandomStream
from ginv.subspaces import (
    GapResult,
    Subspace,
    _one_sided_gap,
    direct_sum_is_all,
    full_subspace,
    gap,
    intersection_trivial,
    kernel_of,
    map_subspace,
    orthocomplement,
    range_of,
    subspace_from_columns,
    subspaces_equal,
    zero_subspace,
)


def span(*cols):
    return subspace_from_columns(np.column_stack([np.array(c, dtype=complex) for c in cols]))


def random_subspace(stream, n, d):
    return subspace_from_columns(stream.normal_matrix(n, d))


def sampled_gap(m, n, samples, stream, refine=0):
    """Monte Carlo lower estimate of delta(M, N), optionally power-refined.

    Draws unit vectors in M, measures the orthogonal distance to N, and
    optionally runs a few power iterations from the best sample on the
    compressed operator, which converges to the true supremum.
    """
    if m.dim == 0:
        return 0.0
    pn = n.projector()
    pm = m.projector()
    eye = np.eye(m.ambient_dim)
    coeffs = stream.normal_matrix(m.dim, samples)
    coeffs = coeffs / np.linalg.norm(coeffs, axis=0)
    x = m.basis @ coeffs
    dists = np.linalg.norm((eye - pn) @ x, axis=0)
    best = float(np.max(dists))
    if not refine:
        return best
    h = pm @ (eye - pn) @ pm
    v = x[:, int(np.argmax(dists))]
    for _ in range(refine):
        w = h @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return best
        v = w / nw
    val = float(np.sqrt(max(np.real(v.conj() @ h @ v), 0.0)))
    return max(best, min(val, 1.0))


def test_subspace_validates_basis():
    with pytest.raises(ValueError):
        Subspace(3, np.ones((3, 2), dtype=complex))
    with pytest.raises(ValueError):
        Subspace(2, np.eye(3, dtype=complex))


def test_range_and_kernel_of_diagonal():
    a = np.diag([1.0, 2.0, 0.0])
    r = range_of(a)
    k = kernel_of(a)
    assert r.dim == 2 and k.dim == 1
    assert spectral_norm(a @ k.basis) <= 1e-13
    assert spectral_norm(r.projector() @ a - a) <= 1e-13


def test_range_projector_reproduces_columns():
    m = RandomStream(2).normal_matrix(5, 3)
    r = range_of(m)
    assert spectral_norm(r.projector() @ m - m) <= 1e-12 * spectral_norm(m)


def test_gap_of_equal_subspaces_is_zero(subtests=None):
    m = random_subspace(RandomStream(4), 5, 2)
    g = gap(m, m)
    assert g.gap <= 1e-14
    assert g.delta_mn == g.delta_nm


def test_gap_of_orthogonal_lines_is_one():
    g = gap(span([1, 0]), span([0, 1]))
    assert g.gap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", range(7))
def test_gap_of_rotated_line_is_sine(k):
    theta = k * math.pi / 12
    m = span([1, 0])
    n = span([math.cos(theta), math.sin(theta)])
    g = gap(m, n)
    assert abs(g.delta_mn - abs(math.sin(theta))) <= 1e-10
    assert abs(g.gap - abs(math.sin(theta))) <= 1e-10


def test_gap_at_thirty_degrees_is_half():
    theta = math.pi / 6
    g = gap(span([1, 0]), span([math.cos(theta), math.sin(theta)]))
    assert g.gap == pytest.approx(0.5, abs=1e-12)


def test_gap_zero_subspace_convention():
    z = zero_subspace(4)
    m = random_subspace(RandomStream(6), 4, 2)
    g = gap(z, m)
    assert g.delta_mn == 0.0
    assert g.delta_nm > 0.9  # a 2-dim space is far from {0}
    assert (g.delta_nm, g.gap) == (1.0, 1.0)  # exactly: the larger side reads 1
    assert gap(m, z) == GapResult(1.0, 0.0, 1.0)
    assert gap(z, z) == GapResult(0.0, 0.0, 0.0)


def _pairs_of_dims(seed, count, equal):
    """count random pairs (M, N) in C^n, n from 2 to 6, with dim M = dim N
    or dim M > dim N >= 1."""
    stream = RandomStream(seed)
    for _ in range(count):
        n = stream.randint(2, 6)
        dm = stream.randint(1, n) if equal else stream.randint(2, n)
        dn = dm if equal else stream.randint(1, dm - 1)
        yield random_subspace(stream, n, dm), random_subspace(stream, n, dn)


def test_equal_dimensions_give_one_gap_for_both_sides():
    for m, s in _pairs_of_dims(41, 60, equal=True):
        g = gap(m, s)
        # bit for bit: delta_mn as one SVD computes it, read for both other entries
        assert g.delta_mn == g.delta_nm == g.gap == _one_sided_gap(m.basis, s.basis)
        assert abs(g.gap - spectral_norm(m.projector() - s.projector())) <= 1e-14
        # the side that is not computed agrees with its own SVD to roundoff
        assert abs(_one_sided_gap(s.basis, m.basis) - g.gap) <= 1e-14


def test_the_larger_side_of_unequal_dimensions_reads_one():
    for m, s in _pairs_of_dims(42, 60, equal=False):
        g = gap(m, s)
        assert (g.delta_mn, g.gap) == (1.0, 1.0)
        assert g.delta_nm == _one_sided_gap(s.basis, m.basis)
        assert gap(s, m) == GapResult(g.delta_nm, 1.0, 1.0)
        # the SVD of the larger side finds 1 too, up to roundoff
        assert abs(_one_sided_gap(m.basis, s.basis) - 1.0) <= 1e-14


def test_gap_takes_one_svd_and_none_from_zero(svd_counter):
    stream = RandomStream(43)
    n = 5
    z = zero_subspace(n)
    for dm, dn in ((2, 2), (3, 1), (1, 4), (5, 5), (0, 3), (3, 0), (0, 0)):
        m = random_subspace(stream, n, dm) if dm else z
        s = random_subspace(stream, n, dn) if dn else z
        assert svd_counter(lambda: gap(m, s)) == (1 if min(dm, dn) else 0), (dm, dn)


def test_gap_properties_on_random_pairs():
    stream = RandomStream(8)
    for i in range(40):
        n = stream.randint(2, 6)
        dm = stream.randint(1, n)
        dn = stream.randint(1, n)
        m = random_subspace(stream, n, dm)
        s = random_subspace(stream, n, dn)
        g = gap(m, s)
        assert 0.0 <= g.delta_mn <= 1.0
        assert 0.0 <= g.delta_nm <= 1.0
        assert g.gap == max(g.delta_mn, g.delta_nm)
        assert gap(s, m).gap == pytest.approx(g.gap, abs=1e-14)
        # one-sided zero iff containment
        if g.delta_mn <= 1e-10:
            assert spectral_norm((np.eye(n) - s.projector()) @ m.basis) <= 1e-9
        # symmetric zero iff equality
        assert subspaces_equal(m, s) == (g.gap <= 1e-8)


def test_containment_gives_one_sided_zero():
    stream = RandomStream(21)
    for _ in range(10):
        n = stream.randint(3, 6)
        big = random_subspace(stream, n, n - 1)
        coeff = stream.normal_matrix(n - 1, 1)
        inside = subspace_from_columns(big.basis @ coeff)
        g = gap(inside, big)
        assert g.delta_mn <= 1e-12
        assert g.delta_nm > 0.1  # strict containment: the big one sticks out


def test_gap_dominated_by_idempotent_distance():
    from ginv.idempotents import random_idempotent

    stream = RandomStream(31)
    for i in range(25):
        n = stream.randint(2, 6)
        p = random_idempotent(n, stream.randint(1, n - 1), skew=0.4, seed=stream.spawn(1))
        q = random_idempotent(n, stream.randint(1, n - 1), skew=0.4, seed=stream.spawn(2))
        d = spectral_norm(p.m - q.m)
        assert gap(p.range, q.range).gap <= d + 1e-12
        assert gap(p.kernel, q.kernel).gap <= d + 1e-12


def test_gap_formula_upper_bounds_sampled_sup():
    stream = RandomStream(12)
    for _ in range(15):
        n = stream.randint(2, 4)
        m = random_subspace(stream, n, stream.randint(1, n))
        s = random_subspace(stream, n, stream.randint(1, n))
        formula = gap(m, s).delta_mn
        sampled = sampled_gap(m, s, 2000, stream)
        refined = sampled_gap(m, s, 2000, stream, refine=100)
        assert sampled <= formula + 1e-12
        # refinement squares the projector, so near-zero gaps surface as
        # sqrt-of-roundoff; allow that noise floor on the upper side only
        assert refined <= formula + 1e-7
        assert formula - refined <= 1e-6


def test_gap_invariant_under_unitary_rotation():
    stream = RandomStream(14)
    n = 5
    m = random_subspace(stream, n, 2)
    s = random_subspace(stream, n, 3)
    g = stream.normal_matrix(n, n)
    u, _ = np.linalg.qr(g)
    gm = map_subspace(u, m)
    gs = map_subspace(u, s)
    assert abs(gap(gm, gs).gap - gap(m, s).gap) <= 1e-12


def test_intersection_trivial_examples():
    assert intersection_trivial(span([1, 0, 0]), span([0, 1, 0]))
    # nearly parallel lines still meet only at the origin
    assert intersection_trivial(span([1, 0]), span([1, 1e-3]))
    # shared direction
    m = span([1, 0, 0], [0, 1, 0])
    s = span([0, 1, 0], [0, 0, 1])
    assert not intersection_trivial(m, s)
    assert intersection_trivial(zero_subspace(3), full_subspace(3))


def test_direct_sum_examples():
    assert direct_sum_is_all(span([1, 0]), span([0, 1]))
    assert direct_sum_is_all(span([1, 0]), span([1, 1]))
    assert not direct_sum_is_all(span([1, 0, 0]), span([0, 1, 0]))  # dims fall short
    assert not direct_sum_is_all(span([1, 0]), span([1, 0]))


def test_map_subspace_examples():
    a = np.diag([1.0, 2.0, 0.0])
    img = map_subspace(a, full_subspace(3))
    assert img.dim == 2  # rank drop
    assert map_subspace(a, span([0, 0, 1])).dim == 0
    with pytest.raises(MismatchedAmbient):
        map_subspace(np.eye(2), full_subspace(3))


def test_orthocomplement():
    c = orthocomplement(span([1, 0, 0]))
    assert c.dim == 2
    assert spectral_norm(c.basis.conj().T @ np.array([[1.0], [0.0], [0.0]])) <= 1e-14
    assert orthocomplement(zero_subspace(3)).dim == 3
    assert orthocomplement(full_subspace(3)).dim == 0


def test_subspaces_equal_rotated_basis():
    stream = RandomStream(23)
    m = random_subspace(stream, 4, 2)
    u, _ = np.linalg.qr(stream.normal_matrix(2, 2))
    m2 = Subspace(4, m.basis @ u)
    assert subspaces_equal(m, m2)
    assert not subspaces_equal(m, random_subspace(stream, 4, 2))
    assert not subspaces_equal(m, random_subspace(stream, 4, 3))


def test_gap_mismatched_ambient():
    with pytest.raises(MismatchedAmbient):
        gap(full_subspace(2), full_subspace(3))


def _projector_gap(ba, bb):
    """||(1 - P_B) P_A||_2 from the n x n projectors, clamped to [0, 1]."""
    if ba.shape[1] == 0:
        return 0.0
    n = ba.shape[0]
    pa, pb = ba @ ba.conj().T, bb @ bb.conj().T
    return min(max(spectral_norm((np.eye(n) - pb) @ pa), 0.0), 1.0)


def _gap_pairs():
    stream = RandomStream(61)
    pairs = []
    for n in (2, 3, 5, 8):
        for dm, dn in ((0, n), (n, 0), (0, 0), (n, n), (1, n - 1), (n - 1, 1), (2, 1), (1, 2)):
            pairs.append((random_subspace(stream, n, dm).basis, random_subspace(stream, n, dn).basis))
        real = np.linalg.qr(stream.normal_matrix(n, n).real)[0]
        pairs.append((real[:, :1], real[:, : n - 1]))
        pairs.append((real[:, : n // 2], np.linalg.qr(stream.normal_matrix(n, n - 1).real)[0]))
        # a basis tilted by about 1e-12 out of its span: gap near 1e-12
        m = random_subspace(stream, n, n // 2)
        c = orthocomplement(m).basis
        tilted = np.linalg.qr(m.basis + 1e-12 * c[:, :1] @ stream.normal_matrix(1, m.dim))[0]
        pairs.append((m.basis, tilted))
    return pairs


def test_the_basis_gap_matches_the_projector_formula():
    eps = np.finfo(float).eps
    near_zero = 0
    for ba, bb in _gap_pairs():
        n = ba.shape[0]
        d = _one_sided_gap(ba, bb)
        assert 0.0 <= d <= 1.0
        assert abs(d - _projector_gap(ba, bb)) <= 8 * n * eps
        if 0 < d < 1e-11:
            near_zero += 1
    assert near_zero >= 4


def _oblique_matrix(range_cols, kernel_cols):
    x = np.hstack([range_cols, kernel_cols])
    d = np.zeros(x.shape[1])
    d[: range_cols.shape[1]] = 1.0
    return (x * d) @ np.linalg.inv(x)


def _request(stream, n, exists):
    """(a, p, q) with the inverse existing or not by construction: when it
    must not exist, col(q) holds a t for a vector t of col(p)."""
    r = stream.randint(1, n - 1)
    a = stream.normal_matrix(n, n)
    xp, xq = stream.normal_matrix(n, n), stream.normal_matrix(n, n)
    q_range = xq[:, : n - r].copy()
    if not exists:
        t = a @ xp[:, :1]
        q_range[:, :1] = t / np.linalg.norm(t)
    p = idempotent_from_matrix(_oblique_matrix(xp[:, :r], xp[:, r:]))
    q = idempotent_from_matrix(_oblique_matrix(q_range, xq[:, n - r :]))
    return a, p, q


@pytest.fixture
def internal_bases(monkeypatch):
    """Checks every basis handed to subspaces._orthonormal, in every module
    that imports it, and counts the public constructor's Gram checks. Defects
    are recorded, not raised, since a campaign records a raising check as
    data."""
    seen = {"bases": 0, "public": 0, "defects": []}
    made = subspaces._orthonormal

    def checking(n, basis):
        seen["bases"] += 1
        if basis.ndim != 2 or basis.shape[0] != n:
            seen["defects"].append(("shape", n, basis.shape))
        else:
            defect = spectral_norm(basis.conj().T @ basis - np.eye(basis.shape[1]))
            if not defect <= 1e-8:
                seen["defects"].append(("gram", n, basis.shape, defect))
        return made(n, basis)

    def counted(self):
        seen["public"] += 1
        check(self)

    for name, module in list(sys.modules.items()):
        if (name == "ginv" or name.startswith("ginv.")) and getattr(module, "_orthonormal", None) is made:
            monkeypatch.setattr(module, "_orthonormal", checking)
    check = Subspace.__post_init__
    monkeypatch.setattr(Subspace, "__post_init__", counted)
    return seen


@pytest.mark.parametrize("seed", [3, 17])
def test_every_internal_basis_of_a_campaign_is_orthonormal(internal_bases, seed):
    ids = tuple(t for t in CHECKS if t != "selftest-bad-bound")
    report = run_campaign(EnsembleConfig(n_range=(2, 6), count=4, seed=seed, theorems=ids))
    assert report.ok
    assert internal_bases["bases"] > 0
    assert internal_bases["defects"] == []
    assert internal_bases["public"] == 0


def test_every_internal_basis_of_a_request_is_orthonormal(internal_bases):
    stream = RandomStream(29)
    for n in (4, 5, 8, 24, 40):
        for exists in (True, False):
            a, p, q = _request(stream, n, exists)
            assert exists_outer_pql(a, p, q).exists == exists
            try:
                compute_outer_pql(a, p, q)
                constructed = True
            except NotExists:
                constructed = False
            assert constructed == exists
    assert internal_bases["defects"] == []
    assert internal_bases["public"] == 0
