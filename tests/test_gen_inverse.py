"""Prescribed-subspace inverses: existence, computation, representations."""

from collections import Counter

import numpy as np
import pytest

from conftest import draw_solvable
from ginv import gen_inverse
from ginv.errors import BadWitness, DimMismatch, IllConditioned, NoGroupInverse, NotExists
from ginv.gen_inverse import (
    _checked,
    _Evaluation,
    build_witness,
    classify_strict,
    compute_l,
    compute_outer_pql,
    exists_dual_check,
    exists_l,
    exists_outer_pql,
    group_inverse,
    inner_inverse,
    one_five_inverse,
    representation_15,
    representation_group_12,
)
from ginv.idempotents import idempotent_from_matrix, oblique, perturb_idempotent, random_idempotent
from ginv.linalg import DEFAULT_TOL, Tolerances, _rank_from_sv, rank, spectral_norm, try_inverse
from ginv.randomstream import RandomStream
from ginv.subspaces import subspace_from_columns


def span(*cols):
    return subspace_from_columns(np.column_stack([np.array(c, dtype=complex) for c in cols]))


def test_diagonal_instance_inverse(diag_instance):
    a, p, q = diag_instance
    res = compute_outer_pql(a, p, q)
    assert spectral_norm(res.b - np.diag([1.0, 0.5, 0.0])) <= 1e-12
    assert res.flags == {
        "outer_pql": True,
        "l_inverse": True,
        "strict_pq": True,
        "strict_12": True,
    }
    for key in ("bab_b", "aba_a", "ba_p", "one_ab_q"):
        assert res.residuals[key] <= 1e-12
    assert res.residuals["gap_range"] <= 1e-10
    assert res.residuals["gap_kernel"] <= 1e-10


def test_diagonal_instance_existence_report(diag_instance):
    a, p, q = diag_instance
    rep = exists_outer_pql(a, p, q)
    assert rep.exists
    assert rep.trivial_kernel_intersection and rep.direct_sum and rep.dims_compatible
    assert rep.sigma_min_core == pytest.approx(1.0, abs=1e-12)
    t, s = rep.certificates
    # the certificate pair witnesses both splittings
    one_minus_q = np.eye(3) - q.m
    assert spectral_norm(t @ one_minus_q @ a @ p.m - p.m) <= 1e-10
    assert spectral_norm(one_minus_q @ a @ p.m @ s - one_minus_q) <= 1e-10


def test_nonexistence_kernel_meets_range():
    a = np.diag([1.0, 2.0, 0.0])
    p = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0]))
    q = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0]))
    rep = exists_outer_pql(a, p, q)
    assert not rep.exists
    assert not rep.trivial_kernel_intersection
    assert not rep.dims_compatible
    assert rep.certificates is None
    with pytest.raises(NotExists):
        compute_outer_pql(a, p, q)


def test_nonexistence_sum_not_direct():
    a = np.eye(2)
    p = idempotent_from_matrix(np.diag([1.0, 0.0]))
    rep = exists_outer_pql(a, p, p)
    assert rep.dims_compatible and rep.trivial_kernel_intersection
    assert not rep.direct_sum
    assert not rep.exists
    with pytest.raises(NotExists):
        compute_outer_pql(a, p, p)


def test_invertible_matrix_with_full_idempotents():
    a = RandomStream(3).normal_matrix(4, 4) + 4.0 * np.eye(4)
    p = idempotent_from_matrix(np.eye(4))
    q = idempotent_from_matrix(np.zeros((4, 4)))
    res = compute_outer_pql(a, p, q)
    assert spectral_norm(res.b - np.linalg.inv(a)) <= 1e-10 * spectral_norm(np.linalg.inv(a))
    assert res.flags["strict_12"]


def test_identity_matrix_returns_the_idempotent():
    p = random_idempotent(4, 2, skew=0.6, seed=5)
    q = p.complement()
    res = compute_outer_pql(np.eye(4), p, q)
    assert spectral_norm(res.b - p.m) <= 1e-9 * (1.0 + spectral_norm(p.m))
    assert res.flags["outer_pql"] and res.flags["strict_pq"]
    # b = p is not an inner inverse of the identity unless p is everything
    assert not res.flags["l_inverse"]


def test_inverse_is_unique_across_basis_redraws():
    for seed in range(10):
        a, p, q = draw_solvable(seed)
        b1 = compute_outer_pql(a, p, q).b
        b2 = compute_outer_pql(a, p, q, basis_seed=1000 * seed + 17).b
        assert spectral_norm(b1 - b2) <= 1e-9 * (1.0 + spectral_norm(b1))


def test_singular_core_raises(diag_instance):
    _, p, q = diag_instance
    a = np.diag([1.0, 1e-14, 0.0])
    with pytest.raises(NotExists):
        compute_outer_pql(a, p, q)


def _solver_grid():
    """Seeded (a, p, q, tol) for n = 2-6: a of full rank, of rank r = rank p
    and of rank below r; q of rank n - r and, on every fourth draw, one less;
    every other draw with a tol_inv loose enough that some cores are too
    ill-conditioned."""
    loose = Tolerances(tol_inv=0.3)
    for n in range(2, 7):
        for k in range(12):
            stream = RandomStream(100 * n + k)
            r = stream.randint(1, n - 1)
            ra = (n, r, max(r - 1, 1))[k % 3]
            a = stream.normal_matrix(n, ra) @ stream.normal_matrix(ra, n)
            p = random_idempotent(n, r, 0.3, stream)
            q = random_idempotent(n, n - r - (k % 4 == 3), 0.3, stream)
            yield a, p, q, (DEFAULT_TOL, loose)[k % 2]


def _outcome(solve):
    """(result, None), or (None, (type, message)) when solve raises."""
    try:
        return solve(), None
    except (NotExists, IllConditioned) as e:
        return None, (type(e), str(e))


def test_public_solvers_agree_bit_for_bit_on_a_seeded_grid():
    seen = Counter()
    for a, p, q, tol in _solver_grid():
        rep = exists_outer_pql(a, p, q, tol)
        outer, outer_err = _outcome(lambda: compute_outer_pql(a, p, q, tol))
        if rep.exists:
            assert outer.b.tobytes() == rep.certificates[0].tobytes()
            seen["outer"] += 1
        elif rep.trivial_kernel_intersection and rep.direct_sum and rep.dims_compatible:
            assert outer_err == (IllConditioned, f"core margin too small (sigma_min = {rep.sigma_min_core:.3e})")
            seen["ill-conditioned"] += 1
        else:
            assert outer_err == (
                NotExists,
                "no outer inverse with the prescribed range and kernel: "
                f"trivial_kernel_intersection={rep.trivial_kernel_intersection}, "
                f"direct_sum={rep.direct_sum}, dims_compatible={rep.dims_compatible}",
            )
            seen["no outer"] += 1
        assert _outcome(lambda: compute_outer_pql(a, p, q, tol, basis_seed=7))[1] == outer_err

        rep_l = exists_l(a, p, q, tol)
        shared = ("trivial_kernel_intersection", "dims_compatible", "sigma_min_core")
        assert [getattr(rep_l, f) for f in shared] == [getattr(rep, f) for f in shared]
        inner, inner_err = _outcome(lambda: compute_l(a, p, q, tol))
        if not rep_l.exists:
            assert rep_l.certificates is None
            assert inner_err == (
                NotExists,
                "no inner-outer inverse for these idempotents: "
                f"trivial_kernel_intersection={rep_l.trivial_kernel_intersection}, "
                f"direct_sum={rep_l.direct_sum}, dims_compatible={rep_l.dims_compatible}, "
                f"sigma_min_core={rep_l.sigma_min_core:.3e}",
            )
            seen["no inner-outer"] += 1
        elif outer is None:
            assert inner_err == outer_err
        elif inner is None:
            assert inner_err[0] is NotExists and inner_err[1].startswith("a b a = a fails: residual ")
        else:
            assert inner.b.tobytes() == rep_l.certificates[0].tobytes() == outer.b.tobytes()
            seen["inner-outer"] += 1
    assert set(seen) == {"outer", "ill-conditioned", "no outer", "inner-outer", "no inner-outer"}, seen


@pytest.mark.parametrize("mode", ["both", "range", "kernel"])
def test_moved_evaluation_solves_bit_for_bit_like_compute_outer_pql(mode):
    seen = Counter()
    for k, (a, p, q, tol) in enumerate(_solver_grid()):
        base = _Evaluation(*_checked(a, p, q, tol), tol)
        p2 = perturb_idempotent(p, 0.05, seed=k, tol=tol, mode=mode)
        q2 = perturb_idempotent(q, 0.05, seed=k + 1000, tol=tol, mode=mode)
        # (p2, q) first, so (p2, q2) shares its trivial meet and a col(p2)
        for pm, qm in ((p2, q), (p2, q2), (p, q2)):
            moved, moved_err = _outcome(lambda: base.moved(pm, qm).outer)
            direct, direct_err = _outcome(lambda: compute_outer_pql(a, pm, qm, tol))
            assert moved_err == direct_err
            if direct is None:
                seen[direct_err[0].__name__] += 1
            else:
                assert moved.b.tobytes() == direct.b.tobytes()
                assert moved._na == direct._na
                seen["solved"] += 1
    assert set(seen) == {"solved", "NotExists", "IllConditioned"}, seen


def _group_inverse_with_a_second_rank_svd(x, tol):
    """group_inverse as it was before it read the rank from its own SVD."""
    x = np.asarray(x, dtype=complex)
    um, s, vh = np.linalg.svd(x)
    r = rank(x, tol)
    if r == 0:
        return np.zeros_like(x)
    f = um[:, :r] * s[:r]
    g = vh[:r, :]
    inv = try_inverse(g @ f, tol)
    if inv is None:
        raise NoGroupInverse("index exceeds 1 (rank-factor product is singular)")
    return f @ inv @ inv @ g


def _rank_grid():
    """Seeded square x for n = 2-6: full rank, rank-deficient, nilpotent, and
    with a smallest nonzero singular value 1% above or below the rank cutoff."""
    cutoff = DEFAULT_TOL.tol_rank
    for n in range(2, 7):
        stream = RandomStream(700 + n)
        for r in range(n + 1):
            yield stream.normal_matrix(n, r) @ stream.normal_matrix(r, n)
            u = np.linalg.qr(stream.normal_matrix(n, n))[0]
            v = np.linalg.qr(stream.normal_matrix(n, n))[0]
            for factor in (1.01, 0.99):
                s = np.zeros(n)
                s[:r] = np.linspace(2.0, 1.0, r)
                if r:
                    s[r - 1] = factor * cutoff * 2.0 * n
                yield (u * s) @ v.conj().T
            yield (u * s) @ u.conj().T  # hermitian, so of index 1
        yield np.diag(np.ones(n - 1), 1)  # nilpotent: no group inverse


def _outcome_of(fn):
    """(result, None), or (None, (type, message)) when fn raises NoGroupInverse."""
    try:
        return fn(), None
    except NoGroupInverse as e:
        return None, (type(e), str(e))


def test_group_inverse_reads_the_rank_of_rank_x_from_its_own_svd():
    outcomes = Counter()
    for x in _rank_grid():
        full = np.linalg.svd(x)[1]
        assert _rank_from_sv(full, x.shape, DEFAULT_TOL) == rank(x, DEFAULT_TOL)
        got, err = _outcome_of(lambda: group_inverse(x))
        ref, ref_err = _outcome_of(lambda: _group_inverse_with_a_second_rank_svd(x, DEFAULT_TOL))
        assert err == ref_err
        if got is not None:
            assert got.tobytes() == ref.tobytes()
        outcomes["raised" if err else rank(x, DEFAULT_TOL) < x.shape[0]] += 1
    assert set(outcomes) == {"raised", True, False}, outcomes


def test_dim_mismatch_rejected(diag_instance):
    a, p, q = diag_instance
    with pytest.raises(DimMismatch):
        compute_outer_pql(np.eye(2), p, q)


def test_inner_outer_variant_on_diagonal(diag_instance):
    a, p, q = diag_instance
    rep = exists_l(a, p, q)
    assert rep.exists
    res = compute_l(a, p, q)
    assert spectral_norm(res.b - np.diag([1.0, 0.5, 0.0])) <= 1e-12
    assert res.flags["l_inverse"]


def test_inner_outer_fails_for_invertible_with_small_idempotents(diag_instance):
    _, p, q = diag_instance
    a = np.diag([1.0, 2.0, 0.1])
    rep = exists_l(a, p, q)
    assert not rep.exists
    assert not rep.direct_sum  # col(a) is everything, q cannot complement it
    with pytest.raises(NotExists):
        compute_l(a, p, q)


def test_inner_outer_zero_matrix_corner():
    n = 3
    a = np.zeros((n, n))
    p = idempotent_from_matrix(np.zeros((n, n)))
    q = idempotent_from_matrix(np.eye(n))
    rep = exists_l(a, p, q)
    assert rep.exists
    res = compute_l(a, p, q)
    assert spectral_norm(res.b) == 0.0
    assert res.flags["outer_pql"] and res.flags["l_inverse"]


def test_classify_detects_non_strict_kernel_idempotent(diag_instance):
    a, p, _ = diag_instance
    q_tilted = oblique(span([0, 0, 1]), span([1, 0, 0], [0, 1, 1]))
    res = compute_outer_pql(a, p, q_tilted)
    # same b as the orthogonal case: it only depends on the two ranges
    assert spectral_norm(res.b - np.diag([1.0, 0.5, 0.0])) <= 1e-12
    assert res.flags["outer_pql"]
    assert res.flags["l_inverse"]
    assert not res.flags["strict_pq"]
    assert not res.flags["strict_12"]


def test_classify_rejects_wrong_shape(diag_instance):
    a, p, q = diag_instance
    with pytest.raises(DimMismatch):
        classify_strict(a, p, q, np.eye(2))


def test_group_inverse_of_invertible_is_inverse():
    x = RandomStream(8).normal_matrix(4, 4) + 4.0 * np.eye(4)
    g = group_inverse(x)
    assert spectral_norm(g - np.linalg.inv(x)) <= 1e-10 * spectral_norm(g)


def test_group_inverse_nilpotent_rejected():
    with pytest.raises(NoGroupInverse):
        group_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_group_inverse_diagonal():
    g = group_inverse(np.diag([2.0, 0.0]))
    assert spectral_norm(g - np.diag([0.5, 0.0])) <= 1e-14


def test_group_inverse_equations():
    stream = RandomStream(10)
    for i in range(8):
        n = stream.randint(2, 5)
        r = stream.randint(1, n)
        t = stream.normal_matrix(n, n) + 3.0 * np.eye(n)
        d = np.zeros((n, n), dtype=complex)
        d[:r, :r] = np.diag([1.0 + stream.uniform(0.0, 1.0) for _ in range(r)])
        x = t @ d @ np.linalg.inv(t)
        g = group_inverse(x)
        s = 1.0 + spectral_norm(x) * spectral_norm(g)
        assert spectral_norm(x @ g @ x - x) <= 1e-9 * s * spectral_norm(x)
        assert spectral_norm(g @ x @ g - g) <= 1e-9 * s * spectral_norm(g)
        assert spectral_norm(x @ g - g @ x) <= 1e-9 * s


def test_commuting_inner_inverse():
    y = one_five_inverse(np.diag([3.0, 0.0]))
    assert spectral_norm(y - np.diag([1.0 / 3.0, 0.0])) <= 1e-14
    x = RandomStream(12).normal_matrix(3, 3) + 3.0 * np.eye(3)
    assert spectral_norm(one_five_inverse(x) - np.linalg.inv(x)) <= 1e-10 * spectral_norm(
        np.linalg.inv(x)
    )
    with pytest.raises(NotExists):
        one_five_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_inner_inverse():
    y = inner_inverse(np.diag([1.0, 2.0, 0.0]))
    assert spectral_norm(y - np.diag([1.0, 0.5, 0.0])) <= 1e-12
    assert spectral_norm(inner_inverse(np.zeros((2, 2)))) == 0.0
    stream = RandomStream(14)
    x = stream.normal_matrix(5, 2) @ stream.normal_matrix(2, 5)
    y = inner_inverse(x)
    assert spectral_norm(x @ y @ x - x) <= 1e-9 * spectral_norm(x)


def test_build_witness_examples(diag_instance):
    _, p, q = diag_instance
    w = build_witness(p, q)
    assert spectral_norm(w.w - np.diag([1.0, 1.0, 0.0])) <= 1e-12
    assert w.certified_range is p.range
    # two-dimensional example: complement of span{e1} is span{e2}
    p2 = idempotent_from_matrix(np.diag([1.0, 0.0]))
    w2 = build_witness(p2, p2)
    assert spectral_norm(w2.w - np.array([[0.0, 1.0], [0.0, 0.0]])) <= 1e-12


def test_build_witness_dim_mismatch():
    p = random_idempotent(3, 2, seed=1)
    q = random_idempotent(3, 2, seed=2)
    with pytest.raises(DimMismatch):
        build_witness(p, q)


def test_representation_through_witness(diag_instance):
    a, p, q = diag_instance
    b = representation_15(a, p, q)
    assert spectral_norm(b - np.diag([1.0, 0.5, 0.0])) <= 1e-12


def test_representation_through_witness_random():
    a, p, q = draw_solvable(11, full_rank=True)
    b = representation_15(a, p, q)
    direct = compute_outer_pql(a, p, q).b
    assert spectral_norm(b - direct) <= 1e-9 * (1.0 + spectral_norm(direct))


def test_representation_invertible_case():
    a = RandomStream(16).normal_matrix(3, 3) + 3.0 * np.eye(3)
    p = idempotent_from_matrix(np.eye(3))
    q = idempotent_from_matrix(np.zeros((3, 3)))
    b = representation_15(a, p, q)
    assert spectral_norm(b - np.linalg.inv(a)) <= 1e-10 * spectral_norm(np.linalg.inv(a))


def test_group_representation_from_witness(diag_instance):
    a, _, _ = diag_instance
    w = np.diag([1.0, 0.5, 0.0])
    b = representation_group_12(a, w)
    assert spectral_norm(b - w) <= 1e-12


def test_group_representation_invertible():
    a = RandomStream(18).normal_matrix(3, 3) + 3.0 * np.eye(3)
    w = np.linalg.inv(a)
    b = representation_group_12(a, w)
    assert spectral_norm(b - w) <= 1e-10 * spectral_norm(w)


def test_group_representation_rejects_bad_witness():
    with pytest.raises(BadWitness):
        representation_group_12(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    # idempotent products but the equations cannot hold: w = 0, a != 0
    with pytest.raises(BadWitness):
        representation_group_12(np.diag([1.0, 2.0]), np.zeros((2, 2)))


def test_dual_existence_agrees_on_examples(diag_instance):
    a, p, q = diag_instance
    assert exists_dual_check(a, p, q) is True
    a2 = np.eye(2)
    p2 = idempotent_from_matrix(np.diag([1.0, 0.0]))
    assert exists_dual_check(a2, p2, p2) is False
    n = 3
    zero = idempotent_from_matrix(np.zeros((n, n)))
    full = idempotent_from_matrix(np.eye(n))
    assert exists_dual_check(np.zeros((n, n)), zero, full) is True


def test_dual_existence_agrees_on_random_draws():
    stream = RandomStream(20)
    for i in range(50):
        n = stream.randint(2, 5)
        r = stream.randint(0, n)
        if stream.randint(0, 1):
            ra = stream.randint(1, n)
            a = stream.normal_matrix(n, ra) @ stream.normal_matrix(ra, n)
        else:
            a = stream.normal_matrix(n, n)
        p = random_idempotent(n, r, skew=0.4, seed=stream.spawn(2 * i))
        q = random_idempotent(n, stream.randint(0, n), skew=0.4, seed=stream.spawn(2 * i + 1))
        assert exists_outer_pql(a, p, q).exists == exists_dual_check(a, p, q)


def test_an_a_whose_spectral_norm_overflows_is_rejected_as_a_nan_entry_is(monkeypatch):
    s = np.array([[1, 1, 1, 1], [-1, 1, 1, -1], [-1, 1, 1, -1], [1, 1, 1, -1]], dtype=complex)
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0, 0.0]))
    q = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0, 1.0]))
    for scale in (1.0, 1e300):
        assert exists_outer_pql(scale * s, p, q).exists
    for check in (exists_outer_pql, compute_outer_pql):
        with pytest.raises(ValueError, match="spectral norm of a is beyond double range"):
            check(1.7e308 * s, p, q)
    # 4 max |a_ij| overflows, but the spectral norm of diag(1e308, ...) is 1e308
    big = np.diag([1e308] * 4).astype(complex)
    assert _checked(big, p, q, DEFAULT_TOL)[0] is not None
    # a finite bound settles the test without an SVD
    monkeypatch.setattr(gen_inverse, "spectral_norm", None)
    assert _checked(1e300 * s, p, q, DEFAULT_TOL)[0] is not None
