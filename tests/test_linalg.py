"""Kernel primitives: norms, rank decisions, inversion, bases."""

import numpy as np
import pytest

from ginv import linalg
from ginv.errors import GinvError  # noqa: F401  (import sanity)
from ginv.gen_inverse import GInvResult, _Evaluation
from ginv.linalg import (
    DEFAULT_TOL,
    Tolerances,
    _cached,
    _eye,
    _frobenius,
    _inverse,
    _norm_low,
    as_matrix,
    identity,
    null_basis,
    orth_basis,
    rank,
    spectral_norm,
    try_inverse,
)
from ginv.randomstream import RandomStream


def power_iteration_norm(m, iterations=2000, seed=5):
    """Independent oracle for the largest singular value.

    Power iteration on m* m from a random start; returns sqrt of the
    Rayleigh quotient after the iteration settles.
    """
    h = m.conj().T @ m
    v = RandomStream(seed).normal_matrix(m.shape[1], 1)[:, 0]
    v = v / np.linalg.norm(v)
    for _ in range(iterations):
        w = h @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.real(v.conj() @ h @ v)))


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_diagonal_picks_largest():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-14)


def test_spectral_norm_empty_matrix_is_zero():
    assert spectral_norm(np.zeros((0, 0))) == 0.0


def test_spectral_norm_matches_power_iteration():
    m = RandomStream(41).normal_matrix(4, 4)
    assert abs(spectral_norm(m) - power_iteration_norm(m)) <= 1e-10


def test_spectral_norm_submultiplicative():
    stream = RandomStream(7)
    for _ in range(20):
        x = stream.normal_matrix(5, 5)
        y = stream.normal_matrix(5, 5)
        assert spectral_norm(x @ y) <= spectral_norm(x) * spectral_norm(y) + 1e-12


def test_rank_zero_matrix():
    assert rank(np.zeros((3, 3))) == 0


def test_rank_diagonal():
    assert rank(np.diag([1.0, 2.0, 0.0])) == 2


def test_rank_outer_product_is_one():
    stream = RandomStream(3)
    u = stream.normal_matrix(5, 1)
    v = stream.normal_matrix(5, 1)
    assert rank(u @ v.conj().T) == 1


def test_rank_invariant_under_well_conditioned_factors():
    stream = RandomStream(11)
    m = stream.normal_matrix(5, 2) @ stream.normal_matrix(2, 5)
    for _ in range(10):
        t1 = stream.normal_matrix(5, 5)
        t2 = stream.normal_matrix(5, 5)
        if np.linalg.cond(t1) < 100 and np.linalg.cond(t2) < 100:
            assert rank(t1 @ m @ t2) == 2


def test_rank_scale_anchors_cancellation_noise():
    # A matrix that is pure rounding noise relative to scale 1 must not be
    # promoted to full rank just because its own largest entry dominates.
    noise = 1e-13 * RandomStream(9).normal_matrix(4, 4)
    assert rank(noise, scale=1.0) == 0
    assert rank(noise) == 4


def test_try_inverse_identity():
    inv = try_inverse(np.eye(4))
    assert inv is not None
    assert spectral_norm(inv - np.eye(4)) <= 1e-14


def test_try_inverse_nilpotent_is_none():
    assert try_inverse(np.array([[0.0, 1.0], [0.0, 0.0]])) is None


def test_try_inverse_near_singular_is_none():
    assert try_inverse(np.diag([1.0, 1e-13])) is None
    assert try_inverse(np.diag([1.0, 1e-6])) is not None


def test_try_inverse_diagonal_values():
    inv = try_inverse(np.diag([1.0, 2.0, 4.0]))
    assert spectral_norm(inv - np.diag([1.0, 0.5, 0.25])) <= 1e-14


def test_try_inverse_round_trip():
    m = RandomStream(13).normal_matrix(6, 6) + 5.0 * np.eye(6)
    inv = try_inverse(m)
    assert inv is not None
    assert spectral_norm(m @ inv - np.eye(6)) <= 1e-12
    assert spectral_norm(inv @ m - np.eye(6)) <= 1e-12


def test_a_matrix_with_a_non_finite_entry_reads_singular_before_any_lapack_call(monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK was called on a non-finite matrix")

    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    monkeypatch.setattr(np.linalg, "inv", no_lapack)
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.nan)):
        d, inv = _inverse(np.array([[1.0, bad], [0.0, 1.0]], dtype=complex), DEFAULT_TOL)
        assert inv is None and not d.truth and np.isnan(d.value) and np.isnan(d.cutoff) and d.op == ">"


def test_try_inverse_rejects_rectangular():
    with pytest.raises(ValueError):
        try_inverse(np.zeros((2, 3)))


def test_orth_basis_columns_are_orthonormal_and_span():
    m = RandomStream(17).normal_matrix(6, 3)
    b = orth_basis(m)
    assert b.shape == (6, 3)
    assert spectral_norm(b.conj().T @ b - np.eye(3)) <= 1e-12
    # every column of m lies in the span
    proj = b @ b.conj().T
    assert spectral_norm(proj @ m - m) <= 1e-12 * spectral_norm(m)


def test_null_basis_annihilated():
    m = np.diag([1.0, 2.0, 0.0])
    nb = null_basis(m)
    assert nb.shape == (3, 1)
    assert spectral_norm(m @ nb) <= 1e-13


def test_null_basis_of_wide_zero_rows():
    nb = null_basis(np.zeros((0, 4)))
    assert nb.shape == (4, 4)


def test_as_matrix_coerces_and_validates():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_identity_and_zero_helpers():
    assert identity(2).dtype == complex


def test_tolerances_validation():
    t = Tolerances(tol_rank=1e-8, tol_eq=1e-7, tol_inv=1e-10)
    assert t.tol_eq == 1e-7
    with pytest.raises(ValueError):
        Tolerances(tol_rank=0.0)
    with pytest.raises(ValueError):
        Tolerances(tol_eq=float("nan"))
    with pytest.raises(ValueError):
        Tolerances(tol_rank=2.0)
    # a real number only: no bool, no string, nothing beyond double range
    for bad in (True, "1e-3", 10**400):
        with pytest.raises(ValueError, match="tol_eq"):
            Tolerances(tol_eq=bad)
    t = Tolerances(tol_eq=np.float32(1e-6), tol_inv=1)
    assert type(t.tol_eq) is float and t.tol_eq == float(np.float32(1e-6))
    assert type(t.tol_inv) is float and t.tol_inv == 1.0
    assert DEFAULT_TOL.tol_rank == 1e-10


def test_frobenius_of_an_overflowing_sum_is_inf():
    # a complex product that overflows makes the sum NaN; the entries are finite
    assert _frobenius(np.array([[1e200 + 1e200j, 1.0]])) == np.inf
    assert _frobenius(np.array([[1e200, 1.0]])) == np.inf
    assert np.isnan(_frobenius(np.array([[np.nan, 1.0]])))
    assert np.isnan(_frobenius(np.array([[np.nan + 1e200j, 1e200]])))
    x = RandomStream(3).normal_matrix(4, 5)
    assert _frobenius(x) == np.sqrt(np.vdot(x, x).real)
    assert _frobenius(np.zeros((0, 3))) == 0.0


@pytest.mark.parametrize("x", [[[1e200 + 1e200j, 1.0]], [[1e200, 1e200]], [[1e160, 0], [0, 1e160j]]])
def test_norm_low_stays_a_lower_bound_when_the_frobenius_norm_overflows(x):
    x = np.array(x, dtype=complex)
    low = _norm_low(x)
    assert np.isfinite(low) and 0 < low <= spectral_norm(x)


def test_the_inverse_is_the_solve_against_the_identity_bit_for_bit(monkeypatch):
    stream = RandomStream(29)
    for n in range(9):
        for k in range(30):
            m = stream.normal_matrix(n, n)
            if k % 3 and n > 1:  # sigma_min 1e-11.2 to 1e-3.3 of sigma_max, above the tol_inv cutoff
                u, s, vh = np.linalg.svd(m)
                s[-1] = s[0] * 10.0 ** (-3.0 - 8.5 * k / 30)
                m = (u * s) @ vh
            invertible, got = _inverse(m, DEFAULT_TOL)
            want = np.linalg.solve(m, identity(n))
            assert invertible.truth and got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, k)
    # a NaN singular value (the SVD of an infinite entry) reads singular,
    # with no inverse, as its comparison with the cutoff fails
    inf = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    with np.errstate(invalid="ignore"):
        invertible, got = _inverse(inf, DEFAULT_TOL)
    assert not invertible.truth and np.isnan(invertible.value) and invertible.op == ">" and got is None
    # a zero m is singular; the 0 x 0 m is invertible by a count
    zero, got = _inverse(np.zeros((2, 2), dtype=complex), DEFAULT_TOL)
    assert not zero.truth and zero.value == zero.cutoff == 0.0 and got is None
    empty, got = _inverse(np.zeros((0, 0), dtype=complex), DEFAULT_TOL)
    assert empty.truth and empty.cutoff is None and got.shape == (0, 0)
    # singular values that pass the test do not hide an exactly singular m
    monkeypatch.setattr(linalg, "_singular_values", lambda m: np.ones(2))
    with pytest.raises(np.linalg.LinAlgError):
        _inverse(np.ones((2, 2), dtype=complex), DEFAULT_TOL)


def test_eye_is_one_read_only_identity_per_n_and_identity_a_fresh_writable_one():
    e = _eye(4)
    assert e is _eye(4) and e.dtype == complex and (e == np.eye(4)).all()
    with pytest.raises(ValueError):
        e[0, 0] = 2.0
    i = identity(4)
    assert i is not identity(4) and i.flags.writeable
    i[0, 0] = 2.0
    assert identity(4)[0, 0] == 1.0 and _eye(4)[0, 0] == 1.0


def test_a_cached_attribute_is_stored_once_and_not_when_its_getter_raises():
    calls = []

    class C:
        def __init__(self, fail):
            self.fail = fail

        @_cached
        def value(self):
            """The value."""
            calls.append(self.fail)
            if self.fail:
                raise ValueError("no value")
            return 7

        one, two = (_cached(lambda self, k=k: k) for k in (1, 2))
        after = _cached(lambda self: self.value + 1)

    assert isinstance(C.value, _cached) and C.value.func.__name__ == "value" and C.value.__doc__ == "The value."
    c = C(False)
    assert (c.value, c.value, c.after) == (7, 7, 8) and calls == [False]
    assert (c.one, c.two) == (1, 2) and c.__dict__ == {"fail": False, "value": 7, "after": 8, "one": 1, "two": 2}
    bad = C(True)
    for _ in range(2):
        with pytest.raises(ValueError):
            bad.after
    assert calls == [False, True, True] and bad.__dict__ == {"fail": True}
    # the package's own tuple-unpacked and lambda-built attributes keep their names
    for cls, names in ((GInvResult, ("_bab_b", "_aba_a", "_ba_p", "_one_ab_q")), (_Evaluation, ("cut", "_outer_parts", "_l_parts"))):
        assert all(cls.__dict__[name].name == name for name in names)
