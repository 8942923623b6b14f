"""Kernel primitives: norms, rank decisions, inversion, bases."""

import numpy as np
import pytest

from ginv.errors import GinvError  # noqa: F401  (import sanity)
from ginv.linalg import (
    DEFAULT_TOL,
    Tolerances,
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
    assert DEFAULT_TOL.tol_rank == 1e-10
