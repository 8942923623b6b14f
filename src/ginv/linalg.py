"""Dense complex linear algebra primitives.

Everything in this module operates on square or rectangular matrices held as
numpy arrays of complex128. The spectral norm (largest singular value) is the
norm used throughout the package: it is unital, submultiplicative, and makes
the projector formula for the subspace gap exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_matrix",
    "identity",
    "spectral_norm",
    "rank",
    "try_inverse",
    "orth_basis",
    "null_basis",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical decision thresholds.

    tol_rank: relative singular-value cutoff for rank decisions.
    tol_eq:   residual threshold for declaring two matrices equal.
    tol_inv:  relative margin below which a matrix is treated as singular.
    """

    tol_rank: float = 1e-10
    tol_eq: float = 1e-9
    tol_inv: float = 1e-12

    def __post_init__(self):
        for name in ("tol_rank", "tol_eq", "tol_inv"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if self.tol_rank >= 1:
            raise ValueError("tol_rank must be below 1")


DEFAULT_TOL = Tolerances()


def as_matrix(m) -> np.ndarray:
    """Validate and convert input to a 2-d complex128 array.

    Rejects non-2d input and any NaN or infinite entry.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or infinite entries")
    return a


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def spectral_norm(m) -> float:
    """Largest singular value of m. Zero for an empty matrix."""
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _singular_values(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def _rank_from_sv(s: np.ndarray, shape, tol: Tolerances, scale: Optional[float] = None) -> int:
    if s.size == 0:
        return 0
    ref = float(s[0]) if scale is None else max(float(s[0]), float(scale))
    if ref == 0.0:
        return 0
    cutoff = tol.tol_rank * ref * max(shape)
    return int(np.count_nonzero(s > cutoff))


def rank(m, tol: Tolerances = DEFAULT_TOL, scale: Optional[float] = None) -> int:
    """Numerical rank: number of singular values above the relative cutoff.

    The cutoff is tol_rank * sigma_max * max(rows, cols). Passing `scale`
    replaces sigma_max by max(sigma_max, scale); use it when m was produced
    by cancellation from quantities of magnitude `scale`, so that pure
    rounding noise is not mistaken for full rank.
    """
    a = as_matrix(m)
    return _rank_from_sv(_singular_values(a), a.shape, tol, scale)


def try_inverse(m, tol: Tolerances = DEFAULT_TOL) -> Optional[np.ndarray]:
    """Inverse of a square matrix, or None when it is numerically singular.

    Singularity means the smallest singular value is at or below
    tol_inv * sigma_max. The 0x0 matrix is invertible with empty inverse.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return a.copy()
    s = _singular_values(a)
    if s[0] == 0.0 or s[-1] <= tol.tol_inv * s[0]:
        return None
    return np.linalg.solve(a, identity(n))


def orth_basis(m, tol: Tolerances = DEFAULT_TOL, scale: Optional[float] = None) -> np.ndarray:
    """Orthonormal basis of the column space, as an n x r array."""
    a = as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = _rank_from_sv(s, a.shape, tol, scale)
    return u[:, :r]


def null_basis(m, tol: Tolerances = DEFAULT_TOL, scale: Optional[float] = None) -> np.ndarray:
    """Orthonormal basis of the null space, as an n x k array (k = n - rank)."""
    a = as_matrix(m)
    n = a.shape[1]
    if a.shape[0] == 0 or a.size == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(a)
    r = _rank_from_sv(s, a.shape, tol, scale)
    return vh[r:, :].conj().T
