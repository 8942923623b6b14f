"""Subspaces of C^n and the gap metric between them.

A right ideal generated by a matrix x consists of all matrices whose columns
lie in col(x), so subspace arithmetic on column spaces is the finite
dimensional realization of ideal arithmetic. The one-sided gap between two
ideals in the spectral norm equals the projector formula
delta(M, N) = ||(1 - P_N) P_M||_2 on the corresponding column spaces, which
is what `gap` evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MismatchedAmbient
from .linalg import DEFAULT_TOL, Tolerances, _rank_from_sv, as_matrix, null_basis, orth_basis, rank, spectral_norm

__all__ = [
    "Subspace",
    "GapResult",
    "zero_subspace",
    "full_subspace",
    "subspace_from_columns",
    "range_of",
    "kernel_of",
    "orthocomplement",
    "canonical_basis",
    "gap",
    "intersection_trivial",
    "direct_sum_is_all",
    "map_subspace",
    "subspaces_equal",
]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an n x k matrix with orthonormal columns."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = self.basis
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError("basis shape does not match ambient dimension")
        k = b.shape[1]
        if k > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimension")
        if k:
            d = b.conj().T @ b - np.eye(k)
            # The Frobenius norm bounds the spectral norm, so the SVD runs
            # only for a basis that the cheap test cannot clear.
            if np.linalg.norm(d) > 1e-8 and spectral_norm(d) > 1e-8:
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The hermitian projector onto the subspace."""
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        return self.basis @ self.basis.conj().T

    def __repr__(self):
        return f"Subspace(dim {self.dim} in C^{self.ambient_dim})"


@dataclass(frozen=True)
class GapResult:
    delta_mn: float
    delta_nm: float
    gap: float


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((n, 0), dtype=complex))


def full_subspace(n: int) -> Subspace:
    return Subspace(n, np.eye(n, dtype=complex))


def subspace_from_columns(cols, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the given columns (need not be independent or orthonormal)."""
    m = as_matrix(cols)
    return Subspace(m.shape[0], orth_basis(m, tol))


def range_of(m, tol: Tolerances = DEFAULT_TOL, scale=None) -> Subspace:
    """Column space of m."""
    a = as_matrix(m)
    return Subspace(a.shape[0], orth_basis(a, tol, scale))


def kernel_of(m, tol: Tolerances = DEFAULT_TOL, scale=None) -> Subspace:
    """Null space of m."""
    a = as_matrix(m)
    return Subspace(a.shape[1], null_basis(a, tol, scale))


def _norm_range_kernel(m, tol: Tolerances = DEFAULT_TOL):
    """(||m||, range_of(m), kernel_of(m)) from one full SVD.

    The rank cutoff is the one range_of and kernel_of use with
    scale = max(||m||, 1). The norm is the leading singular value of the full
    decomposition, which may differ from spectral_norm(m) in the last bits.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if a.size == 0:
        return 0.0, Subspace(rows, np.zeros((rows, 0), dtype=complex)), full_subspace(cols)
    u, s, vh = np.linalg.svd(a)
    nm = float(s[0])
    r = _rank_from_sv(s, a.shape, tol, max(nm, 1.0))
    return nm, Subspace(rows, u[:, :r]), Subspace(cols, vh[r:, :].conj().T)


def orthocomplement(s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    if s.dim == 0:
        return full_subspace(s.ambient_dim)
    return Subspace(s.ambient_dim, null_basis(s.basis.conj().T, tol))


def canonical_basis(s: Subspace) -> np.ndarray:
    """Deterministic orthonormal basis pinned by the subspace alone.

    The .basis attribute inherits whatever sign and ordering conventions the
    SVD happens to use. This one does not: it orthonormalizes the columns of
    the hermitian projector greedily, always taking the column with the
    largest remaining component (first such column on ties). On coordinate
    subspaces it returns the coordinate vectors in index order.
    """
    n, r = s.ambient_dim, s.dim
    if r == 0:
        return np.zeros((n, 0), dtype=complex)
    work = s.projector()
    picked = []
    for _ in range(r):
        norms = np.linalg.norm(work, axis=0)
        j = int(np.argmax(norms))
        if norms[j] < 1e-10:
            raise np.linalg.LinAlgError("projector columns degenerate; cannot canonicalize")
        v = work[:, j] / norms[j]
        for u in picked:
            v = v - u * (u.conj() @ v)
        v = v / np.linalg.norm(v)
        picked.append(v)
        work = work - np.outer(v, v.conj() @ work)
    return np.column_stack(picked)


def _check_ambient(m: Subspace, n: Subspace):
    if m.ambient_dim != n.ambient_dim:
        raise MismatchedAmbient(f"ambient dims differ: {m.ambient_dim} vs {n.ambient_dim}")


def gap(m: Subspace, n: Subspace) -> GapResult:
    """One-sided gaps and their max.

    delta(M, N) = ||(1 - P_N) P_M||_2, with the convention delta({0}, N) = 0.
    Both one-sided values and the symmetric gap lie in [0, 1].
    """
    _check_ambient(m, n)
    eye = np.eye(m.ambient_dim)
    pm, pn = m.projector(), n.projector()

    def one_sided(pa, pb, dim_a):
        if dim_a == 0:
            return 0.0
        v = spectral_norm((eye - pb) @ pa)
        return min(max(v, 0.0), 1.0)

    d_mn = one_sided(pm, pn, m.dim)
    d_nm = one_sided(pn, pm, n.dim)
    return GapResult(d_mn, d_nm, max(d_mn, d_nm))


def intersection_trivial(m: Subspace, n: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the subspaces meet only at 0, decided by a stacked-basis rank."""
    _check_ambient(m, n)
    if m.dim == 0 or n.dim == 0:
        return True
    if m.dim + n.dim > m.ambient_dim:
        return False
    stacked = np.hstack([m.basis, n.basis])
    return rank(stacked, tol) == m.dim + n.dim


def direct_sum_is_all(m: Subspace, n: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when M + N = C^n and the sum is direct."""
    _check_ambient(m, n)
    return m.dim + n.dim == m.ambient_dim and intersection_trivial(m, n, tol)


def map_subspace(m, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Image of the subspace under the matrix m; the dimension may drop."""
    a = as_matrix(m)
    if a.shape[1] != s.ambient_dim:
        raise MismatchedAmbient("matrix columns do not match the subspace ambient dimension")
    if s.dim == 0:
        return zero_subspace(a.shape[0])
    return Subspace(a.shape[0], orth_basis(a @ s.basis, tol))


def subspaces_equal(m: Subspace, n: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Basis-independent equality: the symmetric gap is below 10 * tol_eq."""
    _check_ambient(m, n)
    return m.dim == n.dim and _gap_and_equal(m, n, tol)[1]


def _gap_and_equal(m: Subspace, n: Subspace, tol: Tolerances = DEFAULT_TOL):
    """(gap(m, n), subspaces_equal(m, n)) from one gap evaluation."""
    g = gap(m, n)
    return g, m.dim == n.dim and g.gap <= 10 * tol.tol_eq
