"""Subspaces of C^n and the gap metric between them.

A right ideal generated by a matrix x consists of all matrices whose columns
lie in col(x), so subspace arithmetic on column spaces is the finite
dimensional realization of ideal arithmetic. The one-sided gap between two
ideals in the spectral norm equals the projector formula
delta(M, N) = ||(1 - P_N) P_M||_2 on the corresponding column spaces, which
is what `gap` evaluates, on the orthonormal bases of the two spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import MismatchedAmbient
from .linalg import DEFAULT_TOL, Decision, Tolerances, _counted, _cut, _decide, _rank_cutoff, _singular_values, as_matrix, null_basis, orth_basis, spectral_norm

__all__ = [
    "Subspace",
    "GapResult",
    "zero_subspace",
    "full_subspace",
    "subspace_from_columns",
    "range_of",
    "kernel_of",
    "orthocomplement",
    "gap",
    "intersection_trivial",
    "direct_sum_is_all",
    "map_subspace",
    "subspaces_equal",
]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an n x k matrix with orthonormal columns.

    The constructor checks the shape and, with one SVD, ||B^H B - I||_2 <=
    1e-8 (a NaN or infinite entry fails): that guards the bases callers
    supply. The subspaces this package builds itself hold SVD factors or
    identity columns, orthonormal by construction, and are made by
    _orthonormal without the check.
    """

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
            if not (np.isfinite(d).all() and spectral_norm(d) <= 1e-8):
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


def _orthonormal(n: int, basis: np.ndarray) -> Subspace:
    """The Subspace of C^n spanned by basis, whose columns are orthonormal
    by construction (an SVD factor or identity columns); no Gram check."""
    s = object.__new__(Subspace)
    s.__dict__.update(ambient_dim=n, basis=basis)
    return s


@dataclass(frozen=True)
class GapResult:
    delta_mn: float
    delta_nm: float
    gap: float


def zero_subspace(n: int) -> Subspace:
    return _orthonormal(n, np.zeros((n, 0), dtype=complex))


def full_subspace(n: int) -> Subspace:
    return _orthonormal(n, np.eye(n, dtype=complex))


def subspace_from_columns(cols, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the given columns (need not be independent or orthonormal)."""
    return range_of(cols, tol)


def range_of(m, tol: Tolerances = DEFAULT_TOL, scale=None) -> Subspace:
    """Column space of m."""
    a = as_matrix(m)
    return _orthonormal(a.shape[0], orth_basis(a, tol, scale))


def kernel_of(m, tol: Tolerances = DEFAULT_TOL, scale=None) -> Subspace:
    """Null space of m."""
    a = as_matrix(m)
    return _orthonormal(a.shape[1], null_basis(a, tol, scale))


def _norm_range_kernel(m, tol: Tolerances = DEFAULT_TOL):
    """(||m||, range_of(m), kernel_of(m), how the rank was cut) from one full
    SVD (_summary of as_matrix(m))."""
    return _summary(as_matrix(m), tol)


def _summary(a: np.ndarray, tol: Tolerances):
    """_norm_range_kernel of a matrix a that as_matrix has checked already.

    The rank cutoff is the one range_of and kernel_of use with scale = 1,
    tol_rank max(shape) max(||a||, 1); the last entry is a function that
    gives the decision on the singular value nearest it (linalg._cut), or a
    count for an empty a, worked out only for the few callers that read it.
    The norm is the leading singular value of the full decomposition, which
    may differ from spectral_norm(a) in the last bits. The complete factors
    hold the orthogonal complements too, u[:, r:] of the range and the first
    r rows of vh of the kernel, which go into each subspace's complement
    slot (see orthocomplement).
    """
    rows, cols = a.shape
    if a.size == 0:
        return 0.0, zero_subspace(rows), full_subspace(cols), partial(_counted, True)
    u, s, vh = np.linalg.svd(a)
    nm = float(s[0])
    cutoff = _rank_cutoff(nm, a.shape, tol, 1.0)
    r = int(np.count_nonzero(s > cutoff))
    rng, ker = _orthonormal(rows, u[:, :r]), _orthonormal(cols, vh[r:, :].conj().T)
    rng.__dict__["_complement"] = _orthonormal(rows, u[:, r:])
    ker.__dict__["_complement"] = _orthonormal(cols, vh[:r].conj().T)
    return nm, rng, ker, partial(_cut, s, r, cutoff)


def orthocomplement(s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """The orthogonal complement of s, kept on s in one slot.

    A range or kernel from _summary (so of every idempotent read by
    idempotent_from_matrix) comes with the slot holding the complement, a
    slice of the SVD that found it. Otherwise the first call computes the
    complement from the null space of B^H, with tol's rank cutoff. Either
    way later calls return that object for any tol, since the rank of an
    orthonormal basis is its column count for every tol_rank below 1/n.
    """
    memo = s.__dict__
    c = memo.get("_complement")
    if c is None:
        n = s.ambient_dim
        c = memo["_complement"] = full_subspace(n) if s.dim == 0 else _orthonormal(n, null_basis(s.basis.conj().T, tol))
    return c


def _check_ambient(m: Subspace, n: Subspace):
    if m.ambient_dim != n.ambient_dim:
        raise MismatchedAmbient(f"ambient dims differ: {m.ambient_dim} vs {n.ambient_dim}")


def gap(m: Subspace, n: Subspace) -> GapResult:
    """One-sided gaps and their max, from at most one SVD.

    delta(M, N) = ||(1 - P_N) P_M||_2, with the convention delta({0}, N) = 0,
    evaluated on the bases as ||B_M - B_N (B_N^H B_M)||_2 (see
    _one_sided_gap). Both one-sided values and the symmetric gap lie in
    [0, 1]. The dimensions decide the other side (Kato, Perturbation Theory
    for Linear Operators): when dim M > dim N, M meets the orthogonal
    complement of N, so a unit vector of M is orthogonal to N and
    delta(M, N) = 1 exactly; when dim M = dim N, delta(M, N) = delta(N, M)
    = ||P_M - P_N||_2, so delta_mn, computed as above, is read for delta_nm
    and the gap too. Only the side from the smaller space takes an SVD, and
    none when that space is {0}.
    """
    _check_ambient(m, n)
    if m.dim > n.dim:
        return GapResult(1.0, _one_sided_gap(n.basis, m.basis), 1.0)
    d_mn = _one_sided_gap(m.basis, n.basis)
    return GapResult(d_mn, d_mn, d_mn) if m.dim == n.dim else GapResult(d_mn, 1.0, 1.0)


def _one_sided_gap(ba: np.ndarray, bb: np.ndarray) -> float:
    """delta(A, B) = ||(1 - P_B) P_A||_2 from orthonormal bases of A and B,
    0 when A = {0}; for callers that need only one side of `gap`.

    With P_A = B_A B_A^H, (1 - P_B) P_A = X B_A^H for X = B_A - B_B (B_B^H
    B_A), and ||X B_A^H||_2 = ||X||_2 because B_A^H B_A = I. So one SVD of
    the n x dim A matrix X gives the gap, where the projector formula takes
    n x n products. The value is clamped to [0, 1].
    """
    if ba.shape[1] == 0:
        return 0.0
    v = spectral_norm(ba - bb @ (bb.conj().T @ ba))
    return min(max(v, 0.0), 1.0)


def intersection_trivial(m: Subspace, n: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the subspaces meet only at 0, decided by a stacked-basis rank."""
    return _meet(m, n, tol).truth


def _meet(m: Subspace, n: Subspace, tol: Tolerances) -> Decision:
    """intersection_trivial as a decision: a count when the dimensions
    exceed n, else that of _stacked_rank (a count when a subspace is {0})."""
    _check_ambient(m, n)
    return _counted(False) if m.dim + n.dim > m.ambient_dim else _stacked_rank(m, n, tol)[1]


def _stacked_rank(m: Subspace, n: Subspace, tol: Tolerances):
    """The one stacked-rank test: (how many dimensions m and n share, the
    rank defect of their stacked bases [B_m B_n]; and the decision that they
    share none, whether the least singular value of the stack clears the
    rank cutoff). A count when either is {0}. The decision is read only
    where the dimensions add up to at most n, the column count being above
    the stack's rank otherwise. The leading singular value of the stack is
    at least 1, so the cutoff is never below tol_rank max(shape). Every
    Subspace basis is finite, by the Gram check or as an SVD factor, so the
    stack needs no check of its own."""
    if m.dim == 0 or n.dim == 0:
        return 0, _counted(True)
    stacked = np.hstack([m.basis, n.basis])
    sv = _singular_values(stacked)
    cutoff = _rank_cutoff(sv[0], stacked.shape, tol)
    return stacked.shape[1] - int(np.count_nonzero(sv > cutoff)), _decide(sv[-1], cutoff, ">")


def direct_sum_is_all(m: Subspace, n: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when M + N = C^n and the sum is direct."""
    return _direct_sum(m, n, tol).truth


def _direct_sum(m: Subspace, n: Subspace, tol: Tolerances) -> Decision:
    """direct_sum_is_all as a decision: a count unless the dimensions add up
    to n, then _meet."""
    _check_ambient(m, n)
    return _meet(m, n, tol) if m.dim + n.dim == m.ambient_dim else _counted(False)


def map_subspace(m, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Image of the subspace under the matrix m; the dimension may drop."""
    a = as_matrix(m)
    if a.shape[1] != s.ambient_dim:
        raise MismatchedAmbient("matrix columns do not match the subspace ambient dimension")
    if s.dim == 0:
        return zero_subspace(a.shape[0])
    return _orthonormal(a.shape[0], orth_basis(a @ s.basis, tol))


def subspaces_equal(m: Subspace, n: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Basis-independent equality: the symmetric gap reads zero (_reads_zero)."""
    _check_ambient(m, n)
    return m.dim == n.dim and _gap_and_equal(m, n, tol)[1].truth


def _reads_zero(g: float, tol: Tolerances) -> Decision:
    """Does the gap g read zero? The one rule: g <= 10 tol_eq."""
    return _decide(g, 10 * tol.tol_eq)


def _gap_and_equal(m: Subspace, n: Subspace, tol: Tolerances = DEFAULT_TOL):
    """(gap(m, n), subspaces_equal(m, n) as a decision) from one gap
    evaluation: a count when the dimensions differ, else whether the gap
    reads zero."""
    g = gap(m, n)
    return g, _reads_zero(g.gap, tol) if m.dim == n.dim else _counted(False)
