"""Generalized inverses with prescribed range and kernel.

Given a square matrix a and idempotents p, q, the central object is the
matrix b with b a b = b whose column space equals col(p) and whose null
space equals col(q). When it exists it is unique, and it is computed here
by one small dense solve: with U an orthonormal basis of col(p) and M0 the
adjoint basis of col(q)'s orthogonal complement, b = U (M0 a U)^{-1} M0.
The invertibility of the core M0 a U is exactly the existence condition,
and its smallest singular value is reported as the margin.

The module also provides group, inner, and commuting inner inverses, plus
witness-based representation formulas that rebuild the same b through
independent routes (useful as cross-checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BadWitness,
    DimMismatch,
    ExactSingular,
    IllConditioned,
    NoGroupInverse,
    NotExists,
    RepresentationMismatch,
)
from .exact import ExactMatrix
from .idempotents import Idempotent, idempotent_from_matrix
from .linalg import DEFAULT_TOL, Tolerances, _singular_values, as_matrix, identity, rank, spectral_norm, try_inverse
from .randomstream import RandomStream
from .subspaces import (
    Subspace,
    _norm_range_kernel,
    canonical_basis,
    direct_sum_is_all,
    gap,
    intersection_trivial,
    map_subspace,
    orthocomplement,
)

__all__ = [
    "ExistenceReport",
    "GInvResult",
    "Witness",
    "exists_outer_pql",
    "compute_outer_pql",
    "compute_outer_pql_exact",
    "exists_l",
    "compute_l",
    "classify_strict",
    "group_inverse",
    "one_five_inverse",
    "inner_inverse",
    "build_witness",
    "representation_15",
    "representation_group_12",
    "exists_dual_check",
]


@dataclass(frozen=True)
class ExistenceReport:
    """Boolean breakdown of the existence conditions plus the numeric margin.

    exists is the conjunction of the three booleans and a positive core
    margin; certificates, present only when exists, is a pair (t, s) of
    matrices witnessing the splitting (here t = s = b).
    """

    trivial_kernel_intersection: bool
    direct_sum: bool
    dims_compatible: bool
    sigma_min_core: float
    exists: bool
    certificates: Optional[tuple] = None


class GInvResult:
    """The inverse b, with its defining residuals and the flags derived
    from them (see classify_strict).

    Most callers read only b, so residuals and flags are worked out on first
    access, from the a, p and q that b was solved for (na is ||a|| when the
    caller has it); those inputs must not be changed in place before then.
    A solver keeps in _evaluation the existence evaluation of (a, p, q) that
    b was solved from.
    """

    _evaluation: Optional[_Existence] = None

    def __init__(self, b: np.ndarray, a: np.ndarray, p: Idempotent, q: Idempotent, tol: Tolerances, na=None):
        self.b = b
        self._a, self._p, self._q, self._tol = a, p, q, tol
        if na is not None:
            self.__dict__["_na"] = na

    @cached_property
    def _na(self) -> float:
        return spectral_norm(self._a)

    @cached_property
    def _b_summary(self):
        """(||b||, col b, ker b) from one SVD."""
        return _norm_range_kernel(self.b, self._tol)

    @cached_property
    def _aba_a(self) -> float:
        return spectral_norm(self._a @ self.b @ self._a - self._a)

    @property
    def _l_inverse(self) -> bool:
        """flags["l_inverse"], without working out the other residuals."""
        na, nb = self._na, self._b_summary[0]
        return self._aba_a <= self._tol.tol_eq * (1.0 + na * na * nb)

    @cached_property
    def residuals(self) -> dict:
        a, b, p, q = self._a, self.b, self._p, self._q
        _, col_b, ker_b = self._b_summary
        ba = b @ a
        return {
            "bab_b": spectral_norm(ba @ b - b),
            "aba_a": self._aba_a,
            "ba_p": spectral_norm(ba - p.m),
            "one_ab_q": spectral_norm(np.eye(a.shape[0], dtype=complex) - a @ b - q.m),
            "gap_range": gap(col_b, p.range).gap,
            "gap_kernel": gap(ker_b, q.range).gap,
        }

    @cached_property
    def flags(self) -> dict:
        res = self.residuals
        na, nb, e = self._na, self._b_summary[0], self._tol.tol_eq
        outer = res["bab_b"] <= e * (1.0 + na * nb * nb) and res["gap_range"] <= 10 * e and res["gap_kernel"] <= 10 * e
        strict_pq = res["ba_p"] <= e * (1.0 + na * nb + self._p.norm) and res["one_ab_q"] <= e * (
            1.0 + na * nb + self._q.norm
        )
        l_inverse = self._l_inverse
        return {
            "outer_pql": outer,
            "l_inverse": l_inverse,
            "strict_pq": strict_pq,
            "strict_12": strict_pq and l_inverse,
        }

    def __repr__(self):
        on = [k for k, v in self.flags.items() if v]
        return f"GInvResult(n={self.b.shape[0]}, flags={'+'.join(on) or 'none'})"


@dataclass(frozen=True)
class Witness:
    """A matrix w with certified column space and null space."""

    w: np.ndarray
    certified_range: Subspace
    certified_kernel: Subspace


def _as_idempotent(x, tol: Tolerances) -> Idempotent:
    return x if isinstance(x, Idempotent) else idempotent_from_matrix(x, tol)


def _sigma_min(sv: np.ndarray, shape) -> float:
    if shape[0] == 0 and shape[1] == 0:
        return float("inf")
    return float(sv[-1]) if sv.size else 0.0


def _random_unitary(stream: RandomStream, k: int) -> np.ndarray:
    g = stream.normal_matrix(k, k)
    qm, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return qm * (d / np.abs(d))


def _core_matrices(a, p: Idempotent, q: Idempotent, basis_seed=None):
    """U, M0, and the core M0 a U.

    U spans col(p); the rows of M0 span the orthogonal complement of col(q),
    so that null(M0) = col(q). With basis_seed set, both bases are rotated
    by random unitaries; the assembled b must not change (uniqueness).
    """
    u = p.range.basis
    m0 = orthocomplement(q.range).basis.conj().T
    if basis_seed is not None:
        stream = RandomStream(basis_seed)
        if u.shape[1]:
            u = u @ _random_unitary(stream, u.shape[1])
        if m0.shape[0]:
            m0 = _random_unitary(stream, m0.shape[0]) @ m0
    return u, m0, m0 @ a @ u


class _Existence(NamedTuple):
    """What the outer and the inner-outer existence tests share, plus what
    solving for b needs; only their direct-sum tests differ (_direct_sum)."""

    trivial: bool
    dims: bool
    smin: float
    na: float
    col_a: Subspace
    ker_a: Subspace
    u: np.ndarray
    m0: np.ndarray
    core: np.ndarray
    sv: np.ndarray  # singular values of core


def _checked(a, p, q, tol: Tolerances):
    """(a, p, q) coerced to a matrix and two idempotents of its size."""
    a = as_matrix(a)
    p = _as_idempotent(p, tol)
    q = _as_idempotent(q, tol)
    if a.shape[0] != a.shape[1]:
        raise DimMismatch("a must be square")
    if p.n != a.shape[0] or q.n != a.shape[0]:
        raise DimMismatch("idempotents must match the size of a")
    return a, p, q


def _existence(a, p: Idempotent, q: Idempotent, tol: Tolerances, summary=None) -> _Existence:
    """summary is _norm_range_kernel(a) when the caller has it."""
    n = a.shape[0]
    na, col_a, ker_a = _norm_range_kernel(a, tol) if summary is None else summary
    trivial = intersection_trivial(ker_a, p.range, tol)
    dims = p.rank + q.rank == n
    u, m0, core = _core_matrices(a, p, q)
    sv = _singular_values(core)
    return _Existence(trivial, dims, _sigma_min(sv, core.shape), na, col_a, ker_a, u, m0, core, sv)


def _direct_sum(e: _Existence, a, p: Idempotent, q: Idempotent, tol: Tolerances, l_mode: bool) -> bool:
    """col(a) + col(q) = C^n for the inner-outer variant, a col(p) + col(q)
    = C^n for the outer one."""
    return direct_sum_is_all(e.col_a if l_mode else map_subspace(a, p.range, tol), q.range, tol)


def _exists(e: _Existence, dsum: bool, tol: Tolerances) -> bool:
    return e.trivial and dsum and e.dims and e.smin > tol.tol_inv * e.na


def _solve(u, m0, core, sv, tol: Tolerances) -> np.ndarray:
    """b = U core^{-1} M0, with try_inverse's singularity test on the
    singular values sv of core."""
    k = core.shape[0]
    if k and (sv[0] == 0.0 or sv[-1] <= tol.tol_inv * sv[0]):
        raise IllConditioned(f"core matrix is numerically singular (sigma_min = {sv[-1]:.3e})")
    return u @ np.linalg.solve(core, identity(k)) @ m0


def _existence_report(a, p, q, tol: Tolerances, l_mode: bool) -> ExistenceReport:
    a, p, q = _checked(a, p, q, tol)
    e = _existence(a, p, q, tol)
    dsum = _direct_sum(e, a, p, q, tol, l_mode)
    exists = _exists(e, dsum, tol)
    certs = None
    if exists:
        b = _solve(e.u, e.m0, e.core, e.sv, tol)
        certs = (b, b)
    return ExistenceReport(e.trivial, dsum, e.dims, e.smin, exists, certs)


def exists_outer_pql(a, p, q, tol: Tolerances = DEFAULT_TOL) -> ExistenceReport:
    """Does the outer inverse with range col(p) and kernel col(q) exist?

    Checks, in subspace form: null(a) meets col(p) trivially, a*col(p) and
    col(q) split the whole space, and rank p + rank q = n. The core margin
    sigma_min(M0 a U) certifies the same thing numerically. The report is
    always produced; when the inverse exists the certificate pair (t, s)
    with t = s = b is attached; this b is bit for bit the b of
    compute_outer_pql.
    """
    return _existence_report(a, p, q, tol, l_mode=False)


def compute_outer_pql(a, p, q, tol: Tolerances = DEFAULT_TOL, *, basis_seed=None) -> GInvResult:
    """The outer inverse b with col(b) = col(p) and null(b) = col(q).

    Raises NotExists when the subspace conditions fail, IllConditioned when
    they pass but the core is numerically singular. basis_seed rotates the
    internal orthonormal bases; the result must agree (b is unique).
    """
    a, p, q = _checked(a, p, q, tol)
    return _outer(a, p, q, tol, _existence(a, p, q, tol), basis_seed)


def _outer(a, p: Idempotent, q: Idempotent, tol: Tolerances, e: _Existence, basis_seed=None) -> GInvResult:
    """compute_outer_pql on checked inputs, given their existence evaluation e."""
    dsum = _direct_sum(e, a, p, q, tol, l_mode=False)
    if not (e.trivial and dsum and e.dims):
        raise NotExists(
            "no outer inverse with the prescribed range and kernel: "
            f"trivial_kernel_intersection={e.trivial}, direct_sum={dsum}, dims_compatible={e.dims}"
        )
    if not _exists(e, dsum, tol):
        raise IllConditioned(f"core margin too small (sigma_min = {e.smin:.3e})")
    u, m0, core, sv = e.u, e.m0, e.core, e.sv
    if basis_seed is not None:
        u, m0, core = _core_matrices(a, p, q, basis_seed)
        sv = _singular_values(core)
    result = GInvResult(_solve(u, m0, core, sv, tol), a, p, q, tol, e.na)
    result._evaluation = e
    return result


def _solved(a, p: Idempotent, q: Idempotent, tol: Tolerances, l_mode: bool = False, summary=None):
    """The outer inverse for checked (a, p, q), or None when it does not exist;
    with l_mode, also None when the inner-outer existence test fails."""
    e = _existence(a, p, q, tol, summary)
    if l_mode and not _exists(e, _direct_sum(e, a, p, q, tol, l_mode=True), tol):
        return None
    try:
        return _outer(a, p, q, tol, e)
    except NotExists:
        return None


def exists_l(a, p, q, tol: Tolerances = DEFAULT_TOL) -> ExistenceReport:
    """Existence of the inner-and-outer variant (a b a = a as well).

    Requires col(a) and col(q) to split the space and null(a) and col(p) to
    split the space. The report reuses the same fields: direct_sum here
    refers to col(a) + col(q)."""
    return _existence_report(a, p, q, tol, l_mode=True)


def compute_l(a, p, q, tol: Tolerances = DEFAULT_TOL) -> GInvResult:
    """Compute the inverse and insist that a b a = a holds as well."""
    a, p, q = _checked(a, p, q, tol)
    return _l(a, p, q, tol)


def _l(a, p: Idempotent, q: Idempotent, tol: Tolerances, summary=None) -> GInvResult:
    """compute_l on checked inputs; summary is _norm_range_kernel(a) when the caller has it."""
    e = _existence(a, p, q, tol, summary)
    return _require_l(a, p, q, tol, lambda: _outer(a, p, q, tol, e), e)


def _require_l(a, p, q, tol: Tolerances, outer, e: _Existence) -> GInvResult:
    """compute_l's two tests: the inner-outer existence test on e, the
    existence evaluation of (a, p, q), then a b a = a on the outer inverse
    that outer() returns (called only after the first)."""
    dsum = _direct_sum(e, a, p, q, tol, l_mode=True)
    if not _exists(e, dsum, tol):
        raise NotExists(
            "no inner-outer inverse for these idempotents: "
            f"trivial_kernel_intersection={e.trivial}, "
            f"direct_sum={dsum}, dims_compatible={e.dims}, "
            f"sigma_min_core={e.smin:.3e}"
        )
    result = outer()
    if not result._l_inverse:
        raise NotExists(f"a b a = a fails: residual {result.residuals['aba_a']:.3e}")
    return result


def classify_strict(a, p, q, b, tol: Tolerances = DEFAULT_TOL) -> GInvResult:
    """All six defining residuals of b, with the derived boolean flags.

    outer_pql needs b a b = b and the two subspace gaps small; l_inverse
    needs a b a = a; strict_pq needs the exact products b a = p and
    1 - a b = q; strict_12 is both. Thresholds are relative to the norms
    of the factors entering each residual.
    """
    a, p, q = _checked(a, p, q, tol)
    b = as_matrix(b)
    if b.shape != a.shape:
        raise DimMismatch("b must have the same shape as a")
    return GInvResult(b, a, p, q, tol)


def group_inverse(x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The commuting inverse on the range of x, when x has index at most 1.

    Built from a rank factorization x = F G: the inverse is F (G F)^-2 G,
    and it exists exactly when G F is invertible.
    """
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise DimMismatch("group inverse needs a square matrix")
    n = x.shape[0]
    if n == 0:
        return x.copy()
    um, s, vh = np.linalg.svd(x)
    r = rank(x, tol)
    if r == 0:
        return np.zeros_like(x)
    f = um[:, :r] * s[:r]
    g = vh[:r, :]
    gf = g @ f
    inv = try_inverse(gf, tol)
    if inv is None:
        raise NoGroupInverse("index exceeds 1 (rank-factor product is singular)")
    return f @ inv @ inv @ g


def one_five_inverse(x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A y with x y x = x and x y = y x; the group inverse serves."""
    try:
        return group_inverse(x, tol)
    except NoGroupInverse as exc:
        raise NotExists(f"no commuting inner inverse: {exc}") from exc


def inner_inverse(x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A y with x y x = x; the pseudoinverse is the canonical pick."""
    x = as_matrix(x)
    if x.size == 0:
        return x.conj().T.copy()
    return np.linalg.pinv(x, rcond=tol.tol_rank * max(x.shape))


def build_witness(p, q, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """A matrix w with col(w) = col(p) and null(w) = col(q).

    Needs rank p + rank q = n. Constructed as U Q* from orthonormal bases
    of col(p) and of col(q)'s orthogonal complement; canonical bases are
    used so the witness is a function of the subspaces, not of SVD
    conventions.
    """
    p = _as_idempotent(p, tol)
    q = _as_idempotent(q, tol)
    if p.n != q.n:
        raise DimMismatch("idempotents live in different dimensions")
    if p.rank + q.rank != p.n:
        raise DimMismatch(f"rank p ({p.rank}) + rank q ({q.rank}) must equal n ({p.n})")
    u = canonical_basis(p.range)
    qb = canonical_basis(orthocomplement(q.range))
    w = u @ qb.conj().T
    return Witness(w=w, certified_range=p.range, certified_kernel=q.range)


def representation_15(a, p, q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Rebuild the outer inverse through a witness and commuting inverses.

    With w the witness for (p, q), the three expressions
    (wa)^(1,5) w,  w (aw)^(1,5),  w (waw)^- w
    must all equal the directly computed inverse. Any pairwise disagreement
    raises RepresentationMismatch: it signals a bug or a tolerance breach,
    not a property of the input.
    """
    a, p, q = _checked(a, p, q, tol)
    direct = compute_outer_pql(a, p, q, tol)
    w = build_witness(p, q, tol).w
    wa = w @ a
    aw = a @ w
    e1 = one_five_inverse(wa, tol) @ w
    e2 = w @ one_five_inverse(aw, tol)
    e3 = w @ inner_inverse(w @ a @ w, tol) @ w
    ref = 1.0 + spectral_norm(direct.b)
    thresh = 100.0 * tol.tol_eq * ref * ref
    for name, expr in (("(wa)^(1,5) w", e1), ("w (aw)^(1,5)", e2), ("w (waw)^- w", e3)):
        d = spectral_norm(expr - direct.b)
        if d > thresh:
            raise RepresentationMismatch(f"{name} deviates from the direct inverse by {d:.3e}")
    return e1


def representation_group_12(a, w, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The strict inverse from a witness with idempotent products.

    When wa and aw are idempotent, b = (wa)^# w = w (aw)^# satisfies all
    four equations b a b = b, a b a = a, b a = wa, 1 - a b = 1 - aw.
    BadWitness flags a w whose products fail these requirements;
    RepresentationMismatch flags disagreement between the two expressions.
    """
    a = as_matrix(a)
    w = as_matrix(w)
    if a.shape != w.shape or a.shape[0] != a.shape[1]:
        raise DimMismatch("a and w must be square of the same size")
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    wa = w @ a
    aw = a @ w
    for name, m in (("wa", wa), ("aw", aw)):
        nm = spectral_norm(m)
        if spectral_norm(m @ m - m) > tol.tol_eq * (1.0 + nm * nm):
            raise BadWitness(f"{name} is not idempotent")
    b1 = group_inverse(wa, tol) @ w
    b2 = w @ group_inverse(aw, tol)
    scale = 1.0 + spectral_norm(b1)
    if spectral_norm(b1 - b2) > 100.0 * tol.tol_eq * scale * scale:
        raise RepresentationMismatch("(wa)^# w and w (aw)^# disagree")
    na = spectral_norm(a)
    nb = spectral_norm(b1)
    checks = (
        ("b a b = b", spectral_norm(b1 @ a @ b1 - b1), 1.0 + na * nb * nb),
        ("a b a = a", spectral_norm(a @ b1 @ a - a), 1.0 + na * na * nb),
        ("b a = wa", spectral_norm(b1 @ a - wa), 1.0 + na * nb),
        ("1 - a b = 1 - aw", spectral_norm(eye - a @ b1 - (eye - aw)), 1.0 + na * nb),
    )
    for name, resid, scale in checks:
        if resid > 100.0 * tol.tol_eq * scale:
            raise BadWitness(f"witness does not produce a strict inverse: {name} off by {resid:.3e}")
    return b1


def exists_dual_check(a, p, q, tol: Tolerances = DEFAULT_TOL) -> bool:
    """The same existence question asked through row spaces.

    Annihilator form of the left-sided conditions: rows killing a must meet
    rows of 1 - q trivially, and the row space of (1 - q) a together with
    the rows of 1 - p must fill the space. Everything reduces to column
    spaces of adjoints; must agree with exists_outer_pql on every input.
    """
    a, p, q = _checked(a, p, q, tol)
    left_kernel_a = orthocomplement(_norm_range_kernel(a, tol)[1])
    rows_one_minus_q = orthocomplement(q.range)
    cond1 = intersection_trivial(left_kernel_a, rows_one_minus_q, tol)
    rows_one_minus_q_a = map_subspace(a.conj().T, rows_one_minus_q, tol)
    rows_one_minus_p = orthocomplement(p.range)
    cond2 = direct_sum_is_all(rows_one_minus_q_a, rows_one_minus_p, tol)
    return cond1 and cond2


def compute_outer_pql_exact(a: ExactMatrix, p: ExactMatrix, q: ExactMatrix) -> ExactMatrix:
    """Exact-rational version of compute_outer_pql.

    Bases need not be orthonormal here: U holds the pivot columns of p and
    the rows of M0 are an exact basis of the annihilator of col(q). The
    result satisfies its defining equations with exact equality.
    """
    n = a.rows
    if a.cols != n or p.rows != n or p.cols != n or q.rows != n or q.cols != n:
        raise DimMismatch("exact inputs must be square matrices of one size")
    u = p.column_basis()
    nq = q.conj_transpose().null_basis()
    m0 = nq.conj_transpose()
    if u.cols != m0.rows:
        raise NotExists(f"rank p ({u.cols}) + rank q ({n - m0.rows}) must equal n ({n})")
    core = m0 @ a @ u
    try:
        inv = core.inverse()
    except ExactSingular as exc:
        raise NotExists("exact core is singular") from exc
    return u @ inv @ m0
