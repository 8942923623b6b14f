"""Generalized inverses with prescribed range and kernel.

Given a square matrix a and idempotents p, q, the central object is the
matrix b with b a b = b whose column space equals col(p) and whose null
space equals col(q). When it exists it is unique, and it is computed here
by one small dense solve: with U an orthonormal basis of col(p) and M0 the
adjoint basis of col(q)'s orthogonal complement, b = U (M0 a U)^{-1} M0.
The invertibility of the core M0 a U is exactly the existence condition,
and its smallest singular value is reported as the margin. One existence
evaluation of (a, p, q), the private _Evaluation, holds what the outer test
and the inner-outer test (a b a = a as well) share, and answers and solves
both.

The module also provides group, inner, and commuting inner inverses, plus
witness-based representation formulas that rebuild the same b through
independent routes (useful as cross-checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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
from .linalg import _EPS, DEFAULT_TOL, Tolerances, _inverse_from_sv, _norm_low, _norm_within, _rank_from_sv, _singular_values, as_matrix, spectral_norm, try_inverse
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

    Most callers read only b, so each residual is worked out on first
    access, from the a, p and q that b was solved for (na is ||a|| when the
    caller has it); those inputs must not be changed in place before then.
    A private flag reads only the residuals it needs (_outer_pql: bab_b and
    the gaps, _l_inverse: aba_a, _strict_pq: ba_p and one_ab_q, _strict_12
    both), and it settles an algebraic residual's threshold test without
    working the residual out when the Frobenius norm of its matrix can
    (_residual_within): each threshold grows with ||b||, ||p|| and ||q||,
    so it is evaluated at lower bounds of these, and _norm_within proves
    that such a verdict is the exact one. The public flags work out every
    residual first, so they and residuals report exact values. A solver
    keeps in _evaluation the existence evaluation of (a, p, q) that b was
    solved from.
    """

    _evaluation: Optional[_Evaluation] = None

    # The matrices whose spectral norms are the algebraic residuals.
    _MATRICES = {
        "_bab_b": lambda r: r.b @ r._a @ r.b - r.b,
        "_aba_a": lambda r: r._a @ r.b @ r._a - r._a,
        "_ba_p": lambda r: r.b @ r._a - r._p.m,
        "_one_ab_q": lambda r: np.eye(r._a.shape[0], dtype=complex) - r._a @ r.b - r._q.m,
    }

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
    def _bab_b(self) -> float:
        return spectral_norm(self._MATRICES["_bab_b"](self))

    @cached_property
    def _aba_a(self) -> float:
        return spectral_norm(self._MATRICES["_aba_a"](self))

    @cached_property
    def _ba_p(self) -> float:
        return spectral_norm(self._MATRICES["_ba_p"](self))

    @cached_property
    def _one_ab_q(self) -> float:
        return spectral_norm(self._MATRICES["_one_ab_q"](self))

    @cached_property
    def _gap_range(self) -> float:
        return gap(self._b_summary[1], self._p.range).gap

    @cached_property
    def _gap_kernel(self) -> float:
        return gap(self._b_summary[2], self._q.range).gap

    def _residual_within(self, name: str, threshold, idem: Optional[Idempotent] = None) -> bool:
        """Is the residual `name` at most threshold(||b||, ||idem||) (0.0 for
        the second norm without idem)? threshold must not decrease in either.

        A residual worked out already is compared exactly. Otherwise the
        Frobenius test compares its matrix with the threshold at ||b||_F /
        sqrt(n) until _b_summary holds ||b||, and at idem's norm if that is
        cached, else 0.0; the residual is worked out only when that test
        cannot decide.
        """

        def exact():
            return getattr(self, name) <= threshold(self._b_summary[0], 0.0 if idem is None else idem.norm)

        if name in self.__dict__:
            return exact()
        nb = self._b_summary[0] if "_b_summary" in self.__dict__ else _norm_low(self.b)
        low = threshold(nb, 0.0 if idem is None else idem.__dict__.get("norm", 0.0))
        return _norm_within(self._MATRICES[name](self), low, exact)

    @property
    def _outer_pql(self) -> bool:
        na, e = self._na, self._tol.tol_eq
        return (
            self._residual_within("_bab_b", lambda nb, _: e * (1.0 + na * nb * nb))
            and self._gap_range <= 10 * e
            and self._gap_kernel <= 10 * e
        )

    @property
    def _l_inverse(self) -> bool:
        na = self._na
        return self._residual_within("_aba_a", lambda nb, _: self._tol.tol_eq * (1.0 + na * na * nb))

    @property
    def _strict_pq(self) -> bool:
        na, e = self._na, self._tol.tol_eq

        def threshold(nb, n_idem):
            return e * (1.0 + na * nb + n_idem)

        return self._residual_within("_ba_p", threshold, self._p) and self._residual_within("_one_ab_q", threshold, self._q)

    @property
    def _strict_12(self) -> bool:
        return self._strict_pq and self._l_inverse

    @cached_property
    def residuals(self) -> dict:
        return {
            "bab_b": self._bab_b,
            "aba_a": self._aba_a,
            "ba_p": self._ba_p,
            "one_ab_q": self._one_ab_q,
            "gap_range": self._gap_range,
            "gap_kernel": self._gap_kernel,
        }

    @cached_property
    def flags(self) -> dict:
        self.residuals  # the classification works out every residual
        return {
            "outer_pql": self._outer_pql,
            "l_inverse": self._l_inverse,
            "strict_pq": self._strict_pq,
            "strict_12": self._strict_12,
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


def _checked(a, p, q, tol: Tolerances):
    """(a, p, q) coerced to a matrix and two idempotents of its size. Like a
    NaN entry, an ||a|| beyond double range raises ValueError; the SVD runs
    only when n max |a_ij|, a bound on ||a||_F >= ||a||, overflows."""
    a = as_matrix(a)
    p = _as_idempotent(p, tol)
    q = _as_idempotent(q, tol)
    if a.shape[0] != a.shape[1]:
        raise DimMismatch("a must be square")
    if p.n != a.shape[0] or q.n != a.shape[0]:
        raise DimMismatch("idempotents must match the size of a")
    with np.errstate(over="ignore", invalid="ignore"):
        if not (np.isfinite(a.shape[0] * np.abs(a).max(initial=0.0)) or np.isfinite(spectral_norm(a))):
            raise ValueError("the spectral norm of a is beyond double range")
    return a, p, q


def _solve(u, m0, core, sv, tol: Tolerances) -> np.ndarray:
    """b = U core^{-1} M0, given the singular values sv of core."""
    inverse = _inverse_from_sv(core, sv, tol)
    if inverse is None:
        raise IllConditioned(f"core matrix is numerically singular (sigma_min = {sv[-1]:.3e})")
    return u @ inverse @ m0


# K of the core-margin certificate of _Evaluation (see _certified).
_CORE_K = 1e4


class _Evaluation:
    """The existence evaluation of checked (a, p, q).

    The constructor computes ||a||, col a and ker a (summary is
    _norm_range_kernel(a) when the caller has it) and the dims. The core
    M0 a U with its singular values, the trivial meets of ker a with col p
    and of col a with col q, and each test's direct sum are worked out on
    first use. Both inverses are solved from the core; a property that
    raises caches nothing.

    The core margin s = sigma_min(M0 a U) settles the outer test's two
    subspace conditions, trivial and direct_sum, without their stacked SVDs
    once the core is decomposed, the dims hold and s >= K n max(tol_rank,
    eps) max(||a||, 1) with K = _CORE_K = 1e4 (_certified). Both are then
    True, as their SVDs would find. Write t = tol_rank and c = n t max(||a||,
    1): _norm_range_kernel drops the singular values of a up to c, so the
    basis K_a of ker a has ||a K_a|| <= c. The singular values of stacked
    orthonormal bases of two subspaces are sqrt(1 +- cos theta_i) over their
    principal angles theta_i, and 1 beyond (Bjorck & Golub, Math. Comp. 27,
    1973), so the stacked rank that intersection_trivial takes is full
    when sin theta_1 / sqrt(2) exceeds its cutoff t sigma_max n <= sqrt(2) n t,
    that is when sin theta_1 > 2 n t.
    trivial: a unit x = U y in col p at the least angle theta_1 to ker a is
    k + w with k in ker a, ||k|| = cos theta_1 and ||w|| = sin theta_1, so
    s <= ||M0 a x|| <= ||a x|| <= c + ||a|| sin theta_1. s > c therefore rules
    out a common vector (and with it dim ker a + rank p > n), and
    s > c + 2 n t ||a|| gives sin theta_1 > 2 n t.
    direct_sum: sigma_min(a U) >= s > n t ||a U||, so a col(p) keeps the
    dimension rank p and, with the dims, fills C^n together with col q. Its
    orthonormal basis X has a U = X R with ||R|| <= ||a||, and the singular
    values of M0 X are the sines of the principal angles between col X and
    col q (Bjorck & Golub), so sin theta_1 >= s / ||a||; s > 2 n t ||a||
    gives the full rank.
    In exact arithmetic K = 3 suffices, as c + 2 n t ||a|| <= 3 n t max(||a||,
    1); the rest of K leaves (K - 3) n eps max(||a||, 1) of s for the
    rounding of the bases, products and singular values, which is of order
    p(n) eps max(||a||, 1). The margin scales with max(||a||, 1) because the
    kernel cutoff c does: for ||a|| < 1 a margin in ||a|| alone falls below
    c. It floors tol_rank at eps because below eps the cutoffs sit under
    that rounding.
    """

    def __init__(self, a, p: Idempotent, q: Idempotent, tol: Tolerances, summary=None):
        self.a, self.p, self.q, self.tol = a, p, q, tol
        self.na, self.col_a, self.ker_a = _norm_range_kernel(a, tol) if summary is None else summary
        self.dims = p.rank + q.rank == a.shape[0]

    def moved(self, p: Idempotent, q: Idempotent) -> _Evaluation:
        """The evaluation of (a, p, q) for other idempotents of the same size.

        It shares ||a||, col a and ker a with this one, and the trivial meet
        and a col(p) with the first evaluation moved from here to the same p
        (with this one when p is its own), each once that one has it.
        """
        e = _Evaluation(self.a, p, q, self.tol, (self.na, self.col_a, self.ker_a))
        first = self._by_p.setdefault(p, e)
        e.__dict__.update((k, first.__dict__[k]) for k in ("trivial", "_image") if k in first.__dict__)
        return e

    @cached_property
    def _by_p(self) -> dict:
        """The first evaluation per p among this one and those moved from it."""
        return {self.p: self}

    @cached_property
    def _core(self):
        """(U, M0, the core M0 a U, its singular values)."""
        u, m0, core = _core_matrices(self.a, self.p, self.q)
        return u, m0, core, _singular_values(core)

    def _core_first(self) -> None:
        """Decompose the core ahead of the subspace tests, so that its margin
        can settle them. A core that does not decompose (one that overflowed)
        is left for later, so that the subspace tests raise their own error
        first."""
        if self.dims:
            try:
                self._core
            except np.linalg.LinAlgError:
                pass

    @cached_property
    def smin(self) -> float:
        """The core margin: sigma_min(M0 a U), inf for a 0 x 0 core."""
        _, _, core, sv = self._core
        if core.shape == (0, 0):
            return float("inf")
        return float(sv[-1]) if sv.size else 0.0

    @property
    def _certified(self) -> bool:
        """Does the core margin prove trivial and direct_sum (see the class
        docstring)? Only a core that is decomposed already is read."""
        if not (self.dims and "_core" in self.__dict__):
            return False
        return self.smin >= _CORE_K * self.a.shape[0] * max(self.tol.tol_rank, _EPS) * max(self.na, 1.0)

    @cached_property
    def trivial(self) -> bool:
        """Does ker a meet col p only at zero?"""
        return self._certified or intersection_trivial(self.ker_a, self.p.range, self.tol)

    @cached_property
    def _image(self) -> Subspace:
        """a col(p)."""
        return map_subspace(self.a, self.p.range, self.tol)

    @cached_property
    def direct_sum(self) -> bool:
        """The outer test's direct sum: a col(p) + col(q) = C^n."""
        return self._certified or direct_sum_is_all(self._image, self.q.range, self.tol)

    @cached_property
    def _stacked_sv(self):
        """(shape, singular values) of the stacked bases [col a, col q]."""
        stacked = np.hstack([self.col_a.basis, self.q.range.basis])
        return stacked.shape, _singular_values(stacked)

    @cached_property
    def trivial_q(self) -> bool:
        """Does col a meet col q only at zero? Dimensions above n decide
        alone; otherwise the stacked SVD does."""
        dims = self.col_a.dim + self.q.rank
        if self.col_a.dim == 0 or self.q.rank == 0:
            return True
        if dims > self.a.shape[0]:
            return False
        shape, sv = self._stacked_sv
        return _rank_from_sv(sv, shape, self.tol) == dims

    @cached_property
    def direct_sum_l(self) -> bool:
        """The inner-outer test's direct sum: col(a) + col(q) = C^n."""
        return self.col_a.dim + self.q.rank == self.a.shape[0] and self.trivial_q

    def exists(self, l_mode: bool) -> bool:
        self._core_first()
        dsum = self.direct_sum_l if l_mode else self.direct_sum
        return self.trivial and dsum and self.dims and self.smin > self.tol.tol_inv * self.na

    def report(self, l_mode: bool) -> ExistenceReport:
        """The existence report; its certificate is solved from the core directly."""
        exists = self.exists(l_mode)
        certs = None
        if exists:
            b = _solve(*self._core, self.tol)
            certs = (b, b)
        dsum = self.direct_sum_l if l_mode else self.direct_sum
        return ExistenceReport(self.trivial, dsum, self.dims, self.smin, exists, certs)

    def solve(self, basis_seed=None) -> GInvResult:
        """compute_outer_pql(a, p, q, basis_seed=basis_seed). The subspace
        tests run before the core is decomposed, so that a request whose
        inverse does not exist pays no core SVD."""
        if not (self.trivial and self.direct_sum and self.dims):
            raise NotExists(
                "no outer inverse with the prescribed range and kernel: "
                f"trivial_kernel_intersection={self.trivial}, direct_sum={self.direct_sum}, dims_compatible={self.dims}"
            )
        if not self.exists(l_mode=False):
            raise IllConditioned(f"core margin too small (sigma_min = {self.smin:.3e})")
        u, m0, core, sv = self._core
        if basis_seed is not None:
            u, m0, core = _core_matrices(self.a, self.p, self.q, basis_seed)
            sv = _singular_values(core)
        result = GInvResult(_solve(u, m0, core, sv, self.tol), self.a, self.p, self.q, self.tol, self.na)
        result._evaluation = self
        return result

    @cached_property
    def outer(self) -> GInvResult:
        """compute_outer_pql(a, p, q), for callers that expect it to exist:
        the core comes first, so that its margin can settle the subspace
        tests."""
        self._core_first()
        return self.solve()

    @cached_property
    def inner_outer(self) -> GInvResult:
        """compute_l(a, p, q): the inner-outer test, then a b a = a on outer."""
        if not self.exists(l_mode=True):
            raise NotExists(
                "no inner-outer inverse for these idempotents: "
                f"trivial_kernel_intersection={self.trivial}, "
                f"direct_sum={self.direct_sum_l}, dims_compatible={self.dims}, "
                f"sigma_min_core={self.smin:.3e}"
            )
        result = self.outer
        if not result._l_inverse:
            raise NotExists(f"a b a = a fails: residual {result._aba_a:.3e}")
        return result


def exists_outer_pql(a, p, q, tol: Tolerances = DEFAULT_TOL) -> ExistenceReport:
    """Does the outer inverse with range col(p) and kernel col(q) exist?

    Checks, in subspace form: null(a) meets col(p) trivially, a*col(p) and
    col(q) split the whole space, and rank p + rank q = n. The core margin
    sigma_min(M0 a U) certifies the same thing numerically. The report is
    always produced; when the inverse exists the certificate pair (t, s)
    with t = s = b is attached; this b is bit for bit the b of
    compute_outer_pql.
    """
    return _Evaluation(*_checked(a, p, q, tol), tol).report(l_mode=False)


def compute_outer_pql(a, p, q, tol: Tolerances = DEFAULT_TOL, *, basis_seed=None) -> GInvResult:
    """The outer inverse b with col(b) = col(p) and null(b) = col(q).

    Raises NotExists when the subspace conditions fail, IllConditioned when
    they pass but the core is numerically singular. basis_seed rotates the
    internal orthonormal bases; the result must agree (b is unique).
    """
    return _Evaluation(*_checked(a, p, q, tol), tol).solve(basis_seed)


def _solved(a, p: Idempotent, q: Idempotent, tol: Tolerances, l_mode: bool = False, summary=None):
    """The outer inverse for checked (a, p, q), or None when it does not exist;
    with l_mode, also None when the inner-outer existence test fails."""
    e = _Evaluation(a, p, q, tol, summary)
    if l_mode and not e.exists(l_mode=True):
        return None
    try:
        return e.outer
    except NotExists:
        return None


def exists_l(a, p, q, tol: Tolerances = DEFAULT_TOL) -> ExistenceReport:
    """Existence of the inner-and-outer variant (a b a = a as well).

    Requires col(a) and col(q) to split the space and null(a) and col(p) to
    split the space. The report reuses the same fields: direct_sum here
    refers to col(a) + col(q)."""
    return _Evaluation(*_checked(a, p, q, tol), tol).report(l_mode=True)


def compute_l(a, p, q, tol: Tolerances = DEFAULT_TOL) -> GInvResult:
    """Compute the inverse and insist that a b a = a holds as well."""
    return _Evaluation(*_checked(a, p, q, tol), tol).inner_outer


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
    r = _rank_from_sv(s, x.shape, tol)
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
