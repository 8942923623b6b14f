"""Generalized inverses with prescribed range and kernel.

Given a square matrix a and idempotents p, q, the central object is the
matrix b with b a b = b whose column space equals col(p) and whose null
space equals col(q). When it exists it is unique, and it is computed here
by one small dense solve: with U an orthonormal basis of col(p) and M0 the
adjoint basis of col(q)'s orthogonal complement, b = U (M0 a U)^{-1} M0.
With rank p + rank q = n, the invertibility of the core M0 a U is exactly
the existence condition, and it is decided once, by the core margin:
sigma_min(M0 a U) > tol_inv ||a||. The subspace conditions it implies are
tested only to explain a failure. One existence evaluation of (a, p, q),
the private _Evaluation, holds what the outer test and the inner-outer test
(a b a = a as well) share, and answers and solves both the same way: the
core is decomposed first, and b is solved from it once.

The module also provides group, inner, and commuting inner inverses, plus
witness-based representation formulas that rebuild the same b through
independent routes (useful as cross-checks).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
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
from .linalg import DEFAULT_TOL, Decision, Tolerances, _all, _cached, _counted, _decide, _decide_scaled, _eye, _norm_low, _norm_within, _rank_from_sv, _singular_values, as_matrix, spectral_norm, try_inverse
from .randomstream import RandomStream
from .subspaces import Subspace, _direct_sum, _meet, _norm_range_kernel, _reads_zero, _stacked_rank, direct_sum_is_all, gap, intersection_trivial, map_subspace, orthocomplement

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


@dataclass(frozen=True, eq=False)
class ExistenceReport:
    """Boolean breakdown of the existence conditions plus the numeric margin.

    For the outer test, exists is dims_compatible and the core margin
    sigma_min_core > tol_inv ||a||; where it holds, the invertible core
    proves the two subspace booleans True, and where it fails they are the
    subspace tests' own verdicts, which say why. For the inner-outer test,
    direct_sum is col(a) + col(q) = C^n, which exists needs as well.
    certificates, present only when exists, is a pair (t, s) of matrices
    witnessing the splitting (here t = s = b, the one solve of the core, for
    the outer and the inner-outer test alike).
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
    A private flag tests the parts that _FLAGS names for it, in that order,
    is decided once and cached like the residuals, and settles an algebraic
    residual's threshold test without working the residual out when the
    Frobenius norm of its matrix can (_residual_within): each threshold
    grows with ||b||, ||p|| and ||q||, so it is evaluated at lower bounds of
    these, and _norm_within proves that such a verdict is the exact one. The
    public flags work out every residual first, so residuals reports exact
    values and the flags their exact verdicts. _part gives the exact test of
    one residual or gap as a decision, and _flags_decision that of the
    flags it names.
    """

    # Each algebraic residual: the matrix whose spectral norm it is, the
    # norms at ||a|| and ||b|| whose product its threshold over tol_eq adds
    # to 1 and to the norm of the idempotent named last (none without one),
    # and that name (see _threshold).
    _RESIDUALS = {
        "_bab_b": (lambda r: r.b @ r._a @ r.b - r.b, lambda na, nb: (na, nb, nb), None),
        "_aba_a": (lambda r: r._a @ r.b @ r._a - r._a, lambda na, nb: (na, na, nb), None),
        "_ba_p": (lambda r: r.b @ r._a - r._p.m, lambda na, nb: (na, nb), "_p"),
        "_one_ab_q": (lambda r: _eye(r._a.shape[0]) - r._a @ r.b - r._q.m, lambda na, nb: (na, nb), "_q"),
    }

    def __init__(self, b: np.ndarray, a: np.ndarray, p: Idempotent, q: Idempotent, tol: Tolerances, na=None):
        self.b = b
        self._a, self._p, self._q, self._tol = a, p, q, tol
        if na is not None:
            self.__dict__["_na"] = na

    @_cached
    def _na(self) -> float:
        return spectral_norm(self._a)

    @_cached
    def _b_summary(self):
        """(||b||, col b, ker b) from one SVD."""
        return _norm_range_kernel(self.b, self._tol)

    # The residuals, in the order of _RESIDUALS, each worked out on first access.
    _bab_b, _aba_a, _ba_p, _one_ab_q = (_cached(lambda r, m=m: spectral_norm(m(r))) for m, _, _ in _RESIDUALS.values())

    @_cached
    def _gap_range(self) -> float:
        return gap(self._b_summary[1], self._p.range).gap

    @_cached
    def _gap_kernel(self) -> float:
        return gap(self._b_summary[2], self._q.range).gap

    def _threshold(self, name: str, value: float, nb: float) -> Decision:
        """The test of residual `name` at `value` against its threshold at
        ||b|| = nb and the norm of its idempotent, by linalg._decide_scaled,
        which cannot overflow: the sum 1 + product (+ that norm) is one
        factor while it is finite, and where it overflows the product's own
        factors stand for it, the 1 and the idempotent's norm dropped, so
        the threshold errs low there, never to inf. Its cutoff at value 0 is
        a lower bound of the threshold."""
        _, terms, idem = self._RESIDUALS[name]
        fs = terms(self._na, nb)
        total = 1.0 + math.prod(fs) + (0.0 if idem is None else getattr(self, idem).norm)
        return _decide_scaled(value, self._tol.tol_eq, (total,) if total != math.inf else fs)

    def _part(self, name: str) -> Decision:
        """The exact test of a residual against its threshold, or of a gap
        that must read zero (subspaces._reads_zero), as a decision; it works
        the value out."""
        if name in self._RESIDUALS:
            return self._threshold(name, getattr(self, name), self._b_summary[0])
        return _reads_zero(getattr(self, name), self._tol)

    def _residual_within(self, name: str) -> bool:
        """_part(name).truth, without working a residual out when the
        Frobenius test can decide.

        A gap, or a residual worked out already, is compared exactly.
        Otherwise the Frobenius test compares the residual's matrix with the
        threshold at ||b||_F / sqrt(n) until _b_summary holds ||b||, and at
        the idempotent's norm (each threshold grows in both); the residual is
        worked out only when that test cannot decide.
        """
        if name in self.__dict__ or name not in self._RESIDUALS:
            return self._part(name).truth
        nb = self._b_summary[0] if "_b_summary" in self.__dict__ else _norm_low(self.b)
        low = self._threshold(name, 0.0, nb).cutoff
        return _norm_within(self._RESIDUALS[name][0](self), low, lambda: self._part(name).truth)

    # Each flag: the parts it tests, in test order. strict_12 is strict_pq
    # and l_inverse.
    _FLAGS = {
        "_outer_pql": ("_bab_b", "_gap_range", "_gap_kernel"),
        "_l_inverse": ("_aba_a",),
        "_strict_pq": ("_ba_p", "_one_ab_q"),
    }

    # The flags, in the order of _FLAGS, each decided on first access by
    # _residual_within of its parts, the first that fails deciding.
    _outer_pql, _l_inverse, _strict_pq = (_cached(lambda r, parts=parts: all(map(r._residual_within, parts))) for parts in _FLAGS.values())

    def _flags_decision(self, *flags: str) -> Decision:
        """The named flags as one decision: linalg._all of the exact tests
        (_part) of their parts, in the order of _FLAGS."""
        return _all(self._part(name) for flag in flags for name in self._FLAGS[flag])

    @_cached
    def _strict_12(self) -> bool:
        return self._strict_pq and self._l_inverse

    @_cached
    def residuals(self) -> dict:
        return {name[1:]: getattr(self, name) for name in (*self._RESIDUALS, "_gap_range", "_gap_kernel")}

    @_cached
    def flags(self) -> dict:
        self.residuals  # the classification works out every residual
        return {name[1:]: getattr(self, name) for name in (*self._FLAGS, "_strict_12")}

    def __repr__(self):
        on = [k for k, v in self.flags.items() if v]
        return f"GInvResult(n={self.b.shape[0]}, flags={'+'.join(on) or 'none'})"


@dataclass(frozen=True, eq=False)
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


def _res_scale(a_norm: float, b_norm: float, tol: Tolerances):
    """The residual scale at which two expressions for an inverse b of a
    agree, or an algebraic identity in them holds, as the function that
    decides a deviation against it: deviation <= tol_eq (1 + ||a||)(1 +
    ||b||)^2, by linalg._decide_scaled, so that no scale past double range
    passes every deviation. For ||b|| >= 1e154 the square is two factors,
    as the float ** of the square could raise OverflowError, and does past
    1.34e154."""
    square = ((1.0 + b_norm) ** 2,) if b_norm < 1e154 else (1.0 + b_norm, 1.0 + b_norm)
    return partial(_decide_scaled, tol=tol.tol_eq, factors=(1.0 + a_norm, *square))


def _solve(u, m0, core) -> np.ndarray:
    """b = U core^{-1} M0, read only behind the existence test: its margin
    sigma_min(core) > tol_inv ||a|| >= tol_inv sigma_max(core) (U and M0 are
    orthonormal) is the singularity test of the core, at the one cutoff."""
    return u @ np.linalg.inv(core) @ m0


class _Evaluation:
    """The existence evaluation of checked (a, p, q).

    The constructor computes ||a||, col a, ker a and how the rank of a was
    cut (summary is _norm_range_kernel(a) when the caller has it) and the
    dims. The core M0 a U with its singular values, the core margin, the
    trivial meet of ker a with col p, the rank defect of [col a, col q],
    each test's direct sum, and the outer and the inner-outer test are worked
    out on first use, each as a decision (linalg.Decision) whose truth is
    the verdict; a test is linalg._all of its parts. exists decomposes the
    core first for every caller, and _result solves it once, for outer,
    inner_outer and the report's certificate alike; a property that raises
    caches nothing. The results hold no reference back to the evaluation,
    so a caller that needs it keeps it.

    With the dims, the outer inverse exists exactly when the core is
    invertible, and that is the one decision _margin: sigma_min(M0 a U) >
    tol_inv ||a||. Where it holds, a U has full column rank r = rank p (ker a
    meets col p only at zero), and no nonzero vector of a col(p) lies in
    null(M0) = col q (the two, of dimensions r and n - r, split C^n): once
    the core is decomposed, trivial and direct_sum read that same decision,
    and no stacked SVD runs. Where it or the dims fail, the subspace tests
    run to explain the failure: NotExists names the one that fails, and
    IllConditioned says that only the margin does.

    nb = ||b|| = 1 / sigma_min(M0 a U) takes no SVD of b: U has orthonormal
    columns and M0 orthonormal rows, so ||U X M0|| = ||X|| for every X, and
    b = U core^{-1} M0 gives ||b|| = ||core^{-1}|| = 1 / sigma_min(core).
    A 0 x 0 core has smin = inf, and nb = 0.0, the norm of b = 0.
    """

    def __init__(self, a, p: Idempotent, q: Idempotent, tol: Tolerances, summary=None):
        self.a, self.p, self.q, self.tol = a, p, q, tol
        self.na, self.col_a, self.ker_a, self._cutter = _norm_range_kernel(a, tol) if summary is None else summary
        self.dims = p.rank + q.rank == a.shape[0]

    def moved(self, p: Idempotent, q: Idempotent) -> _Evaluation:
        """The evaluation of (a, p, q) for other idempotents of the same size,
        sharing ||a||, col a and ker a with this one."""
        return _Evaluation(self.a, p, q, self.tol, (self.na, self.col_a, self.ker_a, self._cutter))

    # How the rank of a was cut (linalg._cut), decided on first use.
    cut = _cached(lambda self: self._cutter())

    @_cached
    def _core(self):
        """(U, M0, the core M0 a U, its singular values)."""
        u, m0, core = _core_matrices(self.a, self.p, self.q)
        return u, m0, core, _singular_values(core)

    @_cached
    def smin(self) -> float:
        """The core margin: sigma_min(M0 a U), inf for a 0 x 0 core."""
        _, _, core, sv = self._core
        if core.shape == (0, 0):
            return float("inf")
        return float(sv[-1]) if sv.size else 0.0

    @property
    def nb(self) -> float:
        """||b|| from the core margin (see the class docstring); read only
        where b exists."""
        return 1.0 / self.smin

    @_cached
    def _margin(self) -> Decision:
        """The existence decision: sigma_min(M0 a U) > tol_inv ||a||."""
        return _decide(self.smin, self.tol.tol_inv * self.na, ">")

    @property
    def _settled(self) -> bool:
        """Do the dims and the core margin hold? Then trivial and direct_sum
        read the margin (see the class docstring). Only a core decomposed
        already is read, so a subspace test read before the core runs on its
        own and takes no SVD of the core."""
        return self.dims and "_core" in self.__dict__ and self._margin.truth

    @property
    def _trivial(self) -> Decision:
        """Does ker a meet col p only at zero? (trivial is its truth)"""
        return self._margin if self._settled else self._meets

    @property
    def _direct_sum(self) -> Decision:
        """The outer test's direct sum: a col(p) + col(q) = C^n."""
        return self._margin if self._settled else self._splits

    # The subspace tests that _trivial and _direct_sum run where the margin
    # does not settle them, each worked out once.
    _meets = _cached(lambda self: _meet(self.ker_a, self.p.range, self.tol))
    _splits = _cached(lambda self: _direct_sum(self._image, self.q.range, self.tol))

    @_cached
    def _image(self) -> Subspace:
        """a col(p)."""
        return map_subspace(self.a, self.p.range, self.tol)

    # subspaces._stacked_rank of col a and col q: (how many dimensions they
    # share, the decision that they share none).
    _stacked = _cached(lambda self: _stacked_rank(self.col_a, self.q.range, self.tol))

    @_cached
    def _trivial_q(self) -> Decision:
        """Does col a meet col q only at zero? Dimensions above n decide
        alone; otherwise the defect does."""
        return self._stacked[1] if self.col_a.dim + self.q.rank <= self.a.shape[0] else _counted(False)

    @property
    def _direct_sum_l(self) -> Decision:
        """The inner-outer test's direct sum: col(a) + col(q) = C^n."""
        return self._stacked[1] if self.col_a.dim + self.q.rank == self.a.shape[0] else _counted(False)

    def _parts(self, l_mode: bool):
        """The decisions of the outer (with l_mode the inner-outer) test in
        their order, each worked out when it is reached. The core comes
        first, so that its margin settles the subspace tests where it holds;
        one that overflowed is left for _margin, so that the subspace tests
        raise their error first."""
        if self.dims and "_core" not in self.__dict__:
            with suppress(np.linalg.LinAlgError):
                self._core
        dsum = self._direct_sum_l if l_mode else self._direct_sum
        yield from (self._trivial, dsum, _counted(self.dims))
        yield self._margin

    # The outer and the inner-outer test as decisions, linalg._all of their
    # parts, each worked out once.
    _outer_test = _cached(lambda self: _all(self._parts(l_mode=False)))
    _l_test = _cached(lambda self: _all(self._parts(l_mode=True)))

    def exists(self, l_mode: bool) -> bool:
        """The outer (with l_mode the inner-outer) test's verdict."""
        return (self._l_test if l_mode else self._outer_test).truth

    def _inner_outer_test(self) -> Decision:
        """The decision on which inner_outer answers: linalg._all of _l_test
        and a b a = a on _result, which is solved only if _l_test holds."""
        return _all(f() for f in (lambda: self._l_test, lambda: self._result._part("_aba_a")))

    @_cached
    def _result(self) -> GInvResult:
        """b = U core^{-1} M0, the one solve of the core."""
        return GInvResult(_solve(*self._core[:3]), self.a, self.p, self.q, self.tol, self.na)

    def report(self, l_mode: bool) -> ExistenceReport:
        """The existence report; its certificate is the b of _result."""
        exists = self.exists(l_mode)
        dsum = self._direct_sum_l if l_mode else self._direct_sum
        return ExistenceReport(self._trivial.truth, dsum.truth, self.dims, self.smin, exists, (self._result.b,) * 2 if exists else None)

    def solve(self, basis_seed=None) -> GInvResult:
        """compute_outer_pql(a, p, q, basis_seed=basis_seed): NotExists when a
        subspace test fails, IllConditioned when only the margin does; a
        rotated core is solved behind the same test."""
        if not self.exists(l_mode=False):
            trivial, dsum = self._trivial.truth, self._direct_sum.truth
            if not (trivial and dsum and self.dims):
                raise NotExists(
                    "no outer inverse with the prescribed range and kernel: "
                    f"trivial_kernel_intersection={trivial}, direct_sum={dsum}, dims_compatible={self.dims}"
                )
            raise IllConditioned(f"core margin too small (sigma_min = {self.smin:.3e})")
        if basis_seed is None:
            return self._result
        return GInvResult(_solve(*_core_matrices(self.a, self.p, self.q, basis_seed)), self.a, self.p, self.q, self.tol, self.na)

    @_cached
    def outer(self) -> GInvResult:
        """solve(), cached for every caller that shares this evaluation."""
        return self.solve()

    @_cached
    def inner_outer(self) -> GInvResult:
        """compute_l(a, p, q): the inner-outer test, then a b a = a on _result."""
        if not self.exists(l_mode=True):
            raise NotExists(
                "no inner-outer inverse for these idempotents: "
                f"trivial_kernel_intersection={self._trivial.truth}, "
                f"direct_sum={self._direct_sum_l.truth}, dims_compatible={self.dims}, "
                f"sigma_min_core={self.smin:.3e}"
            )
        if not self._result._l_inverse:
            raise NotExists(f"a b a = a fails: residual {self._result._aba_a:.3e}")
        return self._result


def exists_outer_pql(a, p, q, tol: Tolerances = DEFAULT_TOL) -> ExistenceReport:
    """Does the outer inverse with range col(p) and kernel col(q) exist?

    In subspace form: null(a) meets col(p) trivially, a*col(p) and col(q)
    split the whole space, and rank p + rank q = n. With the ranks, the
    first two hold exactly when the core M0 a U is invertible, so existence
    is one decision: rank p + rank q = n and sigma_min(M0 a U) > tol_inv
    ||a||. Where it fails, the subspace conditions are tested to say why.
    The report is always produced; when the inverse exists the certificate
    pair (t, s) with t = s = b is attached; this b is bit for bit the b of
    compute_outer_pql.
    """
    return _Evaluation(*_checked(a, p, q, tol), tol).report(l_mode=False)


def compute_outer_pql(a, p, q, tol: Tolerances = DEFAULT_TOL, *, basis_seed=None) -> GInvResult:
    """The outer inverse b with col(b) = col(p) and null(b) = col(q).

    Raises NotExists when the subspace conditions fail, IllConditioned when
    they pass but the core margin sigma_min(M0 a U) is at most
    tol_inv ||a||. basis_seed rotates the internal orthonormal bases; the
    result must agree (b is unique).
    """
    return _Evaluation(*_checked(a, p, q, tol), tol).solve(basis_seed)


def _solved(a, p: Idempotent, q: Idempotent, tol: Tolerances, summary=None):
    """The existence evaluation of checked (a, p, q) with its outer inverse
    solved, or None when that does not exist."""
    e = _Evaluation(a, p, q, tol, summary)
    with suppress(NotExists):
        e.outer
        return e
    return None


def exists_l(a, p, q, tol: Tolerances = DEFAULT_TOL) -> ExistenceReport:
    """Existence of the inner-and-outer variant (a b a = a as well).

    Requires col(a) and col(q) to split the space and null(a) and col(p) to
    split the space. The report reuses the same fields: direct_sum here
    refers to col(a) + col(q)."""
    return _Evaluation(*_checked(a, p, q, tol), tol).report(l_mode=True)


def compute_l(a, p, q, tol: Tolerances = DEFAULT_TOL) -> GInvResult:
    """The b of exists_l's certificate, bit for bit, when a b a = a holds on
    it as well; NotExists when the test fails or a b a = a does not hold."""
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
    """A y with x y x = x; the pseudoinverse is the canonical pick, from one
    thin SVD whose rank is cut by the rule of linalg.rank."""
    x = as_matrix(x)
    if x.size == 0:
        return x.conj().T.copy()
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    r = _rank_from_sv(s, x.shape, tol)
    return vh[:r].conj().T @ (u[:, :r].conj().T / s[:r, None])


def build_witness(p, q, tol: Tolerances = DEFAULT_TOL) -> Witness:
    """A matrix w with col(w) = col(p) and null(w) = col(q).

    Needs rank p + rank q = n. Constructed as U M0 from the orthonormal
    basis U of col(p) and the rows M0 of an orthonormal basis of col(q)'s
    orthogonal complement, the bases of the core in compute_outer_pql. w
    depends on these bases; its range and kernel do not.
    """
    p = _as_idempotent(p, tol)
    q = _as_idempotent(q, tol)
    if p.n != q.n:
        raise DimMismatch("idempotents live in different dimensions")
    if p.rank + q.rank != p.n:
        raise DimMismatch(f"rank p ({p.rank}) + rank q ({q.rank}) must equal n ({p.n})")
    w = p.range.basis @ orthocomplement(q.range).basis.conj().T
    return Witness(w=w, certified_range=p.range, certified_kernel=q.range)


def representation_15(a, p, q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Rebuild the outer inverse through a witness and commuting inverses.

    With w the witness for (p, q), the three expressions
    (wa)^(1,5) w,  w (aw)^(1,5),  w (waw)^- w
    must all equal the directly computed inverse b: each deviation from b
    must agree with b by the rule of _res_scale at ||a|| and ||b||. Any
    disagreement raises RepresentationMismatch: it signals a bug or a
    tolerance breach, not a property of the input.
    """
    a, p, q = _checked(a, p, q, tol)
    direct = compute_outer_pql(a, p, q, tol)
    w = build_witness(p, q, tol).w
    wa = w @ a
    aw = a @ w
    e1 = one_five_inverse(wa, tol) @ w
    e2 = w @ one_five_inverse(aw, tol)
    e3 = w @ inner_inverse(w @ a @ w, tol) @ w
    agree = _res_scale(direct._na, spectral_norm(direct.b), tol)
    for name, expr in (("(wa)^(1,5) w", e1), ("w (aw)^(1,5)", e2), ("w (waw)^- w", e3)):
        deviation = spectral_norm(expr - direct.b)
        if not agree(deviation).truth:
            raise RepresentationMismatch(f"{name} deviates from the direct inverse by {deviation:.3e}")
    return e1


def representation_group_12(a, w, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The strict inverse from a witness with idempotent products.

    When wa and aw are idempotent, b = (wa)^# w = w (aw)^# satisfies all
    four equations b a b = b, a b a = a, b a = wa, 1 - a b = 1 - aw.
    BadWitness flags a w whose products wa and 1 - aw are not idempotents
    (idempotent_from_matrix), or whose b is not the strict inverse for them
    (GInvResult's strict_12 flag); RepresentationMismatch flags two
    expressions that do not agree by the rule of _res_scale at ||a|| and
    ||(wa)^# w||.
    """
    a = as_matrix(a)
    w = as_matrix(w)
    if a.shape != w.shape or a.shape[0] != a.shape[1]:
        raise DimMismatch("a and w must be square of the same size")
    wa = w @ a
    aw = a @ w
    try:
        p, q = idempotent_from_matrix(wa, tol), idempotent_from_matrix(_eye(a.shape[0]) - aw, tol)
    except ValueError as e:
        raise BadWitness(f"wa or 1 - aw: {e}") from e
    b1 = group_inverse(wa, tol) @ w
    b2 = w @ group_inverse(aw, tol)
    result = GInvResult(b1, a, p, q, tol)
    deviation = spectral_norm(b1 - b2)
    if not _res_scale(result._na, spectral_norm(b1), tol)(deviation).truth:
        raise RepresentationMismatch(f"(wa)^# w and w (aw)^# disagree by {deviation:.3e}")
    if not result._strict_12:
        raise BadWitness(f"witness does not produce a strict inverse: residuals {result.residuals}")
    return b1


def exists_dual_check(a, p, q, tol: Tolerances = DEFAULT_TOL) -> bool:
    """The same existence question asked through row spaces.

    Annihilator form of the left-sided conditions: rows killing a must meet
    rows of 1 - q trivially, and the row space of (1 - q) a together with
    the rows of 1 - p must fill the space. Everything reduces to column
    spaces of adjoints, decided at the rank cutoffs; it agrees with
    exists_outer_pql wherever those cutoffs see what the core margin sees,
    and reads False where a margin above tol_inv ||a|| meets a subspace
    that reads rank-deficient at tol_rank.
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
    result satisfies its defining equations with exact equality. As on the
    float path, p and q must be idempotent (here exactly), or ValueError.
    """
    n = a.rows
    if a.cols != n or p.rows != n or p.cols != n or q.rows != n or q.cols != n:
        raise DimMismatch("exact inputs must be square matrices of one size")
    for name, e in (("p", p), ("q", q)):
        if not (e @ e - e).is_zero():
            raise ValueError(f"{name} is not idempotent: {name}^2 != {name}")
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
