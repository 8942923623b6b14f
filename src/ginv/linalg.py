"""Dense complex linear algebra primitives.

Everything in this module operates on square or rectangular matrices held as
numpy arrays of complex128. The spectral norm (largest singular value) is the
norm used throughout the package: it is unital, submultiplicative, and makes
the projector formula for the subspace gap exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from operator import attrgetter, truediv
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError

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


def _is_real_type(t) -> bool:
    """The rule for every number read from input: a real, never a bool."""
    return issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))


def _number(x, name: str, error=InputError) -> float:
    """x as a float; a bool, string or value beyond double range raises error."""
    if not _is_real_type(type(x)):
        raise error(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as e:
        raise error(f"{name} is beyond double range") from e


def _integer(x, name: str) -> int:
    """x as an int; a float counts when its value is integral (6.0 is 6)."""
    if type(x) is float and x.is_integer():
        return int(x)
    if not isinstance(x, numbers.Integral) or isinstance(x, (bool, np.bool_)):
        raise InputError(f"{name} must be an integer, got {x!r}")
    return int(x)


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
        for name in (f.name for f in fields(self)):
            v = _number(getattr(self, name), name, ValueError)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, v)
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


@lru_cache(maxsize=32)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, one read-only array per n, for arithmetic whose
    result is a new array; identity(n) gives a fresh writable one."""
    e = identity(n)
    e.flags.writeable = False
    return e


class _cached:
    """A cached attribute: the getter func runs on first access and its
    value goes into the instance __dict__ under the attribute's name, where
    later lookups find it first. A getter that raises stores nothing. Unlike
    functools.cached_property before Python 3.12, no lock is taken on a
    miss; two threads that miss together may both run func."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        instance.__dict__[self.name] = value = self.func(instance)
        return value


def spectral_norm(m) -> float:
    """Largest singular value of m. Zero for an empty matrix."""
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


_EPS = float(np.finfo(float).eps)

# How far a Frobenius norm must stay below a threshold before _norm_within
# lets it decide; derived in its docstring.
_FROBENIUS_SAFETY = 1.0 + 1e-6


def _frobenius(x) -> float:
    """||x||_F; a sum of squares beyond double range reads inf, without a
    warning. A complex product that overflows makes np.vdot NaN, so a NaN sum
    of finite entries reads inf too; an entry that is not finite may give NaN."""
    s = np.vdot(x, x).real
    if math.isnan(s) and np.isfinite(x).all():
        return math.inf
    return math.sqrt(s)


def _norm_low(x) -> float:
    """||x||_F / sqrt(min(rows, cols)), a lower bound of ||x||_2 that takes no
    SVD. When ||x||_F overflows, that quotient may still be finite, so the
    largest entry modulus, also a lower bound, stands in for it."""
    f = _frobenius(x)
    if f == math.inf:
        return float(np.abs(x).max())
    return f / math.sqrt(max(min(x.shape), 1))


def _norm_within(x, low: float, exact) -> bool:
    """Is ||x||_2 at most a threshold t? low is t, or a lower bound of t
    built by t's own expression from lower bounds of its norms (such as
    _norm_low); exact() is the exact test, with the SVD.

    ||x||_2 <= ||x||_F, so a finite ||x||_F with ||x||_F * _FROBENIUS_SAFETY
    <= low settles the question as True, and exact() is called only
    otherwise. That answer is the one exact() would give: the computed
    spectral norm exceeds ||x||_2 by at most p(m, n) eps ||x||_2 (the SVD is
    backward stable, with p a modest multiple of the size), the computed
    Frobenius norm falls short of ||x||_F by at most about m n eps ||x||_F,
    and low exceeds the computed t by at most about 3 m n eps t (each lower
    bound of a norm is at most the computed norm up to that rounding, at
    most three norms enter a threshold, and rounding is monotone). A safety
    factor of 1 + 1e-6 covers the three together for matrices of up to 10^8
    entries. A NaN or an infinity in x, or a NaN or infinite low, takes
    exact(), so such inputs fall back or raise as they did without the
    Frobenius test, and no threshold past double range settles anything.
    """
    f = _frobenius(x)
    if math.isfinite(f) and f * _FROBENIUS_SAFETY <= low < math.inf:
        return True
    return exact()


def _singular_values(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


class Decision(NamedTuple):
    """One numerical decision: its truth, the value compared, the cutoff it
    was compared with, and the direction op of the comparison, so that truth
    is value op cutoff. cutoff is None where a dimension count decided
    exactly (see _counted)."""

    truth: bool
    value: float
    cutoff: Optional[float]
    op: str

    @property
    def distance(self) -> float:
        """|log10(value / cutoff)|, the decades between the value and its
        cutoff; inf for a count, and for a zero or infinite value or cutoff."""
        v, c = self.value, self.cutoff
        if c is None or not (0.0 < v < math.inf and 0.0 < c < math.inf):
            return math.inf
        return abs(math.log10(v) - math.log10(c))


_by_distance = attrgetter("distance")

# Builds a Decision from a tuple of its fields without the named tuple's
# Python-level __new__: the decision helpers make one per test, on every
# hot path.
_new_decision = tuple.__new__


def _decide(value, cutoff, op: str = "<=") -> Decision:
    """The one rule by which a value is compared with its cutoff, op one of
    "<=", "<", ">" and ">="."""
    truth = value <= cutoff if op == "<=" else value < cutoff if op == "<" else value > cutoff if op == ">" else value >= cutoff
    return _new_decision(Decision, (bool(truth), value, cutoff, op))


def _decide_scaled(value, tol: float, factors) -> Decision:
    """value <= tol f_1 f_2 ..., the rule of a cutoff that grows with norms,
    the product taken left to right. A product past double range would read
    inf and pass every value, so there value / f_1 / f_2 ... is compared with
    tol instead, which cannot overflow (an infinite value over an infinite
    factor reads NaN and fails). That cutoff, tol, is below the product, so
    the cutoff at value 0 is a lower bound of the threshold either way."""
    cutoff = math.prod(factors, start=tol)
    if cutoff != math.inf:
        return _decide(value, cutoff)
    return _decide(reduce(truediv, factors, value), tol)


def _counted(truth: bool) -> Decision:
    """A verdict that a dimension count decided exactly."""
    return _new_decision(Decision, (bool(truth), math.nan, None, "="))


def _taken(parts) -> tuple:
    """The parts of a conjunction up to its first false one, which decides
    it, so the last part taken carries its truth; the parts after it are not
    taken, so a lazy parts leaves them unevaluated."""
    taken = []
    for d in parts:
        taken.append(d)
        if not d.truth:
            break
    return tuple(taken)


def _all(parts) -> Decision:
    """A conjunction, as the part that carries its verdict: the first false
    part (see _taken), or, when every part holds, the one nearest its
    cutoff, each held part weighed once."""
    taken = _taken(parts)
    return taken[-1] if not taken[-1].truth else min(taken, key=_by_distance)


def _rank_cutoff(s: np.ndarray, shape, tol: Tolerances, scale: Optional[float] = None) -> float:
    """tol_rank max(shape) times sigma_max, or max(sigma_max, scale); s is nonempty."""
    ref = float(s[0]) if scale is None else max(float(s[0]), float(scale))
    return tol.tol_rank * ref * max(shape)


def _rank_from_sv(s: np.ndarray, shape, tol: Tolerances, scale: Optional[float] = None) -> int:
    return int(np.count_nonzero(s > _rank_cutoff(s, shape, tol, scale))) if s.size else 0


def _cut(s: np.ndarray, r: int, cutoff: float) -> Decision:
    """How a rank r was cut from the singular values s at cutoff: the
    decision on the kept or dropped singular value nearest the cutoff."""
    return min((_decide(s[i], cutoff, ">") for i in (r - 1, r) if 0 <= i < s.size), key=_by_distance)


def rank(m, tol: Tolerances = DEFAULT_TOL, scale: Optional[float] = None) -> int:
    """Numerical rank: number of singular values above the relative cutoff.

    The cutoff is tol_rank * sigma_max * max(rows, cols). Passing `scale`
    replaces sigma_max by max(sigma_max, scale); use it when m was produced
    by cancellation from quantities of magnitude `scale`, so that pure
    rounding noise is not mistaken for full rank.
    """
    a = as_matrix(m)
    return _rank_from_sv(_singular_values(a), a.shape, tol, scale)


def _inverse(m: np.ndarray, tol: Tolerances):
    """(invertible, inverse or None) of the square m from one values-only
    SVD, by the one singularity rule: invertible is the decision (_decide)
    that sigma_min exceeds tol_inv sigma_max, so a zero m reads singular,
    with no inverse. An m with a NaN or infinite entry (a product that
    overflowed) reads singular with value and cutoff NaN, before any LAPACK
    call, which could not take it. The 0 x 0 m is invertible by a count,
    with sigma_min inf."""
    if not np.isfinite(m).all():
        return _decide(math.nan, math.nan, ">"), None
    sv = _singular_values(m)
    invertible = _decide(float(sv[-1]), tol.tol_inv * sv[0], ">") if sv.size else Decision(True, math.inf, None, ">")
    return invertible, np.linalg.inv(m) if invertible.truth else None


def try_inverse(m, tol: Tolerances = DEFAULT_TOL) -> Optional[np.ndarray]:
    """Inverse of a square matrix, or None when it is numerically singular.

    Singularity means the smallest singular value is at or below
    tol_inv * sigma_max. The 0x0 matrix is invertible with empty inverse.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return _inverse(a, tol)[1]


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
