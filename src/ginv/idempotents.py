"""Construction, validation, and controlled perturbation of idempotent matrices.

An idempotent here is an oblique projector: it acts as the identity on its
range and kills its kernel, and the two subspaces split C^n. The range and
kernel are carried alongside the matrix so that later predicates never have
to recover them from a noisy difference like 1 - q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import MismatchedAmbient, NotComplementary, PerturbationTooLarge
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, rank, spectral_norm
from .randomstream import RandomStream
from .subspaces import Subspace, _norm_range_kernel, orthocomplement, subspace_from_columns, zero_subspace

_EPS = np.finfo(float).eps
# The bracketing angles of perturb_idempotent: _THETA0 * 2^k for k up to
# _GRID_STEPS, the first k whose angle exceeds _THETA_STOP.
_THETA0 = 1e-4
_THETA_STOP = 64.0
_GRID_STEPS = math.floor(math.log2(_THETA_STOP / _THETA0)) + 1

__all__ = [
    "Idempotent",
    "projector",
    "oblique",
    "idempotent_from_matrix",
    "random_idempotent",
    "perturb_idempotent",
]


@dataclass(frozen=True, eq=False)
class Idempotent:
    """A validated idempotent matrix with its range and kernel subspaces."""

    m: np.ndarray
    range: Subspace
    kernel: Subspace

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def rank(self) -> int:
        return self.range.dim

    @cached_property
    def norm(self) -> float:
        """Spectral norm of the matrix, computed once."""
        return spectral_norm(self.m)

    def complement(self) -> "Idempotent":
        """The idempotent 1 - p, with range and kernel swapped."""
        return Idempotent(np.eye(self.n, dtype=complex) - self.m, self.kernel, self.range)

    def __repr__(self):
        return f"Idempotent(n={self.n}, rank={self.rank})"


def projector(t: Subspace) -> Idempotent:
    """Hermitian projector onto t along its orthogonal complement."""
    return Idempotent(t.projector(), t, orthocomplement(t))


def _oblique_matrix(tb: np.ndarray, sb: np.ndarray, tol: Tolerances):
    """[tb sb] diag(I, 0) [tb sb]^{-1} for orthonormal bases tb and sb.

    None when the spans do not split C^n: the dimensions must add up to n and
    [tb sb] must have full numerical rank, which is the rule of
    `direct_sum_is_all`.
    """
    n, r = tb.shape
    k = sb.shape[1]
    if r + k != n:
        return None
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    if k == 0:
        return np.eye(n, dtype=complex)
    x = np.hstack([tb, sb])
    if rank(x, tol) != n:
        return None
    d = np.zeros((n, n), dtype=complex)
    d[:r, :r] = np.eye(r)
    # m = (x d) x^{-1}, computed by a solve against x^T on the right.
    return np.linalg.solve(x.T, (x @ d).T).T


def oblique(t: Subspace, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Idempotent:
    """The unique idempotent with range t and kernel s.

    Requires t and s to be complementary. Built as [B_t B_s] diag(I, 0)
    [B_t B_s]^{-1}, so the result is idempotent up to the conditioning of the
    combined basis.
    """
    if t.ambient_dim != s.ambient_dim:
        raise MismatchedAmbient(f"ambient dims differ: {t.ambient_dim} vs {s.ambient_dim}")
    m = _oblique_matrix(t.basis, s.basis, tol)
    if m is None:
        raise NotComplementary("range and kernel candidates do not split C^n")
    return Idempotent(m, t, s)


def idempotent_from_matrix(m, tol: Tolerances = DEFAULT_TOL) -> Idempotent:
    """Validate that m is idempotent and attach its range and kernel."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("idempotent must be square")
    nm, rng, ker = _norm_range_kernel(a, tol)
    resid = spectral_norm(a @ a - a)
    if resid > tol.tol_eq * (1.0 + nm * nm):
        raise ValueError(f"matrix is not idempotent: ||m^2 - m|| = {resid:.3e}")
    p = Idempotent(a, rng, ker)
    p.__dict__["norm"] = nm  # prime the cached norm with the one just computed
    return p


def _as_stream(seed) -> RandomStream:
    return seed if isinstance(seed, RandomStream) else RandomStream(int(seed))


def random_idempotent(n: int, r: int, skew: float = 0.0, seed=0) -> Idempotent:
    """Random rank-r idempotent in C^n, deterministic per seed.

    skew = 0 gives a hermitian projector; larger skew tilts the kernel toward
    the range, which drives the norm of the idempotent up.
    """
    if not 0 <= r <= n:
        raise ValueError("rank out of range")
    stream = _as_stream(seed)
    if r == 0:
        return Idempotent(np.zeros((n, n), dtype=complex), zero_subspace(n), Subspace(n, np.eye(n, dtype=complex)))
    if r == n:
        return Idempotent(np.eye(n, dtype=complex), Subspace(n, np.eye(n, dtype=complex)), zero_subspace(n))
    for _ in range(32):
        t = subspace_from_columns(stream.normal_matrix(n, r))
        if t.dim != r:
            continue
        comp = orthocomplement(t)
        tilt = t.basis @ stream.normal_matrix(r, n - r) if skew else 0.0
        s = subspace_from_columns(comp.basis + skew * tilt if skew else comp.basis)
        if s.dim != n - r:
            continue
        try:
            return oblique(t, s)
        except NotComplementary:
            continue
    raise PerturbationTooLarge("could not draw a complementary pair; skew too extreme")


class _Candidate(NamedTuple):
    """One angle of the search: rotated bases, the idempotent (None when the
    bases are not complementary) and its distance to the start."""

    theta: float
    tb: Optional[np.ndarray]
    sb: Optional[np.ndarray]
    m: Optional[np.ndarray]
    dist: Optional[float]


def _skew_direction(stream: RandomStream, n: int) -> np.ndarray:
    g = stream.normal_matrix(n, n)
    k = g - g.conj().T
    nk = spectral_norm(k)
    return k / nk if nk > 0 else k


def _rotation(k: np.ndarray, basis: np.ndarray):
    """theta -> Cayley rotation (1 - theta k/2)^{-1}(1 + theta k/2) applied to basis.

    k is skew-hermitian, so 1j k = V diag(w) V^H is hermitian and
    k = V diag(lam) V^H with lam = -1j w purely imaginary. The rotation is
    V diag(f) V^H with |f| = 1, so each angle costs one scaling and one
    product in place of a solve, and the rotated basis stays orthonormal.
    """
    w, v = np.linalg.eigh(1j * k)
    half = -0.5j * w
    c = v.conj().T @ basis
    return lambda theta: v @ (((1 + theta * half) / (1 - theta * half))[:, None] * c)


def perturb_idempotent(
    p: Idempotent,
    magnitude: float,
    seed=0,
    tol: Tolerances = DEFAULT_TOL,
    mode: str = "both",
) -> Idempotent:
    """A nearby idempotent p' with ||p - p'|| at most `magnitude`.

    The range and kernel bases are rotated by random unitary rotations
    (Cayley form of a skew-hermitian direction). The angle is bracketed on
    the grid 1e-4 * 2^k (a first-order jump from 1e-4, then doubling) and
    then found by root-finding (Illinois false position, with a midpoint
    step whenever the secant leaves the bracket or the far end is not
    complementary), so the achieved distance lands close
    to, and never above, the requested magnitude. p' is assembled by the
    formula of `oblique`, so it is exactly idempotent up to that
    construction's conditioning.

    mode selects which subspace moves: "both", "range" (kernel pinned), or
    "kernel" (range pinned). Rank 0 and rank n idempotents admit no motion
    and are returned unchanged.
    """
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    n = p.n
    if magnitude == 0 or p.rank in (0, n):
        return p
    if mode not in ("both", "range", "kernel"):
        raise ValueError(f"unknown mode {mode!r}")
    stream = _as_stream(seed)
    # Both directions are drawn in every mode, so a shared stream advances
    # the same way whichever subspace is pinned.
    kt = _skew_direction(stream, n)
    ks = _skew_direction(stream, n)
    moves_t, moves_s = mode in ("both", "range"), mode in ("both", "kernel")
    rot_t = _rotation(kt, p.range.basis) if moves_t else None
    rot_s = _rotation(ks, p.kernel.basis) if moves_s else None

    def build(theta: float) -> _Candidate:
        tb = rot_t(theta) if moves_t else p.range.basis
        sb = rot_s(theta) if moves_s else p.kernel.basis
        m = _oblique_matrix(tb, sb, tol)
        return _Candidate(theta, tb, sb, m, None if m is None else spectral_norm(m - p.m))

    def accept(c: _Candidate) -> Idempotent:
        # Only the accepted bases are Gram-checked; a pinned one is p's own.
        rng = Subspace(n, c.tb) if moves_t else p.range
        ker = Subspace(n, c.sb) if moves_s else p.kernel
        return Idempotent(c.m, rng, ker)

    # Grow the angle along the grid _THETA0 * 2^k until the requested
    # distance is bracketed or the pair stops being complementary. The
    # distance is nearly linear in a small angle, so the first step jumps
    # to the last grid point that this predicts below the request, but not
    # past the end of the grid: a request out of reach then ends on the same
    # point whatever its size.
    lo = _Candidate(0.0, None, None, None, 0.0)
    hi = build(_THETA0)
    if hi.m is not None and 0.0 < hi.dist < magnitude:
        k = min(math.floor(math.log2(magnitude / hi.dist)), _GRID_STEPS)
        if k >= 1:
            lo, hi = hi, build(_THETA0 * 2.0**k)
    while hi.m is not None and hi.dist < magnitude and hi.theta <= _THETA_STOP:
        lo, hi = hi, build(2.0 * hi.theta)

    if hi.m is not None and hi.dist <= magnitude:
        # The rotation family saturates below the request; the farthest
        # sampled point still honors the distance bound.
        return accept(hi)

    # Illinois false position on f = dist - magnitude between lo (f <= 0) and
    # hi (f > 0, or not complementary): the secant through the two ends, with
    # the f of an end kept twice in a row halved, and the midpoint whenever
    # the secant is unusable.
    f_lo = lo.dist - magnitude
    f_hi = None if hi.m is None else hi.dist - magnitude
    kept = None
    for _ in range(70):
        if magnitude - lo.dist <= 4 * _EPS * magnitude:
            break
        theta = 0.5 * (lo.theta + hi.theta)
        if f_hi is not None:
            secant = hi.theta - f_hi * (hi.theta - lo.theta) / (f_hi - f_lo)
            if lo.theta < secant < hi.theta:
                theta = secant
        if not lo.theta < theta < hi.theta:
            break
        c = build(theta)
        if c.m is not None and c.dist <= magnitude:
            lo, f_lo = c, c.dist - magnitude
            if kept == "hi" and f_hi is not None:
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = c, None if c.m is None else c.dist - magnitude
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    if lo.m is None or lo.dist == 0.0:
        raise PerturbationTooLarge("no usable rotation below the requested magnitude")
    return accept(lo)
