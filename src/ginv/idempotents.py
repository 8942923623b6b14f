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
from .linalg import _EPS, DEFAULT_TOL, Tolerances, _norm_within, _number, as_matrix, rank, spectral_norm
from .randomstream import RandomStream
from .subspaces import Subspace, _norm_range_kernel, orthocomplement, subspace_from_columns, zero_subspace

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


def _oblique_matrix(tb: np.ndarray, sb: np.ndarray, tol: Tolerances, d: Optional[np.ndarray] = None):
    """[tb sb] diag(I, 0) [tb sb]^{-1} for orthonormal bases tb and sb.

    None when the spans do not split C^n: the dimensions must add up to n and
    x = [tb sb] must have full numerical rank (the rule of `direct_sum_is_all`).
    The solve runs first: sigma_max(x) <= sqrt(2) and sigma_min(x) >=
    1/(sqrt(2) ||m||_2), as ||m||_2 = 1/sin of the least angle between the
    spans (Szyld, Numer. Algorithms 42, 2006), so ||m||_2 <= 1/(4 n tol_rank)
    certifies that rank with a margin of 2; _norm_within settles that bound
    from ||m||_F when it can. Any other m, or a failed solve, takes the rank
    SVD; a failed solve on an x of full numerical rank re-raises its
    LinAlgError. The selector d = diag(I, 0) is built here unless passed in.
    """
    n, r = tb.shape
    k = sb.shape[1]
    if r + k != n:
        return None
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    if k == 0:
        return np.eye(n, dtype=complex)
    x = np.concatenate([tb, sb], axis=1)
    if d is None:
        d = _selector(n, r)
    try:
        # m = (x d) x^{-1}, computed by a solve against x^T on the right.
        m = np.linalg.solve(x.T, (x @ d).T).T
    except np.linalg.LinAlgError:
        if rank(x, tol) != n:
            return None
        raise
    if not _norm_within(m, 1.0 / (4 * n * tol.tol_rank), lambda: rank(x, tol) == n):
        return None
    return m


def _selector(n: int, r: int) -> np.ndarray:
    """diag(I_r, 0), n x n."""
    d = np.zeros((n, n), dtype=complex)
    d[:r, :r] = np.eye(r)
    return d


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
    d = a @ a - a
    bound = tol.tol_eq * (1.0 + nm * nm)
    # The SVD runs only for a residual that the Frobenius test cannot clear.
    if not _norm_within(d, bound, lambda: not spectral_norm(d) > bound):
        raise ValueError(f"matrix is not idempotent: ||m^2 - m|| = {spectral_norm(d):.3e}")
    p = Idempotent(a, rng, ker)
    p.__dict__["norm"] = nm  # prime the cached norm with the one just computed
    return p


def _as_stream(seed) -> RandomStream:
    return seed if isinstance(seed, RandomStream) else RandomStream(seed)


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


def _cayley(stream: RandomStream, bases, moves):
    """theta -> the bases, each that moves turned by the Cayley rotation
    (1 - theta u/2)^{-1}(1 + theta u/2), u = k/||k||.

    Both skew-hermitian directions k = g - g^H, of the first basis and then
    of the second, come from one 2n x n draw, so a shared stream advances the
    same way whichever basis moves. 1j k = V diag(w) V^H is hermitian with
    max |w| = ||k||_2, diagonalized for every moving basis by one stacked
    eigh, so a rotation is V diag(f) V^H with |f| = 1: each angle costs one
    scaling for all moving bases and one product per basis in place of a
    solve, and a rotated basis stays orthonormal.
    """
    n = bases[0].shape[0]
    turn = np.flatnonzero(moves)
    g = stream.normal_matrix(2 * n, n).reshape(2, n, n)[turn]
    w, v = np.linalg.eigh(1j * (g - g.conj().transpose(0, 2, 1)))
    nk = np.maximum(-w[:, 0], w[:, -1])
    half = -0.5j * (w / np.where(nk > 0, nk, 1.0)[:, None])
    turns = [(i, v[j], v[j].conj().T @ bases[i]) for j, i in enumerate(turn)]

    def rotate(theta: float):
        f = (1 + theta * half) / (1 - theta * half)
        out = list(bases)
        for j, (i, vj, c) in enumerate(turns):
            out[i] = vj @ (f[j][:, None] * c)
        return out

    return rotate


def _inverse_interpolate(samples, aim: float) -> float:
    """The angle at distance aim on the polynomial, in the distance, through
    the (distance, angle) samples with distinct distances nearest aim, at
    most four (Neville's scheme)."""
    ds, ts = [], []
    for d, t in sorted(samples, key=lambda s: abs(s[0] - aim)):
        if d not in ds:
            ds.append(d)
            ts.append(t)
            if len(ds) == 4:
                break
    for k in range(1, len(ds)):
        for i in range(len(ds) - k):
            ts[i] = ((aim - ds[i + k]) * ts[i] + (ds[i] - aim) * ts[i + 1]) / (ds[i] - ds[i + k])
    return ts[0]


def perturb_idempotent(
    p: Idempotent,
    magnitude: float,
    seed=0,
    tol: Tolerances = DEFAULT_TOL,
    mode: str = "both",
) -> Idempotent:
    """A nearby idempotent p' with ||p - p'|| at most `magnitude`.

    magnitude is a finite nonnegative real; a bool, a string, NaN or an
    infinity raises ValueError. The range and kernel bases turn by random
    Cayley rotations of skew-hermitian directions. The angle is bracketed on
    the grid 1e-4 * 2^k (a first-order jump from 1e-4, then doubling) and
    then found by safeguarded inverse interpolation: the angle, fitted as a
    polynomial in the distance through the nearest samples (at most four,
    (0, 0) included), is aimed half a stop band below the request, with a
    midpoint step whenever the fit leaves the bracket. The search stops once
    the distance lies within 1e-12 * magnitude below the request. It ends
    short of that only when the rotation family saturates, or when roundoff
    in the distance (about eps ||p||^2, more than that band below a request
    near 1e-4) makes the sampled distances stop rising with the angle; the
    result then falls short by about that roundoff. p' is assembled by the
    formula of `oblique`, so it is exactly idempotent up to that
    construction's conditioning.

    mode selects which subspace moves: "both", "range" (kernel pinned), or
    "kernel" (range pinned). Rank 0 and rank n idempotents admit no motion
    and are returned unchanged.
    """
    return _perturb_idempotent(p, magnitude, seed, tol, mode)[0]


def _perturb_idempotent(p: Idempotent, magnitude, seed, tol: Tolerances, mode: str):
    """perturb_idempotent, as (p', ||p' - p||) with the distance the search
    measured for the accepted candidate (0.0 when p' is p)."""
    magnitude = _number(magnitude, "magnitude", ValueError)
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError(f"magnitude must be a nonnegative finite number, got {magnitude!r}")
    n = p.n
    if magnitude == 0 or p.rank in (0, n):
        return p, 0.0
    if mode not in ("both", "range", "kernel"):
        raise ValueError(f"unknown mode {mode!r}")
    moves = (mode in ("both", "range"), mode in ("both", "kernel"))
    rotate = _cayley(_as_stream(seed), (p.range.basis, p.kernel.basis), moves)
    d = _selector(n, p.rank)

    samples = [(0.0, 0.0)]  # (distance, angle) of every complementary point

    def build(theta: float) -> _Candidate:
        tb, sb = rotate(theta)
        m = _oblique_matrix(tb, sb, tol, d)
        if m is None:
            return _Candidate(theta, tb, sb, None, None)
        dist = spectral_norm(m - p.m)
        samples.append((dist, theta))
        return _Candidate(theta, tb, sb, m, dist)

    def accept(c: _Candidate):
        # Only the accepted bases are Gram-checked; a pinned one is p's own.
        rng = Subspace(n, c.tb) if moves[0] else p.range
        ker = Subspace(n, c.sb) if moves[1] else p.kernel
        return Idempotent(c.m, rng, ker), c.dist

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

    # Safeguarded inverse interpolation (Brent 1973) between lo (distance at
    # most the request) and hi (above it, or not complementary). The next
    # angle is where the polynomial, in the distance, through the samples
    # nearest the aim meets the aim, which sits half the stop band below the
    # request so that the accepted point lands inside the band rather than on
    # either side; the midpoint replaces an angle outside the open bracket.
    # Below a request near 1e-4, roundoff in the distance exceeds the band,
    # and a sample can read out of order with the bracket's end on its side
    # by up to that roundoff (measured below 7 eps ||p||_F^2; `noise` allows
    # 16). Such a sample below the request ends the search. One above it
    # sends the next steps along the secant of the bracket's ends, aimed
    # below the request by twice its overshoot and by twice as much again at
    # each further such sample, until one lands below. A bracket that can no
    # longer be split ends the search too.
    aim = magnitude * (1.0 - 0.5e-12)
    noise = 16.0 * _EPS * float(np.linalg.norm(p.m)) ** 2
    gap = 0.0  # how far below the request the secant aims; 0.0 to interpolate
    for _ in range(70):
        if magnitude - lo.dist <= 1e-12 * magnitude:
            break
        if gap:
            theta = lo.theta + (magnitude - gap - lo.dist) * (hi.theta - lo.theta) / (hi.dist - lo.dist)
        else:
            theta = _inverse_interpolate(samples, aim)
        if not lo.theta < theta < hi.theta:
            theta = 0.5 * (lo.theta + hi.theta)
            if not lo.theta < theta < hi.theta:
                break
        c = build(theta)
        if c.m is not None and c.dist <= magnitude:
            if lo.dist - noise <= c.dist <= lo.dist:
                break
            lo, gap = c, 0.0
        else:
            if c.m is not None and hi.m is not None and hi.dist <= c.dist <= hi.dist + noise:
                gap = 2.0 * max(gap, c.dist - magnitude)
            hi = c
    if lo.m is None or lo.dist == 0.0:
        raise PerturbationTooLarge("no usable rotation below the requested magnitude")
    return accept(lo)
