"""Construction, validation, and controlled perturbation of idempotent matrices.

An idempotent here is an oblique projector: it acts as the identity on its
range and kills its kernel, and the two subspaces split C^n. The range and
kernel are carried alongside the matrix so that later predicates never have
to recover them from a noisy difference like 1 - q. The random draws and the
moves build only the matrix and take its range and kernel from
`idempotent_from_matrix`, the rule by which a matrix read from JSON gets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MismatchedAmbient, NotComplementary, PerturbationTooLarge
from .linalg import _EPS, DEFAULT_TOL, Decision, Tolerances, _cached, _decide, _decide_scaled, _frobenius, _norm_within, _number, _rank_cutoff, as_matrix, rank, spectral_norm
from .randomstream import RandomStream
from .subspaces import Subspace, _summary, orthocomplement

# The first points of a "both" move: _T0, then the first-order prediction of
# the request, at most _T0 * 2^_JUMP (about 0.8, where the chart is still
# close to its first-order part).
_T0 = 1e-4
_JUMP = 13

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

    @_cached
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


def oblique(t: Subspace, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Idempotent:
    """The unique idempotent with range t and kernel s.

    Built as x diag(I, 0) x^{-1} with x = [B_t B_s] from the orthonormal
    bases, so the result is idempotent up to the conditioning of x. Raises
    NotComplementary unless t and s split C^n: the dimensions must add up to
    n and x must have full numerical rank (the rule of `direct_sum_is_all`).
    The solve runs first: sigma_max(x) <= sqrt(2) and sigma_min(x) >=
    1/(sqrt(2) ||m||_2), as ||m||_2 = 1/sin of the least angle between the
    spans (Szyld, Numer. Algorithms 42, 2006), so ||m||_2 <= 1/(4 n tol_rank)
    certifies that rank with a margin of 2; _norm_within settles that bound
    from ||m||_F when it can. Any other m, or a failed solve, takes the rank
    SVD; a failed solve on an x of full numerical rank re-raises its
    LinAlgError.
    """
    if t.ambient_dim != s.ambient_dim:
        raise MismatchedAmbient(f"ambient dims differ: {t.ambient_dim} vs {s.ambient_dim}")
    tb, sb = t.basis, s.basis
    n, r = tb.shape
    k = sb.shape[1]
    if r + k != n:
        raise NotComplementary("range and kernel candidates do not split C^n")
    if r == 0:
        return Idempotent(np.zeros((n, n), dtype=complex), t, s)
    if k == 0:
        return Idempotent(np.eye(n, dtype=complex), t, s)
    x = np.concatenate([tb, sb], axis=1)
    try:
        # m = [tb 0] x^{-1}, computed by a solve against x^T on the right.
        m = np.linalg.solve(x.T, np.concatenate([tb, np.zeros_like(sb)], axis=1).T).T
    except np.linalg.LinAlgError:
        if rank(x, tol) == n:
            raise
        m = None
    if m is None or not _norm_within(m, 1.0 / (4 * n * tol.tol_rank), lambda: rank(x, tol) == n):
        raise NotComplementary("range and kernel candidates do not split C^n")
    return Idempotent(m, t, s)


def _keeps_rank(norm: float, n: int, tol: Tolerances) -> Decision:
    """Does an idempotent in C^n whose norm is at most `norm` read its rank?
    Its nonzero singular values are at least 1, so it does when the rank
    cutoff of idempotent_from_matrix at that norm, linalg._rank_cutoff at
    scale 1, tol_rank n max(norm, 1), is below 1; a NaN norm fails."""
    return _decide(_rank_cutoff(norm, (n, n), tol, 1.0), 1.0, "<")


def _idempotency(residual: float, nm: float, tol: Tolerances) -> Decision:
    """Is a matrix m idempotent, for residual = ||m^2 - m|| and nm = ||m||?
    The one rule: residual <= tol_eq (1 + nm^2), so a NaN residual (an entry
    of m^2 that overflowed) fails it. Past double range it is decided by
    linalg._decide_scaled, with 1 + nm^2 read as nm nm where nm^2 overflows."""
    sq = nm * nm
    return _decide_scaled(residual, tol.tol_eq, (1.0 + sq,) if sq != math.inf else (nm, nm))


def idempotent_from_matrix(m, tol: Tolerances = DEFAULT_TOL) -> Idempotent:
    """Validate that m is idempotent (_idempotency) and attach its range and
    kernel. m is coerced once (as_matrix), and the Idempotent is built from
    the parts so checked, its norm cached."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("idempotent must be square")
    nm, rng, ker, _ = _summary(a, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing residual reads NaN and fails
        d = a @ a - a
    # The SVD runs only for a residual that the Frobenius test cannot clear
    # at the rule's cutoff at residual 0, a lower bound of its threshold.
    if not _norm_within(d, _idempotency(0.0, nm, tol).cutoff, lambda: _idempotency(spectral_norm(d), nm, tol).truth):
        raise ValueError(f"matrix is not idempotent: ||m^2 - m|| = {spectral_norm(d):.3e}")
    p = object.__new__(Idempotent)
    p.__dict__.update(m=a, range=rng, kernel=ker, norm=nm)
    return p


def _as_stream(seed) -> RandomStream:
    return seed if isinstance(seed, RandomStream) else RandomStream(seed)


def random_idempotent(n: int, r: int, skew: float = 0.0, seed=0) -> Idempotent:
    """Random rank-r idempotent in C^n, deterministic per seed.

    skew = 0 gives a hermitian projector; larger skew tilts the kernel toward
    the range, which drives the norm of the idempotent up.
    """
    return _random_idempotent(n, r, skew, _as_stream(seed), DEFAULT_TOL)


def _random_idempotent(n: int, r: int, skew: float, stream: RandomStream, tol: Tolerances) -> Idempotent:
    """random_idempotent, validated at tol.

    One complete QR of an n x r normal draw gives orthonormal bases T of the
    range and C of its orthogonal complement, and with Z a normal r x (n - r)
    draw, p = T T^H - skew T Z C^H. Then p T = T and p (C + skew T Z) = 0, so
    the range is the span of the draw and the kernel the span of C + skew T Z,
    the complement tilted toward the range. The rank that p reads is r while
    n tol_rank ||p|| < 1 (_keeps_rank); a skew for which ||p||_F fails that
    rule, NaN included, raises PerturbationTooLarge.
    """
    if not 0 <= r <= n:
        raise ValueError("rank out of range")
    if r in (0, n):
        m = np.zeros((n, n), dtype=complex) if r == 0 else np.eye(n, dtype=complex)
    else:
        basis = np.linalg.qr(stream.normal_matrix(n, r), mode="complete")[0]
        t, c = basis[:, :r], basis[:, r:]
        m = t @ t.conj().T
        if skew:
            m = m - skew * (t @ stream.normal_matrix(r, n - r)) @ c.conj().T
        if not _keeps_rank(_frobenius(m), n, tol).truth:
            raise PerturbationTooLarge(f"skew {skew!r} is too extreme for p to keep rank {r}")
    return idempotent_from_matrix(m, tol)


class _Candidate(NamedTuple):
    """One point of the search: the chart parameter, the matrix and its
    distance to the start."""

    t: float
    m: np.ndarray
    dist: float


def _inverse_interpolate(samples, aim: float) -> float:
    """The parameter at distance aim on the polynomial, in the distance,
    through the (distance, parameter) samples with distinct distances nearest
    aim, at most four (Neville's scheme)."""
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
    """A nearby idempotent p' of the rank of p with ||p - p'|| at most `magnitude`.

    magnitude is a finite nonnegative real; a bool, a string, NaN or an
    infinity raises ValueError, and so does a mode other than "both",
    "range" (kernel pinned) and "kernel" (range pinned). With normal draws G1
    and G2, R = (1 - p) G1 p moves the range and K = p G2 (1 - p) the kernel;
    R^2 = K^2 = 0. "range" returns p + s R and "kernel" p + s K, each exactly
    idempotent at distance s ||R|| (s ||K||), with s in closed form; each
    builds only its own direction. "both" searches the chart
    p(t) = (1 + t R)(p + t K)(1 - t R) = p + t (K + R) + t^2 (RK - KR) - t^3 RKR
    of idempotents similar to p, whose distance from p grows without bound,
    for a t at the request. Each lands within 1e-12 * magnitude below the
    request, or, for a request below about 1e-4, short of it by about the
    roundoff of the distance (eps ||p||^2).

    p' takes its range and kernel from `idempotent_from_matrix`, so it keeps
    the rank of p while ||p|| + magnitude < 1/(n tol_rank) (_keeps_rank); a
    larger request raises PerturbationTooLarge. Rank 0 and rank n
    idempotents admit no motion and are returned unchanged.
    """
    return _perturb_idempotent(p, magnitude, seed, tol, mode)[0]


def _perturb_idempotent(p: Idempotent, magnitude, seed, tol: Tolerances, mode: str):
    """perturb_idempotent, as (p', ||p'.m - p.m||) with the distance measured
    for the accepted matrix by that very expression (0.0 when p' is p)."""
    magnitude = _number(magnitude, "magnitude", ValueError)
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError(f"magnitude must be a nonnegative finite number, got {magnitude!r}")
    if mode not in ("both", "range", "kernel"):
        raise ValueError(f"unknown mode {mode!r}")
    n = p.n
    if magnitude == 0 or p.rank in (0, n):
        return p, 0.0
    if not _keeps_rank(p.norm + magnitude, n, tol).truth:
        raise PerturbationTooLarge(f"a move of {magnitude:.3e} could change the rank that p' reads")
    # One 2n x n draw whatever the mode, so a shared stream advances the same
    # way: G1 is its top half, G2 its bottom half.
    g = _as_stream(seed).normal_matrix(2 * n, n)
    pm = p.m
    if mode != "kernel":
        gp = g[:n] @ pm
        r = gp - pm @ gp
    if mode != "range":
        pg = pm @ g[n:]
        k = pg - pg @ pm
    if mode == "both":
        m, dist = _chart_search(pm, k, r, magnitude)
    else:
        m, dist = _line(pm, r if mode == "range" else k, magnitude)
    return idempotent_from_matrix(m, tol), dist


def _line(p: np.ndarray, step: np.ndarray, magnitude: float):
    """(p + s step, its measured distance to p). That distance is the norm of
    the computed (p + s step) - p, off from s ||step|| by the rounding of the
    sum, at most eps (||p||_F + ||s step||_F), and by a few eps of each norm,
    so s aims that far below the request; a distance still above it moves the
    aim down by twice the excess (never needed on the seeded grid)."""
    size = spectral_norm(step)
    aim = magnitude - _EPS * (_frobenius(p) + 4 * math.sqrt(len(p)) * magnitude)
    while True:
        m = p + (aim / size) * step
        dist = spectral_norm(m - p)
        if dist <= magnitude:
            return m, dist
        aim -= 2 * (dist - magnitude)


def _chart(p: np.ndarray, k: np.ndarray, r: np.ndarray):
    """t -> p(t) = (1 + t R)(p + t K)(1 - t R), for R = (1 - p) G1 p and
    K = p G2 (1 - p). K p = 0, p K = K, p R = 0, R p = R and R^2 = K^2 = 0
    expand it to p + t c1 + t^2 c2 + t^3 c3, with c1 = K + R, c2 = RK - KR
    and c3 = -RKR. The three products are taken here, once, and each point
    is p plus the Horner sum of the coefficients, with no n x n product; it
    equals the product form up to roundoff."""
    rk = r @ k
    c1, c2, c3 = k + r, rk - k @ r, -(rk @ r)
    return lambda t: p + t * (c1 + t * (c2 + t * c3))


def _chart_search(p: np.ndarray, k: np.ndarray, r: np.ndarray, magnitude: float):
    """The "both" move of perturb_idempotent, as (matrix, measured distance):
    a search of _chart with K and R scaled to unit Frobenius norm.
    (1 + t R)^{-1} = 1 - t R, so every p(t) is an idempotent similar to p,
    and p (p(t) - p) (1 - p) = t K."""
    chart = _chart(p, k / _frobenius(k), r / _frobenius(r))
    samples = [(0.0, 0.0)]  # (distance, t) of every point built

    def build(t: float) -> _Candidate:
        m = chart(t)
        dist = spectral_norm(m - p)
        samples.append((dist, t))
        return _Candidate(t, m, dist)

    # The distance is nearly linear in a small t, so from _T0 the first step
    # jumps to where that line meets the request, but at most _JUMP
    # doublings of _T0 far: past t near 1 the chart's quadratic and cubic
    # terms take over. t then doubles until the request is bracketed.
    lo = _Candidate(0.0, p, 0.0)
    hi = build(_T0)
    if hi.dist < magnitude:
        lo, hi = hi, build(_T0 * min(magnitude / hi.dist, 2.0**_JUMP))
    while hi.dist <= magnitude:
        lo, hi = hi, build(2.0 * hi.t)

    # Safeguarded inverse interpolation (Brent 1973) between lo (distance at
    # most the request) and hi (above it). The next t is where the
    # polynomial, in the distance, through the samples nearest the aim meets
    # the aim, which sits half the stop band below the request so that the
    # accepted point lands inside the band rather than on either side; the
    # midpoint replaces a t outside the open bracket. Below a request near
    # 1e-4, roundoff in the distance exceeds the band, and a sample can read
    # out of order with the bracket's end on its side by up to that roundoff
    # (measured below 7 eps ||p||_F^2; `noise` allows 16). Such a sample
    # below the request ends the search. One above it sends the next steps
    # along the secant of the bracket's ends, aimed below the request by
    # twice its overshoot and by twice as much again at each further such
    # sample, until one lands below. A bracket that can no longer be split
    # ends the search too.
    aim = magnitude * (1.0 - 0.5e-12)
    noise = 16.0 * _EPS * _frobenius(p) ** 2
    gap = 0.0  # how far below the request the secant aims; 0.0 to interpolate
    for _ in range(70):
        if magnitude - lo.dist <= 1e-12 * magnitude:
            break
        if gap:
            t = lo.t + (magnitude - gap - lo.dist) * (hi.t - lo.t) / (hi.dist - lo.dist)
        else:
            t = _inverse_interpolate(samples, aim)
        if not lo.t < t < hi.t:
            t = 0.5 * (lo.t + hi.t)
            if not lo.t < t < hi.t:
                break
        c = build(t)
        if c.dist <= magnitude:
            if lo.dist - noise <= c.dist <= lo.dist:
                break
            lo, gap = c, 0.0
        else:
            if hi.dist <= c.dist <= hi.dist + noise:
                gap = 2.0 * max(gap, c.dist - magnitude)
            hi = c
    if lo.dist == 0.0:
        raise PerturbationTooLarge("no usable point below the requested magnitude")
    return lo.m, lo.dist
