"""Scenario generation and verification campaigns.

A campaign draws deterministic random scenarios tailored to each check id,
runs the corresponding checker, and aggregates pass/fail counts plus worst
margins. Generation is reproducible from (config, seed, index): the same
configuration always yields the same scenarios and the same report apart
from wall time.

Check ids are opaque strings (see CHECKS); each maps to one verification
routine over a Scenario. The special id "selftest-bad-bound" deliberately
shrinks a correct bound a millionfold so the harness can prove it detects
violations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import GenerationFailed, GinvError, InputError, NotComplementary, PerturbationTooLarge
from .gen_inverse import _solved
from .idempotents import _perturb_idempotent, _random_idempotent, idempotent_from_matrix, oblique
from .linalg import DEFAULT_TOL, Tolerances, _eye, _integer, _number, spectral_norm
from .perturbation import (
    Scenario,
    _BOUND_CHECKS,
    _MOVES,
    _bound_holds,
    _generated_scenario,
    _thresholds,
    cor_lemas1,
    equivalence_cor28,
    equivalence_thm24,
    equivalence_thm27,
    equivalence_thm212,
    equivalence_thm_tm27,
    gap_sufficient_lemma210,
    lemma26_f,
)
from .randomstream import RandomStream
from .serialize import report_to_json, scenario_to_json
from .subspaces import _orthonormal, _summary, orth_basis, orthocomplement

__all__ = [
    "EnsembleConfig",
    "TheoremStats",
    "CampaignReport",
    "CHECKS",
    "gen_scenario",
    "run_check",
    "run_campaign",
]

# Fraction of each smallness threshold that generated perturbations may use.
THRESHOLD_HEADROOM = 0.9

_RETRIES = 64


@dataclass(frozen=True)
class EnsembleConfig:
    n_range: tuple = (2, 6)
    rank_range: tuple = (1, 5)
    skew: float = 0.3
    perturbation_magnitudes: tuple = (0.5,)
    count: int = 10
    seed: int = 0
    theorems: tuple = ("thm3.4",)
    tolerances: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        """The one check of every field, for a config built in Python or read from JSON."""

        def entries(name, read, what):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)):
                raise InputError(f"{name} must be a list, got {v!r}")
            object.__setattr__(self, name, tuple(read(x, what) for x in v))

        entries("n_range", _integer, "n_range entry")
        entries("rank_range", _integer, "rank_range entry")
        entries("perturbation_magnitudes", _number, "perturbation magnitude")
        entries("theorems", lambda t, _: t, "check id")
        object.__setattr__(self, "skew", _number(self.skew, "skew"))
        object.__setattr__(self, "count", _integer(self.count, "count"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not isinstance(self.tolerances, Tolerances):
            raise InputError(f"tolerances must be a Tolerances, got {self.tolerances!r}")
        if len(self.n_range) != 2 or self.n_range[0] > self.n_range[1] or self.n_range[0] < 1:
            raise InputError(f"bad n_range {self.n_range}")
        if len(self.rank_range) != 2 or self.rank_range[0] > self.rank_range[1] or self.rank_range[0] < 0:
            raise InputError(f"bad rank_range {self.rank_range}")
        if self.count < 1:
            raise InputError("count must be at least 1")
        if not self.perturbation_magnitudes:
            raise InputError("perturbation_magnitudes must be nonempty")
        if not self.theorems:
            raise InputError("theorems must be nonempty")
        if not all(math.isfinite(m) and m >= 0 for m in self.perturbation_magnitudes):
            raise InputError("perturbation magnitudes must be nonnegative and finite")
        if not math.isfinite(self.skew):
            raise InputError(f"skew must be finite, got {self.skew}")
        for t in self.theorems:
            if not isinstance(t, str) or t not in CHECKS:
                raise InputError(f"unknown check id {t!r}; known: {sorted(CHECKS)}")


@dataclass
class TheoremStats:
    instances: int = 0
    hypothesis_satisfied: int = 0
    holds: int = 0
    consistent: int = 0
    max_ratio: Optional[float] = None
    worst_margin: Optional[float] = None
    failures: list = field(default_factory=list)
    # Section 2 ids: the reports whose closest call is within one decade
    near_calls: Optional[int] = None


@dataclass(frozen=True)
class CampaignReport:
    seed: int
    config: EnsembleConfig
    stats: dict
    wall_time: float

    @property
    def ok(self) -> bool:
        return all(not st.failures for st in self.stats.values())


# ---------------------------------------------------------------------------
# scenario generation


def _draw_rank(stream: RandomStream, config: EnsembleConfig, n: int) -> int:
    lo = max(1, config.rank_range[0])
    hi = min(n - 1, config.rank_range[1])
    if hi < lo:
        raise GenerationFailed(
            f"rank_range {config.rank_range} leaves no admissible rank for n={n}"
        )
    return stream.randint(lo, hi)


def _rank_r_matrix(stream: RandomStream, n: int, r: int) -> np.ndarray:
    return stream.normal_matrix(n, r) @ stream.normal_matrix(r, n)


# Each base family returns (a, p, q, e) or None for a rejected draw; e is
# the existence evaluation of (a, p, q), with the base inverse e.outer
# solved. Every idempotent is made by idempotent_from_matrix of its matrix,
# the rule by which scenario_from_json decodes it, so a dumped scenario
# replays bit for bit; the ValueError by which it rejects a matrix that tol
# does not read as idempotent rejects the draw, as does the
# PerturbationTooLarge of a skew that p cannot take.
#
# The ingredients that several families draw at one stream position go
# through the memo: the rank-r a of outer_rank, l_aligned and strict (each
# draws it first, and reads its summary), and each random idempotent, which
# outer and outer_rank draw at the same positions when n = 2r (an n x n a
# and an n x r times r x n a take the same number of normals).


def _summarized_rank_r(stream, memo, n, r, tol):
    """The rank-r a and its _norm_range_kernel summary, kept at the position
    after a, which pins a. a is a product of normal draws, finite complex, so
    the summary takes it unchecked (subspaces._summary)."""
    a = _once(memo, ("rank-r", n, r), stream, lambda: _rank_r_matrix(stream, n, r))
    return a, _once(memo, ("summary", n, r), stream, lambda: _summary(a, tol))


def _idempotent(stream, memo, n, r, skew, tol):
    return _once(memo, ("idempotent", n, r), stream, lambda: _random_idempotent(n, r, skew, stream, tol))


def _base_outer(stream, memo, n, r, skew, tol):
    """Full-rank a with random compatible idempotents."""
    a = stream.normal_matrix(n, n)
    p = _idempotent(stream, memo, n, r, skew, tol)
    q = _idempotent(stream, memo, n, n - r, skew, tol)
    e = _solved(a, p, q, tol)
    return None if e is None else (a, p, q, e)


def _base_outer_rank(stream, memo, n, r, skew, tol):
    """Rank-r a whose column space avoids col(q): stable-capable base."""
    a, summary = _summarized_rank_r(stream, memo, n, r, tol)
    p = _idempotent(stream, memo, n, r, skew, tol)
    q = _idempotent(stream, memo, n, n - r, skew, tol)
    e = _solved(a, p, q, tol, summary=summary)
    if e is None or not e._direct_sum_l.truth:
        return None
    return a, p, q, e


def _base_l_aligned(stream, memo, n, r, skew, tol):
    """Rank-r a with the kernel of q pinned to col(a), so a col(p) = ker q."""
    a, summary = _summarized_rank_r(stream, memo, n, r, tol)
    t = _orthonormal(n, orth_basis(stream.normal_matrix(n, n - r), tol))
    try:  # oblique applies the rule of direct_sum_is_all
        q = idempotent_from_matrix(oblique(t, summary[1], tol).m, tol)
    except NotComplementary:
        return None
    p = _idempotent(stream, memo, n, r, skew, tol)
    e = _solved(a, p, q, tol, summary=summary)
    return None if e is None or not e.exists(l_mode=True) else (a, p, q, e)


def _base_strict(stream, memo, n, r, skew, tol):
    """a with an exactly strict inverse: for the rank-r a0 and its
    pseudoinverse b0, p = b0 a0 and q = 1 - a0 b0, all three carried to
    a = t a0 t^{-1} by a random similarity t when skew > 0.

    With a0 = U_r S_r V_r^H from the SVD of the _summarized_rank_r summary,
    cut at its rank, b0 a0 = V_r V_r^H and 1 - a0 b0 = 1 - U_r U_r^H: U_r
    spans the range of that summary and V_r the complement of its kernel, so
    b0 is never formed."""
    a0, (_, col_a0, ker_a0, _) = _summarized_rank_r(stream, memo, n, r, tol)
    p0 = orthocomplement(ker_a0).projector()
    q0 = _eye(n) - col_a0.projector()
    if skew > 0:
        g = stream.normal_matrix(n, n)
        t = _eye(n) + skew * g / max(spectral_norm(g), 1e-12)
        ti = np.linalg.inv(t)
        a = t @ a0 @ ti
        p_m = t @ p0 @ ti
        q_m = t @ q0 @ ti
    else:
        a, p_m, q_m = a0, p0, q0
    p = idempotent_from_matrix(p_m, tol)
    q = idempotent_from_matrix(q_m, tol)
    e = _solved(a, p, q, tol)
    if e is None or not e.outer._strict_12:
        return None
    return a, p, q, e


def _delta_direction(stream, cls, a, p, q):
    """A perturbation direction of unit spectral norm in the requested class."""
    n = a.shape[0]
    if cls == "generic":
        d = stream.normal_matrix(n, n)
    elif cls == "stable":
        d = a @ stream.normal_matrix(n, n)
    elif cls == "destabilizing":
        y = q.range.basis @ stream.normal_matrix(q.rank, 1)
        d = y @ stream.normal_matrix(n, 1).conj().T
    elif cls == "strict-stable":
        d = (_eye(n) - q.m) @ stream.normal_matrix(n, n) @ p.m
    else:
        raise InputError(f"unknown perturbation class {cls!r}")
    norm = spectral_norm(d)
    if norm < 1e-12:
        return None
    return d / norm


def _make_delta(stream, cls, a, b, p, q, mag, na, cap=math.inf):
    """The shift of a in class cls; na is ||a||. A shift of magnitude mag has
    the scale mag max(na, 1), capped at cap (a bound check's threshold on
    ||delta_a||)."""
    n = a.shape[0]
    if cls == "zero":
        return np.zeros((n, n), dtype=complex)
    if cls == "singular":
        # rank-one shift tuned so 1 + delta_a b is exactly singular
        u = stream.normal_matrix(n, 1)
        v = stream.normal_matrix(n, 1)
        s = complex((v.conj().T @ b @ u)[0, 0])
        if abs(s) < 1e-8:
            return None
        return -(u @ v.conj().T) / s
    if mag == 0:
        return np.zeros((n, n), dtype=complex)
    d = _delta_direction(stream, cls, a, p, q)
    if d is None:
        return None
    scale = min(mag * max(na, 1.0), cap)
    if cls == "destabilizing":
        # the shift must visibly push the column space into col(q)
        scale = max(scale, 0.1 * max(na, 1.0))
    return scale * d


# Profiles: (base family, cycle of delta classes).
_PROFILES = {
    "thm2.4": ("outer", ("stable", "generic", "singular")),
    "lemma2.6": ("outer_rank", ("zero", "stable", "destabilizing")),
    "thm2.7": ("outer_rank", ("stable", "destabilizing")),
    "cor2.8": ("outer_rank", ("stable", "destabilizing")),
    "tm2.7": ("l_aligned", ("stable", "destabilizing")),
    "lemma2.10": ("l_aligned", ("stable", "generic", "destabilizing")),
    "lemas1": ("l_aligned", ("stable", "generic", "destabilizing")),
    "thm2.12": ("strict", ("strict-stable", "destabilizing")),
    "thm3.4": ("outer", ("zero",)),
    "thm3.6": ("outer", ("zero",)),
    "thm3.8": ("outer", ("zero",)),
    "thm3.9": ("outer", ("generic",)),
    "cor3.11": ("strict", ("zero",)),
    "cor3.12": ("strict", ("zero",)),
    "cor3.13": ("strict", ("zero",)),
    "selftest-bad-bound": ("outer", ("zero",)),
}

_BASES = {
    "outer": _base_outer,
    "outer_rank": _base_outer_rank,
    "l_aligned": _base_l_aligned,
    "strict": _base_strict,
}

# The bound checks move idempotents as _MOVES says, and the selftest moves
# what thm3.4 moves. Generated moves, and the shift of a when the class cycle
# asks for one, stay below THRESHOLD_HEADROOM times the smallness thresholds
# of the bound.
_BOUND_MOVES = {**_MOVES, "selftest-bad-bound": _MOVES["thm3.4"]}

# Checks whose statement assumes 1 + b delta_a invertible; generation
# re-draws the rare degenerate shift instead of tripping that precondition.
_NEEDS_INVERTIBLE = {"thm2.7", "cor2.8", "lemma2.6", "thm2.12"}


def _once(memo, key, stream, draw):
    """draw() the first time key comes up at the stream's position in memo;
    a later hit returns the same result and puts stream at the whole
    position that first draw left, block of normals included (a block serves
    every stream at its position), so the draws after a hit come from the
    same block. key names what is drawn; every caller of one memo has the
    same config. A draw that raises stores nothing, so the next caller runs
    it again."""
    if memo is None:
        return draw()
    key = (key, stream._state)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (draw(), stream._position())
    else:
        stream._restore(hit[1])
    return hit[0]


def gen_scenario(config: EnsembleConfig, index: int, theorem: str, *, _memo=None) -> Scenario:
    """The index-th scenario of the configured ensemble, tailored to a check id.

    Deterministic in (config.seed, index, theorem). Retries internal draws a
    bounded number of times and raises GenerationFailed when no admissible
    scenario can be built (for example when the rank range leaves no room).

    The stream of an index does not depend on the check id, so ids that share
    a base family draw the same base, and often the same moved idempotents
    and shift, and families draw some ingredients at the same stream
    position (see the base families). `run_campaign` passes one dict per
    index as `_memo`, in which those draws are made once per position and
    shared, so ids with the same shift get the same Scenario and share what
    it caches; nothing else is ever mutated.
    """
    if theorem not in _PROFILES:
        raise InputError(f"unknown check id {theorem!r}")
    family, classes = _PROFILES[theorem]
    want_p, want_q, _ = _BOUND_MOVES.get(theorem, (False, False, False))
    tol = config.tolerances
    root = RandomStream(config.seed).spawn(index)
    mag = config.perturbation_magnitudes[index % len(config.perturbation_magnitudes)]
    cls = classes[index % len(classes)]
    mode = "range" if family == "strict" else "both"

    def base_draw():
        return _BASES[family](stream, _memo, n, _draw_rank(stream, config, n), config.skew, tol)

    def perturbed(e, magnitude):
        """(e', ||e' - e||) from the perturb_idempotent search."""
        return _once(_memo, (e, magnitude, mode), stream, lambda: _perturb_idempotent(e, magnitude, stream, tol, mode))

    last = "no admissible draw"
    for attempt in range(_RETRIES):
        stream = root.spawn(attempt)
        n = stream.randint(config.n_range[0], config.n_range[1])
        if n < 2:
            last = "n must be at least 2 for a nontrivial split"
            continue
        reason = ""
        try:  # a ValueError (np.linalg.LinAlgError is one) rejects the draw
            drawn = _once(_memo, (family, n), stream, base_draw)
        except (ValueError, PerturbationTooLarge) as e:
            drawn, reason = None, f": {e}"
        if drawn is None:
            last = f"base family {family} rejected the draw (attempt {attempt}){reason}"
            continue
        a, p, q, evaluation = drawn
        b, na, nb = evaluation.outer.b, evaluation.na, evaluation.nb
        kap = na * nb

        p_prime = q_prime = None
        cap = math.inf  # the cap on the scale of the shift of a
        dists = {}  # the distances of the moved idempotents, as Scenario caches them
        if theorem in _BOUND_MOVES:
            cap_p, cap_q, cap_d = _thresholds(kap, want_p, THRESHOLD_HEADROOM)
            cap = cap_d / max(nb, 1e-12)
            try:
                if want_p:
                    p_prime, dists["_dp"] = perturbed(p, min(mag, cap_p))
                if want_q:
                    q_prime, dists["_dq"] = perturbed(q, min(mag, cap_q))
            except (GinvError, ValueError) as e:
                last = f"perturbation draw failed: {e}"
                continue

        def shifted():
            delta = _make_delta(stream, cls, a, b, p, q, mag, na, cap)
            if delta is None:
                return "degenerate perturbation direction"
            try:  # hand over the evaluation that base, its norms and kappa derive from, and the distances
                return _generated_scenario(a, delta, p, q, p_prime, q_prime, tol, _evaluation=evaluation, **dists)
            except ValueError as e:  # the shift, or a plus the shift, overflowed
                return f"shift rejected: {e}"

        key = (family, cls, mag, cap, want_p, want_q, p_prime, q_prime)
        scenario = _once(_memo, key, stream, shifted)
        if isinstance(scenario, str):  # the reason the shift was rejected
            last = scenario
            continue
        if theorem in _NEEDS_INVERTIBLE and not scenario._left_factor[0].truth:
            last = "shift made the update factor singular"
            continue
        return scenario
    raise GenerationFailed(f"no scenario after {_RETRIES} attempts: {last}")


# ---------------------------------------------------------------------------
# checkers


def _check_selftest(s):
    r = _BOUND_CHECKS["thm3.4"](s)
    if not r.hypothesis_satisfied:
        return replace(r, theorem="selftest-bad-bound")
    bad_rhs = r.rhs / 1e6
    # aux holds the norms only where the new inverse exists; else lhs is inf
    decision = _bound_holds(r.lhs, bad_rhs, r.aux.get("norm_lhs", math.nan), r.aux.get("norm_rhs", math.nan), s.tol)
    return replace(r, theorem="selftest-bad-bound", rhs=bad_rhs, margin=bad_rhs - r.lhs, holds=decision.truth, decision=decision)


# Each checker returns a report that knows its kind and verdict. The lambdas
# look the checkers up by name at call time, so a wrapper installed on this
# module's names (a profiler, a tracer) sees every call. The bound checkers
# work on the scenario itself, so they start from its base inverse.
CHECKS = {
    "thm2.4": lambda s: equivalence_thm24(s),
    "lemma2.6": lambda s: lemma26_f(s)[1],
    "thm2.7": lambda s: equivalence_thm27(s),
    "cor2.8": lambda s: equivalence_cor28(s),
    "tm2.7": lambda s: equivalence_thm_tm27(s),
    "lemma2.10": lambda s: gap_sufficient_lemma210(s),
    "lemas1": lambda s: cor_lemas1(s),
    "thm2.12": lambda s: equivalence_thm212(s),
    **_BOUND_CHECKS,
    "selftest-bad-bound": _check_selftest,
}


def run_check(theorem: str, scenario: Scenario):
    """Run one checker; returns (kind, report) with kind in bound/equiv/impl."""
    if theorem not in CHECKS:
        raise InputError(f"unknown check id {theorem!r}; known: {sorted(CHECKS)}")
    report = CHECKS[theorem](scenario)
    return report.kind, report


def run_campaign(config: EnsembleConfig, on_report=None) -> CampaignReport:
    """Run every configured check over `count` fresh scenarios each.

    Failures are recorded as data, never raised: a failing report with its
    scenario dump, or the error of a check that raised (with the scenario)
    or of a draw that failed (without one). The report is identical for
    identical (config, seed) apart from wall time. `on_report(theorem,
    index, kind, report)` is called for every evaluated instance when given
    (for CSV export and the like), index-major: for index 0 every configured
    id in config order (a repeated id once), then index 1, and so on.

    The ids of one index share one memo, so the draws they have in common
    (base, moved idempotents) are made once.
    """
    t0 = time.perf_counter()
    stats = {theorem: TheoremStats(near_calls=None if theorem in _BOUND_MOVES else 0) for theorem in config.theorems}
    for index in range(config.count):
        memo = {}
        for theorem, st in stats.items():
            st.instances += 1
            scenario = None
            try:
                scenario = gen_scenario(config, index, theorem, _memo=memo)
                kind, report = run_check(theorem, scenario)
            except (GinvError, np.linalg.LinAlgError) as e:
                failure = {"index": index, "seed": config.seed, "error": f"{type(e).__name__}: {e}"}
                if scenario is not None:  # a draw that failed has no scenario to keep
                    failure["scenario"] = scenario_to_json(scenario)
                st.failures.append(failure)
                continue
            if on_report is not None:
                on_report(theorem, index, kind, report)
            if kind == "bound":
                st.hypothesis_satisfied += 1 if report.hypothesis_satisfied else 0
                st.holds += 1 if report.holds else 0
                st.consistent += 1
                if report.hypothesis_satisfied:
                    if np.isfinite(report.rhs) and report.rhs > 0 and np.isfinite(report.lhs):
                        ratio = report.lhs / report.rhs
                        st.max_ratio = ratio if st.max_ratio is None else max(st.max_ratio, ratio)
                    if np.isfinite(report.margin):
                        st.worst_margin = (
                            report.margin
                            if st.worst_margin is None
                            else min(st.worst_margin, report.margin)
                        )
            else:
                st.hypothesis_satisfied += 1
                st.holds += 1 if report.ok else 0
                st.consistent += 1 if report.ok else 0
                st.near_calls += report.closest_call <= 1
            if not report.ok:
                st.failures.append(
                    {
                        "index": index,
                        "seed": config.seed,
                        "report": report_to_json(report),
                        "scenario": scenario_to_json(scenario),
                    }
                )
    return CampaignReport(config.seed, config, stats, time.perf_counter() - t0)
