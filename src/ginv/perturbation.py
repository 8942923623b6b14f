"""Perturbation analysis for inverses with prescribed range and kernel.

Everything here asks one of three questions about a base matrix a, its
inverse b with prescribed idempotents (p, q), and a perturbation:

* update: when a moves to a + delta_a, does the one-solve update
  b (1 + delta_a b)^{-1} produce the perturbed inverse, and which algebraic
  or geometric conditions characterize that;
* stability: does the perturbed matrix keep its column space clear of
  col(q), and which gap conditions are sufficient for that;
* quantitative bounds: when the idempotents move to p', q' (and possibly a
  moves too), certified upper bounds for the relative change of the inverse
  and for the norm of the new inverse, each under an explicit smallness
  hypothesis on the perturbation.

Equivalence suites return an EquivalenceReport whose conditions must all
agree; one-directional results return an ImplicationReport; quantitative
results return a BoundReport with the hypothesis flag, both sides of the
inequality, and the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

from .errors import DimMismatch, InputError, NoGroupInverse, NotExists, RepresentationMismatch, SideConditionViolated
from .gen_inverse import (
    GInvResult,
    _as_idempotent,
    _classify,
    _require_l,
    build_witness,
    compute_l,
    compute_outer_pql,
    exists_outer_pql,
    group_inverse,
    one_five_inverse,
)
from .idempotents import Idempotent
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, rank, spectral_norm, try_inverse
from .subspaces import _norm_range_kernel, gap, intersection_trivial, map_subspace, subspaces_equal

__all__ = [
    "Scenario",
    "EquivalenceReport",
    "ImplicationItem",
    "ImplicationReport",
    "BoundReport",
    "kappa",
    "is_stable",
    "update_formula",
    "equivalence_thm24",
    "lemma26_f",
    "equivalence_thm27",
    "equivalence_cor28",
    "equivalence_thm_tm27",
    "gap_sufficient_lemma210",
    "cor_lemas1",
    "equivalence_thm212",
    "bound_thm34",
    "bound_thm36",
    "bound_thm38",
    "bound_thm39",
    "cor_12_variants",
]

NAN = float("nan")


@dataclass(frozen=True)
class Scenario:
    """One perturbation instance: a, its shift, and the prescribed idempotents.

    base, the inverse for (a, p, q), is computed on first use unless the
    generator that built the scenario has stored the one it already solved.
    """

    a: np.ndarray
    delta_a: np.ndarray
    p: Idempotent
    q: Idempotent
    p_prime: Optional[Idempotent] = None
    q_prime: Optional[Idempotent] = None
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        a = as_matrix(self.a)
        d = as_matrix(self.delta_a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "delta_a", d)
        if a.shape[0] != a.shape[1]:
            raise DimMismatch("a must be square")
        if d.shape != a.shape:
            raise DimMismatch("delta_a must have the same shape as a")
        for name in ("p", "q", "p_prime", "q_prime"):
            val = getattr(self, name)
            if val is None:
                continue
            val = _as_idempotent(val, self.tol)
            object.__setattr__(self, name, val)
            if val.n != a.shape[0]:
                raise DimMismatch(f"{name} does not match the size of a")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def a_bar(self) -> np.ndarray:
        return self.a + self.delta_a

    @cached_property
    def base(self) -> GInvResult:
        return compute_outer_pql(self.a, self.p, self.q, self.tol)


@dataclass(frozen=True)
class EquivalenceReport:
    """Conditions that a theorem declares equivalent, with the verdicts.

    conditions is an ordered tuple of (name, truth, residual); consistent
    means the truths all agree and any attached identity held numerically.
    aux carries extra diagnostics (deviations, margins).
    """

    conditions: tuple
    consistent: bool
    aux: dict = field(default_factory=dict)
    kind: ClassVar[str] = "equiv"

    @property
    def ok(self) -> bool:
        return self.consistent

    def booleans(self):
        return [c[1] for c in self.conditions]


@dataclass(frozen=True)
class ImplicationItem:
    name: str
    hypothesis: bool
    conclusion: bool
    data: dict

    @property
    def violated(self) -> bool:
        return self.hypothesis and not self.conclusion


@dataclass(frozen=True)
class ImplicationReport:
    """One-directional results: each item must not have hyp true, concl false."""

    items: tuple
    ok: bool
    kind: ClassVar[str] = "impl"


@dataclass(frozen=True)
class BoundReport:
    """A quantitative bound instance.

    When the hypothesis fails, lhs/rhs/margin are NaN and holds is vacuously
    true. When it is satisfied, holds requires the asserted existence and
    every inequality of the statement (relative error; norm bound in aux).
    """

    theorem: str
    n: int
    kappa: float
    hypothesis_satisfied: bool
    lhs: float
    rhs: float
    margin: float
    holds: bool
    aux: dict = field(default_factory=dict)
    kind: ClassVar[str] = "bound"

    @property
    def ok(self) -> bool:
        return self.holds


def kappa(a, b) -> float:
    """Condition measure of the pair: product of the spectral norms."""
    if isinstance(b, GInvResult):
        b = b.b
    return spectral_norm(as_matrix(a)) * spectral_norm(as_matrix(b))


def _res_scale(a_bar_norm: float, b_norm: float, tol: Tolerances) -> float:
    # Residual-to-boolean conversion scale for algebraic identities.
    return tol.tol_eq * (1.0 + a_bar_norm) * (1.0 + b_norm) ** 2


def _defect(m, n_sub, tol: Tolerances) -> float:
    """How many dimensions two subspaces share (0.0 means trivial meet)."""
    if m.dim == 0 or n_sub.dim == 0:
        return 0.0
    stacked = np.hstack([m.basis, n_sub.basis])
    return float(m.dim + n_sub.dim - rank(stacked, tol, scale=1.0))


def is_stable(scenario: Scenario) -> bool:
    """Does col(a + delta_a) still meet col(q) only at zero?"""
    s = scenario
    return intersection_trivial(_norm_range_kernel(s.a_bar, s.tol)[1], s.q.range, s.tol)


def _l_base(s: Scenario) -> GInvResult:
    """compute_l(s.a, s.p, s.q) on the scenario's base inverse."""
    return _require_l(s.a, s.p, s.q, s.tol, lambda: s.base)


def update_formula(b, delta_a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The perturbed inverse by one solve: b (1 + delta_a b)^{-1}.

    Also evaluates the mirrored form (1 + b delta_a)^{-1} b and insists the
    two agree; they are equal whenever either factor is invertible. Raises
    NotExists when the update factor is singular, which is exactly the case
    where the perturbed inverse fails to exist.
    """
    b = as_matrix(b)
    d = as_matrix(delta_a)
    if b.shape != d.shape or b.shape[0] != b.shape[1]:
        raise DimMismatch("b and delta_a must be square of the same size")
    n = b.shape[0]
    eye = np.eye(n, dtype=complex)
    inv_right = try_inverse(eye + d @ b, tol)
    if inv_right is None:
        raise NotExists("1 + delta_a b is singular; the perturbed inverse does not exist")
    form1 = b @ inv_right
    inv_left = try_inverse(eye + b @ d, tol)
    if inv_left is None:
        raise NotExists("1 + b delta_a is singular; the perturbed inverse does not exist")
    form2 = inv_left @ b
    dev = spectral_norm(form1 - form2)
    lim = 10.0 * tol.tol_eq * (1.0 + spectral_norm(form1)) * (1.0 + spectral_norm(b)) * (
        1.0 + spectral_norm(d)
    )
    if dev > lim:
        raise RepresentationMismatch(f"the two update forms disagree by {dev:.3e}")
    return form1


def _invertible(m, tol: Tolerances):
    """(bool, margin): is m invertible, with its relative smallest singular value."""
    sv = np.linalg.svd(m, compute_uv=False)
    top = float(sv[0]) if sv.size else 0.0
    bottom = float(sv[-1]) if sv.size else 0.0
    if top == 0.0:
        return False, 0.0
    return bottom > tol.tol_inv * top, bottom


def equivalence_thm24(scenario: Scenario) -> EquivalenceReport:
    """Invertibility of either update factor versus existence after the shift.

    Three conditions that must agree: 1 + delta_a b invertible, 1 + b delta_a
    invertible, and the perturbed inverse existing for (p, q). When all hold,
    the update formula must match the directly computed perturbed inverse;
    the deviation is the third condition's residual.
    """
    s = scenario
    b = s.base.b
    n = s.n
    eye = np.eye(n, dtype=complex)
    ok_right, m_right = _invertible(eye + s.delta_a @ b, s.tol)
    ok_left, m_left = _invertible(eye + b @ s.delta_a, s.tol)
    report = exists_outer_pql(s.a_bar, s.p, s.q, s.tol)
    aux = {"sigma_min_core": float(report.sigma_min_core)}
    dev = NAN
    identity_ok = True
    if ok_right and ok_left and report.exists:
        updated = update_formula(b, s.delta_a, s.tol)
        direct = report.certificates[0]  # the perturbed inverse, as compute_outer_pql solves it
        dev = spectral_norm(updated - direct)
        identity_ok = dev <= _res_scale(spectral_norm(s.a_bar), spectral_norm(direct), s.tol)
        aux["update_vs_direct"] = dev
    conditions = (
        ("one_plus_delta_b_invertible", ok_right, m_right),
        ("one_plus_b_delta_invertible", ok_left, m_left),
        ("perturbed_exists", report.exists, dev),
    )
    flags = [c[1] for c in conditions]
    consistent = all(flags) == any(flags) and identity_ok
    return EquivalenceReport(conditions, consistent, aux)


def lemma26_f(scenario: Scenario):
    """The idempotent f = (1 + b delta_a)^{-1} (1 - b a) and what it certifies.

    f is always idempotent and always contains null(a + delta_a) in its
    column space; the equality col(f) = null(a + delta_a) holds exactly when
    the perturbation is stable. Returns (f, report) where the report's two
    conditions are that equality and stability; consistency additionally
    requires the two unconditional facts.
    """
    s = scenario
    b = s.base.b
    n = s.n
    eye = np.eye(n, dtype=complex)
    inv_left = try_inverse(eye + b @ s.delta_a, s.tol)
    if inv_left is None:
        raise NotExists("1 + b delta_a is singular")
    f = inv_left @ (eye - b @ s.a)
    # The rank of f can drop to 0 and the matrix is built from cancellation,
    # so its rank cutoff is anchored at max(||f||, 1), not at ||f|| alone.
    nf, col_f, _ = _norm_range_kernel(f, s.tol)
    idem_resid = spectral_norm(f @ f - f)
    idem_ok = idem_resid <= s.tol.tol_eq * (1.0 + nf * nf)
    _, col_bar, ker_bar = _norm_range_kernel(s.a_bar, s.tol)
    g = gap(ker_bar, col_f)
    subset_gap = g.delta_mn
    subset_ok = subset_gap <= 10 * s.tol.tol_eq
    equal = subspaces_equal(ker_bar, col_f, s.tol)
    stable = intersection_trivial(col_bar, s.q.range, s.tol)
    conditions = (
        ("kernel_of_perturbed_equals_range_f", equal, g.gap),
        ("stable", stable, _defect(col_bar, s.q.range, s.tol)),
    )
    consistent = (equal == stable) and idem_ok and subset_ok
    aux = {"f_idempotent_residual": idem_resid, "kernel_subset_gap": subset_gap}
    return f, EquivalenceReport(conditions, consistent, aux)


def equivalence_thm27(scenario: Scenario) -> EquivalenceReport:
    """Stability versus the update being a full inner-outer inverse.

    Four equivalent conditions, all evaluated: the updated matrix solves all
    the inner-outer equations for a + delta_a; stability; and the two
    one-sided annihilation identities. Requires 1 + b delta_a invertible.
    """
    s = scenario
    b = s.base.b
    n = s.n
    eye = np.eye(n, dtype=complex)
    a_bar = s.a_bar
    na_bar, col_bar, _ = _norm_range_kernel(a_bar, s.tol)
    w = update_formula(b, s.delta_a, s.tol)
    w_class = _classify(a_bar, s.p, s.q, w, s.tol, na_bar)
    cond1 = w_class.flags["outer_pql"] and w_class.flags["l_inverse"]
    resid1 = max(
        w_class.residuals["bab_b"],
        w_class.residuals["aba_a"],
        w_class.residuals["gap_range"],
        w_class.residuals["gap_kernel"],
    )
    stable = intersection_trivial(col_bar, s.q.range, s.tol)
    scale = _res_scale(na_bar, spectral_norm(b), s.tol)
    inv_left = try_inverse(eye + b @ s.delta_a, s.tol)
    inv_right = try_inverse(eye + s.delta_a @ b, s.tol)
    if inv_left is None or inv_right is None:
        raise NotExists("1 + b delta_a is singular")
    resid3 = spectral_norm(a_bar @ inv_left @ (eye - b @ s.a))
    resid4 = spectral_norm((eye - s.a @ b) @ inv_right @ a_bar)
    conditions = (
        ("update_is_inner_outer_for_perturbed", cond1, resid1),
        ("stable", stable, _defect(col_bar, s.q.range, s.tol)),
        ("a_bar_annihilates_left_factor", resid3 <= scale, resid3),
        ("a_bar_annihilated_right_factor", resid4 <= scale, resid4),
    )
    flags = [c[1] for c in conditions]
    return EquivalenceReport(conditions, all(flags) == any(flags))


def equivalence_cor28(scenario: Scenario) -> EquivalenceReport:
    """Stability versus the two mapped-subspace identities of the update factors."""
    s = scenario
    b = s.base.b
    n = s.n
    eye = np.eye(n, dtype=complex)
    inv_left = try_inverse(eye + b @ s.delta_a, s.tol)
    inv_right = try_inverse(eye + s.delta_a @ b, s.tol)
    if inv_left is None or inv_right is None:
        raise NotExists("update factor is singular")
    _, col_bar, ker_bar = _norm_range_kernel(s.a_bar, s.tol)
    stable = intersection_trivial(col_bar, s.q.range, s.tol)
    ker_ba = _norm_range_kernel(b @ s.a, s.tol)[2]
    mapped_kernel = map_subspace(inv_left, ker_ba, s.tol)
    cond2 = subspaces_equal(mapped_kernel, ker_bar, s.tol)
    col_ab = _norm_range_kernel(s.a @ b, s.tol)[1]
    mapped_range = map_subspace(inv_right, col_bar, s.tol)
    cond3 = subspaces_equal(mapped_range, col_ab, s.tol)
    conditions = (
        ("stable", stable, _defect(col_bar, s.q.range, s.tol)),
        ("mapped_kernel_matches", cond2, gap(mapped_kernel, ker_bar).gap),
        ("mapped_range_matches", cond3, gap(mapped_range, col_ab).gap),
    )
    flags = [c[1] for c in conditions]
    return EquivalenceReport(conditions, all(flags) == any(flags))


def equivalence_thm_tm27(scenario: Scenario) -> EquivalenceReport:
    """Update-formula validity versus the three-part geometric condition.

    Composite condition one: 1 + b delta_a invertible, col(a + delta_a)
    equals the kernel of q, and the update equals the directly computed
    perturbed inner-outer inverse. Composite condition two: both trivial
    intersections plus (a + delta_a) col(p) = kernel of q. No standing
    invertibility assumption: a singular update factor just makes the first
    condition false.
    """
    s = scenario
    b = _l_base(s).b
    n = s.n
    eye = np.eye(n, dtype=complex)
    a_bar = s.a_bar
    aux = {}

    ok_left, margin_left = _invertible(eye + b @ s.delta_a, s.tol)
    na_bar, col_bar, ker_bar = _norm_range_kernel(a_bar, s.tol)
    range_matches = subspaces_equal(col_bar, s.q.kernel, s.tol)
    formula_ok = False
    dev = NAN
    if ok_left:
        updated = update_formula(b, s.delta_a, s.tol)
        try:
            direct = compute_l(a_bar, s.p, s.q, s.tol)
            dev = spectral_norm(updated - direct.b)
            formula_ok = dev <= _res_scale(na_bar, spectral_norm(direct.b), s.tol)
        except NotExists:
            formula_ok = False
    cond1 = ok_left and range_matches and formula_ok
    aux["update_factor_margin"] = margin_left
    aux["range_vs_kernel_q_gap"] = range_gap = gap(col_bar, s.q.kernel).gap
    aux["update_vs_direct"] = dev

    stable = intersection_trivial(col_bar, s.q.range, s.tol)
    trivial_p = intersection_trivial(ker_bar, s.p.range, s.tol)
    image = map_subspace(a_bar, s.p.range, s.tol)
    image_matches = subspaces_equal(image, s.q.kernel, s.tol)
    cond2 = stable and trivial_p and image_matches
    aux["image_vs_kernel_q_gap"] = image_gap = gap(image, s.q.kernel).gap

    conditions = (
        ("update_valid_and_range_matches", cond1, range_gap),
        ("stable_trivial_and_image_matches", cond2, image_gap),
    )
    return EquivalenceReport(conditions, cond1 == cond2, aux)


def gap_sufficient_lemma210(scenario: Scenario) -> ImplicationReport:
    """One-sided gap conditions that force the trivial intersections.

    Item one: a small gap from col(a + delta_a) to col(a) (below the inverse
    norm of 1 - a b) forces col(a + delta_a) to meet col(q) trivially. Item
    two: the kernel analogue with threshold 1 / ||b a||. Hypothesis-true,
    conclusion-false instances must never occur.
    """
    s = scenario
    b = _l_base(s).b
    n = s.n
    eye = np.eye(n, dtype=complex)
    _, col_a, ker_a = _norm_range_kernel(s.a, s.tol)
    _, col_bar, ker_bar = _norm_range_kernel(s.a_bar, s.tol)

    norm_one_ab = spectral_norm(eye - s.a @ b)
    thr_range = math.inf if norm_one_ab == 0 else 1.0 / norm_one_ab
    delta_range = gap(col_bar, col_a).delta_mn
    concl_range = intersection_trivial(col_bar, s.q.range, s.tol)

    norm_ba = spectral_norm(b @ s.a)
    thr_kernel = math.inf if norm_ba == 0 else 1.0 / norm_ba
    delta_kernel = gap(ker_bar, ker_a).delta_mn
    concl_kernel = intersection_trivial(ker_bar, s.p.range, s.tol)

    items = (
        ImplicationItem(
            "range_gap_forces_stability",
            delta_range < thr_range - s.tol.tol_eq,
            concl_range,
            {"delta": delta_range, "threshold": thr_range},
        ),
        ImplicationItem(
            "kernel_gap_forces_trivial_meet",
            delta_kernel < thr_kernel - s.tol.tol_eq,
            concl_kernel,
            {"delta": delta_kernel, "threshold": thr_kernel},
        ),
    )
    return ImplicationReport(items, not any(it.violated for it in items))


def cor_lemas1(scenario: Scenario) -> ImplicationReport:
    """Two sufficient conditions for the update formula to be the new inverse.

    Route one: both gap hypotheses plus (a + delta_a) col(p) equal to the
    kernel of q. Route two: 1 + b delta_a invertible plus the range-gap
    hypothesis. Either route must imply that the perturbed inner-outer
    inverse exists and equals b (1 + delta_a b)^{-1}.
    """
    s = scenario
    b = _l_base(s).b
    n = s.n
    eye = np.eye(n, dtype=complex)
    a_bar = s.a_bar
    _, col_a, ker_a = _norm_range_kernel(s.a, s.tol)
    na_bar, col_bar, ker_bar = _norm_range_kernel(a_bar, s.tol)
    norm_one_ab = spectral_norm(eye - s.a @ b)
    norm_ba = spectral_norm(b @ s.a)
    thr_range = math.inf if norm_one_ab == 0 else 1.0 / norm_one_ab
    thr_kernel = math.inf if norm_ba == 0 else 1.0 / norm_ba
    hyp_range = gap(col_bar, col_a).delta_mn < thr_range - s.tol.tol_eq
    hyp_kernel = gap(ker_bar, ker_a).delta_mn < thr_kernel - s.tol.tol_eq
    image = map_subspace(a_bar, s.p.range, s.tol)
    image_matches = subspaces_equal(image, s.q.kernel, s.tol)
    ok_left, _ = _invertible(eye + b @ s.delta_a, s.tol)

    hyp_i = hyp_range and hyp_kernel and image_matches
    hyp_ii = ok_left and hyp_range

    conclusion = False
    dev = NAN
    if hyp_i or hyp_ii:
        try:
            updated = update_formula(b, s.delta_a, s.tol)
            direct = compute_l(a_bar, s.p, s.q, s.tol)
            dev = spectral_norm(updated - direct.b)
            conclusion = dev <= _res_scale(na_bar, spectral_norm(direct.b), s.tol)
        except NotExists:
            conclusion = False
    data = {"update_vs_direct": dev}
    items = (
        ImplicationItem("gaps_and_image_route", hyp_i, conclusion if hyp_i else True, data),
        ImplicationItem("invertibility_route", hyp_ii, conclusion if hyp_ii else True, data),
    )
    return ImplicationReport(items, not any(it.violated for it in items))


def equivalence_thm212(scenario: Scenario) -> EquivalenceReport:
    """Strict-inverse perturbation: formula validity versus the swap identity.

    For a strict base inverse (b a = p, 1 - a b = q exactly), three
    equivalent conditions: the update formula produces the strict perturbed
    inverse; (a + delta_a) p = (1 - q)(a + delta_a); and the two one-sided
    product identities. Requires 1 + b delta_a invertible.
    """
    s = scenario
    base = s.base
    if not base.flags["strict_pq"]:
        raise NotExists(
            "the base inverse is not strict for (p, q): "
            f"||ba - p|| = {base.residuals['ba_p']:.3e}, ||1-ab-q|| = {base.residuals['one_ab_q']:.3e}"
        )
    b = base.b
    n = s.n
    eye = np.eye(n, dtype=complex)
    a_bar = s.a_bar
    inv_left = try_inverse(eye + b @ s.delta_a, s.tol)
    if inv_left is None:
        raise NotExists("1 + b delta_a is singular")
    na_bar = spectral_norm(a_bar)
    scale = _res_scale(na_bar, spectral_norm(b), s.tol)

    w = update_formula(b, s.delta_a, s.tol)
    w_class = _classify(a_bar, s.p, s.q, w, s.tol, na_bar)
    cond1 = w_class.flags["outer_pql"] and w_class.flags["strict_pq"]
    resid1 = max(
        w_class.residuals["bab_b"],
        w_class.residuals["ba_p"],
        w_class.residuals["one_ab_q"],
    )

    one_minus_q = eye - s.q.m
    resid2 = spectral_norm(a_bar @ s.p.m - one_minus_q @ a_bar)
    cond2 = resid2 <= scale

    resid3a = spectral_norm(a_bar @ b - one_minus_q @ a_bar @ b)
    resid3b = spectral_norm(b @ a_bar - b @ a_bar @ s.p.m)
    cond3 = resid3a <= scale and resid3b <= scale

    conditions = (
        ("update_is_strict_inverse_of_perturbed", cond1, resid1),
        ("swap_identity", cond2, resid2),
        ("one_sided_product_identities", cond3, max(resid3a, resid3b)),
    )
    flags = [c[1] for c in conditions]
    return EquivalenceReport(conditions, all(flags) == any(flags))


def _thresholds(kap: float, moves_p: bool, scale: float = 1.0):
    """The smallness thresholds of the bounds, each multiplied by scale.

    Returns the caps on ||p - p'||, on ||q - q'|| and on ||b|| ||delta_a||:
    1/(1+kappa)^2; 1/(2+kappa) when q moves alone, 1/(3+kappa) when p moves
    too; and 2 kappa / ((kappa+1)(kappa+4)). The order of the operations is
    fixed: scale = 1.0 gives the thresholds bit for bit, and scenario
    generation gets its capped magnitudes from the same expressions.
    """
    return (
        scale / (1.0 + kap) ** 2,
        scale * (1.0 / ((3.0 if moves_p else 2.0) + kap)),
        scale * 2.0 * kap / ((kap + 1.0) * (kap + 4.0)),
    )


def _bound(theorem, a, p, q, p_new, q_new, tol, delta_a=None, base=None, extra=None) -> BoundReport:
    """The skeleton every quantitative bound shares.

    p_new and q_new are the moved idempotents (None for one that stays).
    Without delta_a the bound is on the relative change of the inverse; with
    delta_a the matrix moves too and it is on the absolute change. The norm
    bound for the new inverse goes to aux. base is the inverse for (a, p, q)
    when the caller has it already. When the new inverse exists,
    extra(aux, a, b, p, q, q_new, new, tol) adds the theorem's own
    diagnostics to aux and says whether its own part of the statement held.
    """
    tol = tol or DEFAULT_TOL
    a = as_matrix(a)
    p, q, p_new, q_new = (None if x is None else _as_idempotent(x, tol) for x in (p, q, p_new, q_new))
    if base is None:
        base = compute_outer_pql(a, p, q, tol)
    b = base.b
    nb = spectral_norm(b)
    kap = spectral_norm(a) * nb
    n = a.shape[0]
    thr_p, thr_q, thr_d = _thresholds(kap, p_new is not None)
    aux = {}
    hyp = True
    dp = dq = 0.0
    if p_new is not None:
        dp = spectral_norm(p_new.m - p.m)
        aux.update(dp=dp, threshold_dp=thr_p)
        hyp = dp < thr_p - tol.tol_eq
    if q_new is not None:
        dq = spectral_norm(q_new.m - q.m)
        aux.update(dq=dq, threshold_dq=thr_q)
        hyp = hyp and dq < thr_q - tol.tol_eq
    if delta_a is not None:
        nd = spectral_norm(delta_a)
        aux.update(b_norm_times_delta=nb * nd, threshold_delta=thr_d)
        hyp = hyp and nb * nd < thr_d - tol.tol_eq
    if not hyp:
        return BoundReport(theorem, n, kap, False, NAN, NAN, NAN, True, aux)
    denom = 1.0 - (1.0 + kap) * dp - kap * dq
    if delta_a is None:
        rhs = (1.0 + kap) * (dp + dq) / denom
        norm_rhs = (1.0 + dq) * nb / denom
    else:
        denom_full = denom - (1.0 + dq) * nb * nd
        if denom_full <= 0:
            rhs = norm_rhs = math.inf
        else:
            rhs = (nb / denom) * ((1.0 + kap) * (dp + dq) + (1.0 + dq) ** 2 * nd * nb / denom_full)
            norm_rhs = (1.0 + dq) * nb / denom_full
    a_new = a if delta_a is None else a + delta_a
    try:
        new = compute_outer_pql(a_new, p if p_new is None else p_new, q if q_new is None else q_new, tol)
    except NotExists:
        aux["exists"] = 0.0
        return BoundReport(theorem, n, kap, True, math.inf, rhs, -math.inf, False, aux)
    aux["exists"] = 1.0
    lhs = spectral_norm(new.b - b)
    if delta_a is None:  # the change relative to ||b||
        lhs = lhs / nb if nb else (0.0 if lhs == 0.0 else math.inf)
    norm_lhs = spectral_norm(new.b)
    aux.update(norm_lhs=norm_lhs, norm_rhs=norm_rhs)
    holds = lhs <= rhs + tol.tol_eq and norm_lhs <= norm_rhs + tol.tol_eq
    if extra is not None and not extra(aux, a, b, p, q, q_new, new, tol):
        holds = False
    return BoundReport(theorem, n, kap, True, lhs, rhs, rhs - lhs, holds, aux)


def _witness_representations(aux, a, b, p, q, q_prime, new, tol) -> bool:
    """The witness representations of the new inverse when the kernel side
    moves; their deviations go to aux and never gate the bound."""
    eye = np.eye(a.shape[0], dtype=complex)

    def represent(v, w):
        return b + b @ one_five_inverse(a @ v, tol) @ a @ (v - w) @ (eye - a @ b)

    try:
        w = build_witness(p, q, tol).w
        rep = represent(build_witness(p, q_prime, tol).w, w)
        aux["representation_deviation"] = spectral_norm(rep - new.b)
    except (NotExists, DimMismatch):
        aux["representation_deviation"] = math.inf
    # The literal reading of the alternative witness convention needs
    # rank q' + rank q = n, which generically fails; report, don't gate.
    stmt_feasible = q_prime.rank + q.rank == a.shape[0]
    aux["statement_witness_feasible"] = 1.0 if stmt_feasible else 0.0
    if stmt_feasible:
        try:
            rep2 = represent(build_witness(q_prime, q, tol).w, w)
            aux["statement_rep_deviation"] = spectral_norm(rep2 - new.b)
        except (NotExists, DimMismatch):
            aux["statement_rep_deviation"] = math.inf
    return True


def bound_thm34(a, p, q, p_prime, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Moving the range idempotent: certified relative-change bound.

    Hypothesis ||p - p'|| < 1/(1+kappa)^2. Then the inverse for (p', q)
    exists, its relative distance from b is at most
    (1+kappa) d / (1 - (1+kappa) d), and its norm is at most
    ||b|| / (1 - (1+kappa) d).
    """
    return _bound("thm3.4", a, p, q, p_prime, None, tol)


def bound_thm36(a, p, q, q_prime, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Moving the kernel idempotent: certified bound plus a representation.

    Hypothesis ||q - q'|| < 1/(2+kappa). Then the inverse for (p, q')
    exists, with relative change at most (1+kappa) d / (1 - kappa d) and
    norm at most (1+d)/(1 - kappa d) ||b||. The witness representation
    b + b (a v)^(1,5) a (v - w)(1 - a b) is evaluated with v built for
    (p, q') and its deviation reported in aux; an alternative witness built
    on (q', q) is feasible only when rank q' + rank q = n and is reported
    as a separate diagnostic.
    """
    return _bound("thm3.6", a, p, q, None, q_prime, tol, extra=_witness_representations)


def bound_thm38(a, p, q, p_prime, q_prime, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Moving both idempotents: combined certified bound."""
    return _bound("thm3.8", a, p, q, p_prime, q_prime, tol)


def bound_thm39(a, delta_a, p, q, p_prime, q_prime, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Moving the matrix and both idempotents at once.

    Three hypotheses: the two of the combined bound plus
    ||b|| ||delta_a|| < 2 kappa / ((kappa+1)(kappa+4)). The report's main
    inequality is the absolute difference bound; the norm bound for the new
    inverse sits in aux.
    """
    a = as_matrix(a)
    delta_a = as_matrix(delta_a)
    if delta_a.shape != a.shape:
        raise DimMismatch("delta_a must match a")
    return _bound("thm3.9", a, p, q, p_prime, q_prime, tol, delta_a=delta_a)


def cor_12_variants(a, p, q, p_prime=None, q_prime=None, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Strict-inverse variants of the idempotent-motion bounds.

    Side conditions keep a pinned to the moved idempotents: a p' = a when
    the range side moves, (1 - q') a = a when the kernel side moves; the
    bounds then match the corresponding general theorems, and the perturbed
    inverse must itself be strict. For the kernel-side variant the group
    representation b + b (a v)^# a (v - b) q with v the new inverse is
    evaluated into aux.
    """
    a = as_matrix(a)
    if p_prime is None and q_prime is None:
        raise InputError("one of p_prime, q_prime is required")
    p, q, p_prime, q_prime = (None if x is None else _as_idempotent(x, tol) for x in (p, q, p_prime, q_prime))
    na = spectral_norm(a)
    sides = ((p_prime, lambda m: a @ m - a, "a p' = a"), (q_prime, lambda m: m @ a, "(1 - q') a = a"))
    for moved, residual, rule in sides:
        if moved is not None:
            resid = spectral_norm(residual(moved.m))
            if resid > tol.tol_eq * (1.0 + na) * (1.0 + moved.norm):
                raise SideConditionViolated(f"{rule} fails by {resid:.3e}")
    base = compute_outer_pql(a, p, q, tol)
    if not base.flags["strict_12"]:
        raise NotExists(
            "the base inverse is not a strict two-sided inverse for (p, q); "
            "these variants need b a = p and 1 - a b = q exactly"
        )

    def strict_new(aux, a, b, p, q, q_new, new, tol):
        strict_ok = new.flags["strict_12"]
        aux["new_inverse_strict"] = 1.0 if strict_ok else 0.0
        if p_prime is None:
            _witness_representations(aux, a, b, p, q, q_new, new, tol)
            try:
                rep = b + b @ group_inverse(a @ new.b, tol) @ a @ (new.b - b) @ q.m
                aux["group_rep_deviation"] = spectral_norm(rep - new.b)
            except (NoGroupInverse, np.linalg.LinAlgError):
                aux["group_rep_deviation"] = math.inf
        return strict_ok

    label = "cor3.11" if q_prime is None else "cor3.12" if p_prime is None else "cor3.13"
    return _bound(label, a, p, q, p_prime, q_prime, tol, base=base, extra=strict_new)
