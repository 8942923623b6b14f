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
inequality, and the margin. Every verdict of the first two is a comparison
of a value with a cutoff (linalg.Decision), and each such report names its
closest call: how many decades its nearest decision lay from its cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .errors import DimMismatch, InputError, NotExists, RepresentationMismatch, SideConditionViolated
from .gen_inverse import (
    GInvResult,
    _as_idempotent,
    _checked,
    _Evaluation,
    _res_scale,
)
from .idempotents import Idempotent, _idempotency
from .linalg import DEFAULT_TOL, Decision, Tolerances, _all, _by_distance, _cached, _decide, _decide_scaled, _eye, _inverse, _norm_low, _norm_within, as_matrix, spectral_norm
from .subspaces import _gap_and_equal, _norm_range_kernel, _one_sided_gap, _reads_zero, map_subspace

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


@dataclass(frozen=True, eq=False)
class Scenario:
    """One perturbation instance: a, its shift, and the prescribed idempotents.

    _evaluation, the existence evaluation of (a, p, q), and the distances
    _dp and _dq of the moved idempotents are computed on first use unless
    the generator that built the scenario has stored the ones it already
    has. base, the inverse for (a, p, q), is the evaluation's solve, and
    the norms of a and of base.b are the evaluation's ||a|| and ||b||, so
    neither takes an SVD of its own. a_bar = a + delta_a is set once, by
    _a_bar, and must be finite, as a and delta_a must. The generator builds
    its scenarios by _generated_scenario, which checks only that sum. A
    scenario compares by identity: its fields hold arrays.
    The private cached properties are what the Section 2 checkers share; a
    checker copies any cached dict it puts into its report. What they read
    of a_bar comes from _bar, the one existence evaluation of (a_bar, p, q),
    which is the base's own when delta_a is zero.
    """

    a: np.ndarray
    delta_a: np.ndarray
    p: Idempotent
    q: Idempotent
    p_prime: Optional[Idempotent] = None
    q_prime: Optional[Idempotent] = None
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        a, p, q = _checked(self.a, self.p, self.q, self.tol)
        d = as_matrix(self.delta_a)
        for name, val in (("a", a), ("delta_a", d), ("p", p), ("q", q)):
            object.__setattr__(self, name, val)
        if d.shape != a.shape:
            raise DimMismatch("delta_a must have the same shape as a")
        object.__setattr__(self, "a_bar", _a_bar(a, d))
        for name in ("p_prime", "q_prime"):
            val = getattr(self, name)
            if val is not None:
                val = _as_idempotent(val, self.tol)
                object.__setattr__(self, name, val)
                if val.n != a.shape[0]:
                    raise DimMismatch(f"{name} does not match the size of a")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @_cached
    def _evaluation(self):
        """The existence evaluation of (a, p, q)."""
        return _Evaluation(self.a, self.p, self.q, self.tol)

    @_cached
    def base(self) -> GInvResult:
        return self._evaluation.outer

    @_cached
    def _bar(self) -> _Evaluation:
        """The existence evaluation of (a_bar, p, q)."""
        if not self.delta_a.any():
            return self._evaluation
        return _Evaluation(self.a_bar, self.p, self.q, self.tol)

    @property
    def _stable(self):
        """The row of the condition that col a_bar meets col q only at zero
        (see _equivalence): its decision, how many dimensions the two share,
        and the rank decision of a_bar that it rests on."""
        return "stable", self._bar._trivial_q, float(self._bar._stacked[0]), self._bar.cut

    @_cached
    def _image_p(self):
        """(gap, equal as a decision) of a_bar col(p) against ker q."""
        return _gap_and_equal(self._bar._image, self.q.kernel, self.tol)

    @_cached
    def _gap_hypotheses(self):
        """The two gap hypotheses of Lemma 2.10 for the inner-outer base, the
        range side first, each as (its decision by _small, {"delta": ...,
        "threshold": ...})."""
        e = self._evaluation
        b, col_a, ker_a = e.inner_outer.b, e.col_a, e.ker_a
        col_bar, ker_bar = self._bar.col_a, self._bar.ker_a
        sides = (
            (spectral_norm(_eye(self.n) - self.a @ b), _one_sided_gap(col_bar.basis, col_a.basis)),
            (spectral_norm(b @ self.a), _one_sided_gap(ker_bar.basis, ker_a.basis)),
        )
        out = []
        for norm, delta in sides:
            threshold = math.inf if norm == 0 else 1.0 / norm
            out.append((_small(delta, threshold, self.tol), {"delta": delta, "threshold": threshold}))
        return tuple(out)

    def _update_vs(self):
        """(||_updated - direct||, the decision that the two agree
        (_res_scale)) for direct the one solve of _bar, read where it exists. Its
        norm is _bar's ||b|| = 1 / sigma_min of the core, as for norm_b."""
        dev = spectral_norm(self._updated - self._bar._result.b)
        return dev, _res_scale(self._bar.na, self._bar.nb, self.tol)(dev)

    @_cached
    def _update_vs_direct_l(self):
        """_update_vs of compute_l(a_bar, p, q), or (NaN, the decision on
        which compute_l failed) where it raises NotExists; _updated's error
        comes first."""
        self._updated
        try:
            self._bar.inner_outer  # raises NotExists where compute_l fails
            return self._update_vs()
        except NotExists:
            return NAN, self._bar._inner_outer_test()

    @_cached
    def _left_factor(self):
        """_update_factor 1 + b delta_a."""
        return _update_factor(self.base.b, self.delta_a, self.tol)

    @_cached
    def _right_factor(self):
        """_update_factor 1 + delta_a b."""
        return _update_factor(self.delta_a, self.base.b, self.tol)

    @_cached
    def _updated(self) -> np.ndarray:
        """update_formula(base.b, delta_a), from the two cached factors."""
        return _update(self.base.b, self.delta_a, self._right_factor, self._left_factor, self.tol, lambda: self.norm_b)

    @_cached
    def _dp(self) -> float:
        """||p_prime - p||."""
        return spectral_norm(self.p_prime.m - self.p.m)

    @_cached
    def _dq(self) -> float:
        """||q_prime - q||."""
        return spectral_norm(self.q_prime.m - self.q.m)

    @property
    def norm_a(self) -> float:
        return self._evaluation.na

    @property
    def norm_b(self) -> float:
        """The spectral norm of the base inverse."""
        return self._evaluation.nb

    @property
    def kappa(self) -> float:
        return self.norm_a * self.norm_b


def _a_bar(a, delta_a) -> np.ndarray:
    """a + delta_a, which must be finite: ValueError otherwise, with
    as_matrix's text when delta_a itself is not finite."""
    with np.errstate(over="ignore"):  # an overflowing sum is rejected below
        a_bar = a + delta_a
        finite = np.isfinite(a_bar).all()
    if not finite:
        raise ValueError("a + delta_a has NaN or infinite entries" if np.isfinite(delta_a).all() else "matrix contains NaN or infinite entries")
    return a_bar


def _generated_scenario(a, delta_a, p, q, p_prime, q_prime, tol: Tolerances, **primed) -> Scenario:
    """Scenario(a, delta_a, p, q, p_prime, q_prime, tol) for parts that the
    generator made, which __post_init__ would only re-check: a finite square
    complex a, delta_a of its shape, and idempotents of its size. Only
    a + delta_a is checked (_a_bar), since a shift can overflow it. primed
    holds cached attributes to store."""
    s = object.__new__(Scenario)
    s.__dict__.update(a=a, delta_a=delta_a, p=p, q=q, p_prime=p_prime, q_prime=q_prime, tol=tol, a_bar=_a_bar(a, delta_a), **primed)
    return s


@dataclass(frozen=True)
class EquivalenceReport:
    """Conditions that a theorem declares equivalent, with the verdicts.

    conditions is an ordered tuple of (name, truth, residual); consistent
    means the truths all agree and every attached identity held (identities).
    aux carries extra diagnostics (deviations, margins).

    decisions (linalg.Decision) starts with one per condition, the
    comparison that decided it: for a condition made of parts (thm2.7 and
    thm2.12 cond1, tm2.7, perturbed_exists) the part that carries its
    verdict (linalg._all). After them come the decisions the conditions
    rest on (the rank of a + delta_a under "stable") and those of the
    identities. cutoffs lists the cutoff of each condition's decision, None
    where a dimension count decided exactly; closest_call is the least
    |log10(value / cutoff)| over all the decisions, inf when none has a
    cutoff. Reports of the checkers always carry their decisions.
    """

    conditions: tuple
    identities: bool = True
    aux: dict = field(default_factory=dict)
    decisions: tuple = ()
    kind: ClassVar[str] = "equiv"

    @_cached
    def consistent(self) -> bool:
        return bool(self.identities) and len({truth for _, truth, _ in self.conditions}) == 1

    @property
    def cutoffs(self) -> tuple:
        return tuple(d.cutoff for d in self.decisions[: len(self.conditions)])

    @_cached
    def closest_call(self) -> float:
        return min(map(_by_distance, self.decisions), default=math.inf)

    @property
    def ok(self) -> bool:
        return self.consistent

    def booleans(self):
        return [c[1] for c in self.conditions]


@dataclass(frozen=True)
class ImplicationItem:
    """One implication; decision, where the item has one, is the decision
    (linalg.Decision) whose truth is hypothesis."""

    name: str
    hypothesis: bool
    conclusion: bool
    data: dict
    decision: Optional[Decision] = None

    @property
    def violated(self) -> bool:
        return self.hypothesis and not self.conclusion


@dataclass(frozen=True)
class ImplicationReport:
    """One-directional results: ok when no item has hyp true, concl false.
    closest_call is the least distance (linalg.Decision.distance) of the
    items' hypothesis decisions from their cutoffs, inf when no item
    carries one."""

    items: tuple
    kind: ClassVar[str] = "impl"

    @_cached
    def ok(self) -> bool:
        return not any(it.violated for it in self.items)

    @_cached
    def closest_call(self) -> float:
        return min((it.decision.distance for it in self.items if it.decision is not None), default=math.inf)


@dataclass(frozen=True)
class BoundReport:
    """A quantitative bound instance.

    When the hypothesis fails, lhs/rhs/margin are NaN and holds is vacuously
    true. When it is satisfied, holds requires the asserted existence and
    every inequality of the statement (relative error; norm bound in aux),
    and for thm3.6 and cor3.12 the representations of the new inverse.
    decision is the verdict of the two inequalities (_bound_holds), None
    where the hypothesis fails or the new inverse does not exist; closest_call
    is its distance from its cutoff (linalg.Decision.distance), inf without
    one.
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
    decision: Optional[Decision] = None
    kind: ClassVar[str] = "bound"

    closest_call = property(lambda self: math.inf if self.decision is None else self.decision.distance)

    @property
    def ok(self) -> bool:
        return self.holds


def kappa(a, b) -> float:
    """Condition measure of the pair: product of the spectral norms."""
    if isinstance(b, GInvResult):
        b = b.b
    return spectral_norm(as_matrix(a)) * spectral_norm(as_matrix(b))


def _equivalence(rows, identities=(), aux=None) -> EquivalenceReport:
    """The report of rows (name, decision, residual, *the decisions it rests
    on) and of the decisions of its identities, which must all hold."""
    conditions = tuple([(name, d.truth, residual) for name, d, residual, *_ in rows])
    decisions = tuple([row[1] for row in rows] + [d for row in rows for d in row[3:]]) + tuple(identities)
    return EquivalenceReport(conditions, all(d.truth for d in identities), aux or {}, decisions)


def is_stable(scenario: Scenario) -> bool:
    """Does col(a + delta_a) still meet col(q) only at zero?"""
    return scenario._bar._trivial_q.truth


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
    return _update(b, d, _update_factor(d, b, tol), _update_factor(b, d, tol), tol, lambda: spectral_norm(b))


def _update_factor(x, y, tol: Tolerances):
    """linalg._inverse of the update factor 1 + x y. The product is formed
    with overflow ignored: an entry past double range makes the factor read
    singular, with value NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = _eye(len(x)) + x @ y
    return _inverse(f, tol)


def _update(b, d, right, left, tol: Tolerances, norm_b) -> np.ndarray:
    """update_formula, given linalg._inverse of 1 + d b (right) and of 1 + b d
    (left). The agreement test of the two forms, deviation <= 10 tol_eq
    (1 + ||form1||)(1 + ||b||)(1 + ||d||) by linalg._decide_scaled, grows
    with the norms, so the Frobenius test settles it at their lower bounds
    _norm_low when it can; norm_b() gives ||b|| to the exact test."""
    if not right[0].truth:
        raise NotExists("1 + delta_a b is singular; the perturbed inverse does not exist")
    if not left[0].truth:
        raise NotExists("1 + b delta_a is singular; the perturbed inverse does not exist")
    with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf forms disagree below
        form1 = b @ right[1]
        diff = form1 - left[1] @ b

    def agree(dev, n1, nb, nd):
        return _decide_scaled(dev, 10.0 * tol.tol_eq, (1.0 + n1, 1.0 + nb, 1.0 + nd))

    def exact():
        return agree(spectral_norm(diff), spectral_norm(form1), norm_b(), spectral_norm(d)).truth

    if not _norm_within(diff, agree(0.0, _norm_low(form1), _norm_low(b), _norm_low(d)).cutoff, exact):
        raise RepresentationMismatch(f"the two update forms disagree by {spectral_norm(diff):.3e}")
    return form1


def equivalence_thm24(scenario: Scenario) -> EquivalenceReport:
    """Invertibility of either update factor versus existence after the shift.

    Three conditions that must agree: 1 + delta_a b invertible, 1 + b delta_a
    invertible, and the perturbed inverse existing for (p, q). When all hold,
    the update formula must match the directly computed perturbed inverse;
    the deviation is the third condition's residual.
    """
    s = scenario
    right, left = s._right_factor[0], s._left_factor[0]
    exists = s._bar._outer_test
    aux = {"sigma_min_core": s._bar.smin}
    dev = NAN
    identity = ()
    if right.truth and left.truth and exists.truth:
        dev, update = s._update_vs()
        aux["update_vs_direct"] = dev
        identity = (update,)
    rows = (
        ("one_plus_delta_b_invertible", right, right.value),
        ("one_plus_b_delta_invertible", left, left.value),
        ("perturbed_exists", exists, dev),
    )
    return _equivalence(rows, identity, aux)


def lemma26_f(scenario: Scenario):
    """The idempotent f = (1 + b delta_a)^{-1} (1 - b a) and what it certifies.

    f is always idempotent and always contains null(a + delta_a) in its
    column space; the equality col(f) = null(a + delta_a) holds exactly when
    the perturbation is stable. Returns (f, report) where the report's two
    conditions are that equality and stability; consistency additionally
    requires the two unconditional facts.
    """
    s = scenario
    left, inv_left = s._left_factor
    if not left.truth:
        raise NotExists("1 + b delta_a is singular")
    f = inv_left @ (_eye(s.n) - s.base.b @ s.a)
    # The rank of f can drop to 0 and the matrix is built from cancellation,
    # so its rank cutoff is anchored at max(||f||, 1), not at ||f|| alone.
    nf, col_f = _norm_range_kernel(f, s.tol)[:2]
    idem_resid = spectral_norm(f @ f - f)
    idem = _idempotency(idem_resid, nf, s.tol)
    g, equal = _gap_and_equal(s._bar.ker_a, col_f, s.tol)
    subset = _reads_zero(g.delta_mn, s.tol)
    rows = (("kernel_of_perturbed_equals_range_f", equal, g.gap), s._stable)
    aux = {"f_idempotent_residual": idem_resid, "kernel_subset_gap": g.delta_mn}
    return f, _equivalence(rows, (idem, subset), aux)


def equivalence_thm27(scenario: Scenario) -> EquivalenceReport:
    """Stability versus the update being a full inner-outer inverse.

    Four equivalent conditions, all evaluated: the updated matrix solves all
    the inner-outer equations for a + delta_a; stability; and the two
    one-sided annihilation identities. Requires 1 + b delta_a invertible.
    """
    s = scenario
    b = s.base.b
    a_bar = s.a_bar
    na_bar = s._bar.na
    w_class = GInvResult(s._updated, a_bar, s.p, s.q, s.tol, na_bar)
    # resid1 reads every residual that cond1 tests, so it goes first
    resid1 = max(w_class._bab_b, w_class._aba_a, w_class._gap_range, w_class._gap_kernel)
    cond1 = w_class._flags_decision("_outer_pql", "_l_inverse")
    agree = _res_scale(na_bar, s.norm_b, s.tol)
    # _updated has raised unless both factors are invertible
    eye = _eye(s.n)
    resid3 = spectral_norm(a_bar @ s._left_factor[1] @ (eye - b @ s.a))
    resid4 = spectral_norm((eye - s.a @ b) @ s._right_factor[1] @ a_bar)
    rows = (
        ("update_is_inner_outer_for_perturbed", cond1, resid1),
        s._stable,
        ("a_bar_annihilates_left_factor", agree(resid3), resid3),
        ("a_bar_annihilated_right_factor", agree(resid4), resid4),
    )
    return _equivalence(rows)


def equivalence_cor28(scenario: Scenario) -> EquivalenceReport:
    """Stability versus the two mapped-subspace identities of the update factors."""
    s = scenario
    b = s.base.b
    (left, inv_left), (right, inv_right) = s._left_factor, s._right_factor
    if not (left.truth and right.truth):
        raise NotExists("update factor is singular")
    col_bar, ker_bar = s._bar.col_a, s._bar.ker_a
    ker_ba = _norm_range_kernel(b @ s.a, s.tol)[2]
    kernel_gap, cond2 = _gap_and_equal(map_subspace(inv_left, ker_ba, s.tol), ker_bar, s.tol)
    col_ab = _norm_range_kernel(s.a @ b, s.tol)[1]
    range_gap, cond3 = _gap_and_equal(map_subspace(inv_right, col_bar, s.tol), col_ab, s.tol)
    rows = (
        s._stable,
        ("mapped_kernel_matches", cond2, kernel_gap.gap),
        ("mapped_range_matches", cond3, range_gap.gap),
    )
    return _equivalence(rows)


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
    s._evaluation.inner_outer  # the base must be an inner-outer inverse
    left = s._left_factor[0]
    range_gap, range_matches = _gap_and_equal(s._bar.col_a, s.q.kernel, s.tol)
    # a singular right factor raises in _updated; formula is read only when left holds
    dev, formula = s._update_vs_direct_l if left.truth else (NAN, None)
    cond1 = _all((left, range_matches, formula))
    aux = {"update_factor_margin": left.value, "range_vs_kernel_q_gap": range_gap.gap, "update_vs_direct": dev}

    image_gap, image_matches = s._image_p
    cond2 = _all(f() for f in (lambda: s._bar._trivial_q, lambda: s._bar._trivial, lambda: image_matches))
    aux["image_vs_kernel_q_gap"] = image_gap.gap

    rows = (
        ("update_valid_and_range_matches", cond1, range_gap.gap),
        ("stable_trivial_and_image_matches", cond2, image_gap.gap),
    )
    return _equivalence(rows, aux=aux)


def gap_sufficient_lemma210(scenario: Scenario) -> ImplicationReport:
    """One-sided gap conditions that force the trivial intersections.

    Item one: a small gap from col(a + delta_a) to col(a) (below the inverse
    norm of 1 - a b) forces col(a + delta_a) to meet col(q) trivially. Item
    two: the kernel analogue with threshold 1 / ||b a||. Hypothesis-true,
    conclusion-false instances must never occur.
    """
    s = scenario
    (hyp_range, range_data), (hyp_kernel, kernel_data) = s._gap_hypotheses
    # the data dicts are the scenario's cache, so each report gets copies
    items = (
        ImplicationItem("range_gap_forces_stability", hyp_range.truth, s._bar._trivial_q.truth, dict(range_data), hyp_range),
        ImplicationItem("kernel_gap_forces_trivial_meet", hyp_kernel.truth, s._bar._trivial.truth, dict(kernel_data), hyp_kernel),
    )
    return ImplicationReport(items)


def cor_lemas1(scenario: Scenario) -> ImplicationReport:
    """Two sufficient conditions for the update formula to be the new inverse.

    Route one: both gap hypotheses plus (a + delta_a) col(p) equal to the
    kernel of q. Route two: 1 + b delta_a invertible plus the range-gap
    hypothesis. Either route must imply that the perturbed inner-outer
    inverse exists and equals b (1 + delta_a b)^{-1}.
    """
    s = scenario
    (hyp_range, _), (hyp_kernel, _) = s._gap_hypotheses
    hyp_i = hyp_range.truth and hyp_kernel.truth and s._image_p[1].truth
    hyp_ii = s._left_factor[0].truth and hyp_range.truth

    conclusion = False
    dev = NAN
    if hyp_i or hyp_ii:
        try:
            dev, update = s._update_vs_direct_l
            conclusion = update.truth
        except NotExists:  # a singular factor in _updated
            conclusion = False
    data = {"update_vs_direct": dev}
    items = (
        ImplicationItem("gaps_and_image_route", hyp_i, conclusion if hyp_i else True, data),
        ImplicationItem("invertibility_route", hyp_ii, conclusion if hyp_ii else True, data),
    )
    return ImplicationReport(items)


def equivalence_thm212(scenario: Scenario) -> EquivalenceReport:
    """Strict-inverse perturbation: formula validity versus the swap identity.

    For a strict base inverse (b a = p, 1 - a b = q exactly), three
    equivalent conditions: the update formula produces the strict perturbed
    inverse; (a + delta_a) p = (1 - q)(a + delta_a); and the two one-sided
    product identities. Requires 1 + b delta_a invertible.
    """
    s = scenario
    base = s.base
    if not base._strict_pq:
        raise NotExists(
            "the base inverse is not strict for (p, q): "
            f"||ba - p|| = {base._ba_p:.3e}, ||1-ab-q|| = {base._one_ab_q:.3e}"
        )
    if not s._left_factor[0].truth:
        raise NotExists("1 + b delta_a is singular")
    b = base.b
    a_bar = s.a_bar
    na_bar = s._bar.na
    agree = _res_scale(na_bar, s.norm_b, s.tol)

    w_class = GInvResult(s._updated, a_bar, s.p, s.q, s.tol, na_bar)
    # resid1 reads the algebraic residuals that cond1 tests, so it goes first
    resid1 = max(w_class._bab_b, w_class._ba_p, w_class._one_ab_q)
    cond1 = w_class._flags_decision("_outer_pql", "_strict_pq")

    one_minus_q = _eye(s.n) - s.q.m
    resid2 = spectral_norm(a_bar @ s.p.m - one_minus_q @ a_bar)

    resid3a = spectral_norm(a_bar @ b - one_minus_q @ a_bar @ b)
    resid3b = spectral_norm(b @ a_bar - b @ a_bar @ s.p.m)

    rows = (
        ("update_is_strict_inverse_of_perturbed", cond1, resid1),
        ("swap_identity", agree(resid2), resid2),
        ("one_sided_product_identities", _all((agree(resid3a), agree(resid3b))), max(resid3a, resid3b)),
    )
    return _equivalence(rows)


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


def _bound_holds(lhs: float, rhs: float, norm_lhs: float, norm_rhs: float, tol: Tolerances) -> Decision:
    """Does a bound hold? The one rule: lhs <= rhs + tol_eq and norm_lhs <=
    norm_rhs + tol_eq, as linalg._all of the two decisions."""
    return _all((_decide(lhs, rhs + tol.tol_eq), _decide(norm_lhs, norm_rhs + tol.tol_eq)))


def _small(value: float, threshold: float, tol: Tolerances) -> Decision:
    """Does a smallness hypothesis hold? The one rule: value < threshold -
    tol_eq."""
    return _decide(value, threshold - tol.tol_eq, "<")


def _need(s: Scenario, name: str):
    v = getattr(s, name)
    if v is None:
        raise InputError(f"this check needs the scenario field {name}")
    return v


# What each bound statement moves, by check id: (p, q, a). p and q move to
# the scenario's p_prime and q_prime, a by its delta_a.
_MOVES = {
    "thm3.4": (True, False, False),
    "thm3.6": (False, True, False),
    "thm3.8": (True, True, False),
    "thm3.9": (True, True, True),
    "cor3.11": (True, False, False),
    "cor3.12": (False, True, False),
    "cor3.13": (True, True, False),
}


def _bound(theorem, s: Scenario, extra=None) -> BoundReport:
    """The skeleton every quantitative bound shares.

    _MOVES[theorem] says what the statement moves. Unless it moves a, the
    bound is on the relative change of the inverse; when a moves too it is
    on the absolute change. The norm bound for the new inverse goes to aux.
    When the new inverse exists, extra(aux, s, e, agree) adds the theorem's
    own diagnostics to aux and says whether its own part of the statement
    held; e is the existence evaluation that the new inverse e.outer was
    solved from, and agree the rule of its identities, _res_scale at ||a||
    and the larger of ||b|| and ||b'||, b' the new inverse.
    """
    moves_p, moves_q, moves_a = _MOVES[theorem]
    p2 = _need(s, "p_prime") if moves_p else s.p
    q2 = _need(s, "q_prime") if moves_q else s.q
    tol = s.tol
    b = s.base.b
    nb = s.norm_b
    kap = s.kappa
    thr_p, thr_q, thr_d = _thresholds(kap, moves_p)
    aux = {}
    hyp = True
    dp = dq = 0.0
    if moves_p:
        dp = s._dp
        aux.update(dp=dp, threshold_dp=thr_p)
        hyp = _small(dp, thr_p, tol).truth
    if moves_q:
        dq = s._dq
        aux.update(dq=dq, threshold_dq=thr_q)
        hyp = hyp and _small(dq, thr_q, tol).truth
    if moves_a:
        nd = spectral_norm(s.delta_a)
        aux.update(b_norm_times_delta=nb * nd, threshold_delta=thr_d)
        hyp = hyp and _small(nb * nd, thr_d, tol).truth
    if not hyp:
        return BoundReport(theorem, s.n, kap, False, NAN, NAN, NAN, True, aux)
    denom = 1.0 - (1.0 + kap) * dp - kap * dq
    if not moves_a:
        rhs = (1.0 + kap) * (dp + dq) / denom
        norm_rhs = (1.0 + dq) * nb / denom
    else:
        denom_full = denom - (1.0 + dq) * nb * nd
        if denom_full <= 0:
            rhs = norm_rhs = math.inf
        else:
            rhs = (nb / denom) * ((1.0 + kap) * (dp + dq) + (1.0 + dq) ** 2 * nd * nb / denom_full)
            norm_rhs = (1.0 + dq) * nb / denom_full
    # the new inverse starts from the decomposition of a_bar, the base's when a is kept
    e = (s._bar if moves_a else s._evaluation).moved(p2, q2)
    try:
        new = e.outer
    except NotExists:
        aux["exists"] = 0.0
        return BoundReport(theorem, s.n, kap, True, math.inf, rhs, -math.inf, False, aux)
    aux["exists"] = 1.0
    lhs = spectral_norm(new.b - b)
    if not moves_a:  # the change relative to ||b||
        lhs = lhs / nb if nb else (0.0 if lhs == 0.0 else math.inf)
    norm_lhs = e.nb
    aux.update(norm_lhs=norm_lhs, norm_rhs=norm_rhs)
    decision = _bound_holds(lhs, rhs, norm_lhs, norm_rhs, tol)
    extra_holds = extra is None or extra(aux, s, e, _res_scale(s.norm_a, max(nb, norm_lhs), tol))
    return BoundReport(theorem, s.n, kap, True, lhs, rhs, rhs - lhs, decision.truth and extra_holds, aux, decision)


def _factored_group(f, g, gf) -> np.ndarray:
    """(f g)^# = f (g f)^-2 g for full-rank factors f and g with gf = g f
    invertible: two solves, no SVD and no rank decision."""
    return f @ np.linalg.solve(gf, np.linalg.solve(gf, g))


def _witness_representations(aux, s: Scenario, e: _Evaluation, agree) -> bool:
    """The witness representation of the new inverse when the kernel side
    moves; its deviation goes to aux, and the result says if it agrees.

    p does not move, so U = p.range.basis is the basis of both cores, and the
    witnesses come from them: w = U M0 for (p, q) and v = U M0' for (p, q'),
    with M0 and M0' the rows of the base and the new core. (a v)^# is
    F (G F)^-2 G for F = a U and G = M0', and G F is the new core, which is
    invertible because the new inverse exists. The representation does not
    depend on the choice of these bases.
    """
    a, b = s.a, s.base.b
    u, m0 = s._evaluation._core[:2]
    _, m0_new, core_new = e._core[:3]
    rep = b + b @ _factored_group(a @ u, m0_new, core_new) @ a @ (u @ m0_new - u @ m0) @ (_eye(s.n) - a @ b)
    aux["representation_deviation"] = spectral_norm(rep - e.outer.b)
    return agree(aux["representation_deviation"]).truth


def _cor_12(theorem, s: Scenario) -> BoundReport:
    """cor_12_variants on a scenario (see there)."""
    a, tol = s.a, s.tol
    moves_p, moves_q, _ = _MOVES[theorem]

    def within(value, na, nm):
        return _decide_scaled(value, tol.tol_eq, (1.0 + na, 1.0 + nm))

    sides = ((moves_p, "p_prime", False, "a p' = a"), (moves_q, "q_prime", True, "(1 - q') a = a"))
    for moves, name, kernel_side, rule in sides:
        if moves:
            moved = _need(s, name)
            with np.errstate(over="ignore", invalid="ignore"):  # a NaN residual fails below
                x = moved.m @ a if kernel_side else a @ moved.m - a
            low = within(0.0, _norm_low(a), moved.norm).cutoff  # at ||a||_F / sqrt(n) <= ||a||
            if not _norm_within(x, low, lambda: within(spectral_norm(x), s.norm_a, moved.norm).truth):
                raise SideConditionViolated(f"{rule} fails by {spectral_norm(x):.3e}")
    if not s.base._strict_12:
        raise NotExists(
            "the base inverse is not a strict two-sided inverse for (p, q); "
            "these variants need b a = p and 1 - a b = q exactly"
        )

    def strict_new(aux, s, e, agree):
        new = e.outer
        strict_ok = new._strict_12
        aux["new_inverse_strict"] = 1.0 if strict_ok else 0.0
        if moves_p:
            return strict_ok
        rep_ok = _witness_representations(aux, s, e, agree)
        b = s.base.b
        # a new.b = F G with F = a U and G = core'^-1 M0' of the new core
        u, m0_new, core_new = e._core[:3]
        f, g = a @ u, np.linalg.solve(core_new, m0_new)
        rep = b + b @ _factored_group(f, g, g @ f) @ a @ (new.b - b) @ s.q.m
        aux["group_rep_deviation"] = spectral_norm(rep - new.b)
        return strict_ok and rep_ok and agree(aux["group_rep_deviation"]).truth

    return _bound(theorem, s, extra=strict_new)


# The bound checkers on a scenario, by check id; the public functions below
# build a scenario from their arguments and call these.
_BOUND_CHECKS = {
    "thm3.4": lambda s: _bound("thm3.4", s),
    "thm3.6": lambda s: _bound("thm3.6", s, extra=_witness_representations),
    "thm3.8": lambda s: _bound("thm3.8", s),
    "thm3.9": lambda s: _bound("thm3.9", s),
    "cor3.11": lambda s: _cor_12("cor3.11", s),
    "cor3.12": lambda s: _cor_12("cor3.12", s),
    "cor3.13": lambda s: _cor_12("cor3.13", s),
}


def _scenario(a, p, q, tol, delta_a=None, **moved) -> Scenario:
    a = as_matrix(a)
    return Scenario(a, np.zeros_like(a) if delta_a is None else delta_a, p, q, tol=tol or DEFAULT_TOL, **moved)


def bound_thm34(a, p, q, p_prime, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Moving the range idempotent: certified relative-change bound.

    Hypothesis ||p - p'|| < 1/(1+kappa)^2. Then the inverse for (p', q)
    exists, its relative distance from b is at most
    (1+kappa) d / (1 - (1+kappa) d), and its norm is at most
    ||b|| / (1 - (1+kappa) d).
    """
    return _BOUND_CHECKS["thm3.4"](_scenario(a, p, q, tol, p_prime=p_prime))


def bound_thm36(a, p, q, q_prime, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Moving the kernel idempotent: certified bound plus a representation.

    Hypothesis ||q - q'|| < 1/(2+kappa). Then the inverse for (p, q')
    exists, with relative change at most (1+kappa) d / (1 - kappa d) and
    norm at most (1+d)/(1 - kappa d) ||b||. The witness representation
    b + b (a v)^# a (v - w)(1 - a b) is evaluated with w = U M0 and v = U M0'
    from the cores of b and of the new inverse (U a basis of col p, the rows
    of M0 and M0' bases of the complements of col q and col q'). Its
    deviation goes to aux, and holds requires it to be at most
    tol_eq (1 + ||a||)(1 + max(||b||, ||b'||))^2, b' the new inverse.
    """
    return _BOUND_CHECKS["thm3.6"](_scenario(a, p, q, tol, q_prime=q_prime))


def bound_thm38(a, p, q, p_prime, q_prime, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Moving both idempotents: combined certified bound."""
    return _BOUND_CHECKS["thm3.8"](_scenario(a, p, q, tol, p_prime=p_prime, q_prime=q_prime))


def bound_thm39(a, delta_a, p, q, p_prime, q_prime, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Moving the matrix and both idempotents at once.

    Three hypotheses: the two of the combined bound plus
    ||b|| ||delta_a|| < 2 kappa / ((kappa+1)(kappa+4)). The report's main
    inequality is the absolute difference bound; the norm bound for the new
    inverse sits in aux.
    """
    return _BOUND_CHECKS["thm3.9"](_scenario(a, p, q, tol, delta_a, p_prime=p_prime, q_prime=q_prime))


def cor_12_variants(a, p, q, p_prime=None, q_prime=None, tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Strict-inverse variants of the idempotent-motion bounds.

    Side conditions keep a pinned to the moved idempotents: a p' = a when
    the range side moves, (1 - q') a = a when the kernel side moves; the
    bounds then match the corresponding general theorems, and the perturbed
    inverse must itself be strict. For the kernel-side variant the witness
    representation of bound_thm36 and the group representation
    b + b (a b')^# a (b' - b) q, with b' the new inverse and (a b')^# from
    the rank factorization a b' = (a U)(core'^-1 M0') of its core, are
    evaluated into aux, and holds requires both deviations to agree by the
    rule of bound_thm36.
    """
    if p_prime is None and q_prime is None:
        raise InputError("one of p_prime, q_prime is required")
    moves = (p_prime is not None, q_prime is not None, False)
    theorem = next(t for t, m in _MOVES.items() if t.startswith("cor") and m == moves)
    return _cor_12(theorem, _scenario(a, p, q, tol, p_prime=p_prime, q_prime=q_prime))
