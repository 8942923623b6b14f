"""Perturbation checks: update formula, equivalences, implications, bounds."""

import math

import numpy as np
import pytest

from conftest import draw_solvable
from ginv import (
    CHECKS,
    DimMismatch,
    EnsembleConfig,
    EquivalenceReport,
    ImplicationItem,
    ImplicationReport,
    InputError,
    NotExists,
    RandomStream,
    Scenario,
    SideConditionViolated,
    bound_thm34,
    bound_thm36,
    bound_thm38,
    bound_thm39,
    compute_outer_pql,
    cor_12_variants,
    cor_lemas1,
    equivalence_cor28,
    equivalence_thm24,
    equivalence_thm27,
    equivalence_thm212,
    equivalence_thm_tm27,
    gap_sufficient_lemma210,
    gen_scenario,
    idempotent_from_matrix,
    is_stable,
    kappa,
    lemma26_f,
    oblique,
    perturb_idempotent,
    run_check,
    spectral_norm,
    subspace_from_columns,
    update_formula,
)


def verdicts(report):
    return {name: truth for name, truth, _ in report.conditions}


def span(*cols):
    return subspace_from_columns(np.column_stack([np.asarray(c, dtype=complex) for c in cols]))


# A kernel idempotent with the same column space as diag(0, 0, 1) but a tilted
# kernel; the prescribed inverse for it is unchanged while the strict
# two-sided identities break.
def tilted_q():
    e1 = [1.0, 0.0, 0.0]
    e2_plus_e3 = [0.0, 1.0, 1.0]
    e3 = [0.0, 0.0, 1.0]
    return oblique(span(e3), span(e1, e2_plus_e3))


def test_kappa_is_the_norm_product(diag_instance):
    a, p, q = diag_instance
    base = compute_outer_pql(a, p, q)
    assert kappa(a, base.b) == pytest.approx(2.0, abs=1e-12)
    # a GInvResult is accepted directly
    assert kappa(a, base) == pytest.approx(2.0, abs=1e-12)


def test_update_formula_diagonal_values(diag_instance):
    a, p, q = diag_instance
    b = compute_outer_pql(a, p, q).b
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    updated = update_formula(b, delta)
    expected = np.diag([1.0 / 1.1, 0.5, 0.0])
    assert spectral_norm(updated - expected) <= 1e-12
    direct = compute_outer_pql(a + delta, p, q).b
    assert spectral_norm(updated - direct) <= 1e-12


def test_update_formula_singular_factor_raises(diag_instance):
    a, p, q = diag_instance
    b = compute_outer_pql(a, p, q).b
    delta = np.zeros((3, 3), dtype=complex)
    delta[0, 0] = -1.0  # sends 1 + delta_a b to diag(0, 1, 1)
    with pytest.raises(NotExists):
        update_formula(b, delta)


def test_update_formula_shape_mismatch():
    with pytest.raises(DimMismatch):
        update_formula(np.eye(3), np.eye(2))


def test_update_forms_agree_identity():
    # (1 + yx)^{-1} = 1 - y (1 + xy)^{-1} x, the identity behind the two
    # update forms, on random well-scaled pairs.
    for seed in range(8):
        stream = RandomStream(seed)
        n = stream.randint(2, 6)
        x = stream.normal_matrix(n, n)
        y = stream.normal_matrix(n, n)
        x /= 2.0 * max(spectral_norm(x), 1.0)
        y /= 2.0 * max(spectral_norm(y), 1.0)
        eye = np.eye(n, dtype=complex)
        lhs = np.linalg.inv(eye + y @ x)
        rhs = eye - y @ np.linalg.inv(eye + x @ y) @ x
        assert spectral_norm(lhs - rhs) <= 1e-10


def test_update_is_outer_inverse_on_random_scenarios():
    for seed in range(10):
        a, p, q = draw_solvable(seed)
        b = compute_outer_pql(a, p, q).b
        stream = RandomStream(900 + seed)
        delta = stream.normal_matrix(*a.shape)
        # keep the update factor safely invertible
        delta *= 0.3 / (spectral_norm(delta) * max(spectral_norm(b), 1e-12))
        w = update_formula(b, delta)
        a_bar = a + delta
        scale = 1e-9 * (1.0 + spectral_norm(a_bar)) * (1.0 + spectral_norm(w)) ** 2
        assert spectral_norm(w @ a_bar @ w - w) <= scale
        report = equivalence_thm24(Scenario(a=a, delta_a=delta, p=p, q=q))
        assert report.consistent
        assert all(report.booleans())


def test_is_stable_diagonal_cases(diag_instance):
    a, p, q = diag_instance
    zero = np.zeros((3, 3), dtype=complex)
    assert is_stable(Scenario(a=a, delta_a=zero, p=p, q=q))
    bad = np.diag([0.0, 0.0, 0.1]).astype(complex)
    assert not is_stable(Scenario(a=a, delta_a=bad, p=p, q=q))


def test_scenario_validation(diag_instance):
    a, p, q = diag_instance
    with pytest.raises(DimMismatch):
        Scenario(a=np.ones((2, 3)), delta_a=np.zeros((2, 3)), p=p, q=q)
    with pytest.raises(DimMismatch):
        Scenario(a=a, delta_a=np.zeros((2, 2)), p=p, q=q)
    with pytest.raises(DimMismatch):
        Scenario(a=np.eye(2), delta_a=np.zeros((2, 2)), p=p, q=q)
    with pytest.raises(ValueError, match="a \\+ delta_a"):  # each finite, the sum not
        Scenario(a=8e307 * a, delta_a=8e307 * a, p=p, q=q)


def test_thm24_stable_shift_all_true(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    report = equivalence_thm24(Scenario(a=a, delta_a=delta, p=p, q=q))
    v = verdicts(report)
    assert v == {
        "one_plus_delta_b_invertible": True,
        "one_plus_b_delta_invertible": True,
        "perturbed_exists": True,
    }
    assert report.consistent
    assert report.aux["update_vs_direct"] <= 1e-10
    assert report.aux["sigma_min_core"] > 0.5


def test_thm24_singular_shift_all_false_still_consistent(diag_instance):
    a, p, q = diag_instance
    delta = np.zeros((3, 3), dtype=complex)
    delta[0, 0] = -1.0
    report = equivalence_thm24(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.booleans() == [False, False, False]
    assert report.consistent
    assert "update_vs_direct" not in report.aux


def test_lemma26_f_zero_shift(diag_instance):
    a, p, q = diag_instance
    f, report = lemma26_f(Scenario(a=a, delta_a=np.zeros((3, 3)), p=p, q=q))
    assert spectral_norm(f - np.diag([0.0, 0.0, 1.0])) <= 1e-12
    assert report.booleans() == [True, True]
    assert report.consistent
    assert report.aux["f_idempotent_residual"] <= 1e-12
    assert report.aux["kernel_subset_gap"] <= 1e-9


def test_lemma26_f_destabilizing_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.0, 0.0, 0.1]).astype(complex)
    f, report = lemma26_f(Scenario(a=a, delta_a=delta, p=p, q=q))
    # b annihilates the shift, so f is still 1 - ba; but a + delta_a is now
    # invertible and its kernel is trivial.
    assert spectral_norm(f - np.diag([0.0, 0.0, 1.0])) <= 1e-12
    assert report.booleans() == [False, False]
    assert report.consistent


def test_lemma26_f_singular_factor_raises(diag_instance):
    a, p, q = diag_instance
    delta = np.zeros((3, 3), dtype=complex)
    delta[0, 0] = -1.0
    with pytest.raises(NotExists):
        lemma26_f(Scenario(a=a, delta_a=delta, p=p, q=q))


def test_thm27_stable_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    report = equivalence_thm27(Scenario(a=a, delta_a=delta, p=p, q=q))
    v = verdicts(report)
    assert v == {
        "update_is_inner_outer_for_perturbed": True,
        "stable": True,
        "a_bar_annihilates_left_factor": True,
        "a_bar_annihilated_right_factor": True,
    }
    assert report.consistent


def test_thm27_destabilizing_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.0, 0.0, 0.1]).astype(complex)
    report = equivalence_thm27(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.booleans() == [False, False, False, False]
    assert report.consistent


def test_thm27_singular_factor_raises(diag_instance):
    a, p, q = diag_instance
    delta = np.zeros((3, 3), dtype=complex)
    delta[0, 0] = -1.0
    with pytest.raises(NotExists):
        equivalence_thm27(Scenario(a=a, delta_a=delta, p=p, q=q))


def test_cor28_stable_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    report = equivalence_cor28(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert all(report.booleans())
    assert report.consistent


def test_cor28_destabilizing_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.0, 0.0, 0.1]).astype(complex)
    report = equivalence_cor28(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.booleans() == [False, False, False]
    assert report.consistent


def test_tm27_stable_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    report = equivalence_thm_tm27(Scenario(a=a, delta_a=delta, p=p, q=q))
    v = verdicts(report)
    assert v == {
        "update_valid_and_range_matches": True,
        "stable_trivial_and_image_matches": True,
    }
    assert report.consistent
    assert report.aux["update_vs_direct"] <= 1e-10
    assert report.aux["update_factor_margin"] > 0.5


def test_tm27_destabilizing_shift(diag_instance):
    a, p, q = diag_instance
    # a + delta_a becomes invertible, so no inner-outer inverse with a rank-2
    # column idempotent can exist and the geometric condition fails too.
    delta = np.diag([0.0, 0.0, 0.1]).astype(complex)
    report = equivalence_thm_tm27(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.booleans() == [False, False]
    assert report.consistent


def test_lemma210_stable_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    report = gap_sufficient_lemma210(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.ok
    names = [item.name for item in report.items]
    assert names == ["range_gap_forces_stability", "kernel_gap_forces_trivial_meet"]
    for item in report.items:
        assert item.hypothesis and item.conclusion
        assert item.data["delta"] <= 1e-9
        assert item.data["threshold"] == pytest.approx(1.0, abs=1e-9)


def test_lemma210_large_shift_hypothesis_off(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.0, 0.0, 0.1]).astype(complex)
    report = gap_sufficient_lemma210(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.ok
    range_item, kernel_item = report.items
    # the column space jumped to all of C^3, so the range-gap hypothesis is
    # not available; the kernel shrank to zero, which is still fine.
    assert not range_item.hypothesis
    assert kernel_item.hypothesis and kernel_item.conclusion


def test_lemma210_zero_matrix_has_infinite_kernel_threshold():
    n = 2
    a = np.zeros((n, n), dtype=complex)
    p = idempotent_from_matrix(np.zeros((n, n)))
    q = idempotent_from_matrix(np.eye(n))
    report = gap_sufficient_lemma210(Scenario(a=a, delta_a=np.zeros((n, n)), p=p, q=q))
    assert report.ok
    assert report.items[1].data["threshold"] == math.inf


def test_lemas1_stable_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    report = cor_lemas1(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.ok
    names = [item.name for item in report.items]
    assert names == ["gaps_and_image_route", "invertibility_route"]
    for item in report.items:
        assert item.hypothesis and item.conclusion
    assert report.items[0].data["update_vs_direct"] <= 1e-10


def test_lemas1_destabilizing_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.0, 0.0, 0.1]).astype(complex)
    report = cor_lemas1(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.ok
    for item in report.items:
        assert not item.hypothesis


def test_thm212_strict_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.1, 0.2, 0.0]).astype(complex)
    report = equivalence_thm212(Scenario(a=a, delta_a=delta, p=p, q=q))
    v = verdicts(report)
    assert v == {
        "update_is_strict_inverse_of_perturbed": True,
        "swap_identity": True,
        "one_sided_product_identities": True,
    }
    assert report.consistent


def test_thm212_swap_breaking_shift(diag_instance):
    a, p, q = diag_instance
    delta = np.zeros((3, 3), dtype=complex)
    delta[0, 2] = 0.1  # pushes col(a + delta_a) out of ker(q)
    report = equivalence_thm212(Scenario(a=a, delta_a=delta, p=p, q=q))
    assert report.booleans() == [False, False, False]
    assert report.consistent


def test_thm212_needs_a_strict_base(diag_instance):
    a, p, _ = diag_instance
    scenario = Scenario(a=a, delta_a=np.zeros((3, 3)), p=p, q=tilted_q())
    with pytest.raises(NotExists, match="not strict"):
        equivalence_thm212(scenario)


def test_thm212_singular_factor_raises(diag_instance):
    a, p, q = diag_instance
    delta = np.zeros((3, 3), dtype=complex)
    delta[0, 0] = -1.0
    with pytest.raises(NotExists, match="singular"):
        equivalence_thm212(Scenario(a=a, delta_a=delta, p=p, q=q))


def test_thm34_small_motion_holds(diag_instance):
    a, p, q = diag_instance
    p_prime = perturb_idempotent(p, 0.05, seed=1)
    report = bound_thm34(a, p, q, p_prime)
    assert report.theorem == "thm3.4"
    assert report.hypothesis_satisfied
    assert report.holds
    assert report.lhs <= report.rhs
    assert report.margin >= 0.0
    assert report.aux["exists"] == 1.0
    assert report.aux["norm_lhs"] <= report.aux["norm_rhs"] + 1e-9
    assert report.aux["threshold_dp"] == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_thm34_large_motion_is_vacuous(diag_instance):
    a, p, q = diag_instance
    # kappa = 2 puts the threshold at 1/9; a motion of at least 0.15 misses it
    p_prime = perturb_idempotent(p, 0.3, seed=1)
    report = bound_thm34(a, p, q, p_prime)
    assert not report.hypothesis_satisfied
    assert report.holds
    assert math.isnan(report.lhs) and math.isnan(report.margin)
    assert report.aux["dp"] > report.aux["threshold_dp"]


def test_thm36_small_motion_holds(diag_instance):
    a, p, q = diag_instance
    q_prime = perturb_idempotent(q, 0.05, seed=2)
    report = bound_thm36(a, p, q, q_prime)
    assert report.theorem == "thm3.6"
    assert report.hypothesis_satisfied and report.holds
    assert report.aux["threshold_dq"] == pytest.approx(0.25, abs=1e-12)
    assert report.aux["representation_deviation"] <= 1e-8


def test_thm38_small_motions_hold(diag_instance):
    a, p, q = diag_instance
    p_prime = perturb_idempotent(p, 0.03, seed=5)
    q_prime = perturb_idempotent(q, 0.03, seed=6)
    report = bound_thm38(a, p, q, p_prime, q_prime)
    assert report.theorem == "thm3.8"
    assert report.hypothesis_satisfied and report.holds
    assert report.lhs <= report.rhs
    assert report.aux["norm_lhs"] <= report.aux["norm_rhs"] + 1e-9


def test_thm39_all_three_motions_hold(diag_instance):
    a, p, q = diag_instance
    delta = np.diag([0.01, 0.0, 0.0]).astype(complex)
    p_prime = perturb_idempotent(p, 0.03, seed=5)
    q_prime = perturb_idempotent(q, 0.03, seed=6)
    report = bound_thm39(a, delta, p, q, p_prime, q_prime)
    assert report.theorem == "thm3.9"
    assert report.hypothesis_satisfied and report.holds
    # the main inequality is stated on the absolute difference
    new = compute_outer_pql(a + delta, p_prime, q_prime)
    base = compute_outer_pql(a, p, q)
    assert report.lhs == pytest.approx(spectral_norm(new.b - base.b), abs=1e-12)
    assert report.aux["b_norm_times_delta"] == pytest.approx(0.01, abs=1e-9)


def test_thm39_delta_shape_mismatch(diag_instance):
    a, p, q = diag_instance
    with pytest.raises(DimMismatch):
        bound_thm39(a, np.zeros((2, 2)), p, q, p, q)


def test_bound_kappa_is_scale_invariant(diag_instance):
    a, p, q = diag_instance
    p_prime = perturb_idempotent(p, 0.05, seed=1)
    report = bound_thm34(2.0 * a, p, q, p_prime)
    assert report.kappa == pytest.approx(2.0, abs=1e-9)


def test_cor11_range_motion(diag_instance):
    a, p, q = diag_instance
    p_prime = perturb_idempotent(p, 0.05, seed=1, mode="range")
    report = cor_12_variants(a, p, q, p_prime=p_prime)
    assert report.theorem == "cor3.11"
    assert report.hypothesis_satisfied and report.holds
    assert report.aux["new_inverse_strict"] == 1.0


def test_cor12_kernel_motion(diag_instance):
    a, p, q = diag_instance
    # moving the column space of q while pinning its kernel keeps q' a = 0
    q_prime = perturb_idempotent(q, 0.05, seed=2, mode="range")
    report = cor_12_variants(a, p, q, q_prime=q_prime)
    assert report.theorem == "cor3.12"
    assert report.hypothesis_satisfied and report.holds
    assert report.aux["new_inverse_strict"] == 1.0
    assert report.aux["group_rep_deviation"] <= 1e-8


def test_cor13_both_motions(diag_instance):
    a, p, q = diag_instance
    p_prime = perturb_idempotent(p, 0.03, seed=5, mode="range")
    q_prime = perturb_idempotent(q, 0.03, seed=6, mode="range")
    report = cor_12_variants(a, p, q, p_prime=p_prime, q_prime=q_prime)
    assert report.theorem == "cor3.13"
    assert report.hypothesis_satisfied and report.holds
    assert report.aux["new_inverse_strict"] == 1.0


def test_cor_variants_reject_broken_side_condition(diag_instance):
    a, p, q = diag_instance
    # moving the kernel of p tilts it out of null(a), so a p' = a fails
    p_prime = perturb_idempotent(p, 0.05, seed=2, mode="kernel")
    with pytest.raises(SideConditionViolated):
        cor_12_variants(a, p, q, p_prime=p_prime)


def test_cor_variants_need_some_motion(diag_instance):
    a, p, q = diag_instance
    with pytest.raises(InputError):
        cor_12_variants(a, p, q)


def test_cor_variants_need_a_strict_base(diag_instance):
    a, p, _ = diag_instance
    with pytest.raises(NotExists):
        cor_12_variants(a, p, tilted_q(), p_prime=p)


# The verdicts of the Section 2 reports are derived from what they carry.


def equivalence(truths, identities=True):
    return EquivalenceReport(tuple((f"c{i}", t, 0.0) for i, t in enumerate(truths)), identities)


def test_an_equivalence_whose_truths_disagree_is_not_consistent():
    assert not equivalence((True, False, True)).consistent
    assert not equivalence((False, True)).ok


def test_an_equivalence_whose_identities_failed_is_not_consistent():
    assert not equivalence((True, True, True), identities=False).consistent
    assert not equivalence((False, False), identities=False).consistent


@pytest.mark.parametrize("truths", [(True, True, True), (False, False, False), (True, True), (False, False)])
def test_an_equivalence_whose_truths_agree_and_identities_held_is_consistent(truths):
    report = equivalence(truths)
    assert report.consistent is True and report.ok is True


def test_an_implication_with_a_true_hypothesis_and_a_false_conclusion_is_not_ok():
    held = ImplicationItem("held", True, True, {})
    vacuous = ImplicationItem("vacuous", False, False, {})
    violated = ImplicationItem("violated", True, False, {})
    assert ImplicationReport((held, vacuous)).ok is True
    assert ImplicationReport((held, violated, vacuous)).ok is False


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_every_report_has_the_shape_that_the_bench_checks_read(theorem):
    config = EnsembleConfig(n_range=(2, 6), rank_range=(1, 5), count=1, seed=1, theorems=(theorem,))
    kind, report = run_check(theorem, gen_scenario(config, 0, theorem))
    assert type(report.ok) is bool
    if kind == "equiv":
        assert report.conditions
        for condition in report.conditions:
            name, truth, residual = condition
            assert type(name) is str and type(truth) is bool and isinstance(residual, float)
        assert report.ok is report.consistent
    elif kind == "impl":
        assert report.items and all(type(it.name) is str and type(it.conclusion) is bool for it in report.items)
