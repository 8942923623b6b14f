"""Ensemble generation and campaign behavior."""

import numpy as np
import pytest

from ginv import (
    CHECKS,
    EnsembleConfig,
    GenerationFailed,
    InputError,
    Scenario,
    exists_outer_pql,
    gen_scenario,
    is_stable,
    run_campaign,
    run_check,
)
from ginv.serialize import campaign_report_to_json


def small_config(**kw):
    base = dict(n_range=(2, 4), rank_range=(1, 3), count=3, seed=0, theorems=("thm3.4",))
    base.update(kw)
    return EnsembleConfig(**base)


def test_config_validation():
    with pytest.raises(InputError, match="unknown check id"):
        small_config(theorems=("thm7.7",))
    with pytest.raises(InputError):
        small_config(count=0)
    with pytest.raises(InputError):
        small_config(n_range=(4, 2))
    with pytest.raises(InputError):
        small_config(n_range=(0, 3))
    with pytest.raises(InputError):
        small_config(rank_range=(3,))
    with pytest.raises(InputError):
        small_config(perturbation_magnitudes=())
    with pytest.raises(InputError):
        small_config(perturbation_magnitudes=(-0.1,))


@pytest.mark.parametrize(
    "field",
    [
        {"perturbation_magnitudes": (float("nan"),)},
        {"perturbation_magnitudes": (0.5, float("inf"))},
        {"skew": float("inf")},
        {"skew": float("nan")},
    ],
    ids=["nan-magnitude", "infinite-magnitude", "infinite-skew", "nan-skew"],
)
def test_config_rejects_non_finite_skew_and_magnitudes(field):
    # they would reach the generator and end in a ValueError, not in InputError
    with pytest.raises(InputError, match="finite"):
        small_config(**field)


def test_checks_registry_is_complete():
    assert set(CHECKS) == {
        "thm2.4",
        "lemma2.6",
        "thm2.7",
        "cor2.8",
        "tm2.7",
        "lemma2.10",
        "lemas1",
        "thm2.12",
        "thm3.4",
        "thm3.6",
        "thm3.8",
        "thm3.9",
        "cor3.11",
        "cor3.12",
        "cor3.13",
        "selftest-bad-bound",
    }


def test_gen_scenario_is_deterministic():
    config = small_config(seed=5)
    s1 = gen_scenario(config, 2, "thm3.4")
    s2 = gen_scenario(config, 2, "thm3.4")
    assert np.array_equal(s1.a, s2.a)
    assert np.array_equal(s1.delta_a, s2.delta_a)
    assert np.array_equal(s1.p.m, s2.p.m)
    assert np.array_equal(s1.q.m, s2.q.m)
    assert np.array_equal(s1.p_prime.m, s2.p_prime.m)
    assert s1.q_prime is None


def test_gen_scenario_bases_are_solvable():
    config = EnsembleConfig(
        n_range=(3, 3), rank_range=(2, 2), count=1, seed=1, theorems=("thm2.4",)
    )
    s = gen_scenario(config, 0, "thm2.4")
    assert s.n == 3
    assert exists_outer_pql(s.a, s.p, s.q, s.tol).exists


def test_zero_magnitude_keeps_everything_in_place():
    config = small_config(perturbation_magnitudes=(0.0,), theorems=("thm3.8",))
    s = gen_scenario(config, 0, "thm3.8")
    assert np.array_equal(s.p_prime.m, s.p.m)
    assert np.array_equal(s.q_prime.m, s.q.m)
    assert not s.delta_a.any()


def test_class_cycle_alternates_stability():
    config = EnsembleConfig(
        n_range=(3, 5), rank_range=(1, 4), count=4, seed=7, theorems=("thm2.7",)
    )
    stable = gen_scenario(config, 0, "thm2.7")  # class cycle starts stable
    moved = gen_scenario(config, 1, "thm2.7")  # then destabilizing
    assert is_stable(stable)
    assert not is_stable(moved)


def test_gen_scenario_impossible_rank_range():
    config = EnsembleConfig(
        n_range=(3, 3), rank_range=(5, 5), count=1, seed=0, theorems=("thm3.4",)
    )
    with pytest.raises(GenerationFailed):
        gen_scenario(config, 0, "thm3.4")


def test_run_check_kinds(diag_instance):
    a, p, q = diag_instance
    s = Scenario(a=a, delta_a=np.diag([0.1, 0.0, 0.0]).astype(complex), p=p, q=q)
    kind, report = run_check("thm2.4", s)
    assert kind == "equiv" and report.consistent
    kind, report = run_check("lemma2.10", s)
    assert kind == "impl" and report.ok
    with pytest.raises(InputError, match="unknown check id"):
        run_check("thm0.0", s)
    # bound checks refuse scenarios without the moved idempotent they need
    with pytest.raises(InputError, match="p_prime"):
        run_check("thm3.4", s)


def test_campaign_clean_stats():
    config = small_config(count=5, seed=2)
    report = run_campaign(config)
    st = report.stats["thm3.4"]
    assert st.instances == 5
    assert st.hypothesis_satisfied == 5
    assert st.holds == 5
    assert st.consistent == 5
    assert st.failures == []
    assert st.max_ratio is not None and 0.0 <= st.max_ratio <= 1.0 + 1e-9
    assert st.worst_margin is not None and st.worst_margin >= -1e-9
    assert report.ok
    assert report.wall_time > 0.0


def test_campaign_equivalence_stats():
    config = EnsembleConfig(
        n_range=(2, 4), rank_range=(1, 3), count=6, seed=3, theorems=("thm2.4",)
    )
    report = run_campaign(config)
    st = report.stats["thm2.4"]
    assert st.instances == 6
    assert st.consistent == 6
    assert st.holds == 6
    assert st.max_ratio is None
    assert report.ok


def test_campaign_is_deterministic_apart_from_wall_time():
    config = small_config(count=4, seed=9, theorems=("thm2.4", "thm3.4"))
    d1 = campaign_report_to_json(run_campaign(config))
    d2 = campaign_report_to_json(run_campaign(config))
    d1.pop("wall_time")
    d2.pop("wall_time")
    assert d1 == d2


def test_campaign_on_report_callback():
    config = small_config(count=3, seed=4)
    seen = []
    run_campaign(config, on_report=lambda th, i, kind, rep: seen.append((th, i, kind)))
    assert seen == [("thm3.4", 0, "bound"), ("thm3.4", 1, "bound"), ("thm3.4", 2, "bound")]


def test_selftest_check_is_caught():
    config = small_config(count=4, seed=0, theorems=("selftest-bad-bound",))
    report = run_campaign(config)
    st = report.stats["selftest-bad-bound"]
    assert not report.ok
    assert len(st.failures) >= 1
    assert st.holds < st.instances
    failure = st.failures[0]
    assert failure["report"]["theorem"] == "selftest-bad-bound"
    assert "scenario" in failure


def test_campaign_records_draws_that_cannot_be_made():
    # rank 5 needs n >= 6, so most draws of n in [2, 6] cannot be made
    config = EnsembleConfig(
        n_range=(2, 6), rank_range=(5, 5), count=5, seed=1, theorems=("thm3.4",)
    )
    report = run_campaign(config)
    st = report.stats["thm3.4"]
    assert not report.ok
    assert st.instances == 5
    drawn = [f for f in st.failures if f.get("error", "").startswith("GenerationFailed")]
    assert drawn
    for f in drawn:
        assert set(f) == {"index", "seed", "error"}
        assert f["seed"] == 1


_VERDICT = {"bound": "holds", "equiv": "consistent", "impl": "ok"}


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_reports_carry_their_kind_and_verdict(theorem):
    config = small_config(count=2, seed=6, theorems=(theorem,))
    seen = []
    run_campaign(config, on_report=lambda th, i, kind, rep: seen.append((kind, rep)))
    assert seen
    for kind, rep in seen:
        assert kind == rep.kind
        assert rep.ok == getattr(rep, _VERDICT[kind])
