"""Every Section 2 verdict is a comparison of a value with a cutoff, and the
reports carry those decisions. Each condition's truth follows from the value,
the cutoff and the direction of the comparison that decided it, and each
report names its closest call: the least |log10(value / cutoff)| over its
decisions. A campaign counts, per Section 2 id, the reports whose closest
call is within one decade (near_calls).

The band tests replay the edge-of-stability sweep of ROADMAP item 2: seed 7,
a destabilizing direction d from RandomStream(1000 + index), and the shift
t max(||a||, 1) d for t from 1e-16 to 1e-1.
"""

import math
import operator

import numpy as np
import pytest

from ginv import EnsembleConfig, RandomStream, Scenario, gen_scenario, run_campaign, run_check
from ginv.harness import _delta_direction
from ginv.serialize import campaign_report_to_json, report_to_json

SECTION2 = ("thm2.4", "lemma2.6", "thm2.7", "cor2.8", "tm2.7", "lemma2.10", "lemas1", "thm2.12")
OPS = {"<=": operator.le, "<": operator.lt, ">": operator.gt, ">=": operator.ge}


def _decades(value, cutoff):
    if cutoff is None or not (0 < value < math.inf and 0 < cutoff < math.inf):
        return math.inf
    return abs(math.log10(value) - math.log10(cutoff))


def _check_equivalence(rep):
    assert len(rep.cutoffs) == len(rep.conditions)
    assert len(rep.decisions) >= len(rep.conditions)
    for (_, truth, _), d, cutoff in zip(rep.conditions, rep.decisions, rep.cutoffs):
        assert d.truth == truth and d.cutoff is cutoff
        if cutoff is None:  # a dimension count decided
            continue
        assert OPS[d.op](d.value, cutoff) == truth
    assert rep.closest_call == min((_decades(d.value, d.cutoff) for d in rep.decisions), default=math.inf)
    assert report_to_json(rep)["cutoffs"] == [None if c is None else float(c) for c in rep.cutoffs]


def _check_implication(rep, tol):
    pairs = [it for it in rep.items if "threshold" in it.data]
    # lemma2.10's gap hypotheses carry the decision delta < threshold - tol_eq
    # that was made; lemas1's items carry none
    assert [it.decision is not None for it in rep.items] == ["threshold" in it.data for it in rep.items]
    for it in pairs:
        d = it.decision
        assert it.hypothesis == d.truth == (it.data["delta"] < it.data["threshold"] - tol.tol_eq)
        assert (d.value, d.cutoff, d.op) == (it.data["delta"], it.data["threshold"] - tol.tol_eq, "<")
    assert rep.closest_call == min((_decades(it.decision.value, it.decision.cutoff) for it in pairs), default=math.inf)


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_reports_carry_their_own_verdict(seed):
    config = EnsembleConfig(n_range=(2, 6), count=30, seed=seed, theorems=SECTION2)
    reports = []
    campaign = run_campaign(config, on_report=lambda th, i, kind, rep: reports.append((th, rep)))
    assert {th for th, _ in reports} == set(SECTION2)
    for _, rep in reports:
        if rep.kind == "equiv":
            _check_equivalence(rep)
        else:
            _check_implication(rep, config.tolerances)
    stats = campaign_report_to_json(campaign)["stats"]
    for theorem in SECTION2:
        near = sum(rep.closest_call <= 1 for th, rep in reports if th == theorem)
        assert stats[theorem]["near_calls"] == campaign.stats[theorem].near_calls == near


def test_bound_ids_count_no_near_calls():
    campaign = run_campaign(EnsembleConfig(count=2, seed=1, theorems=("thm3.4", "thm2.7")))
    assert campaign.stats["thm3.4"].near_calls is None
    assert campaign.stats["thm2.7"].near_calls in (0, 1, 2)


def _band_scenario(index, t):
    config = EnsembleConfig(n_range=(2, 6), count=40, seed=7, theorems=("thm2.7",), perturbation_magnitudes=(0.5,))
    s = gen_scenario(config, index, "thm2.7")
    d = _delta_direction(RandomStream(1000 + index), "destabilizing", s.a, s.p, s.q)
    return s, Scenario(s.a, t * max(s.norm_a, 1.0) * d, s.p, s.q, tol=s.tol)


def test_an_instance_in_the_edge_of_stability_band_is_a_near_call():
    generated, in_band = _band_scenario(3, 1e-8)
    assert run_check("thm2.7", in_band)[1].closest_call <= 1
    # the generated shift and a large destabilizing one lie in the easy interior
    assert run_check("thm2.7", generated)[1].closest_call > 1
    assert run_check("thm2.7", _band_scenario(3, 1e-1)[1])[1].closest_call > 1


def test_every_inconsistent_report_of_the_band_sweep_is_a_near_call():
    near = 0
    for index in range(8):
        for t in np.geomspace(1e-16, 1e-1, 31):
            report = run_check("thm2.7", _band_scenario(index, t)[1])[1]
            near += report.closest_call <= 1
            assert report.consistent or report.closest_call <= 1, (index, t)
    assert near > 0

