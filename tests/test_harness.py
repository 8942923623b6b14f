"""Ensemble generation and campaign behavior."""

import copy
from collections import Counter, defaultdict
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

import ginv.errors as errors
import ginv.harness as harness
import ginv.perturbation as perturbation
from ginv import (
    CHECKS,
    EnsembleConfig,
    GenerationFailed,
    GinvError,
    InputError,
    Scenario,
    build_witness,
    exists_outer_pql,
    gen_scenario,
    idempotent_from_matrix,
    is_stable,
    PerturbationTooLarge,
    RandomStream,
    Tolerances,
    run_campaign,
    run_check,
)
from ginv.serialize import campaign_report_to_json, dumps, report_to_json, scenario_from_json, scenario_to_json


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
    with pytest.raises(InputError, match="theorems must be nonempty"):
        small_config(theorems=())
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
    # index-major: every id at index 0, then at index 1; a repeated id runs once
    config = small_config(count=2, seed=4, theorems=("thm3.4", "thm2.4", "thm3.4"))
    seen = []
    report = run_campaign(config, on_report=lambda th, i, kind, rep: seen.append((th, i, kind)))
    assert seen == [("thm3.4", 0, "bound"), ("thm2.4", 0, "equiv"), ("thm3.4", 1, "bound"), ("thm2.4", 1, "equiv")]
    assert list(report.stats) == ["thm3.4", "thm2.4"]
    assert report.stats["thm3.4"].instances == 2


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


ALL_IDS = tuple(sorted(set(CHECKS) - {"selftest-bad-bound"}))


def test_a_campaign_whose_tolerance_rejects_every_drawn_idempotent_records_it():
    # tol_eq = 1e-17 is a valid Tolerances, but no drawn idempotent passes it
    config = small_config(theorems=ALL_IDS, count=2, tolerances=Tolerances(tol_eq=1e-17))
    report = run_campaign(config)
    assert not report.ok and len(report.stats) == 15
    for st in report.stats.values():
        assert st.instances == 2 and len(st.failures) == 2
        for f in st.failures:
            assert set(f) == {"index", "seed", "error"}
            assert f["error"].startswith("GenerationFailed") and "rejected the draw" in f["error"]
            assert "matrix is not idempotent" in f["error"]


def test_a_move_that_the_tolerance_rejects_is_a_rejected_draw(monkeypatch):
    def rejected(*args, **kw):
        raise ValueError("matrix is not idempotent: ||m^2 - m|| = 1e-16")

    monkeypatch.setattr(harness, "_perturb_idempotent", rejected)
    bound_ids = tuple(t for t in ALL_IDS if t.startswith(("thm3", "cor3")))
    report = run_campaign(small_config(theorems=bound_ids, count=1))
    reason = "perturbation draw failed: matrix is not idempotent: ||m^2 - m|| = 1e-16"
    for st in report.stats.values():
        assert [f["error"] for f in st.failures] == [f"GenerationFailed: no scenario after 64 attempts: {reason}"]


def test_a_base_draw_that_the_skew_makes_impossible_is_retried():
    # at skew 1e9 about half the drawn p cannot keep their rank; each such
    # draw is rejected with its reason and the index draws again
    report = run_campaign(EnsembleConfig(skew=1e9, count=10, seed=1, theorems=("thm2.4",)))
    st = report.stats["thm2.4"]
    assert st.instances == 10 and not any("PerturbationTooLarge" in f["error"] for f in st.failures)
    assert st.failures == [] and st.consistent == 10


def test_a_base_draw_that_raises_perturbation_too_large_keeps_its_reason(monkeypatch):
    def too_extreme(*args, **kw):
        raise PerturbationTooLarge("skew 1e9 is too extreme for p to keep rank 1")

    monkeypatch.setattr(harness, "_random_idempotent", too_extreme)
    st = run_campaign(small_config(theorems=("thm2.4",), count=1)).stats["thm2.4"]
    [failure] = st.failures
    assert failure["error"].startswith("GenerationFailed: no scenario after 64 attempts: base family outer rejected the draw")
    assert failure["error"].endswith(": skew 1e9 is too extreme for p to keep rank 1")


def test_a_campaign_at_a_tolerance_that_rejects_some_draws_retries_them():
    config = EnsembleConfig(n_range=(2, 4), count=3, seed=1, theorems=("thm3.4",), tolerances=Tolerances(tol_eq=1e-16))
    assert run_campaign(config).stats["thm3.4"].instances == 3


# A shift of magnitude 1e308 overflows the update factors 1 + b delta_a and
# 1 + delta_a b; they read singular, without a warning (warnings are errors
# here) and without a LAPACK call, and the campaign records what raised and
# returns.
def test_a_campaign_with_an_overflowing_shift_records_failures_and_returns():
    config = EnsembleConfig(n_range=(2, 4), count=6, seed=1, theorems=("thm2.7", "thm2.4"), perturbation_magnitudes=(1e308,))
    report = run_campaign(config)
    failures = [f for st in report.stats.values() for f in st.failures]
    assert not report.ok and all(st.instances == 6 for st in report.stats.values())
    # a shift beyond double range is a rejected draw
    # (a failing report is a failure too, with no error)
    assert any("shift rejected: " in f.get("error", "") for f in failures if f.get("error", "").startswith("GenerationFailed"))
    # a check that raised is a failure with its scenario, and none raised LinAlgError
    assert any(f.get("error", "").startswith("NotExists") and "scenario" in f for f in failures)
    assert not any(f.get("error", "").startswith("LinAlgError") for f in failures)


def test_an_overflowing_update_factor_fails_generation_not_lapack(capfd):
    # 1 + b delta_a with entries past double range used to reach the SVD,
    # which raised LinAlgError after LAPACK printed a DLASCL line
    config = EnsembleConfig(n_range=(2, 4), count=6, seed=1, theorems=("thm2.7",), perturbation_magnitudes=(1e308,))
    try:
        scenario = gen_scenario(config, 4, "thm2.7")
    except GenerationFailed:
        pass
    else:
        assert scenario._left_factor[0].truth
    assert "DLASCL" not in "".join(capfd.readouterr())


SECTION_2_IDS = ("thm2.4", "lemma2.6", "thm2.7", "cor2.8", "tm2.7", "lemma2.10", "lemas1", "thm2.12")


@pytest.mark.parametrize("magnitude", [1e300, 1e308])
def test_section_2_campaigns_with_overflowing_shifts_return(magnitude):
    # an update factor whose SVD reads NaN is singular, so no check trips
    # over its entries; what still raises is a GinvError or a LinAlgError
    config = EnsembleConfig(n_range=(2, 4), count=6, seed=1, theorems=SECTION_2_IDS, perturbation_magnitudes=(magnitude,))
    report = run_campaign(config)
    assert all(st.instances == 6 for st in report.stats.values())
    names = {name for name, c in vars(errors).items() if isinstance(c, type) and issubclass(c, GinvError)} | {"LinAlgError"}
    failed = [f["error"] for st in report.stats.values() for f in st.failures if "error" in f]
    assert failed and all(e.split(":")[0] in names for e in failed)


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


BOUND_IDS = ("thm3.4", "thm3.6", "thm3.8", "thm3.9", "cor3.11", "cor3.12", "cor3.13")


def _per_id_outputs(config):
    """Each id's encoded stats (failures and their scenarios included) and
    its encoded reports in index order, from one campaign."""
    reports = {theorem: [] for theorem in config.theorems}
    report = run_campaign(config, on_report=lambda th, i, kind, rep: reports[th].append((i, dumps(report_to_json(rep)))))
    stats = campaign_report_to_json(report)["stats"]
    return {theorem: (dumps(stats[theorem]), reports[theorem]) for theorem in config.theorems}


def assert_shared_draws_change_nothing(config):
    together = _per_id_outputs(config)
    for theorem in config.theorems:
        assert together[theorem] == _per_id_outputs(replace(config, theorems=(theorem,)))[theorem], theorem


@pytest.mark.parametrize("seed", [3, 12])
def test_ids_of_one_campaign_get_what_they_get_alone(seed):
    # a small magnitude leaves the caps slack, so thm3.6 and thm3.8 ask for q'
    # with one magnitude from different stream states
    config = EnsembleConfig(count=4, seed=seed, perturbation_magnitudes=(0.5, 1e-3), theorems=tuple(sorted(CHECKS)))
    assert_shared_draws_change_nothing(config)
    assert not run_campaign(replace(config, theorems=("selftest-bad-bound",))).ok  # failures are compared too


def test_bound_ids_draw_each_base_and_moved_idempotent_once(monkeypatch):
    bases = Counter()  # base draws per (family, attempt stream)
    for family, draw in harness._BASES.items():

        def counted(stream, *args, _family=family, _draw=draw):
            bases[_family, stream._seed] += 1
            return _draw(stream, *args)

        monkeypatch.setitem(harness._BASES, family, counted)
    moved = []
    perturb = harness._perturb_idempotent  # the search core, which also returns the distance
    monkeypatch.setattr(harness, "_perturb_idempotent", lambda *a, **k: moved.append(a[1]) or perturb(*a, **k))

    config = EnsembleConfig(count=5, seed=2, theorems=BOUND_IDS)
    run_campaign(config)
    assert set(bases.values()) == {1}
    # thm3.4, thm3.8 and thm3.9 share p'; thm3.8 and thm3.9 share q';
    # cor3.11 and cor3.13 share p'
    assert len(moved) == 6 * config.count

    bases.clear()
    moved.clear()
    for theorem in BOUND_IDS:
        run_campaign(replace(config, theorems=(theorem,)))
    assert {bases[k] for k in bases if k[0] == "outer"} == {4}
    assert {bases[k] for k in bases if k[0] == "strict"} == {3}
    assert len(moved) == 10 * config.count


SECTION2_IDS = ("thm2.4", "lemma2.6", "thm2.7", "cor2.8", "tm2.7", "lemma2.10", "lemas1", "thm2.12")


def _record_scenarios(monkeypatch):
    """Every Scenario that generation builds, and the one each (index, id) gets."""
    built, got = [], {}
    scenario, gen = harness._generated_scenario, harness.gen_scenario

    def building(*args, **kw):
        built.append(scenario(*args, **kw))
        return built[-1]

    def generating(config, index, theorem, **kw):
        got[index, theorem] = gen(config, index, theorem, **kw)
        return got[index, theorem]

    monkeypatch.setattr(harness, "_generated_scenario", building)
    monkeypatch.setattr(harness, "gen_scenario", generating)
    return built, got


def test_section2_ids_build_one_scenario_per_shared_draw(monkeypatch):
    built, got = _record_scenarios(monkeypatch)
    # the a of each existence evaluation the checkers build (each for an
    # inner-outer solve on a + delta_a); the scenario of each gap evaluation
    solves, hypotheses = [], []
    evaluation = perturbation._Evaluation
    monkeypatch.setattr(perturbation, "_Evaluation", lambda a, *args: solves.append(a) or evaluation(a, *args))
    gaps = Scenario.__dict__["_gap_hypotheses"].func
    counted = cached_property(lambda s: hypotheses.append(s) or gaps(s))
    counted.__set_name__(Scenario, "_gap_hypotheses")
    monkeypatch.setattr(Scenario, "_gap_hypotheses", counted)

    # count 6 brings every class of every cycle (lengths 2 and 3) against every other
    config = EnsembleConfig(count=6, seed=2, theorems=SECTION2_IDS)
    run_campaign(config)
    distinct = 0
    for index in range(config.count):
        draws = defaultdict(set)  # (family, class) -> the scenarios its ids got
        for theorem in SECTION2_IDS:
            family, classes, _, _ = harness._PROFILES[theorem]
            draws[family, classes[index % len(classes)]].add(id(got[index, theorem]))
        assert all(len(ids) == 1 for ids in draws.values()), index
        assert len(set.union(*draws.values())) == len(draws), index
        distinct += len(draws)
    # six draws per index (thm2.7 with cor2.8, lemma2.10 with lemas1), one
    # fewer where lemma2.6 joins the first pair (index 4, 5) or tm2.7 the
    # second (index 0, 5)
    assert len(built) == distinct == 6 * config.count - 4
    assert solves and hypotheses
    assert len({id(a) for a in solves}) == len(solves)
    assert all(any(a is s.__dict__.get("a_bar") for s in built) for a in solves)
    assert len({id(s) for s in hypotheses}) == len(hypotheses)

    built.clear()
    for theorem in SECTION2_IDS:
        run_campaign(replace(config, theorems=(theorem,)))
    assert len(built) == len(SECTION2_IDS) * config.count  # alone, each id builds its own


def _report_dicts(report):
    """The mutable dicts a report holds."""
    return [report.aux] if hasattr(report, "aux") else [item.data for item in report.items]


def test_no_report_owns_data_another_report_can_reach(monkeypatch):
    config = EnsembleConfig(count=6, seed=4, theorems=tuple(sorted(CHECKS)))
    plain = []
    run_campaign(config, on_report=lambda th, i, kind, rep: plain.append(dumps(report_to_json(rep))))

    _, got = _record_scenarios(monkeypatch)
    encoded, owners = {}, {}  # (index, id) -> encoding; id of each dict -> the (index, id) whose report holds it
    kept = []  # every report stays alive, so no id() in owners is reused by a later dict

    def encode_then_spoil(theorem, index, kind, report):
        kept.append(report)
        encoded[index, theorem] = dumps(report_to_json(report))
        for d in _report_dicts(report):
            assert owners.setdefault(id(d), (index, theorem)) == (index, theorem)
            d.update(dict.fromkeys(d, -1.0))

    run_campaign(config, on_report=encode_then_spoil)
    assert list(encoded.values()) == plain  # spoiling a report leaves the later ones as they were
    shared = [key for key, s in got.items() if sum(t is s for t in got.values()) > 1 and key in encoded]
    assert {theorem for _, theorem in shared} >= {"thm2.7", "cor2.8", "lemma2.10", "lemas1", "tm2.7"}
    for index, theorem in encoded:  # a check run again on its shared scenario reports what it did the first time
        assert dumps(report_to_json(run_check(theorem, got[index, theorem])[1])) == encoded[index, theorem], theorem


def test_ids_that_retry_after_the_base_draw_still_get_what_they_get_alone(monkeypatch):
    # Attempt 0 of every index fails after its base draw: a moved idempotent
    # cannot be drawn, and the shift of a is made singular, which the ids
    # that need 1 + b delta_a invertible reject. Attempt 1 then succeeds.
    config = EnsembleConfig(count=3, seed=5, theorems=tuple(sorted(CHECKS)))
    attempt = [[RandomStream(config.seed).spawn(i).spawn(k)._seed for k in (0, 1)] for i in range(config.count)]
    first = {seeds[0] for seeds in attempt}
    perturb, make_delta = harness._perturb_idempotent, harness._make_delta
    failed, shifted = [], set()

    def perturb_or_fail(p, magnitude, stream, *args, **kw):
        if stream._seed in first:
            failed.append(stream._seed)
            raise PerturbationTooLarge("attempt 0 fails")
        return perturb(p, magnitude, stream, *args, **kw)

    def singular_first(stream, cls, *args):
        shifted.add(stream._seed)
        return make_delta(stream, "singular" if stream._seed in first else cls, *args)

    monkeypatch.setattr(harness, "_perturb_idempotent", perturb_or_fail)
    monkeypatch.setattr(harness, "_make_delta", singular_first)
    assert_shared_draws_change_nothing(config)
    assert failed
    assert any(set(seeds) <= shifted for seeds in attempt)  # a shift was drawn at attempt 0 and again at 1
    report = run_campaign(config)
    assert all(not st.failures for theorem, st in report.stats.items() if theorem != "selftest-bad-bound")


def test_a_once_hit_puts_the_stream_where_the_first_draw_left_it(monkeypatch):
    memo = {}
    drawing, hitting = RandomStream(9), RandomStream(9)
    for stream in (drawing, hitting):  # each makes a block of its own
        stream.normal_matrix(1, 1)
    drawn = harness._once(memo, "draw", drawing, lambda: drawing.normal_matrix(2, 3))
    made = []
    ahead = RandomStream._ahead
    monkeypatch.setattr(RandomStream, "_ahead", lambda self, count: made.append(count) or ahead(self, count))
    assert harness._once(memo, "draw", hitting, lambda: pytest.fail("a hit draws again")) is drawn
    assert hitting._position() == drawing._position()
    continuation = drawing.normal_matrix(3, 3)
    np.testing.assert_array_equal(hitting.normal_matrix(3, 3).view(np.uint64), continuation.view(np.uint64))
    assert hitting._position() == drawing._position()
    assert made == []  # both were served from the drawing stream's block


def test_families_share_what_they_draw_at_one_stream_position(monkeypatch):
    # At n = 2r an n x n a and a rank-r a take the same number of normals, so
    # outer (thm2.4) and outer_rank (thm2.7) draw p and q at the same
    # positions; outer_rank, l_aligned (tm2.7) and strict (thm2.12) all draw
    # their rank-r a first.
    config = EnsembleConfig(n_range=(4, 4), rank_range=(2, 2), count=8, seed=6, theorems=("thm2.4", "thm2.7", "tm2.7", "thm2.12"))
    rank_r = Counter()  # rank-r draws per (index, attempt) stream
    draw = harness._rank_r_matrix
    monkeypatch.setattr(harness, "_rank_r_matrix", lambda stream, *args: rank_r.update([stream._seed]) or draw(stream, *args))
    _, got = _record_scenarios(monkeypatch)
    run_campaign(config)
    assert rank_r and set(rank_r.values()) == {1}
    for index in range(config.count):
        outer, outer_rank = got[index, "thm2.4"], got[index, "thm2.7"]
        assert outer.p is outer_rank.p and outer.q is outer_rank.q, index
        assert got[index, "tm2.7"].a is outer_rank.a, index
    monkeypatch.undo()
    assert_shared_draws_change_nothing(config)


REPLAY = EnsembleConfig(n_range=(2, 6), rank_range=(1, 5), count=10, seed=21)


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_a_dumped_scenario_replays_byte_for_byte(theorem):
    # generation makes every idempotent by the rule that decodes it, so the
    # decoded scenario has the same bases, and every report value is the same.
    # Generation skips Scenario's checks on the parts it made; Scenario(...)
    # of the very parts, with nothing cached, reports the same bytes too.
    fields = ("a", "delta_a", "p", "q", "p_prime", "q_prime", "tol")
    for index in range(REPLAY.count):
        s = gen_scenario(REPLAY, index, theorem)
        decoded = scenario_from_json(scenario_to_json(s))
        checked = Scenario(*(getattr(s, f) for f in fields))
        assert all(getattr(checked, f) is getattr(s, f) for f in fields)
        for other in (decoded, checked):
            assert dumps(report_to_json(run_check(theorem, other)[1])) == dumps(report_to_json(run_check(theorem, s)[1])), index


@pytest.mark.parametrize(
    "a, delta",
    [
        (np.diag([1e308, 1.5e308, 0.0]), np.diag([1e308, 1.5e308, 0.0])),  # both finite, the sum is not
        (np.eye(3), np.diag([np.inf, 0.0, 0.0])),
        (np.eye(3), np.diag([np.nan, 0.0, 0.0])),
    ],
)
def test_a_generated_scenario_rejects_a_shift_as_the_checked_constructor_does(a, delta):
    a, delta = a.astype(complex), delta.astype(complex)
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0]))
    q = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError) as checked:
        Scenario(a, delta, p, q)
    with pytest.raises(ValueError) as trusted:
        harness._generated_scenario(a, delta, p, q, None, None, Tolerances())
    assert str(trusted.value) == str(checked.value)


def test_a_shift_that_overflows_fails_generation_with_the_checked_message():
    # a magnitude of 1.7e308 times ||a|| > 1.06 scales the unit direction past double range
    config = small_config(perturbation_magnitudes=(1.7e308,), theorems=("thm2.4",))
    with pytest.raises(GenerationFailed, match="shift rejected: matrix contains NaN or infinite entries"):
        gen_scenario(config, 0, "thm2.4")


def test_scenarios_reports_and_witnesses_compare_by_identity():
    # their fields hold numpy arrays, which a field-by-field == cannot compare
    s = gen_scenario(EnsembleConfig(count=1, seed=3, theorems=("thm3.8",)), 0, "thm3.8")
    report = exists_outer_pql(s.a, s.p, s.q)
    assert report.certificates is not None
    witness = build_witness(s.p, s.q)
    for x in (s, report, witness):
        twin = copy.copy(x)
        assert x == x and x != twin
        assert len({x, twin, x}) == 2
