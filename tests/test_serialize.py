"""Round trips and shapes for the JSON/CSV encodings."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ginv import (
    EnsembleConfig,
    ExactMatrix,
    InputError,
    RandomStream,
    Scenario,
    Tolerances,
    bound_thm34,
    compute_outer_pql,
    equivalence_thm24,
    exists_outer_pql,
    gap,
    gap_sufficient_lemma210,
    idempotent_from_matrix,
    perturb_idempotent,
    run_campaign,
)
from ginv.serialize import (
    CSV_HEADER,
    bound_report_to_json,
    bound_reports_to_csv,
    campaign_report_to_json,
    config_from_json,
    config_to_json,
    dump_file,
    dumps,
    equivalence_report_to_json,
    exact_matrix_from_json,
    exact_matrix_to_json,
    existence_report_to_json,
    gap_result_to_json,
    ginv_result_to_json,
    idempotent_from_json,
    idempotent_to_json,
    implication_report_to_json,
    load_file,
    matrix_from_json,
    matrix_to_json,
    scenario_from_json,
    scenario_to_json,
    tolerances_from_json,
    tolerances_to_json,
)


def diag_scenario(delta=None, p_prime=None):
    a = np.diag([1.0, 2.0, 0.0]).astype(complex)
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0]))
    q = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0]))
    d = np.zeros((3, 3), dtype=complex) if delta is None else delta
    return Scenario(a=a, delta_a=d, p=p, q=q, p_prime=p_prime)


def test_matrix_round_trip_is_bit_exact():
    m = RandomStream(7).normal_matrix(4, 3)
    d = matrix_to_json(m)
    text = dumps(d)
    back = matrix_from_json(json.loads(text))
    assert back.shape == m.shape
    assert np.array_equal(back, m)


def test_matrix_accepts_bare_real_entries():
    d = {"rows": 2, "cols": 2, "data": [1, 0, 0.5, -2]}
    m = matrix_from_json(d)
    assert np.array_equal(m, np.array([[1.0, 0.0], [0.5, -2.0]], dtype=complex))


def test_matrix_rejects_malformed_objects():
    with pytest.raises(InputError):
        matrix_from_json({"cols": 2, "data": []})
    with pytest.raises(InputError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})


def test_exact_matrix_round_trip_is_entry_exact():
    m = ExactMatrix.from_strings(
        [
            ["1/3", ("2/7", "-1/3")],
            ["0", "-5/2"],
        ]
    )
    d = exact_matrix_to_json(m)
    assert d["exact"] is True
    back = exact_matrix_from_json(json.loads(dumps(d)))
    assert (back - m).is_zero()


def test_exact_matrix_loads_through_the_generic_reader():
    m = ExactMatrix.from_strings([["1/3", "2"], ["0", "1"]])
    d = exact_matrix_to_json(m)
    approx = matrix_from_json(d)
    assert abs(approx[0, 0] - 1.0 / 3.0) <= 1e-16


def test_special_floats_round_trip(tmp_path):
    values = {"a": float("nan"), "b": float("inf"), "c": float("-inf"), "d": 1.5}
    from ginv.serialize import _enc_float

    path = tmp_path / "floats.json"
    dump_file({k: _enc_float(v) for k, v in values.items()}, str(path))
    assert load_file(str(path)) == {"a": {"$f": "nan"}, "b": {"$f": "inf"}, "c": {"$f": "-inf"}, "d": 1.5}


def test_vacuous_bound_report_serializes(tmp_path):
    a = np.diag([1.0, 2.0, 0.0]).astype(complex)
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0]))
    q = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0]))
    report = bound_thm34(a, p, q, perturb_idempotent(p, 0.3, seed=1))
    assert not report.hypothesis_satisfied
    d = bound_report_to_json(report)
    path = tmp_path / "bound.json"
    dump_file(d, str(path))  # allow_nan is off, so NaN must be tagged
    back = load_file(str(path))
    assert back["lhs"] == {"$f": "nan"}
    assert back["holds"] is True


def test_subspace_and_idempotent_round_trips():
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0]))
    p2 = idempotent_from_json(idempotent_to_json(p))
    assert np.array_equal(p2.m, p.m)
    # a bare matrix object is accepted too
    p3 = idempotent_from_json(matrix_to_json(p.m))
    assert np.array_equal(p3.m, p.m)


def test_tolerances_round_trip_and_defaults():
    t = Tolerances(tol_rank=1e-8, tol_eq=1e-7, tol_inv=1e-13)
    assert tolerances_from_json(tolerances_to_json(t)) == t
    assert tolerances_from_json({}) == Tolerances()


def test_scenario_round_trip_with_primes():
    p_prime = perturb_idempotent(
        idempotent_from_matrix(np.diag([1.0, 1.0, 0.0])), 0.05, seed=1
    )
    s = diag_scenario(delta=np.diag([0.1, 0.0, 0.0]).astype(complex), p_prime=p_prime)
    d = json.loads(dumps(scenario_to_json(s)))
    s2 = scenario_from_json(d)
    assert np.array_equal(s2.a, s.a)
    assert np.array_equal(s2.delta_a, s.delta_a)
    assert np.array_equal(s2.p.m, s.p.m)
    assert np.array_equal(s2.p_prime.m, s.p_prime.m)
    assert s2.q_prime is None
    assert s2.tol == s.tol


def test_scenario_defaults_delta_to_zero():
    s = diag_scenario()
    d = scenario_to_json(s)
    del d["delta_a"]
    s2 = scenario_from_json(d)
    assert np.array_equal(s2.delta_a, np.zeros((3, 3)))
    d["a"] = None
    with pytest.raises(InputError):
        scenario_from_json({"p": d["p"], "q": d["q"]})


def test_config_round_trip():
    c = EnsembleConfig(
        n_range=(2, 5),
        rank_range=(1, 4),
        skew=0.25,
        perturbation_magnitudes=(0.1, 0.5),
        count=7,
        seed=11,
        theorems=("thm3.4", "thm2.7"),
    )
    c2 = config_from_json(json.loads(dumps(config_to_json(c))))
    assert c2 == c


def test_config_file_without_skew_takes_the_config_default():
    fields = {"n_range": [2, 3], "rank_range": [1, 2], "perturbation_magnitudes": [0.5], "count": 1, "seed": 0}
    c = config_from_json(dict(fields, theorems=["thm3.4"]))
    assert c.skew == EnsembleConfig().skew
    assert c == EnsembleConfig(n_range=(2, 3), rank_range=(1, 2), count=1, seed=0, theorems=("thm3.4",))


def test_config_rejects_bad_objects():
    good = config_to_json(
        EnsembleConfig(n_range=(2, 4), rank_range=(1, 3), count=3, seed=0, theorems=("thm3.4",))
    )
    missing = dict(good)
    del missing["count"]
    with pytest.raises(InputError):
        config_from_json(missing)
    malformed = dict(good)
    malformed["count"] = "many"
    with pytest.raises(InputError):
        config_from_json(malformed)
    unknown = dict(good)
    unknown["theorems"] = ["thm9.9"]
    with pytest.raises(InputError):
        config_from_json(unknown)


def test_result_and_report_shapes():
    a = np.diag([1.0, 2.0, 0.0]).astype(complex)
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0]))
    q = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0]))

    r = ginv_result_to_json(compute_outer_pql(a, p, q))
    assert set(r) == {"b", "flags", "residuals"}
    assert r["flags"]["outer_pql"] is True

    e = existence_report_to_json(exists_outer_pql(a, p, q))
    assert set(e) == {
        "trivial_kernel_intersection",
        "direct_sum",
        "dims_compatible",
        "sigma_min_core",
        "exists",
    }

    g = gap_result_to_json(gap(p.range, q.range))
    assert set(g) == {"delta_mn", "delta_nm", "gap"}

    s = diag_scenario(delta=np.diag([0.1, 0.0, 0.0]).astype(complex))
    eq = equivalence_report_to_json(equivalence_thm24(s))
    assert set(eq) == {"conditions", "cutoffs", "closest_call", "consistent", "aux"}
    assert all(len(c) == 3 for c in eq["conditions"])
    assert len(eq["cutoffs"]) == len(eq["conditions"])

    imp = implication_report_to_json(gap_sufficient_lemma210(s))
    assert set(imp) == {"items", "closest_call", "ok"}
    assert set(imp["items"][0]) == {"name", "hypothesis", "conclusion", "data"}

    b = bound_report_to_json(bound_thm34(a, p, q, perturb_idempotent(p, 0.05, seed=1)))
    assert set(b) == {
        "theorem",
        "n",
        "kappa",
        "hypothesis_satisfied",
        "lhs",
        "rhs",
        "margin",
        "holds",
        "aux",
    }


def test_campaign_report_shape():
    config = EnsembleConfig(
        n_range=(3, 3), rank_range=(2, 2), count=1, seed=0, theorems=("thm3.4",)
    )
    report = run_campaign(config)
    d = campaign_report_to_json(report)
    assert set(d) == {"seed", "config", "stats", "ok", "wall_time"}
    st = d["stats"]["thm3.4"]
    assert set(st) == {
        "instances",
        "hypothesis_satisfied",
        "holds",
        "consistent",
        "max_ratio",
        "worst_margin",
        "failures",
        "near_calls",
    }
    assert st["instances"] == 1
    assert st["near_calls"] is None  # a bound id


def test_csv_rows_parse_back():
    a = np.diag([1.0, 2.0, 0.0]).astype(complex)
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0]))
    q = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0]))
    reports = [
        bound_thm34(a, p, q, perturb_idempotent(p, 0.05, seed=1)),
        bound_thm34(a, p, q, perturb_idempotent(p, 0.3, seed=1)),  # vacuous row
    ]
    text = bound_reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "thm3.4" and first[1] == "3" and first[3] == "1"
    assert float(first[4]) == reports[0].lhs  # repr round trip
    vac = lines[2].split(",")
    assert vac[3] == "0" and math.isnan(float(vac[4]))


def test_dumps_is_stable():
    d1 = {"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}}
    d2 = {"c": {"x": None, "y": 0.5}, "a": [1, 2], "b": 1}
    assert dumps(d1) == dumps(d2)


def test_load_file_errors(tmp_path):
    with pytest.raises(InputError):
        load_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_file(str(bad))


@pytest.mark.parametrize("entry", ["12", True, ["x"], [1, 2, 3], [1, False], ["1", "2"], None])
def test_matrix_rejects_entries_that_are_not_numbers(entry):
    with pytest.raises(InputError):
        matrix_from_json({"rows": 1, "cols": 2, "data": [entry, 0]})


def test_report_to_json_encodes_every_kind():
    from ginv.serialize import report_to_json

    s = diag_scenario(delta=np.diag([0.1, 0.0, 0.0]).astype(complex))
    a, p, q = s.a, s.p, s.q
    eq = equivalence_thm24(s)
    imp = gap_sufficient_lemma210(s)
    bnd = bound_thm34(a, p, q, perturb_idempotent(p, 0.05, seed=1))
    assert dumps(report_to_json(eq)) == dumps(equivalence_report_to_json(eq))
    assert dumps(report_to_json(imp)) == dumps(implication_report_to_json(imp))
    assert dumps(report_to_json(bnd)) == dumps(bound_report_to_json(bnd))


def test_exact_numbers_read_by_one_rule_bare_or_paired():
    # A number means the double it parses to, inside a pair as well as bare.
    d = {"rows": 1, "cols": 4, "data": [0.1, [0.1, 0], [0.1, -2.5], "1/10"]}
    m = exact_matrix_from_json(d)
    bare, paired, complex_entry, text = (m.entry(0, j).as_strings() for j in range(4))
    assert bare == paired == ("3602879701896397/36028797018963968", "0")
    assert complex_entry == ("3602879701896397/36028797018963968", "-5/2")
    assert text == ("1/10", "0")


def test_exact_numbers_from_python_follow_the_float_rule():
    # a numpy integer is its exact integer, any other real the exact value of its double
    d = {"rows": 1, "cols": 4, "data": [np.int64(1), [np.uint8(3), np.float32(0.1)], Fraction(1, 3), 10**30]}
    m = exact_matrix_from_json(d)
    assert m.entry(0, 0).as_strings() == ("1", "0")
    assert m.entry(0, 1).as_strings() == ("3", str(Fraction(float(np.float32(0.1)))))
    assert m.entry(0, 2).as_strings() == (str(Fraction(1 / 3)), "0")
    assert m.entry(0, 3).as_strings() == (str(10**30), "0")
    for bad in (np.bool_(True), True, None, Fraction(10**400, 3)):
        with pytest.raises(InputError):
            exact_matrix_from_json({"rows": 1, "cols": 1, "data": [bad]})


def test_config_numbers_are_read_strictly():
    good = config_to_json(EnsembleConfig(n_range=(2, 4), rank_range=(1, 3), count=3, seed=0, theorems=("thm3.4",)))
    integral = dict(good, n_range=[2.0, 4], count=3.0, seed=10**30)
    assert config_from_json(integral) == config_from_json(dict(good, seed=10**30))
    bad = [
        ("n_range", [2.9, 4], "n_range entry"),
        ("rank_range", [1, True], "rank_range entry"),
        ("count", 1.5, "count"),
        ("seed", False, "seed"),
        ("seed", 1.5, "seed"),
        ("skew", "0.3", "skew"),
        ("perturbation_magnitudes", [None], "perturbation magnitude"),
        ("n_range", "26", "n_range"),
        ("theorems", "thm3.4", "theorems"),
        ("tolerances", {"tol_eq": "1e-3"}, "tol_eq"),
    ]
    python_kwargs = dict(n_range=(2, 4), rank_range=(1, 3), count=3, seed=0, theorems=("thm3.4",))
    assert EnsembleConfig(**python_kwargs) == config_from_json(good)
    for field, value, named in bad:
        with pytest.raises(InputError, match=named):
            config_from_json(dict(good, **{field: value}))
        # the same rule binds a config built in Python: no truncation, no TypeError
        with pytest.raises(InputError, match=named):
            EnsembleConfig(**dict(python_kwargs, **{field: value}))
    with pytest.raises(InputError, match="must be a Tolerances"):
        EnsembleConfig(**python_kwargs, tolerances={"tol_eq": 1e-3})
    for value in ("1e-3", True, None, 10**400):
        with pytest.raises(InputError, match="tol_inv"):
            tolerances_from_json({"tol_inv": value})
