"""End-to-end CLI behavior through the in-process entry point."""

import json

import numpy as np
import pytest

from ginv import EnsembleConfig, RandomStream, idempotent_from_matrix, perturb_idempotent, random_idempotent
from ginv.cli import cli
from ginv.serialize import (
    config_to_json,
    dump_file,
    dumps,
    matrix_from_json,
    matrix_to_json,
)

E1_A = np.diag([1.0, 2.0, 0.0]).astype(complex)
E1_P = np.diag([1.0, 1.0, 0.0]).astype(complex)
E1_Q = np.diag([0.0, 0.0, 1.0]).astype(complex)


def write(tmp_path, name, obj):
    path = tmp_path / name
    dump_file(obj, str(path))
    return str(path)


def instance_file(tmp_path, a=E1_A, p=E1_P, q=E1_Q, name="instance.json"):
    return write(
        tmp_path,
        name,
        {"a": matrix_to_json(a), "p": matrix_to_json(p), "q": matrix_to_json(q)},
    )


def scenario_file(tmp_path, delta=None, p_prime=None, name="scenario.json"):
    obj = {
        "a": matrix_to_json(E1_A),
        "p": matrix_to_json(E1_P),
        "q": matrix_to_json(E1_Q),
    }
    if delta is not None:
        obj["delta_a"] = matrix_to_json(delta)
    if p_prime is not None:
        obj["p_prime"] = matrix_to_json(p_prime)
    return write(tmp_path, name, obj)


def config_file(tmp_path, **kw):
    from ginv import EnsembleConfig

    base = dict(n_range=(2, 4), rank_range=(1, 3), count=3, seed=0, theorems=("thm3.4",))
    base.update(kw)
    return write(tmp_path, "config.json", config_to_json(EnsembleConfig(**base)))


def run(capsys, argv):
    code = cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_diagonal_instance(tmp_path, capsys):
    path = instance_file(tmp_path)
    code, out, _ = run(capsys, ["compute", "--in", path])
    assert code == 0
    result = json.loads(out)
    b = matrix_from_json(result["b"])
    assert np.allclose(b, np.diag([1.0, 0.5, 0.0]), atol=1e-12)
    assert result["flags"]["strict_12"] is True


def test_compute_writes_out_file(tmp_path, capsys):
    path = instance_file(tmp_path)
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, ["compute", "--in", path, "--out", str(out_path)])
    assert code == 0
    assert out == ""
    result = json.loads(out_path.read_text())
    assert result["flags"]["outer_pql"] is True


def test_compute_exact(tmp_path, capsys):
    obj = {
        "a": {"rows": 3, "cols": 3, "exact": True,
              "data": ["1", "0", "0", "0", "2", "0", "0", "0", "0"]},
        "p": {"rows": 3, "cols": 3, "exact": True,
              "data": ["1", "0", "0", "0", "1", "0", "0", "0", "0"]},
        "q": {"rows": 3, "cols": 3, "exact": True,
              "data": ["0", "0", "0", "0", "0", "0", "0", "0", "1"]},
    }
    path = write(tmp_path, "exact.json", obj)
    code, out, _ = run(capsys, ["compute", "--in", path, "--exact"])
    assert code == 0
    result = json.loads(out)
    assert result["exact"] is True
    assert result["b"]["data"][4] == ["1/2", "0"]
    assert result["checks"]["bab_equals_b"] is True
    assert result["checks"]["aba_equals_a"] is True
    b_float = matrix_from_json(result["b_float"])
    assert np.allclose(b_float, np.diag([1.0, 0.5, 0.0]), atol=1e-15)


def test_compute_nonexistent_instance(tmp_path, capsys):
    # p projects onto the kernel of a, so no inverse with that column space
    p = np.diag([0.0, 0.0, 1.0]).astype(complex)
    q = np.diag([1.0, 1.0, 0.0]).astype(complex)
    path = instance_file(tmp_path, p=p, q=q)
    code, out, err = run(capsys, ["compute", "--in", path])
    assert code == 1
    assert "does not exist" in err


def test_exists_reports_either_way(tmp_path, capsys):
    path = instance_file(tmp_path)
    code, out, _ = run(capsys, ["exists", "--in", path])
    assert code == 0
    assert json.loads(out)["exists"] is True

    bad = instance_file(
        tmp_path,
        p=np.diag([0.0, 0.0, 1.0]).astype(complex),
        q=np.diag([1.0, 1.0, 0.0]).astype(complex),
        name="bad.json",
    )
    code, out, _ = run(capsys, ["exists", "--in", bad])
    assert code == 0
    report = json.loads(out)
    assert report["exists"] is False
    assert report["trivial_kernel_intersection"] is False


def test_gap_command(tmp_path, capsys):
    m = write(tmp_path, "m.json", matrix_to_json(np.array([[1.0], [0.0]])))
    n = write(tmp_path, "n.json", matrix_to_json(np.array([[0.0], [1.0]])))
    code, out, _ = run(capsys, ["gap", "--m", m, "--n", n])
    assert code == 0
    assert json.loads(out)["gap"] == 1.0
    code, out, _ = run(capsys, ["gap", "--m", m, "--n", m])
    assert code == 0
    assert json.loads(out)["gap"] == 0.0


def test_gap_ambient_mismatch(tmp_path, capsys):
    m = write(tmp_path, "m.json", matrix_to_json(np.eye(2)))
    n = write(tmp_path, "n.json", matrix_to_json(np.eye(3)))
    code, _, err = run(capsys, ["gap", "--m", m, "--n", n])
    assert code == 2
    assert "input error" in err


def test_perturb_stable_shift(tmp_path, capsys):
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    path = scenario_file(tmp_path, delta=delta)
    code, out, _ = run(capsys, ["perturb", "--in", path])
    assert code == 0
    result = json.loads(out)
    upd = matrix_from_json(result["update"])
    assert np.allclose(upd, np.diag([1.0 / 1.1, 0.5, 0.0]), atol=1e-12)
    assert set(result["checks"]) == {"thm2.4", "lemma2.6", "thm2.7", "cor2.8"}
    for body in result["checks"].values():
        assert body["consistent"] is True


def test_perturb_singular_shift(tmp_path, capsys):
    delta = np.zeros((3, 3), dtype=complex)
    delta[0, 0] = -1.0
    path = scenario_file(tmp_path, delta=delta)
    code, out, _ = run(capsys, ["perturb", "--in", path])
    assert code == 0  # the checks that apply are consistent; none failed
    result = json.loads(out)
    assert result["update"] is None
    assert "singular" in result["update_error"]
    assert result["checks"]["thm2.4"]["consistent"] is True
    assert "error" in result["checks"]["thm2.7"]


def test_verify_bound_on_scenario(tmp_path, capsys):
    p_prime = perturb_idempotent(idempotent_from_matrix(E1_P), 0.05, seed=1)
    path = scenario_file(tmp_path, p_prime=p_prime.m)
    code, out, _ = run(capsys, ["verify", "thm3.4", "--in", path])
    assert code == 0
    result = json.loads(out)
    assert result["kind"] == "bound"
    assert result["report"]["holds"] is True
    # --theorem spelling works too
    code, out, _ = run(capsys, ["verify", "--theorem", "thm3.4", "--in", path])
    assert code == 0


def test_verify_equivalence_on_scenario(tmp_path, capsys):
    delta = np.diag([0.1, 0.0, 0.0]).astype(complex)
    path = scenario_file(tmp_path, delta=delta)
    code, out, _ = run(capsys, ["verify", "thm2.4", "--in", path])
    assert code == 0
    result = json.loads(out)
    assert result["kind"] == "equiv"
    assert result["report"]["consistent"] is True


def test_verify_failing_bound_exits_one(tmp_path, capsys):
    p_prime = perturb_idempotent(idempotent_from_matrix(E1_P), 0.05, seed=1)
    path = scenario_file(tmp_path, p_prime=p_prime.m)
    code, out, _ = run(capsys, ["verify", "selftest-bad-bound", "--in", path])
    assert code == 1
    assert json.loads(out)["report"]["holds"] is False


@pytest.mark.parametrize("command", [["verify", "thm2.4"], ["perturb"]])
def test_a_scenario_whose_shifted_matrix_overflows_is_bad_input(tmp_path, capsys, command):
    a = np.diag([1e308, 1.5e308, 0.0]).astype(complex)  # finite, and so is delta_a = a
    obj = {"a": matrix_to_json(a), "delta_a": matrix_to_json(a), "p": matrix_to_json(E1_P), "q": matrix_to_json(E1_Q)}
    code, out, err = run(capsys, command + ["--in", write(tmp_path, "scenario.json", obj)])
    assert code == 2 and out == ""
    assert "a + delta_a has NaN or infinite entries" in err and "Traceback" not in err


def test_verify_config_with_csv(tmp_path, capsys):
    config = config_file(tmp_path)
    csv_path = tmp_path / "rows.csv"
    out_path = tmp_path / "campaign.json"
    code, _, _ = run(
        capsys,
        ["verify", "thm3.4", "--config", config, "--csv", str(csv_path), "--out", str(out_path)],
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "theorem,n,kappa,hyp,lhs,rhs,margin"
    assert len(lines) == 4
    assert all(line.startswith("thm3.4,") for line in lines[1:])
    campaign = json.loads(out_path.read_text())
    assert campaign["ok"] is True
    assert campaign["stats"]["thm3.4"]["holds"] == 3


@pytest.mark.parametrize("theorem", ["thm2.4", "thm3.4"])
@pytest.mark.parametrize("source", ["--in", "--config"])
def test_verify_writes_the_csv_whenever_it_is_asked_for(tmp_path, capsys, source, theorem):
    csv_path = tmp_path / "rows.csv"
    if source == "--in":
        p_prime = perturb_idempotent(idempotent_from_matrix(E1_P), 0.05, seed=1)
        path, rows = scenario_file(tmp_path, delta=np.diag([0.1, 0.0, 0.0]), p_prime=p_prime.m), 1
    else:
        path, rows = config_file(tmp_path), 3
    code, _, _ = run(capsys, ["verify", theorem, source, path, "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "theorem,n,kappa,hyp,lhs,rhs,margin"
    assert len(lines) == 1 + (rows if theorem == "thm3.4" else 0)
    assert all(line.startswith("thm3.4,") for line in lines[1:])


def test_a_config_with_no_check_ids_is_bad_input(tmp_path, capsys):
    from ginv import EnsembleConfig

    obj = config_to_json(EnsembleConfig(n_range=(2, 4), rank_range=(1, 3), count=3, seed=0))
    obj["theorems"] = []
    path = write(tmp_path, "config.json", obj)
    for command in (["ensemble"], ["verify", "thm3.4"]):
        code, out, err = run(capsys, command + ["--config", path])
        assert code == 2 and out == ""
        assert "theorems must be nonempty" in err


def test_ensemble_csv_lists_each_id_in_config_order(tmp_path, capsys):
    # the campaign reports index-major; the CSV still holds one id's rows after another
    ids = ("thm3.4", "thm3.8", "cor3.11")
    csv_path = tmp_path / "rows.csv"
    config = config_file(tmp_path, theorems=ids)
    assert cli(["ensemble", "--config", config, "--csv", str(csv_path)]) == 0
    together = csv_path.read_text()
    header = together.split("\n", 1)[0] + "\n"
    singles = []
    for theorem in ids:
        config = config_file(tmp_path, theorems=(theorem,))
        assert cli(["ensemble", "--config", config, "--csv", str(csv_path)]) == 0
        singles.append(csv_path.read_text().removeprefix(header))
    capsys.readouterr()
    assert together == header + "".join(singles)
    assert [line.split(",", 1)[0] for line in together.strip().split("\n")[1:]] == [t for t in ids for _ in range(3)]


def test_verify_seed_override(tmp_path, capsys):
    config = config_file(tmp_path)
    code, out, _ = run(capsys, ["verify", "thm3.4", "--config", config, "--seed", "42"])
    assert code == 0
    assert json.loads(out)["seed"] == 42


def test_verify_argument_errors(tmp_path, capsys):
    config = config_file(tmp_path)
    code, _, err = run(capsys, ["verify", "thm3.4"])
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, ["verify", "--config", config])
    assert code == 2
    code, _, err = run(capsys, ["verify", "thm0.0", "--config", config])
    assert code == 2 and "unknown check id" in err


def test_ensemble_runs_and_is_deterministic(tmp_path, capsys):
    config = config_file(tmp_path, count=2, theorems=("thm2.4", "thm3.4"))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli(["ensemble", "--config", config, "--out", str(out1)]) == 0
    assert cli(["ensemble", "--config", config, "--out", str(out2)]) == 0
    capsys.readouterr()
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("wall_time")
    d2.pop("wall_time")
    assert d1 == d2


def test_ensemble_selftest_fails(tmp_path, capsys):
    config = config_file(tmp_path, theorems=("selftest-bad-bound",))
    code, out, _ = run(capsys, ["ensemble", "--config", config])
    assert code == 1
    campaign = json.loads(out)
    assert campaign["ok"] is False
    assert len(campaign["stats"]["selftest-bad-bound"]["failures"]) >= 1


def test_ensemble_records_draws_that_its_tolerance_rejects(tmp_path, capsys):
    # tol_eq = 1e-17 reads no drawn idempotent as idempotent
    config = config_to_json(EnsembleConfig(n_range=(2, 4), count=2, seed=1, theorems=("thm2.4", "thm3.4")))
    config["tolerances"] = {"tol_eq": 1e-17}
    code, out, err = run(capsys, ["ensemble", "--config", write(tmp_path, "config.json", config)])
    assert code == 1 and "Traceback" not in err
    campaign = json.loads(out)
    assert campaign["ok"] is False
    for theorem in ("thm2.4", "thm3.4"):
        failures = campaign["stats"][theorem]["failures"]
        assert len(failures) == 2
        assert all(f["error"].startswith("GenerationFailed") and "not idempotent" in f["error"] for f in failures)


def test_ensemble_with_an_overflowing_shift_records_failures_and_exits_1(tmp_path, capsys):
    # an update factor with an entry past double range reads singular before
    # any LAPACK call, and without a warning, so cor2.8 and lemma2.6 do not abort here
    config = config_to_json(EnsembleConfig(n_range=(2, 4), count=6, seed=1, theorems=("cor2.8", "lemma2.6"), perturbation_magnitudes=(1e308,)))
    code, out, err = run(capsys, ["ensemble", "--config", write(tmp_path, "config.json", config)])
    assert code == 1 and "Traceback" not in err
    campaign = json.loads(out)
    assert campaign["ok"] is False and all(st["instances"] == 6 for st in campaign["stats"].values())


def test_verify_replays_a_failure_that_ensemble_dumped(tmp_path, capsys):
    config = config_file(tmp_path, n_range=(2, 6), rank_range=(1, 5), count=4, seed=21, theorems=("selftest-bad-bound",))
    code, out, _ = run(capsys, ["ensemble", "--config", config])
    failures = json.loads(out)["stats"]["selftest-bad-bound"]["failures"]
    assert code == 1 and len(failures) == 4
    for failure in failures:
        path = write(tmp_path, "failure.json", failure["scenario"])
        code, out, _ = run(capsys, ["verify", "selftest-bad-bound", "--in", path])
        assert code == 1
        assert dumps(json.loads(out)["report"]) == dumps(failure["report"])


def test_env_tolerance_must_be_numeric(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GINV_DEFAULT_TOL", "not-a-number")
    path = instance_file(tmp_path)
    code, _, err = run(capsys, ["compute", "--in", path])
    assert code == 2
    assert "GINV_DEFAULT_TOL" in err


def test_env_tolerance_applies(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GINV_DEFAULT_TOL", "1e-6")
    path = instance_file(tmp_path)
    code, out, _ = run(capsys, ["compute", "--in", path])
    assert code == 0
    assert json.loads(out)["flags"]["outer_pql"] is True


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, ["compute", "--in", str(tmp_path / "nope.json")])
    assert code == 2
    assert "input error" in err


def test_argparse_errors_surface_as_exit_codes(capsys):
    assert cli([]) == 2
    assert cli(["compute"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("entry", ["12", True, ["x"], [1, 2, 3]])
def test_compute_rejects_entries_that_are_not_numbers(tmp_path, capsys, entry):
    obj = {"a": matrix_to_json(E1_A), "p": matrix_to_json(E1_P), "q": matrix_to_json(E1_Q)}
    obj["a"]["data"][0] = entry
    path = write(tmp_path, "bad_entry.json", obj)
    code, out, err = run(capsys, ["compute", "--in", path])
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("theorem", ["thm3.4", "selftest-bad-bound", "thm2.4", "lemma2.10"])
def test_verify_exit_code_follows_report_ok(tmp_path, capsys, theorem):
    from ginv import EnsembleConfig, gen_scenario, run_check
    from ginv.serialize import load_file, report_to_json, scenario_from_json, scenario_to_json

    config = EnsembleConfig(n_range=(3, 4), rank_range=(1, 2), count=1, seed=3, theorems=(theorem,))
    path = write(tmp_path, "scenario.json", scenario_to_json(gen_scenario(config, 0, theorem)))
    kind, report = run_check(theorem, scenario_from_json(load_file(path)))
    code, out, _ = run(capsys, ["verify", theorem, "--in", path])
    assert code == (0 if report.ok else 1)
    result = json.loads(out)
    assert result["kind"] == kind == report.kind
    assert result["report"] == json.loads(dumps(report_to_json(report)))


def test_verify_scenario_keeps_its_tolerances(tmp_path, capsys, monkeypatch):
    """A scenario file's tolerances are the base; GINV_DEFAULT_TOL, then
    --tol-eq, override its tol_eq, the same rule as for a config file."""
    from ginv import EnsembleConfig, Tolerances, gen_scenario, run_check
    from ginv.serialize import load_file, report_to_json, scenario_from_json, scenario_to_json

    theorem = "selftest-bad-bound"
    config = EnsembleConfig(n_range=(3, 4), rank_range=(1, 2), count=1, seed=3, theorems=(theorem,))
    obj = scenario_to_json(gen_scenario(config, 0, theorem))
    obj["tolerances"] = {"tol_rank": 1e-9, "tol_eq": 1e-2, "tol_inv": 1e-12}
    path = write(tmp_path, "scenario.json", obj)

    def expected(s):
        kind, report = run_check(theorem, s)
        return (0 if report.ok else 1), dumps({"kind": kind, "report": report_to_json(report)}) + "\n"

    # with tol_eq = 1e-2 the moved idempotent fails the guarded hypothesis, so
    # the shrunk bound is not tested and the report passes; at 1e-9 it fails
    own = expected(scenario_from_json(load_file(path)))
    strict = expected(scenario_from_json(load_file(path), Tolerances(tol_rank=1e-9, tol_eq=1e-9, tol_inv=1e-12)))
    assert own[0] == 0 and strict[0] == 1
    assert run(capsys, ["verify", theorem, "--in", path])[:2] == own
    assert run(capsys, ["verify", theorem, "--in", path, "--tol-eq", "1e-9"])[:2] == strict
    monkeypatch.setenv("GINV_DEFAULT_TOL", "1e-9")
    assert run(capsys, ["verify", theorem, "--in", path])[:2] == strict
    assert run(capsys, ["verify", theorem, "--in", path, "--tol-eq", "1e-2"])[:2] == own


@pytest.mark.parametrize(
    "argv, edit, env",
    [
        (["compute"], "nan", None),
        (["exists"], "nan", None),
        (["compute", "--tol-eq", "-1"], None, None),
        (["compute"], None, "-1"),
        (["compute"], "p-not-idempotent", None),
        (["compute"], "list", None),
        (["verify", "thm2.4"], "list", None),
        (["ensemble"], "nan-magnitude", None),
        (["ensemble"], "infinite-skew", None),
        (["ensemble"], "fractional-n-range", None),
        (["ensemble"], "fractional-count", None),
        (["ensemble"], "boolean-seed", None),
        (["ensemble"], "string-count", None),
        (["ensemble"], "string-tol", None),
        (["ensemble"], "boolean-tol", None),
        (["ensemble"], "string-skew", None),
    ],
    ids=[
        "nan-compute",
        "nan-exists",
        "negative-tol-flag",
        "negative-tol-env",
        "p-not-idempotent",
        "list-instance",
        "list-scenario",
        "nan-magnitude-config",
        "infinite-skew-config",
        "fractional-n-range-config",
        "fractional-count-config",
        "boolean-seed-config",
        "string-count-config",
        "string-tol-config",
        "boolean-tol-config",
        "string-skew-config",
    ],
)
def test_bad_input_exits_two_without_traceback(tmp_path, capsys, monkeypatch, argv, edit, env):
    obj = {"a": matrix_to_json(E1_A), "p": matrix_to_json(E1_P), "q": matrix_to_json(E1_Q)}
    if edit == "nan":
        obj["a"]["data"][0] = [float("nan"), 0.0]
    elif edit == "p-not-idempotent":
        obj["p"] = matrix_to_json(np.diag([1.0, 0.5, 0.0]))
    elif edit == "list":
        obj = [obj]
    elif edit is not None:  # a config with one bad field
        obj = {"n_range": [2, 3], "rank_range": [1, 2], "perturbation_magnitudes": [0.5], "count": 1, "seed": 1}
        obj["theorems"] = ["thm2.4"]
        obj.update(
            {
                "nan-magnitude": {"perturbation_magnitudes": [float("nan")]},
                "infinite-skew": {"skew": float("inf")},
                "fractional-n-range": {"n_range": [2.9, 3]},
                "fractional-count": {"count": 1.5},
                "boolean-seed": {"seed": True},
                "string-count": {"count": "1"},
                "string-tol": {"tolerances": {"tol_eq": "1e-3"}},
                "boolean-tol": {"tolerances": {"tol_eq": True}},
                "string-skew": {"skew": "0.3"},
            }[edit]
        )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))  # json.dumps writes NaN as the bare token NaN
    if env is not None:
        monkeypatch.setenv("GINV_DEFAULT_TOL", env)
    code, out, err = run(capsys, argv + ["--config" if argv[0] == "ensemble" else "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


def _command_argv(tmp_path, command):
    """A valid command line of each command, up to its tolerance flags."""
    if command in ("compute", "exists"):
        return [command, "--in", instance_file(tmp_path)]
    if command == "gap":
        m = write(tmp_path, "m.json", matrix_to_json(np.array([[1.0], [0.0]])))
        return [command, "--m", m, "--n", m]
    if command == "perturb":
        return [command, "--in", scenario_file(tmp_path)]
    if command == "verify":
        return [command, "thm2.4", "--in", scenario_file(tmp_path)]
    return [command, "--config", config_file(tmp_path)]


@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-eq", "--tol-inv"])
@pytest.mark.parametrize("command", ["compute", "exists", "gap", "perturb", "verify", "ensemble"])
def test_every_command_rejects_a_negative_tolerance_flag(tmp_path, capsys, command, flag):
    code, out, err = run(capsys, _command_argv(tmp_path, command) + [flag, "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: bad tolerance")


@pytest.mark.parametrize(
    "entry",
    [None, "x", [1], "1/0", True, float("inf"), [1, 2, 3], ["1", False]],
    ids=["null", "not-a-number", "short-pair", "zero-denominator", "boolean", "infinite", "long-pair", "boolean-part"],
)
def test_compute_exact_rejects_bad_entries(tmp_path, capsys, entry):
    diag = ["1", "0", "0", "0", "1", "0", "0", "0", "0"]
    obj = {
        "a": {"rows": 3, "cols": 3, "exact": True, "data": [entry] + diag[1:]},
        "p": {"rows": 3, "cols": 3, "exact": True, "data": diag},
        "q": {"rows": 3, "cols": 3, "exact": True, "data": ["0"] * 8 + ["1"]},
    }
    path = tmp_path / "bad_exact.json"
    path.write_text(json.dumps(obj))  # json.dumps writes inf as the bare token Infinity
    code, out, err = run(capsys, ["compute", "--exact", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_compute_rejects_a_p_that_is_not_idempotent(tmp_path, capsys, exact):
    # p = diag(2, 0): both paths follow one input rule
    fields = {"a": ["1", "0", "0", "2"], "p": ["2", "0", "0", "0"], "q": ["0", "0", "0", "1"]}
    obj = {k: {"rows": 2, "cols": 2, "exact": True, "data": v} if exact else {"rows": 2, "cols": 2, "data": [int(x) for x in v]} for k, v in fields.items()}
    command = ["compute", "--in", write(tmp_path, "instance.json", obj)] + (["--exact"] if exact else [])
    code, out, err = run(capsys, command)
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad idempotent:") and "not idempotent" in err and "Traceback" not in err


def test_exists_rejects_a_p_whose_residual_overflows(tmp_path, capsys):
    # p = diag(1e200, 0) is as far from idempotent as diag(2, 0); p^2 - p overflows
    obj = {"a": [1, 0, 0, 1], "p": [1e200, 0, 0, 0], "q": [0, 0, 0, 1]}
    path = write(tmp_path, "instance.json", {k: {"rows": 2, "cols": 2, "data": v} for k, v in obj.items()})
    code, out, err = run(capsys, ["exists", "--in", path])
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad idempotent:") and "not idempotent" in err and "Traceback" not in err
    # the exactly idempotent [[1, 1e200], [0, 0]] is accepted
    obj["p"] = [1, 1e200, 0, 0]
    path = write(tmp_path, "instance.json", {k: {"rows": 2, "cols": 2, "data": v} for k, v in obj.items()})
    code, out, _ = run(capsys, ["exists", "--in", path])
    assert code == 0 and json.loads(out)["exists"] is True


def test_exists_rejects_a_p_whose_idempotency_cutoff_overflows(tmp_path, capsys):
    # eigenvalues 1 and 1e150; tol_eq (1 + ||p||^2) read inf and passed p
    obj = {"a": [1, 0, 0, 1], "p": [1, 1e155, 0, 1e150], "q": [0, 0, 0, 1]}
    path = write(tmp_path, "instance.json", {k: {"rows": 2, "cols": 2, "data": v} for k, v in obj.items()})
    code, out, err = run(capsys, ["exists", "--in", path])
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad idempotent:") and "not idempotent" in err and "Traceback" not in err


S_OVERFLOW = np.array([[1, 1, 1, 1], [-1, 1, 1, -1], [-1, 1, 1, -1], [1, 1, 1, -1]], dtype=complex)


@pytest.mark.parametrize(
    "command", [["compute"], ["exists"], ["compute", "--exact"], ["verify", "thm2.4"]], ids=["compute", "exists", "exact", "verify"]
)
@pytest.mark.parametrize("shapes", ["a-not-square", "p-of-another-size"])
def test_an_instance_of_mismatched_sizes_is_bad_input(tmp_path, capsys, command, shapes):
    a, p = (E1_A[:, :2], E1_P) if shapes == "a-not-square" else (E1_A, E1_P[:2, :2])
    obj = {"a": matrix_to_json(a), "p": matrix_to_json(p), "q": matrix_to_json(E1_Q)}
    if "--exact" in command:
        obj = {k: {"rows": m.shape[0], "cols": m.shape[1], "exact": True, "data": [str(int(x.real)) for x in m.ravel()]} for k, m in (("a", a), ("p", p), ("q", E1_Q))}
    code, out, err = run(capsys, command + ["--in", write(tmp_path, "instance.json", obj)])
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "Traceback" not in err


def _overflow_instances():
    """(p, q) pairs for a = 1.7e308 S: diagonal ones, for which the inverse
    exists at the scales 1 and 1e300, and skewed ones."""
    stream = RandomStream(9)
    skewed = tuple(random_idempotent(4, 2, 0.3, stream).m for _ in range(2))
    return (np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])), skewed


@pytest.mark.parametrize("command", ["compute", "exists"])
def test_an_instance_whose_spectral_norm_overflows_is_bad_input(tmp_path, capsys, command):
    (p, q), skewed = _overflow_instances()
    for scale in (1.0, 1e300):
        code, out, _ = run(capsys, [command, "--in", instance_file(tmp_path, scale * S_OVERFLOW, p, q)])
        assert code == 0 and (command == "compute" or json.loads(out)["exists"] is True)
    for p, q in ((p, q), skewed):
        code, out, err = run(capsys, [command, "--in", instance_file(tmp_path, 1.7e308 * S_OVERFLOW, p, q)])
        assert (code, out) == (2, "")
        assert "spectral norm of a is beyond double range" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "extra",
    [["--theorem", "thm3.4"], ["--config", "CONFIG"], ["--seed", "3"]],
    ids=["other-theorem", "config", "seed"],
)
def test_verify_rejects_conflicting_inputs(tmp_path, capsys, extra):
    path = scenario_file(tmp_path, delta=np.diag([0.1, 0.0, 0.0]).astype(complex))
    extra = [config_file(tmp_path) if x == "CONFIG" else x for x in extra]
    code, out, err = run(capsys, ["verify", "thm2.4", "--in", path] + extra)
    assert (code, out) == (2, "")
    assert err.startswith("input error:")
    # the same id in both spellings is no conflict
    assert run(capsys, ["verify", "thm2.4", "--theorem", "thm2.4", "--in", path])[0] == 0


@pytest.mark.parametrize("spoil", ["delta_a", "p_prime", "a"])
def test_a_malformed_generated_scenario_is_bad_input(tmp_path, capsys, spoil):
    # generation builds its scenarios without re-checking them; a dumped one
    # read back goes through every check of Scenario
    from ginv import gen_scenario
    from ginv.serialize import scenario_to_json

    config = EnsembleConfig(n_range=(3, 4), rank_range=(1, 2), count=1, seed=3, theorems=("thm3.4",))
    obj = scenario_to_json(gen_scenario(config, 0, "thm3.4"))
    n = obj["a"]["rows"]
    if spoil == "a":  # finite, but a + delta_a is not
        obj["a"] = obj["delta_a"] = matrix_to_json(np.diag([1e308, 1.5e308] + [0.0] * (n - 2)))
    else:  # one size too small
        obj[spoil] = matrix_to_json(np.eye(n - 1))
    code, out, err = run(capsys, ["verify", "thm3.4", "--in", write(tmp_path, "scenario.json", obj)])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err
