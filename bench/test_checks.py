"""Each independent check accepts a correct answer and rejects a corrupted one.

    python3 -m pytest bench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import ginv  # noqa: E402
import workloads  # noqa: E402


def _scenario(theorem, seed=3, index=0):
    config = ginv.EnsembleConfig(
        n_range=workloads.N_RANGE,
        rank_range=workloads.RANK_RANGE,
        perturbation_magnitudes=(workloads.MAGNITUDE,),
        count=1,
        seed=seed,
        theorems=(theorem,),
    )
    s = ginv.gen_scenario(config, index, theorem)
    _, report = ginv.run_check(theorem, s)
    return s, report


def _bound_args(theorem):
    s, rep = _scenario(theorem)
    m = checks._m
    args = (theorem, s.a, s.delta_a, m(s.p), m(s.q), m(s.p_prime), m(s.q_prime))
    reported = {"hyp": rep.hypothesis_satisfied, "kappa": rep.kappa, "lhs": rep.lhs, "rhs": rep.rhs}
    return args, reported


@pytest.mark.parametrize("theorem", workloads.BOUND_IDS)
def test_bound_check_accepts_the_reports(theorem):
    args, reported = _bound_args(theorem)
    assert reported["hyp"]
    assert checks.check_bound(*args, reported) == []


@pytest.mark.parametrize(
    "field, corrupt",
    [
        ("lhs", lambda v: v + 1e-3),
        ("rhs", lambda v: v * (1 + 1e-6)),
        ("kappa", lambda v: v * 1.001),
        ("hyp", lambda v: not v),
    ],
)
def test_bound_check_rejects_a_corrupted_report(field, corrupt):
    args, reported = _bound_args("thm3.8")
    reported[field] = corrupt(reported[field])
    assert checks.check_bound(*args, reported)


def test_bound_check_rejects_a_bound_that_fails(monkeypatch):
    args, reported = _bound_args("thm3.4")
    real = checks.bound_rhs

    def too_small(*a):
        hyp, rhs = real(*a)
        return hyp, rhs / 1e6

    monkeypatch.setattr(checks, "bound_rhs", too_small)
    reported["rhs"] /= 1e6
    assert any("exceeds" in p for p in checks.check_bound(*args, reported))


def test_outer_inverse_matches_ginv():
    s, _ = _scenario("thm3.4")
    b = checks.outer_inverse(s.a, s.p.m, s.q.m)
    assert np.allclose(b, ginv.compute_outer_pql(s.a, s.p, s.q).b, atol=1e-10)


def _equiv_case():
    # thm2.7 reports a stability verdict; index 0 draws a stable shift.
    s, rep = _scenario("thm2.7")
    return s, rep, checks._stability_claims(rep)


def test_equiv_check_accepts_the_report():
    s, rep, claims = _equiv_case()
    assert claims
    assert checks.check_equiv("thm2.7", rep.consistent, claims, s.a + s.delta_a, s.q.m) == []


def test_equiv_check_rejects_an_inconsistent_report():
    s, rep, claims = _equiv_case()
    assert checks.check_equiv("thm2.7", False, claims, s.a + s.delta_a, s.q.m)


def test_equiv_check_rejects_a_wrong_stability_verdict():
    s, rep, claims = _equiv_case()
    flipped = [not c for c in claims]
    assert checks.check_equiv("thm2.7", rep.consistent, flipped, s.a + s.delta_a, s.q.m)


def test_rank_test_sees_an_unstable_shift():
    q = np.diag([0.0, 0.0, 1.0]).astype(complex)
    assert checks.is_stable(np.diag([1.0, 1.0, 0.0]).astype(complex), q)
    assert not checks.is_stable(np.diag([1.0, 0.0, 1.0]).astype(complex), q)


def test_campaign_check_rejects_a_failing_report():
    wl = workloads.make("equiv-sweep", 5)
    _, _, out = workloads.timed_chunk(wl, 0)
    assert checks.check_campaign_chunk(ginv, wl.configs[0], out) == []
    text = out.texts[0].replace('"failures": []', '"failures": [{"report": {}}]', 1)
    assert text != out.texts[0]
    assert checks.check_campaign_chunk(ginv, wl.configs[0], replace(out, texts=(text,) + out.texts[1:]))


def _solved(op, exists, n=5, seed=0):
    req = workloads.make_request(np.random.default_rng(seed), op, exists, n)
    response, b = workloads.answer(req.text, workloads.Stages())
    return req, response, b


@pytest.mark.parametrize("op", ["exists", "compute"])
@pytest.mark.parametrize("exists", [True, False])
def test_solve_check_accepts_the_answers(op, exists):
    req, response, b = _solved(op, exists)
    assert checks.check_solve(op, exists, req.a, req.p, req.q, response, b) == []


@pytest.mark.parametrize("op", ["exists", "compute"])
@pytest.mark.parametrize("exists", [True, False])
def test_solve_check_rejects_the_wrong_label(op, exists):
    req, response, b = _solved(op, exists)
    assert checks.check_solve(op, not exists, req.a, req.p, req.q, response, b)


def _with_b(response, b):
    out = json.loads(response)
    out["b"] = {"rows": b.shape[0], "cols": b.shape[1], "data": [[z.real, z.imag] for z in b.reshape(-1)]}
    return json.dumps(out)


def test_solve_check_rejects_a_broken_round_trip():
    req, response, b = _solved("compute", True)
    out = json.loads(response)
    out["b"]["data"][0][0] = np.nextafter(out["b"]["data"][0][0], np.inf)
    assert checks.check_solve("compute", True, req.a, req.p, req.q, json.dumps(out), b)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda b, p: 2.0 * b,  # b a b != b
        lambda b, p: b + (np.eye(len(b)) - p) @ np.ones_like(b),  # col(b) leaves col(p)
        lambda b, p: b @ p,  # null(b) grows past col(q)
    ],
)
def test_solve_check_rejects_a_wrong_inverse(corrupt):
    req, response, b = _solved("compute", True, n=6)
    bad = corrupt(b, req.p)
    assert checks.check_solve("compute", True, req.a, req.p, req.q, _with_b(response, bad), bad)
