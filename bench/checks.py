"""Independent checks of what the workloads produced.

The functions at the top use numpy alone and formulas written here, not
`ginv`: the prescribed inverse is rebuilt as b = U (V a U)^{-1} V with random
probes U = p G1 and V = G2 (1 - q), the paper's bounds are restated from
Theorems 3.4-3.9, and stability is a rank test. Each returns a list of
problems; an empty list means the output passed. The glue at the bottom
pulls the inputs of a campaign instance back out of `ginv.gen_scenario`,
which is a pure function of (config, index, check id).
"""

from __future__ import annotations

import json

import numpy as np

RANK_TOL = 1e-10
# Two routes to b agree to about eps * cond; lhs is a difference of them.
LHS_TOL = 1e-8
RHS_RTOL = 1e-9
RESID_TOL = 1e-9


def norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * max(m.shape) * max(float(s[0]), 1.0)))


def orth(m: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    k = int(np.count_nonzero(s > RANK_TOL * max(m.shape) * max(float(s[0]), 1.0))) if s.size else 0
    return u[:, :k]


def outer_inverse(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """b with b a b = b, col(b) = col(p), null(b) = col(q), by random probes.

    rank p is the trace of the idempotent. The probes cancel out because b
    is unique; they only have to keep U and V of full rank.
    """
    n = a.shape[0]
    r = int(round(float(np.trace(p).real)))
    rng = np.random.default_rng(n)
    g1 = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    g2 = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    u = p @ g1
    v = g2 @ (np.eye(n) - q)
    return u @ np.linalg.solve(v @ a @ u, v)


def bound_rhs(theorem: str, kap: float, dp: float, dq: float, nb: float, nd: float):
    """(hypothesis holds, rhs) of the paper's bound for this check id."""
    base = theorem.replace("cor3.11", "thm3.4").replace("cor3.12", "thm3.6").replace("cor3.13", "thm3.8")
    thr_p = 1.0 / (1.0 + kap) ** 2
    if base == "thm3.4":
        return dp < thr_p, (1.0 + kap) * dp / (1.0 - (1.0 + kap) * dp)
    if base == "thm3.6":
        return dq < 1.0 / (2.0 + kap), (1.0 + kap) * dq / (1.0 - kap * dq)
    hyp = dp < thr_p and dq < 1.0 / (3.0 + kap)
    den = 1.0 - (1.0 + kap) * dp - kap * dq
    if base == "thm3.8":
        return hyp, (1.0 + kap) * (dp + dq) / den
    if base == "thm3.9":
        hyp = hyp and nb * nd < 2.0 * kap / ((kap + 1.0) * (kap + 4.0))
        den_full = den - (1.0 + dq) * nb * nd
        return hyp, (nb / den) * ((1.0 + kap) * (dp + dq) + (1.0 + dq) ** 2 * nd * nb / den_full)
    raise ValueError(f"no bound for {theorem!r}")


def check_bound(theorem, a, delta, p, q, p2, q2, reported: dict) -> list:
    """Recompute b, b', lhs and rhs; require lhs <= rhs and agreement with
    the reported hypothesis, kappa, lhs and rhs at roundoff."""
    p2 = p if p2 is None else p2
    q2 = q if q2 is None else q2
    b = outer_inverse(a, p, q)
    nb = norm2(b)
    kap = norm2(a) * nb
    dp, dq, nd = norm2(p2 - p), norm2(q2 - q), norm2(delta)
    hyp, rhs = bound_rhs(theorem, kap, dp, dq, nb, nd)
    problems = []
    if hyp != bool(reported["hyp"]):
        problems.append(f"{theorem}: hypothesis {reported['hyp']} reported, {hyp} recomputed")
    if abs(reported["kappa"] - kap) > RHS_RTOL * kap:
        problems.append(f"{theorem}: kappa {reported['kappa']!r} reported, {kap!r} recomputed")
    if not hyp:
        return problems
    b2 = outer_inverse(a + delta, p2, q2)
    diff = norm2(b2 - b)
    lhs = diff if theorem == "thm3.9" else diff / nb
    scale = nb if theorem == "thm3.9" else 1.0
    if not lhs <= rhs:
        problems.append(f"{theorem}: lhs {lhs!r} exceeds rhs {rhs!r}")
    if not abs(reported["lhs"] - lhs) <= LHS_TOL * scale * (1.0 + kap) ** 2:
        problems.append(f"{theorem}: lhs {reported['lhs']!r} reported, {lhs!r} recomputed")
    if not abs(reported["rhs"] - rhs) <= RHS_RTOL * rhs:
        problems.append(f"{theorem}: rhs {reported['rhs']!r} reported, {rhs!r} recomputed")
    return problems


def is_stable(a_bar: np.ndarray, q: np.ndarray) -> bool:
    """col(a_bar) meets col(q) only at zero: the stacked bases keep full rank."""
    x, y = orth(a_bar), orth(q)
    if x.shape[1] == 0 or y.shape[1] == 0:
        return True
    return rank(np.hstack([x, y])) == x.shape[1] + y.shape[1]


def check_equiv(theorem: str, consistent: bool, stability_claims: list, a_bar, q) -> list:
    """The report must be consistent, and every stability verdict in it
    must match the rank test."""
    problems = [] if consistent else [f"{theorem}: report is not consistent"]
    stable = is_stable(a_bar, q)
    for claim in stability_claims:
        if bool(claim) != stable:
            problems.append(f"{theorem}: report says stable={claim}, rank test says {stable}")
    return problems


def matrix_from_text(d: dict) -> np.ndarray:
    """Decode the {"rows", "cols", "data"} matrix object with numpy."""
    data = np.array(d["data"], dtype=float).reshape(d["rows"], d["cols"], 2)
    return data[..., 0] + 1j * data[..., 1]


def check_solve(op: str, exists: bool, a, p, q, response: str, b) -> list:
    """Answer against the label; for a constructed b, its defining
    properties and a bit-exact JSON round trip."""
    out = json.loads(response)
    if op == "exists":
        if out.get("exists") is not exists:
            return [f"exists: answered {out.get('exists')!r}, constructed as {exists}"]
        return []
    if not exists:
        return [] if "b" not in out else ["compute: returned b where none exists"]
    if "b" not in out:
        return [f"compute: no b where one exists ({out.get('error')})"]
    problems = []
    got = matrix_from_text(out["b"])
    if b is None or got.shape != b.shape or got.tobytes() != np.asarray(b, dtype=complex).tobytes():
        problems.append("compute: b does not survive the JSON round trip bit for bit")
    n = a.shape[0]
    na, nb, np_, nq = norm2(a), norm2(got), norm2(p), norm2(q)
    tol = RESID_TOL * n
    if norm2(got @ a @ got - got) > tol * (1.0 + na * nb * nb):
        problems.append("compute: b a b != b")
    if norm2(p @ got - got) > tol * (1.0 + np_ * nb):
        problems.append("compute: p b != b")
    if norm2(got @ q) > tol * (1.0 + nb * nq):
        problems.append("compute: b q != 0")
    if rank(got) != rank(p):
        problems.append(f"compute: rank b = {rank(got)}, rank p = {rank(p)}")
    return problems


# -- glue: pull inputs and reported values out of the workloads' outputs ------


def _m(x):
    return None if x is None else np.asarray(getattr(x, "m", x))


def _stability_claims(report) -> list:
    claims = [truth for name, truth, _ in getattr(report, "conditions", ()) if name == "stable"]
    claims += [it.conclusion for it in getattr(report, "items", ()) if it.name == "range_gap_forces_stability"]
    return claims


def check_campaign_chunk(ginv, config, out) -> list:
    """Every instance of one campaign chunk that produced a report, plus the
    campaign JSON itself."""
    problems = []
    report = json.loads(out.texts[0])
    for name, st in report.get("stats", {}).items():
        if st.get("instances") != config.count:
            problems.append(f"campaign seed {config.seed}: {name} ran {st.get('instances')} instances")
        # A failure with an "error" is a check that raised: a failed
        # operation, counted apart. One with a "report" is a wrong result.
        if any("report" in f for f in st.get("failures", ())):
            problems.append(f"campaign seed {config.seed}: {name} recorded a failing report")
    for theorem, index, kind, rep in out.records:
        s = ginv.gen_scenario(config, index, theorem)
        a, delta = np.asarray(s.a), np.asarray(s.delta_a)
        if kind == "bound":
            reported = {"hyp": rep.hypothesis_satisfied, "kappa": rep.kappa, "lhs": rep.lhs, "rhs": rep.rhs}
            problems += check_bound(theorem, a, delta, _m(s.p), _m(s.q), _m(s.p_prime), _m(s.q_prime), reported)
        else:
            ok = rep.consistent if kind == "equiv" else rep.ok
            problems += check_equiv(theorem, ok, _stability_claims(rep), a + delta, _m(s.q))
    return problems


def check_solve_chunk(out) -> list:
    problems = []
    for req, response, b in out.records:
        problems += check_solve(req.op, req.exists, req.a, req.p, req.q, response, b)
    return problems
