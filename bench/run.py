"""Benchmark of `ginv`: one command, three workloads.

    python3 bench/run.py --workload bound-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports `ginv` from `src/` there and
fails (exit 2, no result) when that is missing. BLAS is pinned to one thread
before numpy loads. Load is a closed loop with one caller in this process.

A run replays the workload's chunks in passes until --seconds have passed
(at least three passes). Every repeat is scaled by a host-speed probe run
next to it, and each chunk and each operation keeps the median of its
scaled repeats, because the host changes speed by up to 1.8x over spans of
seconds to minutes; see README.md. With --trace 0 the last line of stdout is
the end-to-end result; with --trace 1, passes alternate plain and traced
and the last line holds the per-layer figures. Lines before it that start
with '#' describe the environment and the detail behind the figures.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_SAMPLES = 7
TRACE_DUMP_SPANS = 5000

# A fresh interpreter imports ginv and builds the workload's configuration,
# then runs the probe five times for the host's speed at that moment.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ginv, workloads
workloads.make(sys.argv[3], int(sys.argv[4]))
t = time.perf_counter() - t0
import probe, statistics
p = probe.Probe()
print(t, statistics.median(sum(p()) for _ in range(5)))
"""


def setup_sample(workload: str, seed: int) -> tuple:
    """(seconds, probe seconds) from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(HERE), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    t, p = proc.stdout.split()[-2:]
    return float(t), float(p)


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is informative only
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
    }


def _stable(text: str) -> str:
    """The output text without the campaign's own wall time, which is the
    only part that differs between repeats."""
    return "\n".join(l for l in text.split("\n") if not l.lstrip().startswith('"wall_time"'))


def _digest(texts) -> str:
    return hashlib.sha256("\0".join(_stable(t) for t in texts).encode()).hexdigest()


class Passes:
    """Timings of every chunk and operation over the passes of one kind.

    Each repeat is multiplied by probe.NOMINAL_S / probe time (both weighted
    by the workload's probe weights), using the mean of the probes run just
    before and just after it. Each chunk and each operation then keeps the
    median of its scaled repeats.
    """

    def __init__(self, n_chunks: int, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.chunk_s = [[] for _ in range(n_chunks)]
        self.op_s = [[] for _ in range(n_chunks)]
        self.probe_s = [[] for _ in range(n_chunks)]

    def add(self, c: int, seconds: float, lat, probe_s) -> None:
        self.chunk_s[c].append(seconds)
        self.op_s[c].append(lat)
        self.probe_s[c].append(float(probe_s @ self.weights))

    def _scale(self, c: int, scaled: bool):
        """Per-repeat factors of chunk c."""
        if not scaled:
            return np.ones(len(self.probe_s[c]))
        return float(probe.NOMINAL_S @ self.weights) / np.array(self.probe_s[c])

    def chunk_total(self, scaled: bool = True) -> float:
        """Sum over chunks of the median scaled repeat time."""
        return sum(float(np.median(np.array(t) * self._scale(c, scaled))) for c, t in enumerate(self.chunk_s) if t)

    def ops(self):
        """Median scaled time of every completed operation, in chunk order."""
        per_chunk = [
            np.median(np.vstack(reps) * self._scale(c, True)[:, None], axis=0) for c, reps in enumerate(self.op_s) if reps
        ]
        return np.concatenate(per_chunk)

    def n_ops(self) -> int:
        return sum(len(reps[0]) for reps in self.op_s if reps)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import ginv
    import workloads

    wl = workloads.make(workload_name, seed)
    if isinstance(wl, workloads.SolveMixWorkload):
        wl.build_inputs()
    probe_once = probe.Probe()
    probes = []

    setup = [setup_sample(workload_name, seed) for _ in range(0 if trace else SETUP_SAMPLES)]
    setup_scaled = [t * probe.NOMINAL_S.sum() / p for t, p in setup]
    try:  # warm-up: first-call costs are not the steady state
        workloads.timed_chunk(wl, 0)
    except Exception:  # the timed passes record the failure
        pass

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    plain, traced = Passes(wl.n_chunks, wl.probe_weights), Passes(wl.n_chunks, wl.probe_weights)
    first_outputs, digests = {}, {}  # keyed by chunk
    errors, problems = [], []  # failed chunks; wrong or unrepeatable output
    traced_slices = []
    n_pass = attempted = failed = 0
    start = perf_counter()
    while n_pass < (2 * MIN_PASSES - 2 if trace else MIN_PASSES) or perf_counter() - start < seconds:
        is_traced = trace and n_pass % 2 == 1
        record = traced if is_traced else plain
        lo = len(tracer) if is_traced else 0
        before = probe_once()
        for c in range(wl.n_chunks):
            attempted += wl.ops_per_chunk
            try:
                if is_traced:
                    tracer.install()
                    try:
                        seconds_c, lat, out = workloads.timed_chunk(wl, c, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    seconds_c, lat, out = workloads.timed_chunk(wl, c)
            except Exception as e:  # a chunk that raises counts as failed; the run goes on
                failed += wl.ops_per_chunk
                errors.append(f"chunk {c}: {type(e).__name__}: {e}")
                before = probe_once()
                probes.append(before)
                continue
            failed += out.failed
            after = probe_once()
            probes.append(after)
            record.add(c, seconds_c, lat, 0.5 * (before + after))
            before = after
            digest = _digest(out.texts)
            if c not in digests:
                first_outputs[c], digests[c] = out, digest
            elif digest != digests[c]:
                problems.append(f"chunk {c}: pass {n_pass} output differs from its first pass")
        if is_traced:
            traced_slices.append((lo, len(tracer)))
        n_pass += 1
    measured_s = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_t0 = perf_counter()
    for c, out in first_outputs.items():
        try:
            if isinstance(wl, workloads.CampaignWorkload):
                problems += checks.check_campaign_chunk(ginv, wl.configs[c], out)
            else:
                problems += checks.check_solve_chunk(out)
        except Exception as e:  # a check that cannot run is a failed check, not a crash
            problems.append(f"chunk {c}: check raised {type(e).__name__}: {e}")
    check_s = perf_counter() - check_t0
    if not plain.n_ops():
        sys.exit("error: no operation completed\n" + "\n".join(errors[:20]))
    ops_per_pass = wl.n_chunks * wl.ops_per_chunk
    detail = {
        "workload": workload_name,
        "seed": seed,
        "passes": n_pass,
        "ops_per_pass": ops_per_pass,
        "measured_s": round(measured_s, 3),
        "check_s": round(check_s, 3),
        "probe_ms_min": [round(1e3 * float(v), 4) for v in np.min(probes, axis=0)],
        "probe_ms_median": [round(1e3 * float(v), 4) for v in np.median(probes, axis=0)],
        "errors": errors[:20],
        "problems": problems[:20],
    }

    if not trace:
        ops = plain.ops()
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "instances_per_s": (plain.n_ops() / plain.chunk_total(), "1/s"),
            "op_p50_ms": (1e3 * float(np.quantile(ops, 0.5)), "ms"),
            "op_p90_ms": (1e3 * float(np.quantile(ops, 0.9)), "ms"),
        }
        detail["setup_raw_s"] = [round(t, 4) for t, _ in setup]
        detail["unscaled_instances_per_s"] = round(plain.n_ops() / plain.chunk_total(scaled=False), 4)
        if isinstance(wl, workloads.SolveMixWorkload):
            detail["classes"] = solve_classes(wl, ops)
    else:
        counted = traced_slices[0]
        n_traced = len(traced_slices)
        layer = tracing.layer_metrics(tracer, counted, traced_slices, ops_per_pass, ops_per_pass * n_traced)
        layer["serialize.bytes_out"] = sum(len(_stable(t)) for o in first_outputs.values() for t in o.texts) / ops_per_pass
        layer["trace.overhead_ratio"] = traced.chunk_total() / plain.chunk_total()
        metrics = {k: (v, layer_unit(k)) for k, v in layer.items()}
        write_trace(workload_name, seed, tracer, counted, layer, detail)

    print("# env " + json.dumps(environment()))
    print("# detail " + json.dumps(detail))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith("bytes_out"):
        return "bytes"
    return "ratio" if name.endswith("ratio") else "count"


def solve_classes(wl, ops) -> dict:
    """p50 and p90 of each request class, from the per-request times."""
    groups = {}
    for c, chunk in enumerate(wl.chunks):
        for i, req in enumerate(chunk):
            key = f"{req.op}_{'large' if req.large else 'small'}"
            groups.setdefault(key, []).append(ops[c * wl.ops_per_chunk + i])
    return {
        k: {"n": len(v), "p50_ms": round(1e3 * float(np.quantile(v, 0.5)), 4), "p90_ms": round(1e3 * float(np.quantile(v, 0.9)), 4)}
        for k, v in sorted(groups.items())
    }


def write_trace(workload: str, seed: int, tracer, counted, layer: dict, detail: dict) -> None:
    """Per-layer figures plus the first TRACE_DUMP_SPANS spans of the first
    traced pass, as JSON."""
    lo, hi = counted
    spans = []
    for i in range(lo, min(hi, lo + TRACE_DUMP_SPANS)):
        spans.append(
            {
                "name": tracer.names[tracer.key[i]],
                "parent": tracer.parent[i] - lo if tracer.parent[i] >= lo else None,
                "op": tracer.op_of[i],
                "start_us": round(1e6 * (tracer.t0[i] - tracer.t0[lo]), 1),
                "dur_us": round(1e6 * (tracer.t1[i] - tracer.t0[i]), 1),
                "svd": tracer.svd[i],
            }
        )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace.json"
    path.write_text(json.dumps({"detail": detail, "per_layer": layer, "spans": spans}, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ginv" / "__init__.py").is_file():
        print(f"error: no ginv sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
