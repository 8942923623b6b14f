"""The three benchmark workloads and the inputs they are built from.

Every workload is a fixed list of chunks, each a fixed unit of work made only
from the seed. A run replays the whole list several times (passes), so every
chunk and every operation inside it is timed more than once on identical
input. `ginv` is always reached through the `ginv` package namespace at call
time, so that a traced run, which rebinds those names, sees every call.

- bound-sweep: one chunk is a `run_campaign` over the seven bound ids
  (one instance each) on the acceptance shape, ending in the report JSON
  and the CSV rows, as `ginv ensemble --out --csv` produces them.
- equiv-sweep: the same for the eight equivalence and implication ids.
- solve-mix: one chunk is sixteen library requests, each decoded from
  JSON text, validated, answered by `exists_outer_pql` or
  `compute_outer_pql`, and encoded back to JSON text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import ginv

BOUND_IDS = ("thm3.4", "thm3.6", "thm3.8", "thm3.9", "cor3.11", "cor3.12", "cor3.13")
EQUIV_IDS = ("thm2.4", "lemma2.6", "thm2.7", "cor2.8", "tm2.7", "lemma2.10", "lemas1", "thm2.12")

# The acceptance shape of the bound and equivalence sweeps (criteria 4 and 5).
N_RANGE = (2, 6)
RANK_RANGE = (1, 5)
MAGNITUDE = 0.5

# Chunks per workload. A pass over all chunks takes about 3-5 s on a 2-CPU
# host, so a 20 s run times each chunk at least three times. Campaign chunk c
# fixes n = 2 + c % 5: the sizes are stratified over the acceptance range,
# so every run has the same size mix and the seed draws everything else.
BOUND_CHUNKS = 15
EQUIV_CHUNKS = 80
SOLVE_CHUNKS = 24

# solve-mix sizes are fixed lists, so the seed moves the matrices but not the
# sizes; the slowest requests are then the same share in every run.
SMALL_N = (4, 5, 6, 7, 8)
LARGE_N = (24, 28, 32, 36, 40)
SMALL_PER_CLASS = 3  # per chunk, for each (operation, label) pair
LARGE_PER_CLASS = 1


def chunk_seed(seed: int, chunk: int) -> int:
    """Campaign seed of one chunk: distinct per (seed, chunk), fixed by both."""
    return (seed * 1_000_003 + chunk) % (1 << 62)


def chunk_n(chunk: int) -> int:
    return N_RANGE[0] + chunk % (N_RANGE[1] - N_RANGE[0] + 1)


class Stages:
    """No-op stage markers; a traced run substitutes recording ones."""

    def enter(self, name: str) -> None:
        pass

    def exit(self) -> None:
        pass

    def op(self, op_id: int) -> None:
        pass


@dataclass
class ChunkOutput:
    """What one chunk produced, kept for the independent checks."""

    texts: tuple  # JSON (and CSV) texts, in production order
    records: list  # what the checks need, for every operation that answered
    failed: int = 0  # operations that produced no answer


class CampaignWorkload:
    """A chunk is one `run_campaign` call, one instance per check id."""

    # Campaigns work on n <= 6 and write little JSON: the small part of the
    # probe tracks them (see probe.py).
    probe_weights = (1.0, 0.0)

    def __init__(self, ids: tuple, n_chunks: int, seed: int):
        self.ops_per_chunk = len(ids)
        self.configs = [
            ginv.EnsembleConfig(
                n_range=(chunk_n(c), chunk_n(c)),
                rank_range=RANK_RANGE,
                perturbation_magnitudes=(MAGNITUDE,),
                count=1,
                seed=chunk_seed(seed, c),
                theorems=ids,
            )
            for c in range(n_chunks)
        ]

    @property
    def n_chunks(self) -> int:
        return len(self.configs)

    def run_chunk(self, c: int, mark, stages: Stages) -> ChunkOutput:
        """Run chunk c; `mark()` is called when each instance is done."""
        config = self.configs[c]
        records = []
        op_base = c * self.ops_per_chunk

        def on_report(theorem, index, kind, report):
            mark()
            records.append((theorem, index, kind, report))
            stages.op(op_base + len(records))

        stages.op(op_base)
        report = ginv.run_campaign(config, on_report=on_report)
        stages.enter("encode")
        text = ginv.serialize.dumps(ginv.serialize.campaign_report_to_json(report))
        csv = ginv.serialize.bound_reports_to_csv([r for _, _, kind, r in records if kind == "bound"])
        stages.exit()
        failed = self.ops_per_chunk - len(records)  # instances whose check raised
        return ChunkOutput((text, csv), records, failed)


@dataclass(frozen=True)
class Request:
    op: str  # "exists" or "compute"
    exists: bool  # known by construction
    n: int
    a: np.ndarray
    p: np.ndarray
    q: np.ndarray
    text: str

    @property
    def large(self) -> bool:
        return self.n >= LARGE_N[0]


def _matrix_json(m: np.ndarray) -> dict:
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": m.shape[0], "cols": m.shape[1], "data": data}


def _complex_normal(rng, rows, cols) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _well_conditioned(rng, n) -> np.ndarray:
    """Unitary times (1 + 0.3 G / ||G||): condition number below 1.9."""
    u, _ = np.linalg.qr(_complex_normal(rng, n, n))
    g = _complex_normal(rng, n, n)
    return u @ (np.eye(n) + 0.3 * g / np.linalg.norm(g, 2))


def _idempotent(range_cols: np.ndarray, kernel_cols: np.ndarray) -> np.ndarray:
    x = np.hstack([range_cols, kernel_cols])
    d = np.zeros(x.shape[1])
    d[: range_cols.shape[1]] = 1.0
    return (x * d) @ np.linalg.inv(x)


def make_request(rng, op: str, exists: bool, n: int) -> Request:
    """One request whose answer is known by construction.

    p has a random rank-r range. col(q) is a random (n - r)-dimensional
    subspace when the inverse exists; when it must not exist, col(q) is
    made to contain a t for a vector t of col(p), so a col(p) and col(q)
    are not complementary.
    """
    r = int(rng.integers(1, n))
    a = _complex_normal(rng, n, n)
    xp = _well_conditioned(rng, n)
    p = _idempotent(xp[:, :r], xp[:, r:])
    xq = _well_conditioned(rng, n)
    q_range = xq[:, : n - r].copy()
    if not exists:
        t = a @ xp[:, :1]
        q_range[:, :1] = t / np.linalg.norm(t)
    q = _idempotent(q_range, xq[:, n - r :])
    text = json.dumps({"op": op, "a": _matrix_json(a), "p": {"matrix": _matrix_json(p)}, "q": {"matrix": _matrix_json(q)}})
    return Request(op, exists, n, a, p, q, text)


def answer(text: str, stages: Stages):
    """One request as `ginv exists` / `ginv compute` serve it, without disk.

    Returns the response text and, for a constructed inverse, the b that
    was encoded (for the round-trip check).
    """
    ser = ginv.serialize
    stages.enter("decode")
    d = json.loads(text)
    a = ser.matrix_from_json(d["a"])
    p = ser.idempotent_from_json(d["p"])
    q = ser.idempotent_from_json(d["q"])
    stages.exit()
    stages.enter("answer")
    b = None
    if d["op"] == "exists":
        out = ser.existence_report_to_json(ginv.exists_outer_pql(a, p, q))
    else:
        try:
            result = ginv.compute_outer_pql(a, p, q)
            b = result.b
            out = ser.ginv_result_to_json(result)
        except ginv.NotExists as e:
            out = {"exists": False, "error": str(e)}
    stages.exit()
    stages.enter("encode")
    response = ser.dumps(out)
    stages.exit()
    return response, b


class SolveMixWorkload:
    """A chunk is 16 requests: for each of (exists, compute) x (exists,
    does not exist), three small requests and one large one, in a seeded
    order that interleaves the sizes."""

    n_chunks = SOLVE_CHUNKS
    ops_per_chunk = 4 * (SMALL_PER_CLASS + LARGE_PER_CLASS)
    # Requests decode and encode JSON and reach n = 40: both probe parts.
    probe_weights = (1.0, 1.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.chunks = None

    def build_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        chunks = []
        k_small = k_large = 0
        for _ in range(self.n_chunks):
            reqs = []
            for op in ("exists", "compute"):
                for exists in (True, False):
                    for _ in range(SMALL_PER_CLASS):
                        reqs.append(make_request(rng, op, exists, SMALL_N[k_small % len(SMALL_N)]))
                        k_small += 1
                    for _ in range(LARGE_PER_CLASS):
                        reqs.append(make_request(rng, op, exists, LARGE_N[k_large % len(LARGE_N)]))
                        k_large += 1
            order = rng.permutation(len(reqs))
            chunks.append([reqs[i] for i in order])
        self.chunks = chunks

    def run_chunk(self, c: int, mark, stages: Stages) -> ChunkOutput:
        texts = []
        records = []
        failed = 0
        for i, req in enumerate(self.chunks[c]):
            stages.op(c * self.ops_per_chunk + i)
            try:
                response, b = answer(req.text, stages)
                records.append((req, response, b))
            except Exception as e:  # a request that raises is a failed operation
                response = f"failed: {type(e).__name__}: {e}"
                failed += 1
            mark()
            texts.append(response)
        return ChunkOutput(tuple(texts), records, failed)


WORKLOADS = ("bound-sweep", "equiv-sweep", "solve-mix")


def make(name: str, seed: int):
    """The workload's configuration; solve-mix inputs are built separately."""
    if name == "bound-sweep":
        return CampaignWorkload(BOUND_IDS, BOUND_CHUNKS, seed)
    if name == "equiv-sweep":
        return CampaignWorkload(EQUIV_IDS, EQUIV_CHUNKS, seed)
    if name == "solve-mix":
        return SolveMixWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def timed_chunk(workload, c: int, stages: Stages = Stages()):
    """Run one chunk; returns (chunk seconds, per-operation seconds, output)."""
    marks = []
    t0 = perf_counter()
    out = workload.run_chunk(c, lambda: marks.append(perf_counter()), stages)
    t1 = perf_counter()
    lat = np.diff(np.array([t0] + marks))
    return t1 - t0, lat, out
