"""Spans at the module boundaries of `ginv`, kept in memory.

`Tracer.install()` wraps the public functions of each layer module and
rebinds every copy of them in the `ginv` namespaces (the package itself and
each `from .x import f`), so calls between modules become spans. A span
holds its key, start, end, the span that caused it, the operation
(instance or request) it belongs to, and the SVDs run directly inside it.
SVDs are counted by wrapping `numpy.linalg.svd`, `pinv` and the 2-norm of
`numpy.linalg.norm` (which runs an SVD); they are counts, not spans, so
their time stays in the layer that asked for them.

`layer_metrics` turns the spans into the per-layer figures: self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

from workloads import BOUND_IDS, EQUIV_IDS, Stages

LAYERS = ("linalg", "subspaces", "idempotents", "gen_inverse", "perturbation", "harness", "randomstream", "serialize")
STREAM_METHODS = ("normal_matrix", "randint", "uniform", "spawn", "unit_vector", "shuffle")
CHECKERS = (
    "equivalence_thm24",
    "lemma26_f",
    "equivalence_thm27",
    "equivalence_cor28",
    "equivalence_thm_tm27",
    "gap_sufficient_lemma210",
    "cor_lemas1",
    "equivalence_thm212",
    "bound_thm34",
    "bound_thm36",
    "bound_thm38",
    "bound_thm39",
    "cor_12_variants",
)
CHECK_IDS = EQUIV_IDS + BOUND_IDS


class Tracer(Stages):
    def __init__(self):
        self.names = []
        self._index = {}
        self.key = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.svd = array("i")
        self.stack = []
        self.current_op = -1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def key_id(self, name: str) -> int:
        k = self._index.get(name)
        if k is None:
            k = self._index[name] = len(self.names)
            self.names.append(name)
        return k

    def _enter(self, k: int) -> int:
        i = len(self.key)
        self.key.append(k)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.current_op)
        self.svd.append(0)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self.stack.pop()

    def count_svd(self) -> None:
        if self.stack:  # every ginv call runs inside a span
            self.svd[self.stack[-1]] += 1

    # Stages interface: the workload marks its own request stages.
    def enter(self, name: str) -> None:
        self._enter(self.key_id("bench." + name))

    def exit(self) -> None:
        self._exit(self.stack[-1])

    def op(self, op_id: int) -> None:
        self.current_op = op_id

    def __len__(self) -> int:
        return len(self.key)

    # -- installing --------------------------------------------------------

    def _span(self, fn, name: str, key_arg=None):
        """Wrap fn; with key_arg=(position, keyword) the key gets that argument."""
        tracer = self
        k = self.key_id(name)

        if key_arg is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = tracer._enter(k)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(i)

        else:
            pos, kw = key_arg

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                v = args[pos] if len(args) > pos else kwargs.get(kw)
                i = tracer._enter(tracer.key_id(f"{name}[{v}]"))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(i)

        return wrapper

    def _counting(self, fn, is_svd):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_svd(args, kwargs):
                tracer.count_svd()
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import ginv

        modules = [m for name, m in sorted(sys.modules.items()) if name == "ginv" or name.startswith("ginv.")]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"ginv.{layer}")
            if mod is None:
                continue
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                key_arg = None
                if (layer, name) == ("harness", "gen_scenario"):
                    key_arg = (2, "theorem")
                elif (layer, name) == ("harness", "run_check"):
                    key_arg = (0, "theorem")
                replace[id(fn)] = (fn, self._span(fn, f"{layer}.{name}", key_arg))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

        sub = getattr(ginv.subspaces, "Subspace", None)
        if sub is not None and "__post_init__" in vars(sub):
            self._set(sub, "__post_init__", self._span(sub.__post_init__, "subspaces.Subspace"))
        rs = getattr(ginv.randomstream, "RandomStream", None)
        for meth in STREAM_METHODS:
            if rs is not None and meth in vars(rs):
                self._set(rs, meth, self._span(vars(rs)[meth], f"randomstream.{meth}"))

        linalg = np.linalg
        self._set(linalg, "svd", self._counting(linalg.svd, lambda a, k: True))
        self._set(linalg, "pinv", self._counting(linalg.pinv, lambda a, k: True))

        def norm_is_svd(args, kwargs):
            ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
            if ord_ not in (2, -2) or kwargs.get("axis", args[2] if len(args) > 2 else None) is not None:
                return False
            return np.ndim(args[0]) == 2

        self._set(linalg, "norm", self._counting(linalg.norm, norm_is_svd))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)


# -- aggregation -------------------------------------------------------------


def _outermost(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans in mask that have no ancestor in mask."""
    inside = np.zeros(len(mask), dtype=bool)  # some proper ancestor is in mask
    for i in range(len(mask)):
        p = parent[i]
        if p >= 0:
            inside[i] = inside[p] or mask[p]
    return mask & ~inside


def _under(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans that are in mask or have an ancestor in mask."""
    out = mask.copy()
    for i in range(len(mask)):
        p = parent[i]
        if p >= 0 and out[p]:
            out[i] = True
    return out


def _inclusive(values: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span totals over the span and all its descendants."""
    tot = values.astype(float).copy()
    for i in range(len(tot) - 1, -1, -1):
        p = parent[i]
        if p >= 0:
            tot[p] += tot[i]
    return tot


class SpanTable:
    """Numpy view of a slice [lo, hi) of a tracer's spans."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.names = tracer.names
        self.key = np.frombuffer(tracer.key, dtype=np.int32)[lo:hi].copy()
        par = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        self.parent = np.where(par >= lo, par - lo, -1)
        t0 = np.frombuffer(tracer.t0, dtype=np.float64)[lo:hi]
        t1 = np.frombuffer(tracer.t1, dtype=np.float64)[lo:hi]
        self.dur = t1 - t0
        self.svd = np.frombuffer(tracer.svd, dtype=np.int32)[lo:hi].astype(np.int64)
        kids = self.parent >= 0
        child = np.bincount(self.parent[kids], weights=self.dur[kids], minlength=len(self.dur))
        self.self_time = self.dur - child
        self.layer = np.array([n.split(".", 1)[0] for n in self.names])[self.key] if len(self.key) else np.array([])

    def mask(self, *names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.key, ids)

    def prefix(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.key, ids)


def layer_metrics(tracer: Tracer, counted: tuple, timed: list, ops_counted: int, ops_timed: int) -> dict:
    """Per-layer figures.

    counted: the span slice of one traced pass; counts come from it alone,
    so they repeat exactly between traced runs with the same seed.
    timed: the span slices of all traced passes; times are averaged over them.
    """
    out = {}
    c = SpanTable(tracer, *counted)
    tabs = [SpanTable(tracer, lo, hi) for lo, hi in timed]

    def per_op_ms(select) -> float:
        return 1e3 * sum(select(t) for t in tabs) / ops_timed

    def self_ms(layer):
        return per_op_ms(lambda t: t.self_time[t.layer == layer].sum())

    def mean_call_ms(mask_of, use_self=False):
        tot = calls = 0.0
        for t in tabs:
            m = mask_of(t)
            tot += (t.self_time if use_self else t.dur)[m].sum()
            calls += m.sum()
        return 1e3 * tot / calls if calls else 0.0

    svd_incl = _inclusive(c.svd, c.parent)
    out["linalg.svd_calls_per_instance"] = int(c.svd.sum()) / ops_counted
    out["linalg.self_ms_per_instance"] = self_ms("linalg")
    out["subspaces.subspace_constructions_per_instance"] = int(c.mask("subspaces.Subspace").sum()) / ops_counted
    out["subspaces.self_ms_per_instance"] = self_ms("subspaces")

    perturb = c.mask("idempotents.perturb_idempotent")
    obl_under_perturb = c.mask("idempotents.oblique") & _under(perturb, c.parent)
    out["idempotents.oblique_per_perturb"] = int(obl_under_perturb.sum()) / int(perturb.sum()) if perturb.any() else 0.0
    out["idempotents.perturb_ms_per_instance"] = per_op_ms(
        lambda t: t.dur[_outermost(t.mask("idempotents.perturb_idempotent"), t.parent)].sum()
    )
    out["idempotents.validate_ms_per_request"] = per_op_ms(
        lambda t: t.dur[_outermost(t.mask("idempotents.idempotent_from_matrix"), t.parent)].sum()
    )
    out["idempotents.self_ms_per_instance"] = self_ms("idempotents")

    for fn, name in (("exists_outer_pql", "exists_svd_calls"), ("compute_outer_pql", "compute_svd_calls")):
        m = _outermost(c.mask(f"gen_inverse.{fn}"), c.parent)
        out[f"gen_inverse.{name}"] = float(svd_incl[m].sum() / m.sum()) if m.any() else 0.0
    out["gen_inverse.self_ms_per_instance"] = self_ms("gen_inverse")

    out["perturbation.self_ms_per_instance"] = self_ms("perturbation")
    for chk in CHECKERS:
        out[f"perturbation.{chk}.self_ms"] = mean_call_ms(lambda t: t.mask(f"perturbation.{chk}"), use_self=True)

    gens = c.prefix("harness.gen_scenario[")
    n_gens = int(gens.sum())
    spawns_in_gen = c.mask("randomstream.spawn") & np.isin(c.parent, np.flatnonzero(gens))
    # gen_scenario spawns one root stream, then one child per attempt.
    out["harness.draws_per_scenario"] = (int(spawns_in_gen.sum()) - n_gens) / n_gens if n_gens else 0.0
    for cid in CHECK_IDS:
        out[f"harness.{cid}.gen_ms"] = mean_call_ms(lambda t: t.mask(f"harness.gen_scenario[{cid}]"))
        out[f"harness.{cid}.check_ms"] = mean_call_ms(lambda t: t.mask(f"harness.run_check[{cid}]"))
    out["harness.self_ms_per_instance"] = self_ms("harness")
    out["randomstream.self_ms_per_instance"] = self_ms("randomstream")

    def decode_ms(t):
        dec = t.mask("bench.decode")
        val = _outermost(t.mask("idempotents.idempotent_from_matrix"), t.parent) & _under(dec, t.parent)
        return t.dur[dec].sum() - t.dur[val].sum()

    out["serialize.decode_ms_per_request"] = per_op_ms(decode_ms)
    out["serialize.encode_ms_per_request"] = per_op_ms(lambda t: t.dur[t.mask("bench.encode")].sum())
    out["serialize.self_ms_per_instance"] = self_ms("serialize")
    out["trace.spans_per_instance"] = len(c.key) / ops_counted
    return out
