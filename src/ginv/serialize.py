"""JSON and CSV encodings for instances and reports.

One file format: JSON. Complex entries are two-element arrays [re, im];
matrices are {"rows": r, "cols": c, "data": row-major list of entries};
exact rational matrices carry string fractions instead of floats and an
"exact": true marker. Doubles round-trip bit-exactly (shortest-repr encoding
both ways); rationals round-trip entry-exactly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, fields
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import DimMismatch, InputError
from .exact import ExactMatrix
from .idempotents import Idempotent, idempotent_from_matrix
from .linalg import DEFAULT_TOL, Tolerances, _integer, _is_real_type, _number, as_matrix

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "exact_matrix_to_json",
    "exact_matrix_from_json",
    "idempotent_to_json",
    "idempotent_from_json",
    "tolerances_to_json",
    "tolerances_from_json",
    "scenario_to_json",
    "scenario_from_json",
    "config_to_json",
    "config_from_json",
    "ginv_result_to_json",
    "existence_report_to_json",
    "gap_result_to_json",
    "equivalence_report_to_json",
    "implication_report_to_json",
    "bound_report_to_json",
    "report_to_json",
    "campaign_report_to_json",
    "bound_reports_to_csv",
    "dumps",
    "load_file",
    "dump_file",
]

CSV_HEADER = "theorem,n,kappa,hyp,lhs,rhs,margin"


def _enc_float(x: float) -> Any:
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return {"$f": "nan"}
    return {"$f": "inf" if x > 0 else "-inf"}


def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    r, c = m.shape
    return {"rows": r, "cols": c, "data": np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist()}


def _matrix_fields(d) -> tuple:
    """(rows, cols, data) of a matrix object, with rows and cols
    non-negative integers and data a list of rows * cols entries."""
    if not isinstance(d, dict):
        raise InputError(f"a matrix must be a JSON object, got {type(d).__name__}")
    try:
        r, c, data = d["rows"], d["cols"], d["data"]
    except KeyError as e:
        raise InputError(f"malformed matrix object: missing {e}") from e
    r, c = _integer(r, "matrix rows"), _integer(c, "matrix cols")
    if r < 0 or c < 0:
        raise InputError(f"matrix rows and cols must be non-negative integers, got {r!r} and {c!r}")
    if not isinstance(data, (list, tuple)) or len(data) != r * c:
        raise InputError(f"matrix data must be a list of {r}x{c} entries")
    return r, c, data


def matrix_from_json(d: dict) -> np.ndarray:
    """A complex matrix; each entry is a JSON number or an [re, im] pair of them."""
    r, c, data = _matrix_fields(d)
    if d.get("exact"):
        return exact_matrix_from_json(d).to_complex()
    # Type and length checks run over the distinct types and lengths, so a
    # large matrix costs C-level passes and no Python step per entry.
    kinds = set(map(type, data))
    paired = {t for t in kinds if issubclass(t, (list, tuple))}
    if paired and paired != kinds:  # bare numbers among the pairs
        data = [e if isinstance(e, (list, tuple)) else (e, 0.0) for e in data]
    parts = list(chain.from_iterable(data)) if paired else data
    if (paired and set(map(len, data)) != {2}) or not all(map(_is_real_type, set(map(type, parts)))):
        raise InputError("matrix entries must be numbers or [re, im] pairs of numbers")
    try:
        x = np.fromiter(parts, dtype=float, count=len(parts))
        m = (x.view(complex) if paired else x.astype(complex)).reshape(r, c)
    except (ValueError, OverflowError) as e:  # a number beyond double range, or a shape numpy cannot hold
        raise InputError(f"bad matrix: {e}") from e
    if not np.isfinite(m).all():
        raise InputError("matrix entries must be finite")
    return m


def exact_matrix_to_json(m: ExactMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "exact": True, "data": [list(x.as_strings()) for x in m.data.flat]}


def _exact_part(x) -> str:
    """A rational string; an integral number stands for its exact integer, any
    other real for the exact value of its double."""
    if isinstance(x, str):
        return x
    if _is_real_type(type(x)):
        return str(int(x) if isinstance(x, numbers.Integral) else Fraction(_number(x, "exact entry")))
    raise InputError(f"exact entries must be rational strings or numbers, got {x!r}")


def exact_matrix_from_json(d: dict) -> ExactMatrix:
    """An exact matrix; each entry is a rational string such as "3/2", a JSON
    number, or an [re, im] pair of those. A number means the double it
    parses to, so 0.1 is 3602879701896397/36028797018963968, bare or in a
    pair; write "1/10" for one tenth."""
    r, c, data = _matrix_fields(d)
    if not data and r + c:
        # A 0 x c matrix cannot be built from rows, and an r x 0 list of
        # rows would take memory in r.
        raise InputError(f"an exact matrix with no entries must be 0x0, got {r}x{c}")

    def entry(e):
        if isinstance(e, (list, tuple)):
            if len(e) != 2:
                raise InputError(f"an exact [re, im] pair needs two parts, got {e!r}")
            return tuple(_exact_part(x) for x in e)
        return _exact_part(e)

    try:
        return ExactMatrix.from_strings([[entry(data[i * c + j]) for j in range(c)] for i in range(r)])
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise InputError(f"bad exact matrix entry: {e}") from e


def idempotent_to_json(p: Idempotent) -> dict:
    return {"matrix": matrix_to_json(p.m)}


def idempotent_from_json(d: dict, tol: Tolerances = DEFAULT_TOL) -> Idempotent:
    """A validated idempotent, given as {"matrix": ...} or as the matrix itself."""
    m = matrix_from_json(d["matrix"] if isinstance(d, dict) and "matrix" in d else d)
    try:
        return idempotent_from_matrix(m, tol)
    except ValueError as e:
        raise InputError(f"bad idempotent: {e}") from e


def tolerances_to_json(t: Tolerances) -> dict:
    return asdict(t)


def tolerances_from_json(d: dict) -> Tolerances:
    """Tolerances from the fields present; Tolerances checks their values."""
    if not isinstance(d, dict):
        raise InputError(f"tolerances must be a JSON object, got {type(d).__name__}")
    try:
        return Tolerances(**{f.name: d[f.name] for f in fields(Tolerances) if f.name in d})
    except ValueError as e:
        raise InputError(f"bad tolerance: {e}") from e


def scenario_to_json(s) -> dict:
    out = {
        "a": matrix_to_json(s.a),
        "delta_a": matrix_to_json(s.delta_a),
        "p": idempotent_to_json(s.p),
        "q": idempotent_to_json(s.q),
        "tolerances": tolerances_to_json(s.tol),
    }
    out["p_prime"] = idempotent_to_json(s.p_prime) if s.p_prime is not None else None
    out["q_prime"] = idempotent_to_json(s.q_prime) if s.q_prime is not None else None
    return out


def scenario_from_json(d: dict, tol: Tolerances | None = None):
    from .perturbation import Scenario

    if not isinstance(d, dict):
        raise InputError(f"a scenario must be a JSON object, got {type(d).__name__}")
    try:
        t = tol or (tolerances_from_json(d["tolerances"]) if "tolerances" in d else DEFAULT_TOL)
        a = matrix_from_json(d["a"])
        delta = matrix_from_json(d["delta_a"]) if d.get("delta_a") is not None else np.zeros_like(a)
        p, q = (idempotent_from_json(d[k], t) for k in ("p", "q"))
        moved = {k: idempotent_from_json(d[k], t) for k in ("p_prime", "q_prime") if d.get(k) is not None}
        return Scenario(a, delta, p, q, tol=t, **moved)
    except KeyError as e:
        raise InputError(f"scenario object is missing field {e}") from e
    except (TypeError, ValueError, OverflowError, DimMismatch) as e:
        raise InputError(f"malformed scenario: {e}") from e


def config_to_json(c) -> dict:
    return {
        "n_range": list(c.n_range),
        "rank_range": list(c.rank_range),
        "skew": c.skew,
        "perturbation_magnitudes": list(c.perturbation_magnitudes),
        "count": c.count,
        "seed": c.seed,
        "theorems": list(c.theorems),
        "tolerances": tolerances_to_json(c.tolerances),
    }


def config_from_json(d: dict):
    """The config's fields as they stand in the file; EnsembleConfig checks them."""
    from .harness import EnsembleConfig

    required = ("n_range", "rank_range", "perturbation_magnitudes", "count", "seed", "theorems")
    optional = ("skew",)  # a missing one takes EnsembleConfig's default
    try:
        return EnsembleConfig(
            **{k: d[k] for k in required},
            **{k: d[k] for k in optional if k in d},
            tolerances=tolerances_from_json(d.get("tolerances", {})),
        )
    except KeyError as e:
        raise InputError(f"config object is missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise InputError(f"malformed config: {e}") from e


def ginv_result_to_json(r) -> dict:
    return {
        "b": matrix_to_json(r.b),
        "flags": dict(r.flags),
        "residuals": {k: _enc_float(v) for k, v in r.residuals.items()},
    }


def existence_report_to_json(r) -> dict:
    return {
        "trivial_kernel_intersection": r.trivial_kernel_intersection,
        "direct_sum": r.direct_sum,
        "dims_compatible": r.dims_compatible,
        "sigma_min_core": _enc_float(r.sigma_min_core),
        "exists": r.exists,
    }


def gap_result_to_json(g) -> dict:
    return {"delta_mn": g.delta_mn, "delta_nm": g.delta_nm, "gap": g.gap}


def equivalence_report_to_json(r) -> dict:
    return {
        "conditions": [[name, bool(truth), _enc_float(res)] for name, truth, res in r.conditions],
        "cutoffs": [None if c is None else _enc_float(c) for c in r.cutoffs],
        "closest_call": _enc_float(r.closest_call),
        "consistent": r.consistent,
        "aux": {k: _enc_float(v) for k, v in r.aux.items()},
    }


def implication_report_to_json(r) -> dict:
    return {
        "items": [
            {
                "name": it.name,
                "hypothesis": it.hypothesis,
                "conclusion": it.conclusion,
                "data": {k: _enc_float(v) for k, v in it.data.items()},
            }
            for it in r.items
        ],
        "closest_call": _enc_float(r.closest_call),
        "ok": r.ok,
    }


def bound_report_to_json(r) -> dict:
    return {
        "theorem": r.theorem,
        "n": r.n,
        "kappa": _enc_float(r.kappa),
        "hypothesis_satisfied": r.hypothesis_satisfied,
        "lhs": _enc_float(r.lhs),
        "rhs": _enc_float(r.rhs),
        "margin": _enc_float(r.margin),
        "holds": r.holds,
        "closest_call": _enc_float(r.closest_call),
        "aux": {k: _enc_float(v) for k, v in r.aux.items()},
    }


_REPORT_ENCODERS = {
    "bound": bound_report_to_json,
    "equiv": equivalence_report_to_json,
    "impl": implication_report_to_json,
}


def report_to_json(r) -> dict:
    """Any checker report, encoded by its kind."""
    return _REPORT_ENCODERS[r.kind](r)


def campaign_report_to_json(r) -> dict:
    stats = {}
    for name, st in sorted(r.stats.items()):
        stats[name] = {
            "instances": st.instances,
            "hypothesis_satisfied": st.hypothesis_satisfied,
            "holds": st.holds,
            "consistent": st.consistent,
            "max_ratio": _enc_float(st.max_ratio) if st.max_ratio is not None else None,
            "worst_margin": _enc_float(st.worst_margin) if st.worst_margin is not None else None,
            "failures": list(st.failures),
            "near_calls": st.near_calls,
        }
    return {
        "seed": r.seed,
        "config": config_to_json(r.config),
        "stats": stats,
        "ok": r.ok,
        "wall_time": r.wall_time,
    }


def _csv_num(x: float) -> str:
    return repr(float(x))


def bound_reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.theorem,
                    str(r.n),
                    _csv_num(r.kappa),
                    "1" if r.hypothesis_satisfied else "0",
                    _csv_num(r.lhs),
                    _csv_num(r.rhs),
                    _csv_num(r.margin),
                ]
            )
        )
    return "\n".join(lines) + "\n"


class _Unhandled(Exception):
    """A value the emitter leaves to json.dumps."""


def _float_rows(rows: list, nl: str):
    """A list of equal-length lists of finite floats (a matrix's data) in one
    formatting step, or None for anything else."""
    if set(map(type, rows)) != {list}:
        return None
    k = len(rows[0])
    flat = list(chain.from_iterable(rows))
    # A non-finite entry makes the sum non-finite; an overflowing sum only
    # sends finite rows down the general path.
    if not k or set(map(len, rows)) != {k} or set(map(type, flat)) != {float} or not math.isfinite(sum(flat)):
        return None
    inner = nl + "  "
    row = "[" + inner + "  " + ("," + inner + "  ").join(("%r",) * k) + inner + "]"
    text = "[" + inner + ("," + inner).join((row,) * len(rows)) + nl + "]"
    return text % tuple(flat)  # %r is float.__repr__ for an exact float


def _encode(o: Any, nl: str) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True, allow_nan=False) writes
    it, with nl the newline and indent of o's own line."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is float:
        if not math.isfinite(o):
            raise _Unhandled  # json.dumps raises its ValueError
        return float.__repr__(o)
    if t is int:
        return int.__repr__(o)
    if t is bool:
        return "true" if o else "false"
    if o is None:
        return "null"
    inner = nl + "  "
    if t is list or t is tuple:
        if not o:
            return "[]"
        return _float_rows(o, nl) or "[" + inner + ("," + inner).join([_encode(v, inner) for v in o]) + nl + "]"
    if t is dict and set(map(type, o)) <= {str}:
        if not o:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise _Unhandled


def dumps(obj: Any) -> str:
    """obj as indented JSON (indent 2, sorted keys, ASCII, no NaN or
    infinity), byte for byte what json.dumps writes with those options."""
    try:
        return _encode(obj, "\n")
    except (_Unhandled, RecursionError):
        # Other types, cycles and deep nesting: the stdlib encodes or raises.
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def load_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e


def dump_file(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")
