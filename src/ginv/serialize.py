"""JSON and CSV encodings for instances and reports.

One file format: JSON. Complex entries are two-element arrays [re, im];
matrices are {"rows": r, "cols": c, "data": row-major list of entries};
exact rational matrices carry string fractions instead of floats and an
"exact": true marker. Subspaces are serialized as the matrix of their basis
columns. Doubles round-trip bit-exactly (shortest-repr encoding both ways);
rationals round-trip entry-exactly.
"""

from __future__ import annotations

import json
import math
import numbers
from fractions import Fraction
from typing import Any

import numpy as np

from .errors import InputError
from .exact import ExactMatrix, ExactScalar
from .idempotents import Idempotent, idempotent_from_matrix
from .linalg import DEFAULT_TOL, Tolerances, as_matrix
from .subspaces import Subspace

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "exact_matrix_to_json",
    "exact_matrix_from_json",
    "subspace_to_json",
    "subspace_from_json",
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


def _dec_float(v: Any) -> float:
    if isinstance(v, dict):
        tag = v.get("$f")
        if tag == "nan":
            return float("nan")
        if tag == "inf":
            return float("inf")
        if tag == "-inf":
            return float("-inf")
        raise InputError(f"bad float tag: {v!r}")
    return float(v)


def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    r, c = m.shape
    data = []
    for i in range(r):
        for j in range(c):
            z = complex(m[i, j])
            data.append([z.real, z.imag])
    return {"rows": r, "cols": c, "data": data}


def _is_real_type(t) -> bool:
    return issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))


def matrix_from_json(d: dict) -> np.ndarray:
    """A complex matrix; each entry is a JSON number or an [re, im] pair of them."""
    try:
        r, c = int(d["rows"]), int(d["cols"])
        data = d["data"]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed matrix object: {e}") from e
    if d.get("exact"):
        return exact_matrix_from_json(d).to_complex()
    if not isinstance(data, (list, tuple)) or len(data) != r * c:
        raise InputError(f"matrix data must be a list of {r}x{c} entries")
    pairs = [e if isinstance(e, (list, tuple)) else (e, 0.0) for e in data]
    # Checking the distinct types, not every entry, keeps large matrices cheap.
    if any(len(e) != 2 for e in pairs) or not all(map(_is_real_type, {type(x) for e in pairs for x in e})):
        raise InputError("matrix entries must be numbers or [re, im] pairs of numbers")
    m = np.array(pairs, dtype=float).view(complex).reshape(r, c)
    if not np.isfinite(m).all():
        raise InputError("matrix entries must be finite")
    return m


def exact_matrix_to_json(m: ExactMatrix) -> dict:
    data = []
    for i in range(m.rows):
        for j in range(m.cols):
            data.append(list(m.entry(i, j).as_strings()))
    return {"rows": m.rows, "cols": m.cols, "exact": True, "data": data}


def _exact_part(x, text) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return text(x)
    raise InputError(f"exact entries must be rational strings or numbers, got {x!r}")


def exact_matrix_from_json(d: dict) -> ExactMatrix:
    """An exact matrix; each entry is a rational string such as "3/2", a JSON
    number, or an [re, im] pair of those."""
    try:
        r, c = int(d["rows"]), int(d["cols"])
        data = d["data"]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed matrix object: {e}") from e
    if not isinstance(data, (list, tuple)) or len(data) != r * c:
        raise InputError(f"matrix data must be a list of {r}x{c} entries")

    def entry(e):
        if isinstance(e, (list, tuple)):
            if len(e) != 2:
                raise InputError(f"an exact [re, im] pair needs two parts, got {e!r}")
            return tuple(_exact_part(x, str) for x in e)
        return _exact_part(e, lambda x: str(Fraction(x)))

    try:
        return ExactMatrix.from_strings([[entry(data[i * c + j]) for j in range(c)] for i in range(r)])
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise InputError(f"bad exact matrix entry: {e}") from e


def subspace_to_json(s: Subspace) -> dict:
    return matrix_to_json(s.basis)


def subspace_from_json(d: dict) -> Subspace:
    m = matrix_from_json(d)
    return Subspace(m.shape[0], m)


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
    return {"tol_rank": t.tol_rank, "tol_eq": t.tol_eq, "tol_inv": t.tol_inv}


def tolerances_from_json(d: dict) -> Tolerances:
    return Tolerances(
        tol_rank=float(d.get("tol_rank", DEFAULT_TOL.tol_rank)),
        tol_eq=float(d.get("tol_eq", DEFAULT_TOL.tol_eq)),
        tol_inv=float(d.get("tol_inv", DEFAULT_TOL.tol_inv)),
    )


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

    try:
        t = tol or (tolerances_from_json(d["tolerances"]) if "tolerances" in d else DEFAULT_TOL)
        a = matrix_from_json(d["a"])
        n = a.shape[0]
        delta = matrix_from_json(d["delta_a"]) if d.get("delta_a") is not None else np.zeros((n, n), dtype=complex)
        kw = {}
        for name in ("p_prime", "q_prime"):
            v = d.get(name)
            kw[name] = idempotent_from_json(v, t) if v is not None else None
        return Scenario(
            a,
            delta,
            idempotent_from_json(d["p"], t),
            idempotent_from_json(d["q"], t),
            tol=t,
            **kw,
        )
    except KeyError as e:
        raise InputError(f"scenario object is missing field {e}") from e
    except (TypeError, ValueError) as e:
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
    from .harness import EnsembleConfig

    try:
        return EnsembleConfig(
            n_range=tuple(int(x) for x in d["n_range"]),
            rank_range=tuple(int(x) for x in d["rank_range"]),
            skew=float(d.get("skew", 0.0)),
            perturbation_magnitudes=tuple(float(x) for x in d["perturbation_magnitudes"]),
            count=int(d["count"]),
            seed=int(d["seed"]),
            theorems=tuple(str(t) for t in d["theorems"]),
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


def dumps(obj: Any) -> str:
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
