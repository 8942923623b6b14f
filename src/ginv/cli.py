"""Command-line interface.

Subcommands:
  compute    instance file {a, p, q} -> inverse with prescribed idempotents
  exists     instance file -> existence report with the individual conditions
  gap        two basis files -> directed and symmetric gap between subspaces
  perturb    scenario file -> update formula result plus equivalence checks
  verify     one check id against a scenario file or a generated ensemble
  ensemble   campaign over every configured check id

Exit codes: 0 all checks passed (or the requested object was produced),
1 a mathematical check failed, a campaign recorded failures (draws that
could not be made included), or the requested inverse does not exist,
2 malformed input or unknown ids.

Tolerances start from the "tolerances" of the config or scenario file; the
environment variable GINV_DEFAULT_TOL overrides the equality tolerance, and
--tol-rank/--tol-eq/--tol-inv override single fields and win over both.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import DimMismatch, GenerationFailed, GinvError, InputError, NotExists
from .gen_inverse import (
    _checked,
    compute_outer_pql,
    compute_outer_pql_exact,
    exists_outer_pql,
)
from .harness import run_campaign, run_check
from .linalg import DEFAULT_TOL, Tolerances
from .serialize import (
    bound_reports_to_csv,
    campaign_report_to_json,
    config_from_json,
    dump_file,
    dumps,
    exact_matrix_from_json,
    exact_matrix_to_json,
    existence_report_to_json,
    gap_result_to_json,
    ginv_result_to_json,
    idempotent_from_json,
    load_file,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    scenario_from_json,
    tolerances_from_json,
)
from .subspaces import gap, range_of

__all__ = ["cli", "main"]


def _resolve_tol(args, base: Tolerances = DEFAULT_TOL) -> Tolerances:
    """base, then GINV_DEFAULT_TOL for tol_eq, then the --tol-* flags."""
    over = {}
    env = os.environ.get("GINV_DEFAULT_TOL")
    if env is not None:
        try:
            over["tol_eq"] = float(env)
        except ValueError as e:
            raise InputError(f"GINV_DEFAULT_TOL is not a number: {env!r}") from e
    over.update((k, v) for k, v in vars(args).items() if k.startswith("tol_") and v is not None)
    try:
        return replace(base, **over)
    except ValueError as e:
        raise InputError(f"bad tolerance: {e}") from e


def _emit(obj, out_path):
    if out_path:
        dump_file(obj, out_path)
    else:
        print(dumps(obj))


def _add_tol_flags(sp):
    sp.add_argument("--tol-rank", type=float, default=None)
    sp.add_argument("--tol-eq", type=float, default=None)
    sp.add_argument("--tol-inv", type=float, default=None)


def _instance_fields(path):
    """The undecoded a, p and q of an instance file."""
    d = load_file(path)
    if not isinstance(d, dict):
        raise InputError(f"{path} must hold a JSON object with fields a, p and q")
    try:
        return d["a"], d["p"], d["q"]
    except KeyError as e:
        raise InputError(f"instance file is missing field {e}") from e


def _load_instance(path, tol):
    """a, p and q of an instance file, checked by the library's rule (_checked)."""
    a, p, q = _instance_fields(path)
    try:
        return _checked(matrix_from_json(a), idempotent_from_json(p, tol), idempotent_from_json(q, tol), tol)
    except ValueError as e:
        raise InputError(f"malformed instance: {e}") from e


def _cmd_compute(args) -> int:
    tol = _resolve_tol(args)
    if args.exact:
        a, p, q = (exact_matrix_from_json(x) for x in _instance_fields(args.infile))
        try:
            b = compute_outer_pql_exact(a, p, q)
        except NotExists as e:
            print(f"does not exist: {e}", file=sys.stderr)
            return 1
        out = {
            "exact": True,
            "b": exact_matrix_to_json(b),
            "b_float": matrix_to_json(b.to_complex()),
            "checks": {
                "bab_equals_b": (b @ a @ b - b).is_zero(),
                "aba_equals_a": (a @ b @ a - a).is_zero(),
            },
        }
        _emit(out, args.out)
        return 0
    a, p, q = _load_instance(args.infile, tol)
    try:
        res = compute_outer_pql(a, p, q, tol)
    except NotExists as e:
        print(f"does not exist: {e}", file=sys.stderr)
        return 1
    _emit(ginv_result_to_json(res), args.out)
    return 0


def _cmd_exists(args) -> int:
    tol = _resolve_tol(args)
    a, p, q = _load_instance(args.infile, tol)
    report = exists_outer_pql(a, p, q, tol)
    _emit(existence_report_to_json(report), args.out)
    return 0


def _cmd_gap(args) -> int:
    tol = _resolve_tol(args)
    m = matrix_from_json(load_file(args.m))
    n = matrix_from_json(load_file(args.n))
    if m.shape[0] != n.shape[0]:
        raise InputError("the two subspaces live in different ambient dimensions")
    _emit(gap_result_to_json(gap(range_of(m, tol), range_of(n, tol))), args.out)
    return 0


def _load_scenario(args):
    """The scenario file, decoded with its own tolerances as the base."""
    d = load_file(args.infile)
    base = tolerances_from_json(d["tolerances"]) if isinstance(d, dict) and "tolerances" in d else DEFAULT_TOL
    return scenario_from_json(d, _resolve_tol(args, base))


def _cmd_perturb(args) -> int:
    s = _load_scenario(args)
    out = {}
    code = 0
    try:
        out["update"] = matrix_to_json(s._updated)  # update_formula(s.base.b, s.delta_a), shared with the checks
    except NotExists as e:
        out["update"] = None
        out["update_error"] = str(e)
    checks = {}
    for name in ("thm2.4", "lemma2.6", "thm2.7", "cor2.8"):
        try:
            _, report = run_check(name, s)
            checks[name] = report_to_json(report)
            if not report.ok:
                code = 1
        except NotExists as e:
            checks[name] = {"error": str(e)}
    out["checks"] = checks
    _emit(out, args.out)
    return code


def _write_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bound_reports_to_csv(rows))


def _campaign(config, args) -> int:
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    tol = _resolve_tol(args, config.tolerances)
    config = replace(config, tolerances=tol)
    # run_campaign reports index-major; the CSV lists each id's rows in turn
    rows = {theorem: [] for theorem in config.theorems}

    def collect(theorem, index, kind, report):
        if kind == "bound":
            rows[theorem].append(report)

    report = run_campaign(config, on_report=collect if args.csv else None)
    _emit(campaign_report_to_json(report), args.out)
    if args.csv:
        _write_csv([r for theorem in config.theorems for r in rows[theorem]], args.csv)
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    ids = {args.theorem_pos, args.theorem} - {None}
    if len(ids) != 1:
        raise InputError(f"verify needs one check id (positional or --theorem), got {sorted(ids)}")
    (theorem,) = ids
    if args.infile:
        if args.config or args.seed is not None:
            raise InputError("--in runs one scenario; --config and --seed belong to a campaign")
        s = _load_scenario(args)
        kind, report = run_check(theorem, s)
        _emit({"kind": kind, "report": report_to_json(report)}, args.out)
        if args.csv and kind == "bound":
            _write_csv([report], args.csv)
        return 0 if report.ok else 1
    if args.config:
        config = config_from_json(load_file(args.config))
        config = replace(config, theorems=(theorem,))
        return _campaign(config, args)
    raise InputError("verify needs --in or --config")


def _cmd_ensemble(args) -> int:
    if not args.config:
        raise InputError("ensemble needs --config")
    config = config_from_json(load_file(args.config))
    return _campaign(config, args)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ginv",
        description="inverses with prescribed idempotents: compute, check, campaign",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("compute", help="inverse for one instance file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--exact", action="store_true")
    _add_tol_flags(sp)
    sp.set_defaults(fn=_cmd_compute)

    sp = sub.add_parser("exists", help="existence report for one instance file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)
    _add_tol_flags(sp)
    sp.set_defaults(fn=_cmd_exists)

    sp = sub.add_parser("gap", help="gap between two subspaces given by basis files")
    sp.add_argument("--m", required=True)
    sp.add_argument("--n", required=True)
    sp.add_argument("--out", default=None)
    _add_tol_flags(sp)
    sp.set_defaults(fn=_cmd_gap)

    sp = sub.add_parser("perturb", help="update formula plus equivalence checks")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)
    _add_tol_flags(sp)
    sp.set_defaults(fn=_cmd_perturb)

    sp = sub.add_parser("verify", help="run one check id on a scenario or an ensemble")
    sp.add_argument("theorem_pos", nargs="?", default=None, metavar="check-id")
    sp.add_argument("--theorem", default=None)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--config", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--csv", default=None)
    _add_tol_flags(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("ensemble", help="campaign over a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--csv", default=None)
    _add_tol_flags(sp)
    sp.set_defaults(fn=_cmd_ensemble)

    return ap


def cli(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.fn(args)
    except (InputError, GenerationFailed, DimMismatch) as e:  # a shape mismatch is in the input
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except GinvError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))
