"""Command-line front end.

Subcommands
    means eval | chain        scalar mean values and five-term chains
    hh    chain | c           seven-term chain / split integral average
    bounds thm32 | thm33 | cor31 | cor32 | cor33 | cor34
    op    chain | eval        operator chain / single operator mean
    verify scalar | bounds | operator | paper-numbers
    scan                      grid sweep emitting one row per point

Output is JSON (default) or CSV (--format csv).  Exit status: 0 on
success, 1 when a computation fails or a report does not pass, 2 on
invalid input.  Floats are serialized with repr, which round-trips
exactly, so reports can be replayed as fixtures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import convex as cvx
from . import harness
from . import operators as ops
from . import scalar as sc
from .quadrature import QuadratureError

FUNCTION_CHOICES = tuple(sorted(cvx.BUILTINS))

SCALAR_MEANS = {
    "arith": sc.weighted_arithmetic,
    "geom": sc.weighted_geometric,
    "log": sc.weighted_logarithmic,
    "identric": sc.weighted_identric,
}

OPERATOR_MEANS = {
    "arith": ops.weighted_arithmetic,
    "geom": ops.weighted_geometric,
    "log": ops.weighted_logarithmic,
}


def _finish(p, handler, **defaults):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=handler, **defaults)


def _add_abv(p):
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--v", type=float, required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanbounds",
        description="Weighted mean chains, convexity gap bounds and operator means.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    means = top.add_parser("means", help="scalar means and their chains")
    means_sub = means.add_subparsers(dest="subcommand", required=True)
    p = means_sub.add_parser("eval", help="evaluate one weighted mean")
    p.add_argument("--mean", choices=tuple(SCALAR_MEANS), required=True)
    _add_abv(p)
    _finish(p, _cmd_means_eval)
    p = means_sub.add_parser("chain", help="five-term mean chain")
    p.add_argument("--chain", choices=("log", "identric"), default="log")
    _add_abv(p)
    p.add_argument("--tol", type=float)
    _finish(p, _cmd_means_chain)

    hh = top.add_parser("hh", help="convex-function refinement chain")
    hh_sub = hh.add_subparsers(dest="subcommand", required=True)
    p = hh_sub.add_parser("chain", help="seven-term chain for a builtin function")
    p.add_argument("--f", choices=FUNCTION_CHOICES, required=True)
    _add_abv(p)
    p.add_argument("--tol", type=float)
    _finish(p, _cmd_hh_chain)
    p = hh_sub.add_parser("c", help="split integral average of a builtin function")
    p.add_argument("--f", choices=FUNCTION_CHOICES, required=True)
    _add_abv(p)
    _finish(p, _cmd_hh_c)

    bounds_p = top.add_parser("bounds", help="gap bounds and mean reverses/refinements")
    bounds_sub = bounds_p.add_subparsers(dest="subcommand", required=True)
    for name in harness.BOUNDS_CHECKS:
        p = bounds_sub.add_parser(name)
        if harness.CHECKS[name][2]:  # takes a convex function
            p.add_argument("--f", choices=FUNCTION_CHOICES, required=True)
        _add_abv(p)
        p.add_argument("--tol", type=float)
        _finish(p, _cmd_bounds, which=name)

    op = top.add_parser("op", help="operator (SPD matrix) means")
    op_sub = op.add_subparsers(dest="subcommand", required=True)
    p = op_sub.add_parser("chain", help="five-term operator chain in the Loewner order")
    p.add_argument("--file", required=True, help='JSON file {"A": {...}, "B": {...}}')
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--tol", type=float)
    _finish(p, _cmd_op_chain)
    p = op_sub.add_parser("eval", help="evaluate one operator mean")
    p.add_argument("--file", required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--mean", choices=tuple(OPERATOR_MEANS), required=True)
    _finish(p, _cmd_op_eval)

    verify = top.add_parser("verify", help="randomized verification suites")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    for name, seed, trials, runner in (
        ("scalar", 42, 10_000, harness.run_scalar_suite),
        ("bounds", 42, 2_000, harness.run_bounds_suite),
        ("operator", 7, 500, harness.run_operator_suite),
    ):
        p = verify_sub.add_parser(name)
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--tol", type=float)
        p.add_argument("--timing", action="store_true",
                       help="include measured wall_ms (breaks byte-for-byte determinism)")
        _finish(p, _cmd_verify, runner=runner)
    p = verify_sub.add_parser("paper-numbers")
    p.add_argument("--timing", action="store_true")
    _finish(p, _cmd_paper_numbers)

    p = top.add_parser("scan", help="grid sweep of a five-term mean chain")
    p.add_argument("--a", default="0.5:2.0:11", help="grid spec lo:hi:n")
    p.add_argument("--b", default="0.5:2.0:11", help="grid spec lo:hi:n")
    p.add_argument("--v", default="0.1:0.9:9", help="grid spec lo:hi:n")
    p.add_argument("--chain", choices=("log", "identric"), default="log")
    _finish(p, _cmd_scan)

    return parser


def _tol(args, keys=("tol",)) -> dict:
    """``--tol`` under each of ``keys`` if it was given; otherwise nothing,
    so the library default holds."""
    return {} if args.tol is None else dict.fromkeys(keys, args.tol)


def _cmd_means_eval(args):
    return {"value": SCALAR_MEANS[args.mean](args.a, args.b, args.v)}


def _cmd_means_chain(args):
    fn = sc.logarithmic_chain if args.chain == "log" else sc.identric_chain
    return fn(args.a, args.b, args.v, **_tol(args)).to_dict()


def _cmd_hh_chain(args):
    f = cvx.get_builtin(args.f)
    return cvx.chain_eval(f, args.a, args.b, args.v, **_tol(args)).to_dict()


def _cmd_hh_c(args):
    return {"value": cvx.split_integral_avg(cvx.get_builtin(args.f), args.a, args.b, args.v)}


def _cmd_bounds(args):
    produce = harness._producer(args.which, getattr(args, "f", None))
    reports = produce(args.a, args.b, args.v, **_tol(args))
    return {
        "reports": [rep.to_dict() for rep in reports],
        "pass": all(rep.passed for rep in reports),
    }


def _load_matrix_pair(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read matrix pair from {path!r}: {exc}") from None
    try:
        return ops.SpdMatrix.from_dict(payload["A"]), ops.SpdMatrix.from_dict(payload["B"])
    except (KeyError, TypeError):
        raise ValueError('matrix pair JSON needs keys "A" and "B"') from None


def _cmd_op_chain(args):
    mat_a, mat_b = _load_matrix_pair(args.file)
    report = ops.operator_chain(mat_a, mat_b, args.v, **_tol(args))
    out = {"dim": mat_a.dim, "v": args.v}
    out.update(report.to_dict())
    return out


def _cmd_op_eval(args):
    mat_a, mat_b = _load_matrix_pair(args.file)
    return OPERATOR_MEANS[args.mean](mat_a, mat_b, args.v).to_dict()


def _cmd_verify(args):
    cfg = harness.SuiteConfig(seed=args.seed, trials=args.trials, **_tol(args, ("tol", "op_tol")))
    return args.runner(cfg).to_dict(include_timing=args.timing)


def _cmd_paper_numbers(args):
    return harness.reference_value_check().to_dict(include_timing=args.timing)


def _parse_grid(spec: str, name: str, positive: bool) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--{name} grid spec must be lo:hi:n, got {spec!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1 or lo > hi:
        raise ValueError(f"--{name} grid is empty: {spec!r}")
    if positive and lo <= 0.0:
        raise ValueError(f"--{name} grid must stay positive: {spec!r}")
    return np.linspace(lo, hi, n)


def _cmd_scan(args):
    a_grid = _parse_grid(args.a, "a", positive=True)
    b_grid = _parse_grid(args.b, "b", positive=True)
    v_grid = _parse_grid(args.v, "v", positive=False)
    if np.any(v_grid < 0.0) or np.any(v_grid > 1.0):
        raise ValueError(f"--v grid must stay inside [0, 1]: {args.v!r}")
    chain = sc.logarithmic_chain if args.chain == "log" else sc.identric_chain
    a, b, v = (x.ravel() for x in np.meshgrid(a_grid, b_grid, v_grid, indexing="ij"))
    rep = chain(a, b, v)
    keys = ("a", "b", "v", *rep.labels, *(f"slack_{k}" for k in range(1, len(rep.labels))), "pass")
    columns = (a, b, v, *rep.values, *rep.slacks, rep.passed)
    return {"rows": [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]}


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    elif isinstance(value, (list, tuple)):
        for idx, sub in enumerate(value):
            _flatten(f"{prefix}.{idx}", sub, out)
    else:
        out[prefix] = value


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    rows = payload.get("rows")
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    else:
        flat: dict = {}
        _flatten("", payload, flat)
        writer = csv.DictWriter(buf, fieldnames=list(flat.keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerow({k: _csv_cell(v) for k, v in flat.items()})
    return buf.getvalue()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # non-finite results raise where they are checked
            payload = args.handler(args)
    except (QuadratureError, ArithmeticError, ops.NumericalBreakdown) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    except (ValueError, KeyError) as exc:
        print(f"meanbounds: error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "format", "json") == "csv":
        sys.stdout.write(_to_csv(payload))
    else:
        print(json.dumps(payload, indent=2))
    failed = payload.get("pass") is False or bool(payload.get("failures"))
    return 1 if failed else 0


def run():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
