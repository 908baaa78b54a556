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
import functools
import io
import json
import sys

import numpy as np

from . import convex as cvx
from . import harness
from . import operators as ops
from . import scalar as sc
from .reports import Table, to_json

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


@functools.cache  # built on the first main call, not at import; parse_args keeps no state
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
    _finish(p, _cmd_check)

    hh = top.add_parser("hh", help="convex-function refinement chain")
    hh_sub = hh.add_subparsers(dest="subcommand", required=True)
    p = hh_sub.add_parser("chain", help="seven-term chain for a builtin function")
    p.add_argument("--f", choices=FUNCTION_CHOICES, required=True)
    _add_abv(p)
    p.add_argument("--tol", type=float)
    _finish(p, _cmd_check, chain="hh")
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
        _finish(p, _cmd_check)

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
    so the library default holds.  A non-finite ``--tol`` is bad input."""
    if args.tol is not None and not np.isfinite(args.tol):
        raise ValueError(f"--tol must be finite, got {args.tol!r}")
    return {} if args.tol is None else dict.fromkeys(keys, args.tol)


def _cmd_means_eval(args):
    return {"value": SCALAR_MEANS[args.mean](args.a, args.b, args.v)}


def _cmd_hh_c(args):
    return {"value": cvx.split_integral_avg(cvx.get_builtin(args.f), args.a, args.b, args.v)}


def _check(args):
    """The producer of the check in harness.CHECKS that the command runs: a bounds
    subcommand's own, or that of the chain named by --chain ("hh" for hh chain)."""
    key = args.subcommand if args.command == "bounds" else f"{args.chain}_chain"
    return harness._producer(key, getattr(args, "f", None))


def _cmd_check(args):
    res = _check(args)(args.a, args.b, args.v, **_tol(args))
    if isinstance(res, tuple):  # the reports of a bounds check
        return {"reports": [rep.to_dict() for rep in res], "pass": all(r.passed for r in res)}
    return res.to_dict()


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
    return {"dim": mat_a.dim, "v": args.v, **report.to_dict()}


def _cmd_op_eval(args):
    mat_a, mat_b = _load_matrix_pair(args.file)
    return OPERATOR_MEANS[args.mean](mat_a, mat_b, args.v).to_dict()


def _cmd_verify(args):
    cfg = harness.SuiteConfig(seed=args.seed, trials=args.trials, **_tol(args, ("tol", "op_tol")))
    return args.runner(cfg).to_dict(include_timing=args.timing)


def _cmd_paper_numbers(args):
    return harness.reference_value_check().to_dict(include_timing=args.timing)


def _parse_grid(spec: str, name: str, positive: bool) -> tuple:
    try:  # three numbers, n integral however written (1000 or 1e3)
        lo, hi, n = map(float, spec.split(":"))
    except ValueError:
        lo = hi = n = np.nan
    if not n.is_integer():
        raise ValueError(f"--{name} grid spec must be lo:hi:n with n a whole number, got {spec!r}")
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"--{name} grid bounds must be finite: {spec!r}")
    if n < 1 or lo > hi:
        raise ValueError(f"--{name} grid is empty: {spec!r}")
    if positive and lo <= 0.0:
        raise ValueError(f"--{name} grid must stay positive: {spec!r}")
    return lo, hi, int(n)


def _cmd_scan(args):
    specs = [_parse_grid(getattr(args, name), name, positive=name != "v") for name in "abv"]
    try:  # a grid too large to allocate is bad input, named by its point count
        a_grid, b_grid, v_grid = (np.linspace(*spec) for spec in specs)
        if np.any(v_grid < 0.0) or np.any(v_grid > 1.0):
            raise ValueError(f"--v grid must stay inside [0, 1]: {args.v!r}")
        a, b, v = (x.ravel() for x in np.meshgrid(a_grid, b_grid, v_grid, indexing="ij"))
        rep = _check(args)(a, b, v)
    except MemoryError:
        points = specs[0][2] * specs[1][2] * specs[2][2]
        raise ValueError(f"the scan grid of {points} points does not fit in memory") from None
    keys = ("a", "b", "v", *rep.labels, *(f"slack_{k}" for k in range(1, len(rep.labels))), "pass")
    columns = (a, b, v, *rep.values, *rep.slacks, rep.passed)
    return {"rows": Table(keys, [c.tolist() for c in columns])}


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
    if not isinstance(table := payload.get("rows"), Table):  # the flattened payload as one row
        _flatten("", payload, flat := {})
        table = Table(tuple(flat), [[x] for x in flat.values()])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.keys)
    # csv writes a float as its repr; a bool is written as in JSON
    writer.writerows(zip(*([json.dumps(x) if isinstance(x, bool) else x for x in column]
                           for column in table.columns)))
    return buf.getvalue()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # non-finite results raise where they are checked
            payload = args.handler(args)
    except ArithmeticError as exc:  # QuadratureError and NumericalBreakdown are ones too
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    except (ValueError, KeyError) as exc:
        print(f"meanbounds: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        sys.stdout.write(_to_csv(payload))
    else:
        print(to_json(payload))
    failed = payload.get("pass") is False or bool(payload.get("failures")) or (
        args.handler is _cmd_scan and not all(payload["rows"].columns[-1]))  # the pass column
    return 1 if failed else 0


def run():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
