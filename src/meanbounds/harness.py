"""Seeded randomized verification suites with replayable failure records.

Trial i derives its generator from ``seed XOR i``, so any slice of the
trial range produces exactly the per-trial results of a full serial run;
reports from disjoint slices merge associatively via :func:`merge_reports`.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from . import convex as cvx
from . import operators as ops
from . import scalar as sc
from .quadrature import QuadratureError
from .reports import Report

DEFAULT_FUNCTIONS = tuple(cvx.BUILTINS)

_U64 = (1 << 64) - 1

# oriented draws keep |b - a| at or above this
MIN_GAP = 1e-6

# reference values for the max-weight bound difference at f = exp, v = 1/4:
# ((a, b), expected difference, allowed absolute deviation)
REFERENCE_DIFFS = (
    ((4.0, 1.0), 4.35403, 5e-4),
    ((8.0, 1.0), -30.7996, 5e-3),
)

OPERATOR_GRID_POINTS = 10_000
OPERATOR_GRID_RANGE = (1e-4, 1e4)
OPERATOR_GRID_WEIGHTS = tuple(np.round(np.arange(0.01, 1.00, 0.01), 2))


def _positive_range(name, rng):
    lo, hi = (float(rng[0]), float(rng[1]))
    if not (0.0 < lo <= hi and np.isfinite(hi)):
        raise ValueError(f"{name} must be a nonempty positive interval, got {rng}")
    return lo, hi


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 10_000
    a_range: tuple[float, float] = (0.1, 10.0)
    b_range: tuple[float, float] = (0.1, 10.0)
    v_range: tuple[float, float] = (0.01, 0.99)
    functions: tuple[str, ...] = DEFAULT_FUNCTIONS
    tol: float = 1e-9
    op_tol: float = 1e-10
    dims: tuple[int, ...] = (2, 3, 5, 8)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= int(self.seed) <= _U64:
            raise ValueError("seed must fit in 64 unsigned bits")
        _positive_range("a_range", self.a_range)
        _positive_range("b_range", self.b_range)
        v_lo, v_hi = self.v_range
        if not (0.0 < v_lo <= v_hi < 1.0):
            raise ValueError(f"v_range must sit inside (0, 1), got {self.v_range}")
        for name in self.functions:
            cvx.get_builtin(name)
        if not self.functions:
            raise ValueError("functions must be nonempty")
        if any(d < 1 for d in self.dims) or not self.dims:
            raise ValueError("dims must be positive")


@dataclass
class SuiteReport(Report):
    suite: str
    seed: int
    trials: int
    failures: list = field(default_factory=list)
    min_slacks: dict = field(default_factory=dict)
    wall_ms: float | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self, include_timing: bool = False) -> dict:
        out = _strict_json(super().to_dict())
        if not include_timing:
            out["wall_ms"] = None
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2)


def _strict_json(value):
    """``value`` with each non-finite float spelled "nan", "inf" or "-inf"."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    return value


def merge_reports(first: SuiteReport, second: SuiteReport) -> SuiteReport:
    if first.suite != second.suite or first.seed != second.seed:
        raise ValueError("reports stem from different suites or seeds")
    col = _Collector()
    for key, val in (*first.min_slacks.items(), *second.min_slacks.items()):
        col.note(key, val)
    return SuiteReport(
        first.suite,
        first.seed,
        first.trials + second.trials,
        first.failures + second.failures,
        col.min_slacks,
        None,
    )


class _Collector:
    def __init__(self):
        self.min_slacks: dict[str, float] = {}
        self.failures: list[dict] = []

    def note(self, key: str, value: float):
        """Keep the smallest slack of ``key``; NaN ranks below every number."""
        value = float(value)
        if key not in self.min_slacks or value < self.min_slacks[key] or math.isnan(value):
            self.min_slacks[key] = value

    def fail(self, trial: int, check: str, inputs: dict, **extra):
        """Record a failed check.  A failure whose numbers are not finite (f
        overflowed) is a numeric error, raised for the trial loop to record."""
        if not all(math.isfinite(x) for x in extra.values() if isinstance(x, float)):
            raise FloatingPointError(f"{check} terms are not finite")
        record = {"trial": trial, "check": check, "inputs": inputs}
        record.update(extra)
        self.failures.append(record)

    def chain(self, key: str, report, trial: int, inputs: dict):
        for idx, slack in enumerate(report.slacks, start=1):
            self.note(f"{key}.{idx}", slack)
        if not report.passed:
            self.fail(trial, key, inputs, slacks=list(report.slacks))

    def gap(self, key: str, report, trial: int, inputs: dict):
        self.note(f"{key}.lower", report.slack_lower())
        self.note(f"{key}.upper", report.slack_upper())
        if not report.passed:
            self.fail(trial, key, inputs, gap=report.gap,
                      lower_bound=report.lower_bound, upper_bound=report.upper_bound)


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((int(seed) ^ int(index)) & _U64)


def _log_uniform(rng, lo: float, hi: float) -> float:
    if lo == hi:
        return lo
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _draw_pair(rng, cfg: SuiteConfig) -> tuple[float, float]:
    a = _log_uniform(rng, *cfg.a_range)
    b = _log_uniform(rng, *cfg.b_range)
    for _ in range(8):
        if abs(b - a) >= MIN_GAP:
            break
        b = _log_uniform(rng, *cfg.b_range)
    return a, b


def _draw_weight(rng, cfg: SuiteConfig) -> float:
    lo, hi = cfg.v_range
    return float(rng.uniform(lo, hi))


def _slice(cfg_total: int, start: int, count):
    if count is None:
        count = cfg_total - start
    if start < 0 or count < 0 or start + count > cfg_total:
        raise ValueError(f"slice [{start}, {start + count}) outside [0, {cfg_total})")
    return range(start, start + count)


class _Trial(NamedTuple):
    index: int
    a: float
    b: float
    lo: float
    hi: float
    v: float
    f: cvx.ConvexFnSpec
    inputs: dict


def _run_trials(suite: str, cfg: SuiteConfig, start, count, checks, oriented: bool):
    """Trial loop shared by the scalar and bounds suites.

    Trial i draws (a, b, v) and takes the builtin ``cfg.functions[i % n]``;
    each (key, check) in ``checks`` then runs as ``check(col, key, trial, tol)``.
    A trial's inputs are valid by construction, so a check raising
    QuadratureError, ArithmeticError or ValueError has failed numerically: it
    becomes a failure record of that trial and the remaining checks still
    run.  Failure inputs hold the drawn (a, b), or (lo, hi) when ``oriented``.
    """
    t0 = time.perf_counter()
    col = _Collector()
    indices = _slice(cfg.trials, start, count)
    for i in indices:
        rng = _trial_rng(cfg.seed, i)
        a, b = _draw_pair(rng, cfg)
        v = _draw_weight(rng, cfg)
        fname = cfg.functions[i % len(cfg.functions)]
        lo, hi = min(a, b), max(a, b)
        inputs = {"a": lo, "b": hi} if oriented else {"a": a, "b": b}
        inputs.update(v=v, f=fname)
        trial = _Trial(i, a, b, lo, hi, v, cvx.get_builtin(fname), inputs)
        for key, check in checks:
            try:
                check(col, key, trial, cfg.tol)
            except (QuadratureError, ArithmeticError, ValueError) as exc:
                col.fail(i, key, inputs, error=str(exc))
    wall = (time.perf_counter() - t0) * 1e3
    return SuiteReport(suite, cfg.seed, len(indices), col.failures, col.min_slacks, wall)


def _log_chain(col, key, t, tol):
    col.chain(key, sc.logarithmic_chain(t.a, t.b, t.v, tol=tol), t.index, t.inputs)


def _identric_chain(col, key, t, tol):
    col.chain(key, sc.identric_chain(t.a, t.b, t.v, tol=tol), t.index, t.inputs)


def _hh_chain(col, key, t, tol):
    if t.hi - t.lo >= MIN_GAP:
        col.chain(key, cvx.chain_eval(t.f, t.lo, t.hi, t.v, tol=tol), t.index, t.inputs)


def _gap_sandwich(col, key, t, tol):
    res = cvx.gap_sandwich_check(t.f, t.lo, t.hi, t.v, tol=tol)
    col.note(f"{key}.lower", res.mid - res.lhs)
    col.note(f"{key}.upper", res.rhs - res.mid)
    if not res.passed:
        col.fail(t.index, key, t.inputs, lhs=res.lhs, mid=res.mid, rhs=res.rhs)


def _refined_gap(col, key, t, tol):
    res = cvx.refined_gap_check(t.f, t.lo, t.hi, t.v, tol=tol)
    col.note(f"{key}.refined", res.lhs - res.rhs)
    col.note(f"{key}.nonneg", res.rhs)
    if not res.passed:
        col.fail(t.index, key, t.inputs, lhs=res.lhs, rhs=res.rhs)


_SCALAR_CHECKS = (
    ("log_chain", _log_chain),
    ("identric_chain", _identric_chain),
    ("hh_chain", _hh_chain),
    ("gap_sandwich", _gap_sandwich),
    ("refined_gap", _refined_gap),
)

# The bounds suite's checks and the CLI's `bounds` subcommands:
# name -> (takes a convex function, producing function of meanbounds.bounds).
# Producers are named, not referenced, so calls go through the module attribute.
BOUNDS_CHECKS = {
    "thm32": (True, "deriv_gap_bounds"),
    "thm33": (True, "curvature_gap_bounds"),
    "cor31": (False, "logmean_diff_reverse"),
    "cor32": (False, "identric_ratio_reverse"),
    "cor33": (False, "logmean_diff_refinement"),
    "cor34": (False, "identric_ratio_refinement"),
}


def _bounds_check(col, key, t, tol):
    takes_f, producer = BOUNDS_CHECKS[key]
    if takes_f and t.hi - t.lo < MIN_GAP:
        return
    head = (t.f,) if takes_f else ()
    for rep in getattr(bnd, producer)(*head, t.lo, t.hi, t.v, tol=tol):
        col.gap(f"{key}.{rep.name}", rep, t.index, t.inputs)


def run_scalar_suite(cfg: SuiteConfig, start: int = 0, count=None) -> SuiteReport:
    """Mean chains, the seven-term chain cycling the builtin functions,
    and both convexity-gap checks on randomized (a, b, v) draws."""
    return _run_trials("scalar", cfg, start, count, _SCALAR_CHECKS, oriented=False)


def run_bounds_suite(cfg: SuiteConfig, start: int = 0, count=None) -> SuiteReport:
    """Derivative and curvature gap bounds plus the four mean-specific
    reverses/refinements on oriented randomized draws."""
    checks = [(key, _bounds_check) for key in BOUNDS_CHECKS]
    return _run_trials("bounds", cfg, start, count, checks, oriented=True)


def _spd_stack(rngs, dim: int, log10_cond_half: float = 2.0) -> np.ndarray:
    """Q diag(10^U(-c, c)) Q^T from each generator: one stacked QR, signs so diag(R) > 0."""
    gauss, exps = zip(*((rng.standard_normal((dim, dim)),
                         rng.uniform(-log10_cond_half, log10_cond_half, dim)) for rng in rngs))
    q, r = np.linalg.qr(np.array(gauss))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return ops._sym((q * 10.0 ** np.array(exps)[..., None, :]) @ q.swapaxes(-1, -2))


def random_spd(rng, dim: int, log10_cond_half: float = 2.0) -> ops.SpdMatrix:
    """Random SPD matrix Q diag(lambda) Q^T with log-uniform spectrum.

    Eigenvalues are drawn from 10^U(-c, c) with c = log10_cond_half, so
    the condition number ranges up to 10^(2c).  Given a list of generators,
    it draws one matrix from each and returns them as one stack.
    """
    stack = _spd_stack(rng if isinstance(rng, list) else [rng], dim, log10_cond_half)
    return ops.SpdMatrix(stack if isinstance(rng, list) else stack[0])


def _representing_grid(col: _Collector, cfg: SuiteConfig):
    ts = np.logspace(
        np.log10(OPERATOR_GRID_RANGE[0]), np.log10(OPERATOR_GRID_RANGE[1]), OPERATOR_GRID_POINTS
    )
    for v in OPERATOR_GRID_WEIGHTS:
        terms = ops._representing_terms(ts, float(v))
        scale = np.maximum.reduce([np.abs(x) for x in terms])
        for idx in range(4):
            slack = terms[idx + 1] - terms[idx]
            col.note(f"representing.{idx + 1}", float(np.min(slack)))
            worst = int(np.argmin(slack + cfg.tol * scale))
            if slack[worst] < -cfg.tol * scale[worst]:
                col.fail(-1, f"representing.{idx + 1}",
                         {"t": float(ts[worst]), "v": float(v)}, slack=float(slack[worst]))
    lhs = sc.log_mean_unit(np.square(ts), 0.5)
    slack = lhs - ts
    col.note("logmean_gm", float(np.min(slack)))
    worst = int(np.argmin(slack + cfg.tol * np.maximum(1.0, ts)))
    if slack[worst] < -cfg.tol * max(1.0, ts[worst]):
        col.fail(-1, "logmean_gm", {"t": float(ts[worst])}, slack=float(slack[worst]))


def _operator_block(col: _Collector, cfg: SuiteConfig, dim: int, block: list):
    """One dimension's trials as one stack of pairs.  If the stack raises, its
    trials rerun one by one and the failing one gets a record with the error."""
    rngs = [_trial_rng(cfg.seed, i) for i in block]
    try:
        mat_a, mat_b = random_spd(rngs, dim), random_spd(rngs, dim)
        weights = [_draw_weight(rng, cfg) for rng in rngs]
        reports = ops.operator_chain(mat_a, mat_b, weights, tol=cfg.op_tol)
    except (ValueError, ops.NumericalBreakdown) as exc:  # LinAlgError is a ValueError
        if len(block) > 1:
            for i in block:
                _operator_block(col, cfg, dim, [i])
            return
        rng = _trial_rng(cfg.seed, block[0])
        a, b = _spd_stack([rng, rng], dim)  # A, then B, then the weight, as drawn above
        inputs = {"dim": dim, "v": _draw_weight(rng, cfg), "A": a.tolist(), "B": b.tolist()}
        return col.fail(block[0], "op_chain", inputs, error=str(exc))
    for i, v, a, b, report in zip(block, weights, mat_a.entries, mat_b.entries, reports):
        margins = [vd.margin for vd in report.verdicts]
        for idx, margin in enumerate(margins, start=1):
            col.note(f"op_chain.{idx}", margin)
        if not report.passed:
            inputs = {"dim": dim, "v": v, "A": a.tolist(), "B": b.tolist()}
            col.fail(i, "op_chain", inputs, margins=margins)


def run_operator_suite(cfg: SuiteConfig, start: int = 0, count=None) -> SuiteReport:
    """Operator chains on random SPD pairs for every configured dimension,
    plus the representing-function and helper-inequality grids.

    Each dimension's trials in a slice run as one stack: two random_spd and one
    operator_chain call, whatever their number; a trial that raises becomes a
    failure record.  The grid checks run once, attached to the slice containing trial 0.
    """
    t0 = time.perf_counter()
    col = _Collector()
    indices = _slice(cfg.trials * len(cfg.dims), start, count)
    for dim, block in itertools.groupby(indices, lambda i: cfg.dims[i // cfg.trials]):
        _operator_block(col, cfg, dim, list(block))
    if 0 in indices:
        _representing_grid(col, cfg)
    wall = (time.perf_counter() - t0) * 1e3
    return SuiteReport("operator", cfg.seed, len(indices), col.failures, col.min_slacks, wall)


def reference_value_check() -> SuiteReport:
    """Recompute the two reference values of the max-weight bound difference
    (f = exp, v = 1/4) and the sign change they witness."""
    t0 = time.perf_counter()
    col = _Collector()
    f = cvx.get_builtin("exp")
    diffs = []
    for (a, b), expected, tol_abs in REFERENCE_DIFFS:
        diff = cvx.maxweight_lower(f, a, b, 0.25) - cvx.maxweight_upper(f, a, b, 0.25)
        diffs.append(diff)
        tag = f"{a:g}_{b:g}"
        col.note(f"diff_{tag}", diff)
        margin = tol_abs - abs(diff - expected)
        col.note(f"margin_{tag}", margin)
        if margin < 0.0:
            col.fail(0, f"reference_{tag}", {"a": a, "b": b, "v": 0.25, "f": "exp"},
                     computed=diff, expected=expected, tol=tol_abs)
    col.note("sign_flip", 1.0 if diffs[0] * diffs[1] < 0.0 else -1.0)
    if not diffs[0] * diffs[1] < 0.0:
        col.fail(0, "sign_flip", {"diffs": diffs})
    wall = (time.perf_counter() - t0) * 1e3
    return SuiteReport("paper-numbers", 0, len(REFERENCE_DIFFS), col.failures,
                       col.min_slacks, wall)
