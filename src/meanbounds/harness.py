"""Seeded randomized verification suites with replayable failure records.

Trial i derives its generator from ``seed XOR i``, so any slice of the
trial range produces exactly the per-trial results of a full serial run;
reports from disjoint slices merge associatively via :func:`merge_reports`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from . import convex as cvx
from . import operators as ops
from . import scalar as sc
from .quadrature import QuadratureError
from .reports import ChainReport, GapBoundReport, PointCheck, Report

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

    def _note(self, key: str, value: float):
        """Keep the smallest slack of ``key``; NaN ranks below every number."""
        value = float(value)
        if key not in self.min_slacks or value < self.min_slacks[key] or math.isnan(value):
            self.min_slacks[key] = value

    def _fail(self, trial: int, check: str, inputs: dict, **extra):
        self.failures.append({"trial": trial, "check": check, "inputs": inputs, **extra})


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
    out = SuiteReport(first.suite, first.seed, first.trials + second.trials,
                      first.failures + second.failures)
    for key, val in (*first.min_slacks.items(), *second.min_slacks.items()):
        out._note(key, val)
    return out


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


# Every check of the scalar and bounds suites: key -> (module, producer, takes a convex
# function, needs b - a >= MIN_GAP, None or the builder of the chain terms that the producer
# checks its input for and the body it calls on them), named so that each call resolves
# through the module attribute.  A suite makes one array call per check and slice; a check
# that takes f reads terms built over all the slice's trials, each at its own builtin.  The
# bounds suite runs BOUNDS_CHECKS, the CLI's `bounds`.
CHECKS = {
    "log_chain": (sc, "logarithmic_chain", False, False, None),
    "identric_chain": (sc, "identric_chain", False, False, None),
    "hh_chain": (cvx, "chain_eval", True, True, ("_Terms", "_chain_report")),
    "gap_sandwich": (cvx, "gap_sandwich_check", True, False, ("_Terms", "_gap_sandwich")),
    "refined_gap": (cvx, "refined_gap_check", True, False, ("_Terms", "_refined_gap")),
    "thm32": (bnd, "deriv_gap_bounds", True, True, ("_Terms", "_thm32")),
    "thm33": (bnd, "curvature_gap_bounds", True, True, ("_Terms", "_thm33")),
    "cor31": (bnd, "logmean_diff_reverse", False, False, ("_exp_terms", "_cor31")),
    "cor32": (bnd, "identric_ratio_reverse", False, False, ("_neg_log_terms", "_cor32")),
    "cor33": (bnd, "logmean_diff_refinement", False, False, ("_exp_terms", "_cor33")),
    "cor34": (bnd, "identric_ratio_refinement", False, False, ("_neg_log_terms", "_cor34")),
}
BOUNDS_CHECKS = ("thm32", "thm33", "cor31", "cor32", "cor33", "cor34")


def _producer(key: str, fname: str | None = None):
    """Check ``key``'s producer as a function of (a, b, v, ...), bound to the builtin
    ``fname`` if the check takes a convex function."""
    module, producer, takes_f = CHECKS[key][:3]
    produce = getattr(module, producer)
    return functools.partial(produce, cvx.get_builtin(fname)) if takes_f else produce


def _record(rep: SuiteReport, key: str, res, trials: list):
    """Note the minimum of each slack of a check's result over ``trials``, a
    list of (index, inputs), and record each trial where a verdict fails."""
    if isinstance(res, ChainReport):
        verdicts = [(key, dict(enumerate(res.slacks, start=1)), res.passed,
                     {"slacks": res.slacks})]
    elif isinstance(res, PointCheck):
        verdicts = [(key, {"refined": res.lhs - res.rhs, "nonneg": res.rhs}, res.passed,
                     {"lhs": res.lhs, "rhs": res.rhs})]
    else:  # one GapBoundReport, named by the check key, or a bounds producer's tuple of them
        gaps = [(key, res)] if isinstance(res, GapBoundReport) else \
            [(f"{key}.{gap.name}", gap) for gap in res]
        verdicts = [(name, {"lower": gap.slack_lower(), "upper": gap.slack_upper()}, gap.passed,
                     {"gap": gap.gap, "lower_bound": gap.lower_bound,
                      "upper_bound": gap.upper_bound}) for name, gap in gaps]
    for name, slacks, passed, fields in verdicts:
        for suffix, slack in slacks.items():
            rep._note(f"{name}.{suffix}", np.minimum.reduce(slack, axis=None))
        for pos in np.flatnonzero(np.logical_not(passed)).tolist():
            index, inputs = trials[pos]
            extra = {field: [x.flat[pos].item() for x in map(np.asarray, value)]
                     if isinstance(value, tuple) else np.broadcast_to(value, np.shape(passed))
                     .flat[pos].item() for field, value in fields.items()}
            rep._fail(index, name, inputs, **extra)


def _check_slice(rep: SuiteReport, key: str, trials: list, specs: tuple, tol: float,
                 terms: dict):
    """Check ``key`` over ``trials``, a list of (index, inputs), in one array call on their
    (lo, hi, v), trial i taking ``specs[i % len(specs)]``, or on their (a, b, v) if it takes
    no f, reading chain terms from ``terms``, each built once per slice and trial set.
    Inputs are valid by construction, so a raise is a numeric failure: then each trial reruns
    alone through the same builder and body, and one whose call raises gets a record of it."""
    module, producer, takes_f, _, reads = CHECKS[key]
    index = [i for i, _ in trials]
    arrays = lambda: map(np.array, zip(*(  # made only if a call takes them; built terms don't
        (min(x["a"], x["b"]), max(x["a"], x["b"]), x["v"]) if takes_f else (x["a"], x["b"], x["v"])
        for _, x in trials)))
    try:
        if reads is None:
            res = getattr(module, producer)(*arrays(), tol=tol)
        else:
            at = (reads[0], tuple(index))
            if at not in terms:  # with f, the specs and an index into them per trial
                fs = (specs, np.array(index) % len(specs)) if takes_f else ()
                terms[at] = getattr(module, reads[0])(*fs, *arrays())
            res = getattr(module, reads[1])(terms[at], tol)
    except (QuadratureError, ArithmeticError, ValueError) as exc:
        if len(trials) == 1:
            return rep._fail(trials[0][0], key, trials[0][1], error=str(exc))
        for trial in trials:
            _check_slice(rep, key, [trial], specs, tol, terms)
        return
    _record(rep, key, res, trials)


def _run_trials(suite: str, cfg: SuiteConfig, start, count, keys, oriented: bool):
    """Trial loop shared by the scalar and bounds suites.

    Trial i draws (a, b, v) and takes the builtin ``cfg.functions[i % n]``; its
    failure inputs hold the drawn (a, b), or (lo, hi) when ``oriented``.  Each
    check in ``keys`` runs once over the slice, whatever builtins its trials take,
    leaving out trials with b - a < MIN_GAP if it needs a < b.
    """
    t0 = time.perf_counter()
    trials = []
    for i in _slice(cfg.trials, start, count):
        rng = _trial_rng(cfg.seed, i)
        a, b = _draw_pair(rng, cfg)
        a, b = (min(a, b), max(a, b)) if oriented else (a, b)
        fname = cfg.functions[i % len(cfg.functions)]
        trials.append((i, {"a": a, "b": b, "v": _draw_weight(rng, cfg), "f": fname}))
    rep = SuiteReport(suite, cfg.seed, len(trials))
    specs = tuple(map(cvx.get_builtin, cfg.functions))
    terms = {}  # the chain terms built in this slice, shared by the checks that read them
    with np.errstate(all="ignore"):  # non-finite numbers raise where they are checked
        for key in keys:
            group = [(i, x) for i, x in trials  # without b - a < MIN_GAP if it needs a < b
                     if not CHECKS[key][3] or abs(x["b"] - x["a"]) >= MIN_GAP]
            if group:
                _check_slice(rep, key, group, specs, cfg.tol, terms)
    rep.failures.sort(key=lambda record: record["trial"])  # stable: check order stays
    rep.wall_ms = (time.perf_counter() - t0) * 1e3
    return rep


def run_scalar_suite(cfg: SuiteConfig, start: int = 0, count=None) -> SuiteReport:
    """Both mean chains, the seven-term chain cycling the builtin functions and
    both convexity-gap checks on (a, b, v) draws."""
    keys = ("log_chain", "identric_chain", "hh_chain", "gap_sandwich", "refined_gap")
    return _run_trials("scalar", cfg, start, count, keys, oriented=False)


def run_bounds_suite(cfg: SuiteConfig, start: int = 0, count=None) -> SuiteReport:
    """Derivative and curvature gap bounds plus the four mean-specific
    reverses/refinements on oriented randomized draws."""
    return _run_trials("bounds", cfg, start, count, BOUNDS_CHECKS, oriented=True)


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


def _representing_grid(rep: SuiteReport, cfg: SuiteConfig):
    ts = np.logspace(*np.log10(OPERATOR_GRID_RANGE), OPERATOR_GRID_POINTS)
    for v in OPERATOR_GRID_WEIGHTS:
        chain = ops.representing_chain(ts, v, cfg.tol)
        for idx, slack in enumerate(chain.slacks, start=1):
            rep._note(f"representing.{idx}", slack.min())
            if not chain.passed.all():  # then each failing link names its worst point
                allowed = cfg.tol * chain.scale
                worst = int(np.argmin(slack + allowed))
                if slack[worst] < -allowed[worst]:
                    rep._fail(-1, f"representing.{idx}",
                              {"t": float(ts[worst]), "v": float(v)}, slack=float(slack[worst]))
    gm = ops.logmean_gm_check(ts, cfg.tol)
    slack = gm.lhs - ts
    rep._note("logmean_gm", slack.min())
    if not gm.passed.all():
        worst = int(np.argmin(np.where(gm.passed, np.inf, slack)))
        rep._fail(-1, "logmean_gm", {"t": float(ts[worst])}, slack=float(slack[worst]))


def _operator_block(rep: SuiteReport, cfg: SuiteConfig, dim: int, block: list):
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
                _operator_block(rep, cfg, dim, [i])
            return
        rng = _trial_rng(cfg.seed, block[0])
        a, b = _spd_stack([rng, rng], dim)  # A, then B, then the weight, as drawn above
        inputs = {"dim": dim, "v": _draw_weight(rng, cfg), "A": a.tolist(), "B": b.tolist()}
        return rep._fail(block[0], "op_chain", inputs, error=str(exc))
    for i, v, a, b, report in zip(block, weights, mat_a.entries, mat_b.entries, reports):
        margins = [vd.margin for vd in report.verdicts]
        for idx, margin in enumerate(margins, start=1):
            rep._note(f"op_chain.{idx}", margin)
        if not report.passed:
            inputs = {"dim": dim, "v": v, "A": a.tolist(), "B": b.tolist()}
            rep._fail(i, "op_chain", inputs, margins=margins)


def run_operator_suite(cfg: SuiteConfig, start: int = 0, count=None) -> SuiteReport:
    """Operator chains on random SPD pairs for every configured dimension,
    plus the representing-function and helper-inequality grids.

    Each dimension's trials in a slice run as one stack: two random_spd and one
    operator_chain call, whatever their number; a trial that raises becomes a
    failure record.  The grid checks run once, attached to the slice containing trial 0.
    """
    t0 = time.perf_counter()
    indices = _slice(cfg.trials * len(cfg.dims), start, count)
    rep = SuiteReport("operator", cfg.seed, len(indices))
    for dim, block in itertools.groupby(indices, lambda i: cfg.dims[i // cfg.trials]):
        _operator_block(rep, cfg, dim, list(block))
    if 0 in indices:
        _representing_grid(rep, cfg)
    rep.wall_ms = (time.perf_counter() - t0) * 1e3
    return rep


def reference_value_check() -> SuiteReport:
    """Recompute the two reference values of the max-weight bound difference
    (f = exp, v = 1/4) and the sign change they witness."""
    t0 = time.perf_counter()
    rep = SuiteReport("paper-numbers", 0, len(REFERENCE_DIFFS))
    f = cvx.get_builtin("exp")
    diffs = []
    for (a, b), expected, tol_abs in REFERENCE_DIFFS:
        terms = cvx.chain_terms(f, a, b, 0.25)
        diff = terms.maxweight_lower - terms.maxweight_upper
        diffs.append(diff)
        tag = f"{a:g}_{b:g}"
        rep._note(f"diff_{tag}", diff)
        margin = tol_abs - abs(diff - expected)
        rep._note(f"margin_{tag}", margin)
        if margin < 0.0:
            rep._fail(0, f"reference_{tag}", {"a": a, "b": b, "v": 0.25, "f": "exp"},
                     computed=diff, expected=expected, tol=tol_abs)
    rep._note("sign_flip", 1.0 if diffs[0] * diffs[1] < 0.0 else -1.0)
    if not diffs[0] * diffs[1] < 0.0:
        rep._fail(0, "sign_flip", {"diffs": diffs})
    rep.wall_ms = (time.perf_counter() - t0) * 1e3
    return rep
