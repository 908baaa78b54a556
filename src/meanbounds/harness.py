"""Seeded randomized verification suites with replayable failure records.

Every suite draws from SplitMix64 (``SuiteReport.draws`` is ``"splitmix64"``): trial i's k-th
double is the top 53 bits of output i K + k + 1 of SplitMix64 seeded with the seed, K = 11 for
the scalar and bounds suites and 2 D^2 + 2 D + 1, D = max(dims), for the operator suite.  So
trial i's draws depend on the seed and i alone (and D), any slice of the trial range gives
exactly the per-trial results of a full serial run, and reports from disjoint slices merge
associatively via :func:`merge_reports` if they name one draw scheme.  Reports of the older
schemes (``"pcg64-xor"``, ``"philox-blocks"``) neither merge with these nor re-run.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from . import convex as cvx
from . import operators as ops
from . import scalar as sc
from .reports import ChainReport, GapBoundReport, PointCheck, Report, to_json

DEFAULT_FUNCTIONS = tuple(cvx.BUILTINS)

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


def _interval(name, rng, top=math.inf, rule="be a nonempty positive interval"):
    try:  # anything but a pair of numbers is NaN, which fails below
        lo, hi = map(float, rng) if np.shape(rng) == (2,) else (math.nan, math.nan)
    except (TypeError, ValueError):
        lo = hi = math.nan
    if not 0.0 < lo <= hi < top:
        raise ValueError(f"{name} must {rule}, got {rng}")


def _count(name, value):
    """``value`` as an int; anything but an integer of at least 1 raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} takes integers only, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    return int(value)


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
        object.__setattr__(self, "trials", _count("trials", self.trials))
        if isinstance(self.seed, bool) or not (isinstance(self.seed, numbers.Real) and
                                               0 <= self.seed <= 2**64 - 1 and self.seed % 1 == 0):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        _interval("a_range", self.a_range)
        _interval("b_range", self.b_range)
        _interval("v_range", self.v_range, 1.0, "sit inside (0, 1)")
        if not np.isfinite([self.tol, self.op_tol]).all():  # a negative tolerance is valid
            raise ValueError(f"tol and op_tol must be finite, got {self.tol!r}, {self.op_tol!r}")
        if isinstance(self.functions, str):  # one name would be read a character at a time
            raise ValueError(f"functions must be a sequence of names, got {self.functions!r}")
        for name in self.functions:
            cvx.get_builtin(name)
        if not self.functions:
            raise ValueError("functions must be nonempty")
        object.__setattr__(self, "dims", tuple(_count("dims", d) for d in self.dims))
        if not self.dims:
            raise ValueError("dims must be nonempty")


@dataclass
class SuiteReport(Report):
    suite: str
    seed: int
    trials: int
    failures: list = field(default_factory=list)
    min_slacks: dict = field(default_factory=dict)
    wall_ms: float | None = None
    draws: str | None = None  # the trials' draw scheme

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self, include_timing: bool = False) -> dict:
        out = _strict_json(super().to_dict())
        if not include_timing:
            out["wall_ms"] = None
        if self.draws is None:  # a suite that draws nothing names no scheme
            del out["draws"]
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return to_json(self.to_dict(include_timing))

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
    if (first.suite, first.seed, first.draws) != (second.suite, second.seed, second.draws):
        raise ValueError("reports stem from different suites, seeds or draw schemes")
    out = SuiteReport(first.suite, first.seed, first.trials + second.trials,
                      first.failures + second.failures, draws=first.draws)
    for key, val in (*first.min_slacks.items(), *second.min_slacks.items()):
        out._note(key, val)
    return out


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), as Vigna's splitmix64.c: output n of the
# generator seeded with s is mix(s + n GAMMA mod 2**64), so any output is one counter away
_GAMMA, _MIX1, _MIX2 = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _uniform(seed: int, n: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) from the top 53 bits of outputs ``n`` (a uint64 array) of
    SplitMix64 seeded with ``seed``; uint64 arrays wrap mod 2**64 without a warning."""
    z = n * _GAMMA + np.uint64(seed)
    z = (z ^ z >> np.uint64(30)) * _MIX1
    z = (z ^ z >> np.uint64(27)) * _MIX2
    return ((z ^ z >> np.uint64(31)) >> np.uint64(11)) * 2.0 ** -53


def _replay(cfg: SuiteConfig, index: np.ndarray):
    """(a, b, v) of trials ``index`` as arrays: trial i's k-th double is SplitMix64 output
    11 i + k + 1.  a and b are log-uniform over their ranges (no draw for a one-point range),
    b is redrawn up to 8 times while |b - a| < MIN_GAP, then v is uniform."""
    first = index.astype(np.uint64) * np.uint64(11) + np.uint64(1)  # output of double k = 0
    na, nb = (int(lo_ != hi_) for lo_, hi_ in (cfg.a_range, cfg.b_range))

    def log_uniform(rng, d):  # a one-point range takes no draw
        lo_, hi_ = map(float, rng)
        return np.full(len(d), lo_) if lo_ == hi_ else \
            np.exp(np.log(lo_) + (np.log(hi_) - np.log(lo_)) * d)

    d = _uniform(cfg.seed, first + np.arange(na + nb + 1, dtype=np.uint64)[:, None])
    a, b, dv = log_uniform(cfg.a_range, d[0]), log_uniform(cfg.b_range, d[na]), d[na + nb]
    need = np.arange(len(index))
    for col in range(na + 1, na + 9 * nb):  # redraw b from double col, then v from col + 1
        need = need[np.abs(b[need] - a[need]) < MIN_GAP]
        if not len(need):
            break
        d = _uniform(cfg.seed, first[need] + np.array([[col], [col + 1]], np.uint64))
        b[need], dv[need] = log_uniform(cfg.b_range, d[0]), d[1]
    v_lo, v_hi = map(float, cfg.v_range)
    return a, b, v_lo + (v_hi - v_lo) * dv


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


def _record(rep: SuiteReport, key: str, res, pos: np.ndarray, fail):
    """Note the minimum of each slack of a check's result at positions ``pos`` of a slice, and
    record each trial where a verdict fails through ``fail(position, check, **fields)``."""
    if isinstance(res, (ChainReport, ops.OperatorChainReport)):  # links 1, 2, ... of a chain
        field_, slacks = ("slacks", res.slacks) if isinstance(res, ChainReport) else \
            ("margins", tuple(verdict.margin for verdict in res.verdicts))
        verdicts = [(key, dict(enumerate(slacks, start=1)), res.passed, {field_: slacks})]
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
        for k in np.flatnonzero(np.logical_not(passed)).tolist():
            extra = {field: [x.flat[k].item() for x in map(np.asarray, value)]
                     if isinstance(value, tuple) else np.broadcast_to(value, np.shape(passed))
                     .flat[k].item() for field, value in fields.items()}
            fail(pos[k], name, **extra)


def _check_slice(rep: SuiteReport, key: str, pos: np.ndarray, run, fail):
    """Check ``key`` at positions ``pos`` of a slice in one array call ``run(pos)``, and record
    its result.  Inputs are valid by construction, so a raise is a numeric failure: then each
    trial reruns alone through ``run``, and ``fail(position, key, error=...)`` records it if it
    raises.  This is every suite's evaluator, and ``_record`` its one recorder."""
    try:
        res = run(pos)
    except (ArithmeticError, ValueError) as exc:  # LinAlgError is a ValueError
        if len(pos) == 1:
            return fail(pos[0], key, error=str(exc))
        for one in pos[:, None]:
            _check_slice(rep, key, one, run, fail)
        return
    _record(rep, key, res, pos, fail)


def _array_call(key: str, draws: tuple, tol: float, terms: dict, pos: np.ndarray):
    """Check ``key`` at positions ``pos`` of the slice's draws (index, a, b, v, specs) in one
    array call: on their (lo, hi, v), trial i taking ``specs[i % len(specs)]``, or on their
    (a, b, v) if it takes no f, reading chain terms from ``terms``, each built once per slice
    and position set."""
    module, producer, takes_f, _, reads = CHECKS[key]
    index, a, b, v, specs = draws
    arrays = lambda: (np.minimum(a[pos], b[pos]), np.maximum(a[pos], b[pos]), v[pos]) \
        if takes_f else (a[pos], b[pos], v[pos])  # made only if a call takes them
    if reads is None:
        return getattr(module, producer)(*arrays(), tol=tol)
    at = (reads[0], pos.tobytes())
    if at not in terms:  # with f, the specs and an index into them per trial
        fs = (specs, index[pos] % len(specs)) if takes_f else ()
        terms[at] = getattr(module, reads[0])(*fs, *arrays())
    return getattr(module, reads[1])(terms[at], tol)


def _run_trials(suite: str, cfg: SuiteConfig, start, count, keys, oriented: bool):
    """Trial loop shared by the scalar and bounds suites.

    Trial i draws (a, b, v) and takes the builtin ``cfg.functions[i % n]``; its
    failure inputs hold the drawn (a, b), or (lo, hi) when ``oriented``.  Each
    check in ``keys`` runs once over the slice, whatever builtins its trials take,
    leaving out trials with b - a < MIN_GAP if it needs a < b.
    """
    t0 = time.perf_counter()
    trials = _slice(cfg.trials, start, count)
    index = np.arange(trials.start, trials.stop)
    a, b, v = _replay(cfg, index)
    a, b = (np.minimum(a, b), np.maximum(a, b)) if oriented else (a, b)
    specs = tuple(map(cvx.get_builtin, cfg.functions))
    rep = SuiteReport(suite, cfg.seed, len(index), draws="splitmix64")
    fail = lambda p, check, **extra: rep._fail(int(index[p]), check, {  # with trial p's draws
        "a": a[p].item(), "b": b[p].item(), "v": v[p].item(),
        "f": specs[index[p] % len(specs)].name}, **extra)
    # every position, or those without b - a < MIN_GAP for a check that needs a < b
    positions = (np.arange(len(index)), np.flatnonzero(np.abs(b - a) >= MIN_GAP))
    terms = {}  # the chain terms built in this slice, shared by the checks that read them
    with np.errstate(all="ignore"):  # non-finite numbers raise where they are checked
        for key in keys:
            pos = positions[CHECKS[key][3]]
            if len(pos):
                run = functools.partial(_array_call, key, (index, a, b, v, specs), cfg.tol, terms)
                _check_slice(rep, key, pos, run, fail)
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


def _spd_stack(gauss: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Q diag(10^exps) Q^T from each Gaussian matrix: one stacked QR, signs so diag(R) > 0."""
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return ops._sym((q * 10.0 ** exps[..., None, :]) @ q.swapaxes(-1, -2))


def random_spd(rng, dim: int, log10_cond_half: float = 2.0) -> ops.SpdMatrix:
    """Random SPD matrix Q diag(lambda) Q^T with log-uniform spectrum, from ``rng``'s normals
    and uniforms.  Eigenvalues are drawn from 10^U(-c, c) with c = log10_cond_half, so the
    condition number ranges up to 10^(2c).  No suite calls it: the operator suite draws its
    pairs as stacks (``_operator_draws``)."""
    gauss, c = rng.standard_normal((dim, dim)), log10_cond_half
    return ops.SpdMatrix._by_construction(_spd_stack(gauss, rng.uniform(-c, c, dim)))


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


def _operator_draws(cfg: SuiteConfig, dim: int, block) -> tuple:
    """(index, A, B, v) of trials ``block``, all of dimension ``dim``: trial i reads the first
    2 dim^2 + 2 dim + 1 of its doubles, SplitMix64 outputs i K + k + 1, K = 2 D^2 + 2 D + 1 for
    D = max(cfg.dims).  Doubles u1, u2 at j and dim^2 + j (j < dim^2) give entry j of A's and
    B's Gaussian, r cos(2 pi u2) and r sin(2 pi u2), r = sqrt(-2 log1p(-u1)) (Box-Muller); the
    next dim doubles give A's exponents -2 + 4u, the next dim B's, then v's."""
    index = np.fromiter(block, np.int64)
    n, sq, top = len(index), dim * dim, max(cfg.dims)
    first = index.astype(np.uint64)[:, None] * np.uint64(2 * top * (top + 1) + 1) + np.uint64(1)
    u = _uniform(cfg.seed, first + np.arange(2 * sq + 2 * dim + 1, dtype=np.uint64))
    r, angle = np.sqrt(-2.0 * np.log1p(-u[:, :sq])), 2.0 * np.pi * u[:, sq:2 * sq]
    gauss = np.stack([r * np.cos(angle), r * np.sin(angle)]).reshape(2, n, dim, dim)
    exps = -2.0 + 4.0 * u[:, 2 * sq:2 * sq + 2 * dim].reshape(n, 2, dim).swapaxes(0, 1)
    v_lo, v_hi = map(float, cfg.v_range)
    return index, *_spd_stack(gauss, exps), v_lo + (v_hi - v_lo) * u[:, 2 * sq + 2 * dim]


def run_operator_suite(cfg: SuiteConfig, start: int = 0, count=None) -> SuiteReport:
    """Operator chains on random SPD pairs for every configured dimension,
    plus the representing-function and helper-inequality grids.

    Each dimension's trials in a slice run as one stack: one stacked QR builds the SPD pairs,
    and one operator_chain call, whatever their number, gives one report of margins.  As in the
    other suites, ``_check_slice`` makes that call and reruns each trial alone if it raises.
    The grid checks run once, with trial 0's slice.
    """
    t0 = time.perf_counter()
    indices = _slice(cfg.trials * len(cfg.dims), start, count)
    rep = SuiteReport("operator", cfg.seed, len(indices), draws="splitmix64")
    for dim, block in itertools.groupby(indices, lambda i: cfg.dims[i // cfg.trials]):
        index, a, b, v = _operator_draws(cfg, dim, block)
        run = lambda p: ops.operator_chain(  # SPD by construction: the solves decide positivity
            *(ops.SpdMatrix._by_construction(m[p]) for m in (a, b)), v[p], tol=cfg.op_tol)
        fail = lambda p, check, **extra: rep._fail(index[p].item(), check, dict(
            dim=dim, v=v[p].item(), A=a[p].tolist(), B=b[p].tolist()), **extra)
        _check_slice(rep, "op_chain", np.arange(len(index)), run, fail)
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
