"""Refinement chains for convex functions on an interval.

The weight v splits [a, b] at the node n = a + v(b - a).  Around the
v-weighted average of the two subinterval integral means sit two cheap
quadrature estimates (midpoint- and trapezoid-style), and around those sit
sharpened corrections built from the convexity gap

    gap(a, b, v) = (1-v) f(a) + v f(b) - f((1-v) a + v b) >= 0.

The full seven-term chain evaluated by :func:`chain_eval` is

    f(node) <= sharp_lower <= midpoint_estimate <= split_integral_avg
            <= trapezoid_estimate <= sharp_upper <= endpoint_average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import NonFiniteIntegrandError, QuadConfig, integrate
from .reports import ChainReport
from .scalar import check_weight, max_weight, min_weight

HH_CHAIN_LABELS = (
    "node_value",
    "sharp_lower",
    "midpoint_estimate",
    "integral_avg",
    "trapezoid_estimate",
    "sharp_upper",
    "endpoint_avg",
)

# violation threshold for the convexity spot check, relative to max(1, |f|)
CONVEXITY_REJECT = 1e-9


class ConvexityError(ValueError):
    pass


@dataclass(frozen=True)
class ConvexFnSpec:
    """A convex function with optional derivatives and derivative bounds.

    ``fn`` (and the derivatives, when given) must accept scalars and
    ndarrays alike.  ``domain`` is the open interval on which convexity is
    claimed.  ``exact_bounds`` maps an interval (a, b) to exact (K, m, M)
    and is set for the builtins.
    """

    name: str
    fn: Callable
    deriv1: Callable | None = None
    deriv2: Callable | None = None
    domain: tuple[float, float] = (-math.inf, math.inf)
    exact_bounds: Callable[[float, float], tuple[float, float, float]] | None = None

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty domain {self.domain}")

    def contains(self, a: float, b: float) -> bool:
        lo, hi = self.domain
        return lo < min(a, b) and max(a, b) < hi


def _exp_bounds(a, b):
    return math.exp(b), math.exp(a), math.exp(b)


def _neg_log_bounds(a, b):
    return 1.0 / a, 1.0 / (b * b), 1.0 / (a * a)


def _square_bounds(a, b):
    return 2.0 * max(abs(a), abs(b)), 2.0, 2.0


def _quartic_bounds(a, b):
    m = 0.0 if a < 0.0 < b else 12.0 * min(a * a, b * b)
    return 4.0 * max(abs(a), abs(b)) ** 3, m, 12.0 * max(a * a, b * b)


def _xlogx_bounds(a, b):
    return max(abs(math.log(a) + 1.0), abs(math.log(b) + 1.0)), 1.0 / b, 1.0 / a


BUILTINS: dict[str, ConvexFnSpec] = {
    "exp": ConvexFnSpec("exp", np.exp, np.exp, np.exp, exact_bounds=_exp_bounds),
    "neg-log": ConvexFnSpec(
        "neg-log",
        lambda t: -np.log(t),
        lambda t: -1.0 / np.asarray(t, dtype=float),
        lambda t: 1.0 / np.square(np.asarray(t, dtype=float)),
        domain=(0.0, math.inf),
        exact_bounds=_neg_log_bounds,
    ),
    "square": ConvexFnSpec(
        "square",
        lambda t: np.square(np.asarray(t, dtype=float)),
        lambda t: 2.0 * np.asarray(t, dtype=float),
        lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
        exact_bounds=_square_bounds,
    ),
    "quartic": ConvexFnSpec(
        "quartic",
        lambda t: np.asarray(t, dtype=float) ** 4,
        lambda t: 4.0 * np.asarray(t, dtype=float) ** 3,
        lambda t: 12.0 * np.square(np.asarray(t, dtype=float)),
        exact_bounds=_quartic_bounds,
    ),
    "xlogx": ConvexFnSpec(
        "xlogx",
        lambda t: np.asarray(t, dtype=float) * np.log(t),
        lambda t: np.log(t) + 1.0,
        lambda t: 1.0 / np.asarray(t, dtype=float),
        domain=(0.0, math.inf),
        exact_bounds=_xlogx_bounds,
    ),
}


def _neg_log_avg(p, q):
    # -log I(p, q), I the identric mean; h / expm1(h) = 1 / L(1, e^h), L the logarithmic mean
    h = math.log(q) - math.log(p)
    return 1.0 - math.log(q) - (h * math.exp(-h) / -math.expm1(-h) if h > 0.0 else 1.0)


# Exact integral averages over [p, q], p < q, of the builtins, matched to a spec by
# the identity of its fn (a spec whose fn has been replaced integrates instead)
_AVERAGES = {
    id(BUILTINS["exp"].fn): lambda p, q: float(np.exp(q)) * -math.expm1(p - q) / (q - p),
    id(BUILTINS["neg-log"].fn): _neg_log_avg,
    id(BUILTINS["square"].fn): lambda p, q: (p * p + p * q + q * q) / 3.0,
    id(BUILTINS["quartic"].fn): lambda p, q: (  # (p^4 + p^3 q + ... + q^4) / 5
        (p * p + q * q) * (p * p + p * q + q * q) - p * p * q * q
    ) / 5.0,
    id(BUILTINS["xlogx"].fn): lambda p, q: (
        0.5 * (q * math.log(q) - p * _neg_log_avg(p, q)) - 0.25 * (q - p)
    ),
}


def get_builtin(name: str) -> ConvexFnSpec:
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin function {name!r}; choose from {sorted(BUILTINS)}")


def _require_interval(f: ConvexFnSpec, a: float, b: float):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if not f.contains(a, b):
        raise ValueError(f"[{a}, {b}] not inside the domain of {f.name!r}")


def require_ordered_interval(f: ConvexFnSpec, a: float, b: float):
    """Reject [a, b] unless a < b, both ends are finite and inside f's domain."""
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    _require_interval(f, a, b)


def convexity_violation(f: ConvexFnSpec, a: float, b: float, samples: int = 33) -> float:
    """Worst midpoint-convexity violation f((x+y)/2) - (f(x)+f(y))/2 on a grid.

    Nonpositive (up to roundoff) for a convex function.  The returned value
    is not normalized; compare against CONVEXITY_REJECT * max(1, |f|).
    """
    _require_interval(f, a, b)
    xs = np.linspace(min(a, b), max(a, b), samples)
    fx = np.asarray(f.fn(xs), dtype=float)
    mids = np.asarray(f.fn(0.5 * (xs[:, None] + xs[None, :])), dtype=float)
    return float(np.max(mids - 0.5 * (fx[:, None] + fx[None, :])))


def _central_difference(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """Central-difference estimate of fn' at xs, step cbrt(eps) * max(1, |x|)."""
    h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(xs))
    return (np.asarray(fn(xs + h), float) - np.asarray(fn(xs - h), float)) / (2.0 * h)


def _fn_scale(f: ConvexFnSpec, a: float, b: float, samples: int = 9) -> float:
    xs = np.linspace(min(a, b), max(a, b), samples)
    return max(1.0, float(np.max(np.abs(np.asarray(f.fn(xs), dtype=float)))))


def make_convex_fn(
    name: str,
    fn: Callable,
    deriv1: Callable | None = None,
    deriv2: Callable | None = None,
    domain: tuple[float, float] = (-math.inf, math.inf),
    check_interval: tuple[float, float] | None = None,
    samples: int = 33,
) -> ConvexFnSpec:
    """Wrap a user-supplied function, spot-checking convexity on a sample grid.

    Raises ConvexityError when midpoint convexity is violated by more than
    CONVEXITY_REJECT relative to the sampled function scale, and ValueError
    when a supplied first derivative disagrees with central differences.
    """
    spec = ConvexFnSpec(name, fn, deriv1, deriv2, domain)
    if check_interval is None:
        lo, hi = domain
        span_lo = -20.0 if lo == -math.inf else lo + 1e-6 * (1.0 + abs(lo))
        span_hi = 20.0 if hi == math.inf else hi - 1e-6 * (1.0 + abs(hi))
        check_interval = (span_lo, max(span_hi, span_lo + 1e-3))
    a, b = check_interval
    viol = convexity_violation(spec, a, b, samples)
    if viol > CONVEXITY_REJECT * _fn_scale(spec, a, b):
        raise ConvexityError(
            f"{name!r} violates midpoint convexity on [{a}, {b}] by {viol:.3e}"
        )
    if deriv1 is not None:
        xs = np.linspace(a, b, samples)
        d1 = np.asarray(deriv1(xs), dtype=float)
        denom = np.maximum(1.0, np.abs(d1))
        if np.max(np.abs(_central_difference(fn, xs) - d1) / denom) > 1e-6:
            raise ValueError(f"deriv1 of {name!r} disagrees with finite differences")
    return spec


def node_point(a: float, b: float, v: float) -> float:
    return a + v * (b - a)


class _Terms(NamedTuple):
    node: float  # f(n), n = node_point(a, b, v)
    midpoint: float
    trapezoid: float
    endpoints: float
    gap: float  # convexity gap(a, b, v)
    half_gap: float  # gap(a, b, 1/2)
    split_gap: float  # gap(m1, m2, 1/2), m1 and m2 the midpoints of [a, n] and [n, b]

    def lower(self, weight: float) -> float:
        return self.node + 2.0 * weight * self.split_gap

    def upper(self, weight: float) -> float:
        return self.endpoints - weight * self.half_gap


def _terms(f: ConvexFnSpec, a: float, b: float, v: float) -> _Terms:
    """Check [a, b], then v, and evaluate f once at all seven chain points."""
    _require_interval(f, a, b)
    v = check_weight(v)
    n = node_point(a, b, v)
    m1 = node_point(a, b, v / 2.0)
    m2 = node_point(a, b, (1.0 + v) / 2.0)
    points = np.array([a, b, n, m1, m2, node_point(a, b, 0.5), node_point(m1, m2, 0.5)])
    fa, fb, fn, f1, f2, fh, fmh = np.asarray(f.fn(points), dtype=float).tolist()
    ends = (1.0 - v) * fa + v * fb
    return _Terms(
        fn, (1.0 - v) * f1 + v * f2, 0.5 * (ends + fn), ends, ends - fn,
        0.5 * fa + 0.5 * fb - fh, 0.5 * f1 + 0.5 * f2 - fmh,
    )


def endpoint_average(f: ConvexFnSpec, a: float, b: float, v: float) -> float:
    """(1-v) f(a) + v f(b), the outermost chain term."""
    return _terms(f, a, b, v).endpoints


def midpoint_estimate(f: ConvexFnSpec, a: float, b: float, v: float) -> float:
    """Weighted midpoint-rule estimate of the split integral average.

    Evaluates f at the midpoints of [a, n] and [n, b] and mixes with
    weights (1-v, v); a lower bound for convex f.
    """
    return _terms(f, a, b, v).midpoint


def trapezoid_estimate(f: ConvexFnSpec, a: float, b: float, v: float) -> float:
    """Weighted trapezoid-rule estimate, ((1-v) f(a) + v f(b) + f(n)) / 2."""
    return _terms(f, a, b, v).trapezoid


def split_integral_avg(
    f: ConvexFnSpec, a: float, b: float, v: float, quad: QuadConfig | None = None
) -> float:
    """v-weighted mix of the integral averages of f over [a, n] and [n, b].

    A builtin takes them from its exact closed form (a piece of zero length
    from f at its point).  Any other f integrates int_0^1 f(a + v (b-a) t) dt
    and int_0^1 f(n + (1-v)(b-a) t) dt, which confirms the change of variables
    independently.  A non-finite result raises NonFiniteIntegrandError.
    """
    v = check_weight(v)
    require_ordered_interval(f, a, b)
    n = node_point(a, b, v)
    avg = _AVERAGES.get(id(f.fn))
    if avg is None:
        first = integrate(lambda t: f.fn(a + v * (b - a) * t), 0.0, 1.0, quad)
        second = integrate(lambda t: f.fn(n + (1.0 - v) * (b - a) * t), 0.0, 1.0, quad)
    else:
        first, second = (avg(p, q) if p < q else float(f.fn(p)) for p, q in ((a, n), (n, b)))
    # a piece of weight 0 (v at 0 or 1) is left out, so its overflow cannot poison the mix
    value = sum(w * x for w, x in ((1.0 - v, first), (v, second)) if w)
    if not math.isfinite(value):
        raise NonFiniteIntegrandError("integrand returned non-finite values")
    return value


def convexity_gap(f: ConvexFnSpec, a: float, b: float, v: float) -> float:
    """(1-v) f(a) + v f(b) - f((1-v) a + v b); nonnegative for convex f."""
    return _terms(f, a, b, v).gap


def sharp_lower(f: ConvexFnSpec, a: float, b: float, v: float) -> float:
    """f(node) plus twice the min-weight half-gap of the split midpoints.

    Sits between f(node) and the midpoint estimate.
    """
    return _terms(f, a, b, check_weight(v)).lower(min_weight(v))


def sharp_upper(f: ConvexFnSpec, a: float, b: float, v: float) -> float:
    """Endpoint average minus the min-weight half-gap of (a, b).

    Sits between the trapezoid estimate and the endpoint average.
    """
    return _terms(f, a, b, check_weight(v)).upper(min_weight(v))


def maxweight_lower(f: ConvexFnSpec, a: float, b: float, v: float) -> float:
    """sharp_lower with the larger split weight; dominates midpoint_estimate."""
    return _terms(f, a, b, check_weight(v)).lower(max_weight(v))


def maxweight_upper(f: ConvexFnSpec, a: float, b: float, v: float) -> float:
    """sharp_upper with the larger split weight; sits below trapezoid_estimate.

    maxweight_lower and maxweight_upper carry no mutual ordering; the
    difference changes sign between instances.
    """
    return _terms(f, a, b, check_weight(v)).upper(max_weight(v))


def chain_eval(
    f: ConvexFnSpec,
    a: float,
    b: float,
    v: float,
    quad: QuadConfig | None = None,
    tol: float = 1e-9,
) -> ChainReport:
    """Evaluate the seven-term refinement chain on [a, b].

    Requires a < b.  A convexity spot check runs on [a, b]; on violation
    the report is still produced but flagged ``certified=False``.
    """
    c = split_integral_avg(f, a, b, v, quad)  # checks v, then a < b and [a, b]
    t = _terms(f, a, b, v)
    w = min_weight(v)
    values = (t.node, t.lower(w), t.midpoint, c, t.trapezoid, t.upper(w), t.endpoints)
    viol = convexity_violation(f, a, b, samples=17)
    certified = viol <= CONVEXITY_REJECT * _fn_scale(f, a, b)
    return ChainReport.from_values(HH_CHAIN_LABELS, values, tol, certified=certified)


class SandwichResult(NamedTuple):
    lhs: float
    mid: float
    rhs: float
    passed: bool


class RefinedGapResult(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def gap_sandwich_check(
    f: ConvexFnSpec, a: float, b: float, v: float, tol: float = 1e-9
) -> SandwichResult:
    """Two-sided weight interpolation of the convexity gap.

    2 min(v,1-v) gap(a,b,1/2) <= gap(a,b,v) <= 2 max(v,1-v) gap(a,b,1/2).
    """
    t = _terms(f, a, b, v)
    lhs = 2.0 * min_weight(v) * t.half_gap
    rhs = 2.0 * max_weight(v) * t.half_gap
    scale = max(abs(lhs), abs(t.gap), abs(rhs), _fn_scale(f, a, b))
    passed = (lhs - tol * scale) <= t.gap <= (rhs + tol * scale)
    return SandwichResult(lhs, t.gap, rhs, passed)


def refined_gap_check(
    f: ConvexFnSpec, a: float, b: float, v: float, tol: float = 1e-9
) -> RefinedGapResult:
    """Sharper lower bound on the convexity gap.

    gap(a,b,v) >= min(v,1-v) * (gap(a,b,1/2) + 2 gap(m1,m2,1/2)) >= 0,
    with m1, m2 the midpoints of the two split subintervals.
    """
    t = _terms(f, a, b, check_weight(v))
    rhs = min_weight(v) * (t.half_gap + 2.0 * t.split_gap)
    scale = max(abs(t.gap), abs(rhs), _fn_scale(f, a, b))
    passed = t.gap >= rhs - tol * scale and rhs >= -tol * scale
    return RefinedGapResult(t.gap, rhs, passed)
