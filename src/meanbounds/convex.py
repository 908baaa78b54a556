"""Refinement chains for convex functions on an interval, array-first.

The weight v splits [a, b] at the node n = a + v(b - a).  Around the
v-weighted average of the two subinterval integral means sit two cheap
quadrature estimates (midpoint- and trapezoid-style), and around those sit
sharpened corrections built from the convexity gap

    gap(a, b, v) = (1-v) f(a) + v f(b) - f((1-v) a + v b) >= 0.

The full seven-term chain evaluated by :func:`chain_eval` is

    f(node) <= sharp_lower <= midpoint_estimate <= split_integral_avg
            <= trapezoid_estimate <= sharp_upper <= endpoint_average.

Every function broadcasts over ``a``, ``b`` and ``v``, and scalar arguments
are the 0-d case: they give floats, and one result (a report) of floats where
arrays give one of arrays.  A bad point raises as it would alone.  The builtins
have numpy closed-form split averages and are convex by proof; any other spec
integrates point by point and ``chain_eval`` spot-checks its convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import NonFiniteIntegrandError, QuadConfig, integrate
from .reports import ChainReport
from .scalar import _float_if_0d, check_weight

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
    exp_a, exp_b = np.exp(a), np.exp(b)
    if not np.isfinite(exp_b).all():  # K = M = e^b is out of range: math.exp's error
        raise OverflowError("math range error")
    return exp_b, exp_a, exp_b


def _neg_log_bounds(a, b):
    return 1.0 / a, 1.0 / (b * b), 1.0 / (a * a)


def _square_bounds(a, b):
    return 2.0 * np.maximum(abs(a), abs(b)), 2.0, 2.0


def _quartic_bounds(a, b):
    m = np.where((a < 0.0) & (0.0 < b), 0.0, 12.0 * np.minimum(a * a, b * b))
    return 4.0 * np.power(np.maximum(abs(a), abs(b)), 3.0), m, 12.0 * np.maximum(a * a, b * b)


def _xlogx_bounds(a, b):
    return np.maximum(abs(np.log(a) + 1.0), abs(np.log(b) + 1.0)), 1.0 / b, 1.0 / a


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
    log_q = np.log(q)
    h = log_q - np.log(p)
    return 1.0 - log_q - np.where(h > 0.0, h * np.exp(-h) / -np.expm1(-h), 1.0)


def _scaled(degree, form):
    # the average ``form`` of t**degree on p and q divided by 2**e, e the exponent of the
    # larger end, times 2**(degree e): exact, and finite wherever the average is representable
    def average(p, q):
        e = np.frexp(np.maximum(abs(p), abs(q)))[1]
        return np.ldexp(form(np.ldexp(p, -e), np.ldexp(q, -e)), degree * e)

    return average


# Exact integral averages over [p, q], p < q, of the builtins, matched to a spec by
# the identity of its fn (a spec whose fn has been replaced integrates instead)
_AVERAGES = {
    id(BUILTINS["exp"].fn): lambda p, q: np.exp(q) * -np.expm1(p - q) / (q - p),
    id(BUILTINS["neg-log"].fn): _neg_log_avg,
    id(BUILTINS["square"].fn): _scaled(2, lambda p, q: (p * p + p * q + q * q) / 3.0),
    id(BUILTINS["quartic"].fn): _scaled(4, lambda p, q: (  # (p^4 + p^3 q + ... + q^4) / 5
        (p * p + q * q) * (p * p + p * q + q * q) - p * p * q * q
    ) / 5.0),
    id(BUILTINS["xlogx"].fn): lambda p, q: (
        0.5 * (q * np.log(q) - p * _neg_log_avg(p, q)) - 0.25 * (q - p)
    ),
}


def get_builtin(name: str) -> ConvexFnSpec:
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin function {name!r}; choose from {sorted(BUILTINS)}")


def _interval(f: ConvexFnSpec, a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as float arrays, checked finite and inside f's domain."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _check_ends(f, a, b, a.min(), a.max(), b.min(), b.max())


def _check_ends(f: ConvexFnSpec, a, b, *ends):
    # ends: the extremes of a and b, NaN if a point is NaN
    if not all(map(math.isfinite, ends)):
        raise ValueError("interval endpoints must be finite")
    if not f.contains(min(ends), max(ends)):
        raise ValueError(f"[{a}, {b}] not inside the domain of {f.name!r}")
    return a, b


def require_ordered_interval(f: ConvexFnSpec, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Reject [a, b] unless a < b, both ends are finite and inside f's domain;
    return a and b as float arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (a < b).all():
        raise ValueError(f"need a < b, got ({a}, {b})")
    return _check_ends(f, a, b, a.min(), b.max())  # with a < b, the extremes of both


def convexity_violation(f: ConvexFnSpec, a, b, samples: int = 33):
    """Worst midpoint-convexity violation f((x+y)/2) - (f(x)+f(y))/2 on a grid.

    Nonpositive (up to roundoff) for a convex function.  The returned value
    is not normalized; compare against CONVEXITY_REJECT * max(1, |f|).
    """
    a, b = _interval(f, a, b)
    xs = np.linspace(np.minimum(a, b), np.maximum(a, b), samples)
    fx = np.asarray(f.fn(xs), dtype=float)
    mids = np.asarray(f.fn(0.5 * (xs[:, None] + xs[None, :])), dtype=float)
    return _float_if_0d(np.max(mids - 0.5 * (fx[:, None] + fx[None, :]), axis=(0, 1)))


def _central_difference(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """Central-difference estimate of fn' at xs, step cbrt(eps) * max(1, |x|)."""
    h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(xs))
    return (np.asarray(fn(xs + h), float) - np.asarray(fn(xs - h), float)) / (2.0 * h)


def _fn_scale(f: ConvexFnSpec, a, b, samples: int = 9):
    # max(1, max |f|) on the grid; a NaN sample is passed over, as by max(1, nan)
    xs = np.linspace(np.minimum(a, b), np.maximum(a, b), samples)
    return np.fmax(1.0, np.max(np.abs(np.asarray(f.fn(xs), dtype=float)), axis=0))


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


def node_point(a, b, v):
    return a + v * (b - a)


class _Terms:
    """f at the seven chain points of each point (n = node_point(a, b, v), m1 and m2
    the midpoints of [a, n] and [n, b]) and the chain terms, each made when first read."""

    def __init__(self, v, fx):
        # f at a, b, n, m1, m2, (a + b) / 2 and (m1 + m2) / 2
        self.v, (self.fa, self.fb, self.node, self.f1, self.f2, self.fh, self.fmh) = v, fx

    low = cached_property(lambda t: np.minimum(t.v, 1.0 - t.v))  # the smaller split weight
    high = cached_property(lambda t: np.maximum(t.v, 1.0 - t.v))
    endpoints = cached_property(lambda t: (1.0 - t.v) * t.fa + t.v * t.fb)
    midpoint = cached_property(lambda t: (1.0 - t.v) * t.f1 + t.v * t.f2)
    trapezoid = cached_property(lambda t: 0.5 * (t.endpoints + t.node))
    gap = cached_property(lambda t: t.endpoints - t.node)  # convexity gap(a, b, v)
    half_gap = cached_property(lambda t: 0.5 * t.fa + 0.5 * t.fb - t.fh)  # gap(a, b, 1/2)
    split_gap = cached_property(lambda t: 0.5 * t.f1 + 0.5 * t.f2 - t.fmh)  # gap(m1, m2, 1/2)

    def lower(self, weight):
        return self.node + 2.0 * weight * self.split_gap

    def upper(self, weight):
        return self.endpoints - weight * self.half_gap


def _stack(*xs) -> np.ndarray:
    # the arrays stacked on a new first axis (broadcast first only if their shapes differ)
    if len({getattr(x, "shape", ()) for x in xs}) > 1:
        xs = np.broadcast_arrays(*xs)
    return np.array(xs)


def _terms(f: ConvexFnSpec, a, b, v, check: bool = True) -> _Terms:
    """Check [a, b], then v (unless the caller has), and evaluate f once at the
    seven chain points of every point."""
    if check:
        a, b = _interval(f, a, b)
        v = check_weight(v)
    n = node_point(a, b, v)
    m1 = node_point(a, b, v / 2.0)
    m2 = node_point(a, b, (1.0 + v) / 2.0)
    points = _stack(a, b, n, m1, m2, node_point(a, b, 0.5), node_point(m1, m2, 0.5))
    return _Terms(v, np.asarray(f.fn(points), dtype=float))


def endpoint_average(f: ConvexFnSpec, a, b, v):
    """(1-v) f(a) + v f(b), the outermost chain term."""
    return _float_if_0d(_terms(f, a, b, v).endpoints)


def midpoint_estimate(f: ConvexFnSpec, a, b, v):
    """Weighted midpoint-rule estimate of the split integral average.

    Evaluates f at the midpoints of [a, n] and [n, b] and mixes with
    weights (1-v, v); a lower bound for convex f.
    """
    return _float_if_0d(_terms(f, a, b, v).midpoint)


def trapezoid_estimate(f: ConvexFnSpec, a, b, v):
    """Weighted trapezoid-rule estimate, ((1-v) f(a) + v f(b) + f(n)) / 2."""
    return _float_if_0d(_terms(f, a, b, v).trapezoid)


def split_integral_avg(f: ConvexFnSpec, a, b, v, quad: QuadConfig | None = None):
    """v-weighted mix of the integral averages of f over [a, n] and [n, b].

    A builtin takes them from its exact closed form (a piece of zero length
    from f at its point).  Any other f integrates int_0^1 f(a + v (b-a) t) dt
    and int_0^1 f(n + (1-v)(b-a) t) dt, which confirms the change of variables
    independently.  A non-finite result raises NonFiniteIntegrandError.
    """
    v = check_weight(v)
    a, b = require_ordered_interval(f, a, b)
    n = node_point(a, b, v)
    avg = _AVERAGES.get(id(f.fn))
    with np.errstate(all="ignore"):  # non-finite values raise below; masked ones go unused
        if avg is None:  # quadrature, one point at a time
            pieces = np.vectorize(lambda x, y, w, m: (
                integrate(lambda t: f.fn(x + w * (y - x) * t), 0.0, 1.0, quad),
                integrate(lambda t: f.fn(m + (1.0 - w) * (y - x) * t), 0.0, 1.0, quad),
            ), otypes=(float, float))(a, b, v, n)
        else:  # [a, n] and [n, b] stacked
            p, q = _stack(a, n, n, b).reshape(2, 2, *np.shape(n))
            pieces = np.where(p < q, avg(p, q), f.fn(p))
        # a piece of weight 0 (v at 0 or 1) is left out, so its overflow cannot poison the mix
        weights = _stack(1.0 - v, v, n)[:2]  # with n, so that they take its shape
        first, second = np.where(weights > 0.0, weights * pieces, 0.0)
        value = first + second
    if not np.isfinite(value).all():
        raise NonFiniteIntegrandError("integrand returned non-finite values")
    return _float_if_0d(value)


def convexity_gap(f: ConvexFnSpec, a, b, v):
    """(1-v) f(a) + v f(b) - f((1-v) a + v b); nonnegative for convex f."""
    return _float_if_0d(_terms(f, a, b, v).gap)


def sharp_lower(f: ConvexFnSpec, a, b, v):
    """f(node) plus twice the min-weight half-gap of the split midpoints.

    Sits between f(node) and the midpoint estimate.
    """
    t = _terms(f, a, b, check_weight(v))
    return _float_if_0d(t.lower(t.low))


def sharp_upper(f: ConvexFnSpec, a, b, v):
    """Endpoint average minus the min-weight half-gap of (a, b).

    Sits between the trapezoid estimate and the endpoint average.
    """
    t = _terms(f, a, b, check_weight(v))
    return _float_if_0d(t.upper(t.low))


def maxweight_lower(f: ConvexFnSpec, a, b, v):
    """sharp_lower with the larger split weight; dominates midpoint_estimate."""
    t = _terms(f, a, b, check_weight(v))
    return _float_if_0d(t.lower(t.high))


def maxweight_upper(f: ConvexFnSpec, a, b, v):
    """sharp_upper with the larger split weight; sits below trapezoid_estimate.

    maxweight_lower and maxweight_upper carry no mutual ordering; the
    difference changes sign between instances.
    """
    t = _terms(f, a, b, check_weight(v))
    return _float_if_0d(t.upper(t.high))


def chain_eval(f: ConvexFnSpec, a, b, v, quad: QuadConfig | None = None,
               tol: float = 1e-9) -> ChainReport:
    """Evaluate the seven-term refinement chain on [a, b].

    Requires a < b.  A builtin is convex by proof; any other f gets a
    convexity spot check on [a, b], and on violation the report is still
    produced but flagged ``certified=False`` (per point for arrays).
    """
    c = split_integral_avg(f, a, b, v, quad)  # checks v, then a < b and the interval
    t = _terms(f, a, b, v)
    values = (t.node, t.lower(t.low), t.midpoint, c, t.trapezoid, t.upper(t.low), t.endpoints)
    certified = id(f.fn) in _AVERAGES or (
        convexity_violation(f, a, b, samples=17) <= CONVEXITY_REJECT * _fn_scale(f, a, b)
    )
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


def _result(cls, *fields):
    # numbers and a verdict: arrays, or floats and a bool at one point
    return cls(*fields) if np.ndim(fields[-1]) else cls(*map(float, fields[:-1]), bool(fields[-1]))


def gap_sandwich_check(f: ConvexFnSpec, a, b, v, tol: float = 1e-9) -> SandwichResult:
    """Two-sided weight interpolation of the convexity gap.

    2 min(v,1-v) gap(a,b,1/2) <= gap(a,b,v) <= 2 max(v,1-v) gap(a,b,1/2).
    """
    t = _terms(f, a, b, v)
    lhs, rhs = 2.0 * t.low * t.half_gap, 2.0 * t.high * t.half_gap
    scale = reduce(np.maximum, (abs(lhs), abs(t.gap), abs(rhs), _fn_scale(f, a, b)))
    passed = ((lhs - tol * scale) <= t.gap) & (t.gap <= (rhs + tol * scale))
    return _result(SandwichResult, lhs, t.gap, rhs, passed)


def refined_gap_check(f: ConvexFnSpec, a, b, v, tol: float = 1e-9) -> RefinedGapResult:
    """Sharper lower bound on the convexity gap.

    gap(a,b,v) >= min(v,1-v) * (gap(a,b,1/2) + 2 gap(m1,m2,1/2)) >= 0,
    with m1, m2 the midpoints of the two split subintervals.
    """
    t = _terms(f, a, b, check_weight(v))
    rhs = t.low * (t.half_gap + 2.0 * t.split_gap)
    scale = reduce(np.maximum, (abs(t.gap), abs(rhs), _fn_scale(f, a, b)))
    passed = (t.gap >= rhs - tol * scale) & (rhs >= -tol * scale)
    return _result(RefinedGapResult, t.gap, rhs, passed)
