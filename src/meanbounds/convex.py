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
from functools import reduce
from typing import Callable

import numpy as np

from .quadrature import NonFiniteIntegrandError, QuadConfig, integrate
from .reports import ChainReport, GapBoundReport, PointCheck, check_result, require_finite
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
DERIV_GRID = 201  # sample points of the derivatives of a spec without exact bounds


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


def _interval(f: ConvexFnSpec, a, b, ordered=False) -> tuple[np.ndarray, np.ndarray]:
    """a and b as float arrays, checked finite and inside f's domain, and a < b if ``ordered``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if ordered and not (a < b).all():
        raise ValueError(f"need a < b, got ({a}, {b})")
    # the extremes of a and b (a.min and b.max if a < b), NaN if a point is NaN
    ends = (a.min(), b.max()) if ordered else (a.min(), a.max(), b.min(), b.max())
    if not all(map(math.isfinite, ends)):
        raise ValueError("interval endpoints must be finite")
    if not f.contains(min(ends), max(ends)):
        raise ValueError(f"[{a}, {b}] not inside the domain of {f.name!r}")
    return a, b


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


class _lazy:
    """An attribute made by ``make(obj)`` on first read and kept in the instance dict, which
    shadows this non-data descriptor from then on (as does a value set in __init__)."""

    def __init__(self, make):
        self.make = make

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.make(obj))


def _term(formula):
    # a chain term, made when first read: a float at one point, arrays otherwise
    return _lazy(lambda t: formula(t) if t.arrays else float(formula(t)))


class _Terms:
    """f at the seven chain points of each checked (a, b, v) (n = node_point(a, b, v), m1 and
    m2 the midpoints of [a, n] and [n, b]), f being ``fs[which]`` at each point (``which`` of
    the shape of a, b and v if there are several specs; each spec runs on its points alone);
    each chain term, the split integral average, f's scale, whether f is certified convex
    and, at a <= b, its (K, m, M) unless given, are made when first read."""

    def __init__(self, fs, which, a, b, v, quad: QuadConfig | None = None, bounds=None):
        self.fs, self.which, self.a, self.b, self.v, self.quad = fs, which, a, b, v, quad
        fx = self._each(_at_chain_points, a, b, v)
        # f at a, b, n, m1, m2, (a + b) / 2 and (m1 + m2) / 2
        self.fa, self.fb, self.node, self.f1, self.f2, self.fh, self.fmh = fx
        self.arrays = fx.ndim > 1
        if bounds is not None:
            self.bounds = bounds

    def _each(self, fn, *xs):
        # fn(f, *xs) for each spec f on the points that take it, put back point by point
        if len(self.fs) == 1:
            return fn(self.fs[0], *xs)
        return _gather([(at, fn(f, *(x[at] for x in xs))) for f, at in self.groups],
                       self.which.shape)

    # each spec that some point takes, with the mask of those points
    groups = _lazy(lambda t: [(f, at) for k, f in enumerate(t.fs) if (at := t.which == k).any()])
    low = _lazy(lambda t: np.minimum(t.v, 1.0 - t.v))  # the smaller split weight
    high = _lazy(lambda t: np.maximum(t.v, 1.0 - t.v))
    half_gap = _lazy(lambda t: 0.5 * t.fa + 0.5 * t.fb - t.fh)  # gap(a, b, 1/2)
    split_gap = _lazy(lambda t: 0.5 * t.f1 + 0.5 * t.f2 - t.fmh)  # gap(m1, m2, 1/2)
    endpoint_average = _term(lambda t: (1.0 - t.v) * t.fa + t.v * t.fb)
    midpoint_estimate = _term(lambda t: (1.0 - t.v) * t.f1 + t.v * t.f2)
    trapezoid_estimate = _term(lambda t: 0.5 * (t.endpoint_average + t.node))
    convexity_gap = _term(lambda t: t.endpoint_average - t.node)  # gap(a, b, v)
    sharp_lower = _term(lambda t: t.node + 2.0 * t.low * t.split_gap)
    sharp_upper = _term(lambda t: t.endpoint_average - t.low * t.half_gap)
    maxweight_lower = _term(lambda t: t.node + 2.0 * t.high * t.split_gap)
    maxweight_upper = _term(lambda t: t.endpoint_average - t.high * t.half_gap)
    fn_scale = _lazy(lambda t: t._each(_fn_scale, t.a, t.b))
    bounds = _lazy(lambda t: t._each(_derivative_bounds, t.a, t.b))
    average = _lazy(lambda t: t._each(lambda f, *abv: _split_avg(f, *abv, t.quad), t.a, t.b, t.v))
    # a builtin is convex by proof; any other f must pass a convexity spot check on [a, b]
    certified = _lazy(lambda t: t._each(lambda f, a, b: id(f.fn) in _AVERAGES or (
        convexity_violation(f, a, b, samples=17) <= CONVEXITY_REJECT * _fn_scale(f, a, b)
    ), t.a, t.b))


def _at_chain_points(f, a, b, v) -> np.ndarray:
    # f at a, b, n, m1, m2, (a + b) / 2 and (m1 + m2) / 2, stacked on a new first axis
    m1, m2 = node_point(a, b, v / 2.0), node_point(a, b, (1.0 + v) / 2.0)
    points = _stack(a, b, node_point(a, b, v), m1, m2, node_point(a, b, 0.5),
                    node_point(m1, m2, 0.5))
    return np.asarray(f.fn(points), dtype=float)


def _gather(parts, shape):
    # the (mask, value) parts as one array whose trailing axes have ``shape``; a tuple
    # value (the (K, m, M) of a spec) is stacked on a new first axis
    values = [_stack(*value) if isinstance(value, tuple) else value for _, value in parts]
    out = np.empty(np.shape(values[0])[:-1] + shape, np.result_type(*values))
    for (at, _), value in zip(parts, values):
        out[..., at] = value
    return out


def _stack(*xs) -> np.ndarray:
    # the arrays stacked on a new first axis (broadcast first only if their shapes differ)
    if len({getattr(x, "shape", ()) for x in xs}) > 1:
        xs = np.broadcast_arrays(*xs)
    return np.array(xs)


def chain_terms(f: ConvexFnSpec, a, b, v) -> _Terms:
    """The chain terms at (a, b, v), from one evaluation of f at the seven chain points.

    Checks v and then [a, b] (either order), and returns an object whose
    attributes ``endpoint_average``, ``midpoint_estimate`` (the weighted midpoint
    rule on [a, n] and [n, b]), ``trapezoid_estimate``, ``convexity_gap``,
    ``sharp_lower``, ``sharp_upper``, ``maxweight_lower`` and ``maxweight_upper``
    are floats at one point and arrays otherwise, each made when first read.
    The sharp terms add the min-weight half-gaps to f(n) and take them from the
    endpoint average; the max-weight terms use the larger split weight.  For
    convex f, maxweight_lower dominates the midpoint estimate and maxweight_upper
    sits below the trapezoid estimate, but the two carry no mutual ordering.
    """
    v = check_weight(v)
    return _Terms((f,), 0, *_interval(f, a, b), v)


def _ordered_terms(f: ConvexFnSpec, a, b, v, quad: QuadConfig | None = None) -> _Terms:
    # chain_terms on a < b, whose split average integrates with quad if f has no closed form
    v = check_weight(v)
    return _Terms((f,), 0, *_interval(f, a, b, ordered=True), v, quad)


def split_integral_avg(f: ConvexFnSpec, a, b, v, quad: QuadConfig | None = None):
    """v-weighted mix of the integral averages of f over [a, n] and [n, b].

    A builtin takes them from its exact closed form (a piece of zero length
    from f at its point).  Any other f integrates int_0^1 f(a + v (b-a) t) dt
    and int_0^1 f(n + (1-v)(b-a) t) dt, which confirms the change of variables
    independently.  A non-finite result raises NonFiniteIntegrandError.
    """
    v = check_weight(v)
    return _float_if_0d(_split_avg(f, *_interval(f, a, b, ordered=True), v, quad))


def _split_avg(f: ConvexFnSpec, a, b, v, quad):
    # split_integral_avg on checked v and a <= b (where a == b, a v-mix of f(a) with itself)
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
    return value


def _derivative_bounds(f: ConvexFnSpec, lo, hi) -> tuple:
    # bounds.derivative_bounds on an interval lo <= hi that the caller has checked
    with np.errstate(all="ignore"):  # a sampled bound that is not finite raises below
        if f.exact_bounds is not None:
            return tuple(map(_float_if_0d, f.exact_bounds(lo, hi)))
        xs = np.linspace(lo, hi, DERIV_GRID)
        if f.deriv1 is not None:
            d1 = np.asarray(f.deriv1(xs), dtype=float)
        else:
            d1 = _central_difference(f.fn, xs)
        if f.deriv2 is not None:
            d2 = np.asarray(f.deriv2(xs), dtype=float)
        else:
            h = np.finfo(float).eps ** 0.25 * np.maximum(1.0, np.abs(xs))
            d2 = (
                np.asarray(f.fn(xs + h), float)
                - 2.0 * np.asarray(f.fn(xs), float)
                + np.asarray(f.fn(xs - h), float)
            ) / (h * h)
        d1, d2, _ = np.broadcast_arrays(d1, d2, xs)  # a derivative may return a constant
        big_k, m_raw, m_big_raw = 1.01 * np.abs(d1).max(axis=0), d2.min(axis=0), d2.max(axis=0)
        bounds = (big_k, m_raw - 0.01 * abs(m_raw), m_big_raw + 0.01 * abs(m_big_raw))
    require_finite("derivative bounds are not finite", *bounds)
    return tuple(map(_float_if_0d, bounds))


def chain_eval(f: ConvexFnSpec, a, b, v, quad: QuadConfig | None = None,
               tol: float = 1e-9) -> ChainReport:
    """Evaluate the seven-term refinement chain on [a, b].

    Requires a < b.  A builtin is convex by proof; any other f gets a
    convexity spot check on [a, b], and on violation the report is still
    produced but flagged ``certified=False`` (per point for arrays).
    """
    return _chain_report(_ordered_terms(f, a, b, v, quad), tol)


def _chain_report(t: _Terms, tol) -> ChainReport:
    values = (t.node, t.sharp_lower, t.midpoint_estimate, t.average, t.trapezoid_estimate,
              t.sharp_upper, t.endpoint_average)
    return ChainReport.from_values(HH_CHAIN_LABELS, values, tol, certified=t.certified)


def gap_sandwich_check(f: ConvexFnSpec, a, b, v, tol: float = 1e-9) -> GapBoundReport:
    """Two-sided weight interpolation of the convexity gap, as the report ``convexity_gap``.

    2 min(v,1-v) gap(a,b,1/2) <= gap(a,b,v) <= 2 max(v,1-v) gap(a,b,1/2).
    """
    return _gap_sandwich(chain_terms(f, a, b, v), tol)


def _gap_sandwich(t: _Terms, tol) -> GapBoundReport:
    lower, upper, gap = 2.0 * t.low * t.half_gap, 2.0 * t.high * t.half_gap, t.convexity_gap
    scale = reduce(np.maximum, (abs(lower), abs(gap), abs(upper), t.fn_scale))
    return GapBoundReport.build("convexity_gap", gap, lower, upper, tol, scale)


def refined_gap_check(f: ConvexFnSpec, a, b, v, tol: float = 1e-9) -> PointCheck:
    """Sharper lower bound on the convexity gap.

    gap(a,b,v) >= min(v,1-v) * (gap(a,b,1/2) + 2 gap(m1,m2,1/2)) >= 0,
    with m1, m2 the midpoints of the two split subintervals.
    """
    return _refined_gap(chain_terms(f, a, b, v), tol)


def _refined_gap(t: _Terms, tol) -> PointCheck:
    rhs, gap = t.low * (t.half_gap + 2.0 * t.split_gap), t.convexity_gap
    scale = reduce(np.maximum, (abs(gap), abs(rhs), t.fn_scale))
    passed = (gap >= rhs - tol * scale) & (rhs >= -tol * scale)
    return check_result(gap, rhs, passed)
