"""Derivative-based reverses and two-sided refinements of the chain gaps.

For f with |f'| <= K on [a, b] both central gaps of the seven-term chain
are at most v(1-v) K (b-a)/2 (Theorem 3.2).  With m <= f'' <= M they are
sandwiched with constants m/6, M/6 (midpoint side) and m/3, M/3 (trapezoid
side) times v(1-v)((b-a)/2)^2 (Theorem 3.3).  The mean-level corollaries
are these theorems at f = exp on [log a, log b], whose split integral
average is L_v(a, b), and at f = -log on [a, b], where it is -log I_v(a, b).

Every function broadcasts over ``a``, ``b`` and ``v``; scalar arguments are the
0-d case, whose reports hold floats, and array reports hold arrays, per point.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import scalar as sc
from .convex import (
    ConvexFnSpec,
    _central_difference,
    _terms,
    get_builtin,
    require_ordered_interval,
    split_integral_avg,
)
from .quadrature import QuadConfig
from .reports import GapBoundReport

DERIV_GRID = 201
_EXP = get_builtin("exp")
_NEG_LOG = get_builtin("neg-log")
_GAP_NAMES = ("integral_minus_midpoint", "trapezoid_minus_integral")
_LOGMEAN_NAMES = ("logmean_minus_geommix", "avgmix_minus_logmean")
_IDENTRIC_NAMES = ("log_arithmix_minus_identric", "log_identric_minus_geomix")
_LOG_FLOOR = 1.0  # -log(x) at a rounded x is off by about eps, so log-domain scales stay >= 1


def derivative_bounds(f: ConvexFnSpec, a, b, allow_finite_differences: bool = True) -> tuple:
    """(K, m, M) = (sup |f'|, inf f'', sup f'') over [a, b].

    Uses the exact closed-form bounds for builtins; otherwise samples the
    derivatives (or finite differences of fn) on DERIV_GRID points and
    pads K and M up, m down, by 1% so downstream sandwich checks stay
    conservative.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if f.exact_bounds is not None:
        return tuple(map(sc._float_if_0d, f.exact_bounds(lo, hi)))
    xs = np.linspace(lo, hi, DERIV_GRID)
    if f.deriv1 is not None:
        d1 = np.asarray(f.deriv1(xs), dtype=float)
    elif allow_finite_differences:
        d1 = _central_difference(f.fn, xs)
    else:
        raise ValueError(f"{f.name!r} has no deriv1 and finite differences are disabled")
    if f.deriv2 is not None:
        d2 = np.asarray(f.deriv2(xs), dtype=float)
    elif allow_finite_differences:
        h = np.finfo(float).eps ** 0.25 * np.maximum(1.0, np.abs(xs))
        d2 = (
            np.asarray(f.fn(xs + h), float)
            - 2.0 * np.asarray(f.fn(xs), float)
            + np.asarray(f.fn(xs - h), float)
        ) / (h * h)
    else:
        raise ValueError(f"{f.name!r} has no deriv2 and finite differences are disabled")
    d1, d2, _ = np.broadcast_arrays(d1, d2, xs)  # a derivative may return a constant
    big_k, m_raw, m_big_raw = 1.01 * np.abs(d1).max(axis=0), d2.min(axis=0), d2.max(axis=0)
    bounds = (big_k, m_raw - 0.01 * abs(m_raw), m_big_raw + 0.01 * abs(m_big_raw))
    return tuple(map(sc._float_if_0d, bounds))


def _resolve_mM(f: ConvexFnSpec, a, b, m, M) -> tuple:
    if m is None or M is None:
        _, m_est, m_big_est = derivative_bounds(f, a, b)
    return (m_est if m is None else float(m)), (m_big_est if M is None else float(M))


def _check_oriented(a, b, v):
    v = sc.check_weight(v)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    sc.check_pair(a.min(), b.max())  # with a <= b below, every point is valid iff these are
    if not (a <= b).all():
        raise ValueError(f"these bounds require b >= a, got ({a}, {b})")
    return a, b, v


def trapezoid_gap_bounds(f: ConvexFnSpec, a, b, quad: QuadConfig | None = None,
                         m: float | None = None, M: float | None = None,
                         tol: float = 1e-9) -> GapBoundReport:
    """Two-sided bound on (f(a)+f(b))/2 minus the integral average."""
    a, b = require_ordered_interval(f, a, b)
    m, M = _resolve_mM(f, a, b, m, M)
    avg = split_integral_avg(f, a, b, 0.5, quad)
    ends = 0.5 * (f.fn(a) + f.fn(b))
    quarter = np.square((b - a) / 2.0)
    scale = reduce(np.maximum, (abs(avg), abs(ends), abs(m) * quarter, abs(M) * quarter))
    return GapBoundReport.build("trapezoid_gap", ends - avg, m / 3.0 * quarter,
                                M / 3.0 * quarter, tol, scale)


def midpoint_gap_bounds(f: ConvexFnSpec, a, b, quad: QuadConfig | None = None,
                        m: float | None = None, M: float | None = None,
                        tol: float = 1e-9) -> GapBoundReport:
    """Two-sided bound on the integral average minus f((a+b)/2)."""
    a, b = require_ordered_interval(f, a, b)
    m, M = _resolve_mM(f, a, b, m, M)
    avg = split_integral_avg(f, a, b, 0.5, quad)
    midv = f.fn(0.5 * (a + b))
    quarter = np.square((b - a) / 2.0)
    scale = reduce(np.maximum, (abs(avg), abs(midv), abs(m) * quarter, abs(M) * quarter))
    return GapBoundReport.build("midpoint_gap", avg - midv, m / 6.0 * quarter,
                                M / 6.0 * quarter, tol, scale)


def _central_gaps(f, a, b, v, quad, tol, names, windows, bound_scale):
    # a <= b, v and the derivative bounds already checked; one report per central gap
    t = _terms(f, a, b, v, check=False)
    ordered = a < b
    if ordered.all():
        c = split_integral_avg(f, a, b, v, quad)
    else:  # the split average is f(a) where a == b
        c, ordered = np.array(t.node), np.broadcast_to(ordered, np.shape(t.node))
        if ordered.any():
            points = (np.broadcast_to(x, ordered.shape)[ordered] for x in (a, b, v))
            c[ordered] = split_integral_avg(f, *points, quad)
    scale = reduce(np.maximum, (abs(c), abs(t.midpoint), abs(t.trapezoid), bound_scale))
    return tuple(
        GapBoundReport.build(name, gap, low, high, tol, scale)
        for name, gap, (low, high) in zip(names, (c - t.midpoint, t.trapezoid - c), windows)
    )


def _thm32(f, a, b, v, big_k, quad, tol, names=_GAP_NAMES, floor=0.0):
    bound = v * (1.0 - v) * big_k * (b - a) / 2.0
    return _central_gaps(
        f, a, b, v, quad, tol, names, ((0.0, bound),) * 2, np.maximum(bound, floor)
    )


def _thm33(f, a, b, v, m, M, quad, tol, names=_GAP_NAMES, floor=0.0):
    factor = v * (1.0 - v) * np.square((b - a) / 2.0)
    windows = ((m / 6.0 * factor, M / 6.0 * factor), (m / 3.0 * factor, M / 3.0 * factor))
    bound_scale = reduce(np.maximum, (abs(m) * factor, abs(M) * factor, floor))
    return _central_gaps(f, a, b, v, quad, tol, names, windows, bound_scale)


def deriv_gap_bounds(f: ConvexFnSpec, a, b, v, quad: QuadConfig | None = None,
                     K: float | None = None, tol: float = 1e-9) -> tuple[GapBoundReport, ...]:
    """K-bounds on the two central chain gaps (Theorem 3.2).

    Both split_integral_avg - midpoint_estimate and
    trapezoid_estimate - split_integral_avg lie in [0, v(1-v) K (b-a)/2].
    """
    v = sc.check_weight(v)
    a, b = require_ordered_interval(f, a, b)
    big_k = float(K) if K is not None else derivative_bounds(f, a, b)[0]
    return _thm32(f, a, b, v, big_k, quad, tol)


def curvature_gap_bounds(f: ConvexFnSpec, a, b, v, quad: QuadConfig | None = None,
                         m: float | None = None, M: float | None = None,
                         tol: float = 1e-9) -> tuple[GapBoundReport, ...]:
    """Two-sided curvature sandwiches for the two central chain gaps (Theorem 3.3)."""
    v = sc.check_weight(v)
    a, b = require_ordered_interval(f, a, b)
    return _thm33(f, a, b, v, *_resolve_mM(f, a, b, m, M), quad, tol)


def logmean_diff_reverse(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Difference-type reverses around the weighted logarithmic mean.

    Both gaps of the five-term scalar chain are at most
    v(1-v) b log(b/a) / 2; requires b >= a.
    """
    a, b, v = _check_oriented(a, b, v)
    return _thm32(_EXP, np.log(a), np.log(b), v, b, None, tol, _LOGMEAN_NAMES)


def logmean_diff_refinement(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Two-sided difference refinements around the weighted logarithmic mean.

    v(1-v) a log^2(b/a)/24 <= L - geommix <= v(1-v) b log^2(b/a)/24 and the
    analogous /12 sandwich for avgmix - L; requires b >= a.
    """
    a, b, v = _check_oriented(a, b, v)
    return _thm33(_EXP, np.log(a), np.log(b), v, a, b, None, tol, _LOGMEAN_NAMES)


def identric_ratio_reverse(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Ratio-type reverses around the weighted identric mean (log domain).

    With x = v(1-v)(b-a)/(2a):  arithmix <= e^x I_v and I_v <= e^x geomix;
    requires b >= a.  Gaps and bounds are reported on logarithms.
    """
    a, b, v = _check_oriented(a, b, v)
    return _thm32(_NEG_LOG, a, b, v, 1.0 / a, None, tol, _IDENTRIC_NAMES, _LOG_FLOOR)


def identric_ratio_refinement(
    a, b, v, tol: float = 1e-12
) -> tuple[GapBoundReport, GapBoundReport]:
    """Two-sided ratio refinements around the weighted identric mean.

    The log-gap to the arithmetic-node mix lies in
    [v(1-v)(b-a)^2/(24 b^2), v(1-v)(b-a)^2/(24 a^2)], and the log-gap to
    the geometric mix in the analogous /12 window; requires b >= a.
    """
    a, b, v = _check_oriented(a, b, v)
    m, M = 1.0 / (b * b), 1.0 / (a * a)
    return _thm33(_NEG_LOG, a, b, v, m, M, None, tol, _IDENTRIC_NAMES, _LOG_FLOOR)
