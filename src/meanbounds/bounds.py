"""Derivative-based reverses and two-sided refinements of the chain gaps.

For f with |f'| <= K on [a, b] both central gaps of the seven-term chain
are bounded above by v(1-v) K (b-a)/2.  With curvature bounds
m <= f'' <= M they are sandwiched two-sidedly with constants m/6, M/6
(midpoint side) and m/3, M/3 (trapezoid side) times ((b-a)/2)^2.
Specialized to f = exp and f = -log these become difference- and
ratio-type bounds around the weighted logarithmic and identric means.
"""

from __future__ import annotations

import math

import numpy as np

from .convex import (
    ConvexFnSpec,
    _central_difference,
    _terms,
    require_ordered_interval,
    split_integral_avg,
)
from .quadrature import QuadConfig, integrate
from .reports import GapBoundReport
from .scalar import (
    check_pair,
    check_weight,
    identric_chain_log_terms,
    log_chain_terms,
    log_weighted_identric,
)

DERIV_GRID = 201


def derivative_bounds(
    f: ConvexFnSpec,
    a: float,
    b: float,
    allow_finite_differences: bool = True,
) -> tuple[float, float, float]:
    """(K, m, M) = (sup |f'|, inf f'', sup f'') over [a, b].

    Uses the exact closed-form bounds for builtins; otherwise samples the
    derivatives (or finite differences of fn) on DERIV_GRID points and
    pads K and M up, m down, by 1% so downstream sandwich checks stay
    conservative.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    if f.exact_bounds is not None:
        return f.exact_bounds(lo, hi)
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
    big_k = 1.01 * float(np.max(np.abs(d1)))
    m_raw = float(np.min(d2))
    m_big_raw = float(np.max(d2))
    return big_k, m_raw - 0.01 * abs(m_raw), m_big_raw + 0.01 * abs(m_big_raw)


def _resolve_K(f: ConvexFnSpec, a: float, b: float, K) -> float:
    return float(K) if K is not None else derivative_bounds(f, a, b)[0]


def _resolve_mM(f: ConvexFnSpec, a: float, b: float, m, M) -> tuple[float, float]:
    if m is not None and M is not None:
        return float(m), float(M)
    _, m_est, m_big_est = derivative_bounds(f, a, b)
    return (float(m) if m is not None else m_est, float(M) if M is not None else m_big_est)


def _check_oriented(a, b, v):
    v = check_weight(v)
    a, b = check_pair(a, b)
    if a > b:
        raise ValueError(f"these bounds require b >= a, got ({a}, {b})")
    return a, b, v


def trapezoid_gap_bounds(
    f: ConvexFnSpec,
    a: float,
    b: float,
    quad: QuadConfig | None = None,
    m: float | None = None,
    M: float | None = None,
    tol: float = 1e-9,
) -> GapBoundReport:
    """Two-sided bound on (f(a)+f(b))/2 minus the integral average."""
    require_ordered_interval(f, a, b)
    m, M = _resolve_mM(f, a, b, m, M)
    avg = integrate(f.fn, a, b, quad) / (b - a)
    ends = 0.5 * (float(f.fn(a)) + float(f.fn(b)))
    quarter = ((b - a) / 2.0) ** 2
    scale = max(abs(avg), abs(ends), abs(m) * quarter, abs(M) * quarter)
    return GapBoundReport.build(
        "trapezoid_gap", ends - avg, m / 3.0 * quarter, M / 3.0 * quarter, tol, scale
    )


def midpoint_gap_bounds(
    f: ConvexFnSpec,
    a: float,
    b: float,
    quad: QuadConfig | None = None,
    m: float | None = None,
    M: float | None = None,
    tol: float = 1e-9,
) -> GapBoundReport:
    """Two-sided bound on the integral average minus f((a+b)/2)."""
    require_ordered_interval(f, a, b)
    m, M = _resolve_mM(f, a, b, m, M)
    avg = integrate(f.fn, a, b, quad) / (b - a)
    midv = float(f.fn(0.5 * (a + b)))
    quarter = ((b - a) / 2.0) ** 2
    scale = max(abs(avg), abs(midv), abs(m) * quarter, abs(M) * quarter)
    return GapBoundReport.build(
        "midpoint_gap", avg - midv, m / 6.0 * quarter, M / 6.0 * quarter, tol, scale
    )


def deriv_gap_bounds(
    f: ConvexFnSpec,
    a: float,
    b: float,
    v: float,
    quad: QuadConfig | None = None,
    K: float | None = None,
    tol: float = 1e-9,
) -> tuple[GapBoundReport, GapBoundReport]:
    """K-bounds on the two central chain gaps.

    Both split_integral_avg - midpoint_estimate and
    trapezoid_estimate - split_integral_avg lie in [0, v(1-v) K (b-a)/2].
    """
    v = check_weight(v)
    require_ordered_interval(f, a, b)
    big_k = _resolve_K(f, a, b, K)
    c = split_integral_avg(f, a, b, v, quad)
    t = _terms(f, a, b, v)
    bound = v * (1.0 - v) * big_k * (b - a) / 2.0
    scale = max(abs(c), abs(t.midpoint), abs(t.trapezoid), bound)
    return (
        GapBoundReport.build("integral_minus_midpoint", c - t.midpoint, 0.0, bound, tol, scale),
        GapBoundReport.build("trapezoid_minus_integral", t.trapezoid - c, 0.0, bound, tol, scale),
    )


def curvature_gap_bounds(
    f: ConvexFnSpec,
    a: float,
    b: float,
    v: float,
    quad: QuadConfig | None = None,
    m: float | None = None,
    M: float | None = None,
    tol: float = 1e-9,
) -> tuple[GapBoundReport, GapBoundReport]:
    """Two-sided curvature sandwiches for the two central chain gaps."""
    v = check_weight(v)
    require_ordered_interval(f, a, b)
    m, M = _resolve_mM(f, a, b, m, M)
    c = split_integral_avg(f, a, b, v, quad)
    t = _terms(f, a, b, v)
    low, high = c - t.midpoint, t.trapezoid - c
    factor = v * (1.0 - v) * ((b - a) / 2.0) ** 2
    scale = max(abs(c), abs(t.midpoint), abs(t.trapezoid), abs(m) * factor, abs(M) * factor)
    return (
        GapBoundReport.build(
            "integral_minus_midpoint", low, m / 6.0 * factor, M / 6.0 * factor, tol, scale
        ),
        GapBoundReport.build(
            "trapezoid_minus_integral", high, m / 3.0 * factor, M / 3.0 * factor, tol, scale
        ),
    )


def logmean_diff_reverse(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Difference-type reverses around the weighted logarithmic mean.

    Both gaps of the five-term scalar chain are at most
    v(1-v) b log(b/a) / 2; requires b >= a.
    """
    a, b, v = _check_oriented(a, b, v)
    _, mix, lv, avg, _ = log_chain_terms(a, b, v)
    bound = v * (1.0 - v) * b * math.log(b / a) / 2.0
    scale = max(lv, avg, bound)
    return (
        GapBoundReport.build("logmean_minus_geommix", lv - mix, 0.0, bound, tol, scale),
        GapBoundReport.build("avgmix_minus_logmean", avg - lv, 0.0, bound, tol, scale),
    )


def logmean_diff_refinement(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Two-sided difference refinements around the weighted logarithmic mean.

    v(1-v) a log^2(b/a)/24 <= L - geommix <= v(1-v) b log^2(b/a)/24 and the
    analogous /12 sandwich for avgmix - L; requires b >= a.
    """
    a, b, v = _check_oriented(a, b, v)
    _, mix, lv, avg, _ = log_chain_terms(a, b, v)
    log2 = math.log(b / a) ** 2
    lo1 = v * (1.0 - v) * a / 24.0 * log2
    hi1 = v * (1.0 - v) * b / 24.0 * log2
    lo2 = v * (1.0 - v) * a / 12.0 * log2
    hi2 = v * (1.0 - v) * b / 12.0 * log2
    scale = max(lv, avg, hi2)
    return (
        GapBoundReport.build("logmean_minus_geommix", lv - mix, lo1, hi1, tol, scale),
        GapBoundReport.build("avgmix_minus_logmean", avg - lv, lo2, hi2, tol, scale),
    )


def identric_ratio_reverse(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Ratio-type reverses around the weighted identric mean (log domain).

    With x = v(1-v)(b-a)/(2a):  arithmix <= e^x I_v and I_v <= e^x geomix;
    requires b >= a.  Gaps and bounds are reported on logarithms.
    """
    a, b, v = _check_oriented(a, b, v)
    _, geo_log, mix_log, _ = identric_chain_log_terms(a, b, v)
    iv_log = log_weighted_identric(a, b, v)
    x = v * (1.0 - v) * (b - a) / (2.0 * a)
    scale = max(abs(mix_log), abs(iv_log), abs(geo_log), x, 1.0)
    return (
        GapBoundReport.build("log_arithmix_minus_identric", mix_log - iv_log, 0.0, x, tol, scale),
        GapBoundReport.build("log_identric_minus_geomix", iv_log - geo_log, 0.0, x, tol, scale),
    )


def identric_ratio_refinement(
    a, b, v, tol: float = 1e-12
) -> tuple[GapBoundReport, GapBoundReport]:
    """Two-sided ratio refinements around the weighted identric mean.

    The log-gap to the arithmetic-node mix lies in
    [v(1-v)(b-a)^2/(24 b^2), v(1-v)(b-a)^2/(24 a^2)], and the log-gap to
    the geometric mix in the analogous /12 window; requires b >= a.
    """
    a, b, v = _check_oriented(a, b, v)
    _, geo_log, mix_log, _ = identric_chain_log_terms(a, b, v)
    iv_log = log_weighted_identric(a, b, v)
    sq = v * (1.0 - v) * (b - a) ** 2
    lo1 = sq / (24.0 * b * b)
    hi1 = sq / (24.0 * a * a)
    lo2 = sq / (12.0 * b * b)
    hi2 = sq / (12.0 * a * a)
    scale = max(abs(mix_log), abs(iv_log), abs(geo_log), hi2, 1.0)
    return (
        GapBoundReport.build("log_arithmix_minus_identric", mix_log - iv_log, lo1, hi1, tol, scale),
        GapBoundReport.build("log_identric_minus_geomix", iv_log - geo_log, lo2, hi2, tol, scale),
    )
