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

from functools import partial, reduce

import numpy as np

from . import scalar as sc
from .convex import (DERIV_GRID, ConvexFnSpec, _derivative_bounds, _interval, _ordered_terms,
                     _Terms, get_builtin)
from .reports import GapBoundReport

_EXP = get_builtin("exp")
_NEG_LOG = get_builtin("neg-log")
_GAP_NAMES = ("integral_minus_midpoint", "trapezoid_minus_integral")
_LOGMEAN_NAMES = ("logmean_minus_geommix", "avgmix_minus_logmean")
_IDENTRIC_NAMES = ("log_arithmix_minus_identric", "log_identric_minus_geomix")
_LOG_FLOOR = 1.0  # -log(x) at a rounded x is off by about eps, so log-domain scales stay >= 1


def derivative_bounds(f: ConvexFnSpec, a, b) -> tuple:
    """(K, m, M) = (sup |f'|, inf f'', sup f'') over [a, b], either order.

    Checks that a and b are finite and inside f's domain.  Uses the exact
    closed-form bounds for builtins; otherwise samples the derivatives (or
    finite differences of fn) on DERIV_GRID points and pads K and M up, m
    down, by 1% so downstream sandwich checks stay conservative; a sampled
    bound that is not finite raises FloatingPointError.
    """
    a, b = _interval(f, a, b)
    return _derivative_bounds(f, np.minimum(a, b), np.maximum(a, b))


def _resolve_mM(t, m, M) -> tuple:
    # m and M as given; those not given from the (K, m, M) of the terms t
    if m is None or M is None:
        _, m_est, m_big_est = t.bounds
    return (m_est if m is None else float(m)), (m_big_est if M is None else float(M))


def _check_oriented(a, b, v):
    v = sc.check_weight(v)  # first, as for every check; then the means' rule on a and b
    a, b, _ = sc._args(a, b, v)
    if not (a <= b).all():
        raise ValueError(f"these bounds require b >= a, got ({a}, {b})")
    return a, b, v


def trapezoid_gap_bounds(f: ConvexFnSpec, a, b, m: float | None = None,
                         M: float | None = None, tol: float = 1e-9) -> GapBoundReport:
    """Two-sided bound on (f(a)+f(b))/2 minus the integral average."""
    return _half_weight_gap(f, a, b, m, M, tol, "trapezoid_gap")


def midpoint_gap_bounds(f: ConvexFnSpec, a, b, m: float | None = None,
                        M: float | None = None, tol: float = 1e-9) -> GapBoundReport:
    """Two-sided bound on the integral average minus f((a+b)/2)."""
    return _half_weight_gap(f, a, b, m, M, tol, "midpoint_gap")


def _half_weight_gap(f, a, b, m, M, tol, name):
    # the gap of the trapezoid (or midpoint) rule on [a, b], the chain at v = 1/2, lies in
    # [m, M] / 3 (or / 6) times ((b - a) / 2)^2
    t = _ordered_terms(f, a, b, 0.5)
    m, M = _resolve_mM(t, m, M)
    avg = t.average
    if name == "trapezoid_gap":
        estimate = t.endpoint_average
        gap, divisor = estimate - avg, 3.0
    else:
        estimate = t.node
        gap, divisor = avg - estimate, 6.0
    quarter = np.square((t.b - t.a) / 2.0)
    scale = reduce(np.maximum, (abs(avg), abs(estimate), abs(m) * quarter, abs(M) * quarter))
    return GapBoundReport.build(name, gap, m / divisor * quarter, M / divisor * quarter, tol,
                                scale)


def _central_gaps(t, tol, names, windows, bound_scale):
    # one report per central gap of the terms t at a <= b; the split average is f(a) at a == b
    c = np.where(t.a < t.b, t.average, t.node)
    midpoint, trapezoid = t.midpoint_estimate, t.trapezoid_estimate
    scale = reduce(np.maximum, (abs(c), abs(midpoint), abs(trapezoid), bound_scale))
    return tuple(
        GapBoundReport.build(name, gap, low, high, tol, scale)
        for name, gap, (low, high) in zip(names, (c - midpoint, trapezoid - c), windows)
    )


def _thm32(t, tol, K=None, names=_GAP_NAMES, floor=0.0):
    big_k = t.bounds[0] if K is None else float(K)
    bound = t.v * (1.0 - t.v) * big_k * (t.b - t.a) / 2.0
    return _central_gaps(t, tol, names, ((0.0, bound),) * 2, np.maximum(bound, floor))


def _thm33(t, tol, m=None, M=None, names=_GAP_NAMES, floor=0.0):
    m, M = _resolve_mM(t, m, M)
    factor = t.v * (1.0 - t.v) * np.square((t.b - t.a) / 2.0)
    windows = ((m / 6.0 * factor, M / 6.0 * factor), (m / 3.0 * factor, M / 3.0 * factor))
    bound_scale = reduce(np.maximum, (abs(m) * factor, abs(M) * factor, floor))
    return _central_gaps(t, tol, names, windows, bound_scale)


# The corollaries: the theorems at exp on [log a, log b], (K, m, M) = (b, a, b), or -log on [a, b]
def _exp_terms(a, b, v):
    return _Terms((_EXP,), 0, np.log(a), np.log(b), v, bounds=(b, a, b))


_neg_log_terms = partial(_Terms, (_NEG_LOG,), 0)
_cor31 = partial(_thm32, names=_LOGMEAN_NAMES)
_cor32 = partial(_thm32, names=_IDENTRIC_NAMES, floor=_LOG_FLOOR)
_cor33 = partial(_thm33, names=_LOGMEAN_NAMES)
_cor34 = partial(_thm33, names=_IDENTRIC_NAMES, floor=_LOG_FLOOR)


def deriv_gap_bounds(f: ConvexFnSpec, a, b, v, K: float | None = None,
                     tol: float = 1e-9) -> tuple[GapBoundReport, ...]:
    """K-bounds on the two central chain gaps (Theorem 3.2).

    Both split_integral_avg - midpoint_estimate and
    trapezoid_estimate - split_integral_avg lie in [0, v(1-v) K (b-a)/2].
    """
    return _thm32(_ordered_terms(f, a, b, v), tol, K)


def curvature_gap_bounds(f: ConvexFnSpec, a, b, v, m: float | None = None, M: float | None = None,
                         tol: float = 1e-9) -> tuple[GapBoundReport, ...]:
    """Two-sided curvature sandwiches for the two central chain gaps (Theorem 3.3)."""
    return _thm33(_ordered_terms(f, a, b, v), tol, m, M)


def logmean_diff_reverse(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Difference-type reverses around the weighted logarithmic mean.

    Both gaps of the five-term scalar chain are at most
    v(1-v) b log(b/a) / 2; requires b >= a.
    """
    return _cor31(_exp_terms(*_check_oriented(a, b, v)), tol)


def logmean_diff_refinement(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Two-sided difference refinements around the weighted logarithmic mean.

    v(1-v) a log^2(b/a)/24 <= L - geommix <= v(1-v) b log^2(b/a)/24 and the
    analogous /12 sandwich for avgmix - L; requires b >= a.
    """
    return _cor33(_exp_terms(*_check_oriented(a, b, v)), tol)


def identric_ratio_reverse(a, b, v, tol: float = 1e-12) -> tuple[GapBoundReport, GapBoundReport]:
    """Ratio-type reverses around the weighted identric mean (log domain).

    With x = v(1-v)(b-a)/(2a):  arithmix <= e^x I_v and I_v <= e^x geomix;
    requires b >= a.  Gaps and bounds are reported on logarithms.
    """
    return _cor32(_neg_log_terms(*_check_oriented(a, b, v)), tol)


def identric_ratio_refinement(
    a, b, v, tol: float = 1e-12
) -> tuple[GapBoundReport, GapBoundReport]:
    """Two-sided ratio refinements around the weighted identric mean.

    The log-gap to the arithmetic-node mix lies in
    [v(1-v)(b-a)^2/(24 b^2), v(1-v)(b-a)^2/(24 a^2)], and the log-gap to
    the geometric mix in the analogous /12 window; requires b >= a.
    """
    return _cor34(_neg_log_terms(*_check_oriented(a, b, v)), tol)
