"""Weighted two-argument means and their inequality chains.

All four means (arithmetic, geometric, logarithmic, identric) take a
weight ``v`` in [0, 1], are homogeneous of degree one and interpolate
between their arguments: ``M(a, b, 0) = a`` and ``M(a, b, 1) = b``.
Everything is evaluated in the log domain wherever an exponential of the
inputs would otherwise appear, so arguments spanning several decades
neither overflow nor lose the symmetry ``M(a, b, v) = M(b, a, 1 - v)``.
"""

from __future__ import annotations

import math

import numpy as np

from .reports import ChainReport

# |log(b/a)| below this switches the logarithmic/identric kernels to their
# series branch; the quadratic term is ~1e-16 relative there, so the two
# branches agree to machine precision across the switch.
H_SWITCH = 1e-8

LOG_CHAIN_LABELS = (
    "geometric",
    "split_geometric_mix",
    "logarithmic",
    "avg_arith_geom",
    "arithmetic",
)

IDENTRIC_CHAIN_LABELS = (
    "geometric",
    "geom_of_geom_arith",
    "identric",
    "split_arithmetic_mix",
    "arithmetic",
)


def check_weight(v) -> float:
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {v}")
    return v


def check_pair(a, b) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a > 0.0 and b > 0.0):
        raise ValueError(f"mean arguments must be finite and positive, got ({a}, {b})")
    return a, b


def min_weight(v) -> float:
    """Smaller of the two split weights, min(v, 1-v)."""
    v = check_weight(v)
    return min(v, 1.0 - v)


def max_weight(v) -> float:
    """Larger of the two split weights, max(v, 1-v)."""
    v = check_weight(v)
    return max(v, 1.0 - v)


def weighted_arithmetic(a, b, v) -> float:
    """(1-v)*a + v*b."""
    a, b = check_pair(a, b)
    v = check_weight(v)
    return (1.0 - v) * a + v * b


def weighted_geometric(a, b, v) -> float:
    """a**(1-v) * b**v, evaluated as exp((1-v) log a + v log b)."""
    a, b = check_pair(a, b)
    v = check_weight(v)
    if a == b:
        return a
    if v == 0.0:
        return a
    if v == 1.0:
        return b
    return math.exp((1.0 - v) * math.log(a) + v * math.log(b))


def _log_mean_unit_formula(h, v):
    evh = np.expm1(v * h)
    return ((1.0 - v) / v * evh + v / (1.0 - v) * (np.expm1(h) - evh)) / h


def _log_mean_unit_series(h, v):
    return 1.0 + v * h + v * (1.0 + 2.0 * v) * h * h / 6.0


def _logmean_kernel(t_arr, v):
    # assumes 0 < v <= 1/2, where no term amplifies cancellation error
    h = np.log(t_arr)
    small = np.abs(h) < H_SWITCH
    main = _log_mean_unit_formula(np.where(small, 1.0, h), v)
    return np.where(small, _log_mean_unit_series(h, v), main)


def log_mean_unit(t, v):
    """Weighted logarithmic mean of 1 and t.

    For h = log t this is
        [((1-v)/v) expm1(v h) + (v/(1-v)) (expm1(h) - expm1(v h))] / h,
    with the series 1 + v h + v(1+2v) h^2/6 used for |h| < H_SWITCH.
    Weights above 1/2 route through L_v(1, t) = t L_{1-v}(1, 1/t), which
    keeps the expm1 difference well conditioned near the weight endpoints.
    Accepts a scalar or an ndarray ``t``; ``v`` is a scalar weight.
    """
    v = check_weight(v)
    t_arr = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t_arr)) or np.any(t_arr <= 0.0):
        raise ValueError("log_mean_unit needs finite positive arguments")
    if v == 0.0:
        out = np.ones_like(t_arr)
    elif v == 1.0:
        out = t_arr.copy()
    elif v <= 0.5:
        out = _logmean_kernel(t_arr, v)
    else:
        out = t_arr * _logmean_kernel(1.0 / t_arr, 1.0 - v)
    if t_arr.ndim == 0:
        return float(out)
    return out


def weighted_logarithmic(a, b, v) -> float:
    """Weighted logarithmic mean, a * L_v(1, b/a)."""
    a, b = check_pair(a, b)
    v = check_weight(v)
    if v == 0.0:
        return a
    if v == 1.0:
        return b
    return a * log_mean_unit(b / a, v)


def identric_unit_log(r):
    """log of the equal-weight identric mean of 1 and r.

    Equals r log r / (r - 1) - 1, computed as rho / (-expm1(-rho)) - 1
    with rho = log r; series rho/2 + rho^2/12 below the switch.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(~np.isfinite(r_arr)) or np.any(r_arr <= 0.0):
        raise ValueError("identric_unit_log needs finite positive arguments")
    rho = np.log(r_arr)
    small = np.abs(rho) < H_SWITCH
    rho_safe = np.where(small, 1.0, rho)
    main = rho_safe / (-np.expm1(-rho_safe)) - 1.0
    series = rho / 2.0 + rho * rho / 12.0
    out = np.where(small, series, main)
    if r_arr.ndim == 0:
        return float(out)
    return out


def log_weighted_identric(a, b, v) -> float:
    """log of the weighted identric mean.

    The node n = a + v(b-a) splits [a, b]; the weighted identric mean is
    the v-weighted geometric mix of the classical identric means of the
    two pieces, which keeps every intermediate on the scale of log(b/a).
    """
    a, b = check_pair(a, b)
    v = check_weight(v)
    if v == 0.0:
        return math.log(a)
    if v == 1.0:
        return math.log(b)
    if v > 0.5:
        # exact mirror symmetry; evaluating at the smaller weight makes the
        # two orientations share one computation
        a, b, v = b, a, 1.0 - v
    t = b / a
    h = math.log(t)
    if abs(h) < H_SWITCH:
        return math.log(weighted_arithmetic(a, b, v))
    n = 1.0 + v * (t - 1.0)
    return (
        math.log(a)
        + (1.0 - v) * identric_unit_log(n)
        + v * (math.log(n) + identric_unit_log(t / n))
    )


def weighted_identric(a, b, v) -> float:
    """Weighted identric mean."""
    a, b = check_pair(a, b)
    v = check_weight(v)
    if v == 0.0:
        return a
    if v == 1.0:
        return b
    if abs(math.log(b / a)) < H_SWITCH:
        return weighted_arithmetic(a, b, v)
    return math.exp(log_weighted_identric(a, b, v))


def log_chain_terms(a, b, v) -> tuple[float, ...]:
    """The five terms of :func:`logarithmic_chain`, in chain order."""
    geo = weighted_geometric(a, b, v)
    ari = weighted_arithmetic(a, b, v)
    mix = (1.0 - v) * weighted_geometric(a, b, v / 2.0) + v * weighted_geometric(
        a, b, (1.0 + v) / 2.0
    )
    return geo, mix, weighted_logarithmic(a, b, v), 0.5 * (ari + geo), ari


def identric_chain_log_terms(a, b, v) -> tuple[float, float, float, float]:
    """(geometric, log of the second term, log of the fourth term, arithmetic)
    of :func:`identric_chain`; the two middle terms are formed as logarithms."""
    geo = weighted_geometric(a, b, v)
    ari = weighted_arithmetic(a, b, v)
    n1 = weighted_arithmetic(a, b, v / 2.0)
    n2 = weighted_arithmetic(a, b, (1.0 + v) / 2.0)
    mix_log = (1.0 - v) * math.log(n1) + v * math.log(n2)
    return geo, 0.5 * (math.log(geo) + math.log(ari)), mix_log, ari


def logarithmic_chain(a, b, v, tol=1e-12) -> ChainReport:
    """Five-term chain around the weighted logarithmic mean.

    geometric <= split geometric mix <= logarithmic
              <= average of arithmetic and geometric <= arithmetic.
    Weight endpoints are accepted; there the chain collapses to equalities.
    """
    a, b = check_pair(a, b)
    v = check_weight(v)
    return ChainReport.from_values(LOG_CHAIN_LABELS, log_chain_terms(a, b, v), tol)


def identric_chain(a, b, v, tol=1e-12) -> ChainReport:
    """Five-term chain around the weighted identric mean.

    geometric <= geometric mean of (geometric, arithmetic) <= identric
              <= v-weighted geometric mix of the split nodes <= arithmetic.
    """
    a, b = check_pair(a, b)
    v = check_weight(v)
    geo, geo_ari_log, mix_log, ari = identric_chain_log_terms(a, b, v)
    values = (geo, math.exp(geo_ari_log), weighted_identric(a, b, v), math.exp(mix_log), ari)
    return ChainReport.from_values(IDENTRIC_CHAIN_LABELS, values, tol)
