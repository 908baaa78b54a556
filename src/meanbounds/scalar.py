"""Weighted two-argument means and their inequality chains, array-first.

All four means (arithmetic, geometric, logarithmic, identric) take a
weight ``v`` in [0, 1], are homogeneous of degree one and interpolate
between their arguments: ``M(a, b, 0) = a`` and ``M(a, b, 1) = b``.
Every function broadcasts over ``a``, ``b`` and ``v``; scalar arguments are
the 0-d case and return floats (the chains return one ``ChainReport``, of
arrays or of floats).  The logarithmic and identric means are evaluated in
the log domain, so arguments spanning several decades neither overflow nor
lose the symmetry ``M(a, b, v) = M(b, a, 1 - v)``.

Every transcendental step is a numpy ufunc on ndarrays (``np.power``, not
``**``, which on numpy scalars takes libm's ``pow``), so a 0-d call agrees
bit for bit with the same point of an array call.
"""

from __future__ import annotations

import math

import numpy as np

from .reports import ChainReport

# |log(b/a)| below this switches the logarithmic/identric kernels to their
# series branch; the quadratic term is ~1e-16 relative there, so the two
# branches agree to machine precision across the switch.
H_SWITCH = 1e-8

CHAIN_TOL = 1e-12  # relative tolerance of the mean chains' links

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


def check_weight(v):
    """v checked to lie in [0, 1]: a float, or an array (valid iff its extremes are)."""
    arr = np.asarray(v, dtype=float)
    for x in (arr.min(), arr.max()) if arr.ndim else (float(arr),):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {x}")
    return arr if arr.ndim else float(arr)


def check_pair(a, b) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a > 0.0 and b > 0.0):
        raise ValueError(f"mean arguments must be finite and positive, got ({a}, {b})")
    return a, b


def _args(a, b, v) -> list[np.ndarray]:
    """(a, b, v) as float arrays, checked: a and b finite and positive, v in [0, 1].
    Every point is valid iff the extremes are; a bad one raises as the scalar checks do."""
    a, b, v = (np.asarray(x, dtype=float) for x in (a, b, v))
    for pick in (np.ndarray.min, np.ndarray.max):
        check_pair(pick(a), pick(b))
        check_weight(pick(v))
    return [a, b, v]


def _float_if_0d(x):
    return float(x) if np.ndim(x) == 0 else x


def _arithmetic(a, b, v):
    return (1.0 - v) * a + v * b


def _geometric(a, b, v):
    return np.where(a == b, a, np.power(a, 1.0 - v) * np.power(b, v))


def _logarithmic(a, b, v):
    return np.where(v == 1.0, b, a * _log_mean_unit(b / a, v))


def _log_identric(a, b, v):
    # at the smaller weight w the node n = a + w (b - a) splits [a, b]; no b/a is formed
    mirror = v > 0.5
    a, b, w = np.where(mirror, b, a), np.where(mirror, a, b), np.where(mirror, 1.0 - v, v)
    log_a, log_b, log_n = np.log(a), np.log(b), np.log(_arithmetic(a, b, w))
    rho = log_n - log_a
    full = log_n + (1.0 - w) * (_identric_rho(rho) - rho) + w * _identric_rho(log_b - log_n)
    return np.where(np.abs(log_b - log_a) < H_SWITCH, log_n, full)


def _identric(a, b, v):
    # the arithmetic mean near a == b, and exactly a or b at v = 0 or 1
    plain = (np.abs(np.log(b) - np.log(a)) < H_SWITCH) | (v == 0.0) | (v == 1.0)
    return np.where(plain, _arithmetic(a, b, v), np.exp(_log_identric(a, b, v)))


def weighted_arithmetic(a, b, v):
    """(1-v)*a + v*b."""
    return _float_if_0d(_arithmetic(*_args(a, b, v)))


def weighted_geometric(a, b, v):
    """a**(1-v) * b**v, exactly a where a == b."""
    return _float_if_0d(_geometric(*_args(a, b, v)))


def _log_mean_unit_formula(h, v):
    evh = np.expm1(v * h)
    return ((1.0 - v) / v * evh + v / (1.0 - v) * (np.expm1(h) - evh)) / h


def _log_mean_unit_series(h, v):
    return 1.0 + v * h + v * (1.0 + 2.0 * v) * h * h / 6.0


def _log_mean_unit(t, v):
    # log_mean_unit with t checked here and v already a checked float array
    t = np.asarray(t, dtype=float)
    if not (t.min() > 0.0 and t.max() < np.inf):
        raise ValueError("log_mean_unit needs finite positive arguments")
    mirror, end = v > 0.5, (v == 0.0) | (v == 1.0)
    w = np.where(end, 0.5, np.where(mirror, 1.0 - v, v))
    x = np.broadcast_to(t, np.broadcast_shapes(t.shape, v.shape)).copy()
    h = np.log(np.divide(1.0, t, out=x, where=mirror))
    small = np.abs(h) < H_SWITCH
    unit = _log_mean_unit_formula(np.where(small, 1.0, h), w)
    if small.any():
        unit = np.where(small, _log_mean_unit_series(h, w), unit)
    unit = np.where(end, 1.0, unit)  # L_0(1, t) = 1, and t at v = 1 once mirrored
    return np.where(mirror, unit * t, unit)


def log_mean_unit(t, v):
    """Weighted logarithmic mean of 1 and t, broadcast over ``t`` and ``v``.

    For h = log t this is
        [((1-v)/v) expm1(v h) + (v/(1-v)) (expm1(h) - expm1(v h))] / h,
    with the series 1 + v h + v(1+2v) h^2/6 used for |h| < H_SWITCH.
    Per element, weights above 1/2 route through L_v(1, t) = t L_{1-v}(1, 1/t),
    which keeps the expm1 difference well conditioned near the weight
    endpoints, and v = 0 and v = 1 give 1 and t.
    """
    return _float_if_0d(_log_mean_unit(t, np.asarray(check_weight(v))))


def weighted_logarithmic(a, b, v):
    """Weighted logarithmic mean, a * L_v(1, b/a)."""
    return _float_if_0d(_logarithmic(*_args(a, b, v)))


def _identric_rho(rho):
    # log I(1, e^rho) = rho / (-expm1(-rho)) - 1; series rho/2 + rho^2/12 below the switch.
    # Below rho = -700, where expm1 would overflow, it is -1 to double precision.
    small = np.abs(rho) < H_SWITCH
    safe = np.where(small, 1.0, np.maximum(rho, -700.0))
    return np.where(small, rho / 2.0 + rho * rho / 12.0, safe / (-np.expm1(-safe)) - 1.0)


def identric_unit_log(r):
    """log of the equal-weight identric mean of 1 and r.

    Equals r log r / (r - 1) - 1, computed as rho / (-expm1(-rho)) - 1
    with rho = log r; series rho/2 + rho^2/12 below the switch.
    """
    r = np.asarray(r, dtype=float)
    if not (np.isfinite(r) & (r > 0.0)).all():
        raise ValueError("identric_unit_log needs finite positive arguments")
    return _float_if_0d(_identric_rho(np.log(r)))


def log_weighted_identric(a, b, v):
    """log of the weighted identric mean.

    The node n = a + v(b-a) splits [a, b]; the weighted identric mean is
    the v-weighted geometric mix of the classical identric means of the
    two pieces, each taken from rho = log n - log a or log b - log n, so
    every intermediate stays on the scale of log(b/a) and b/a is never formed.
    """
    return _float_if_0d(_log_identric(*_args(a, b, v)))


def weighted_identric(a, b, v):
    """Weighted identric mean."""
    return _float_if_0d(_identric(*_args(a, b, v)))


def logarithmic_chain(a, b, v, tol=CHAIN_TOL) -> ChainReport:
    """Five-term chain around the weighted logarithmic mean, broadcast over a, b, v.

    geometric <= split geometric mix <= logarithmic
              <= average of arithmetic and geometric <= arithmetic.
    Weight endpoints are accepted; there the chain collapses to equalities.
    """
    a, b, v = _args(a, b, v)
    log_mean = _logarithmic(a, b, v)  # first, so its temporaries are gone before the rest
    geo = _geometric(a, b, v)
    mix = (1.0 - v) * _geometric(a, b, v / 2.0) + v * _geometric(a, b, (1.0 + v) / 2.0)
    avg = 0.5 * (geo + (1.0 - v) * a + v * b)
    terms = (geo, mix, log_mean, avg, _arithmetic(a, b, v))
    return ChainReport.from_values(LOG_CHAIN_LABELS, terms, tol)


def identric_chain(a, b, v, tol=CHAIN_TOL) -> ChainReport:
    """Five-term chain around the weighted identric mean, broadcast over a, b, v.

    geometric <= geometric mean of (geometric, arithmetic) <= identric
              <= v-weighted geometric mix of the split nodes <= arithmetic.
    The 2nd and 4th terms are formed as logarithms.
    """
    a, b, v = _args(a, b, v)
    geo, ari = _geometric(a, b, v), _arithmetic(a, b, v)
    geo_ari = np.exp(0.5 * (np.log(geo) + np.log(ari)))
    mix = np.exp((1.0 - v) * np.log(_arithmetic(a, b, v / 2.0))
                 + v * np.log(_arithmetic(a, b, (1.0 + v) / 2.0)))
    terms = (geo, geo_ari, _identric(a, b, v), mix, ari)
    return ChainReport.from_values(IDENTRIC_CHAIN_LABELS, terms, tol)
