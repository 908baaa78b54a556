"""Exact split integral averages of the builtins, and the corollaries they carry,
against mpmath oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from meanbounds import bounds as bnd
from meanbounds import convex as cvx

EPS = float(np.finfo(float).eps)
BUDGET = 8.0  # in units of eps times the scale of the compared quantity
MP_PREC = 120

# (f, an antiderivative) of each builtin, in mpmath
MP_FNS = {
    "exp": (mp.exp, mp.exp),
    "neg-log": (lambda x: -mp.log(x), lambda x: x - x * mp.log(x)),
    "square": (lambda x: x**2, lambda x: x**3 / 3),
    "quartic": (lambda x: x**4, lambda x: x**5 / 5),
    "xlogx": (lambda x: x * mp.log(x), lambda x: x**2 / 2 * mp.log(x) - x**2 / 4),
}


def mp_split_avg(name, a, b, v):
    """The v-weighted mix of the averages of f over [a, n] and [n, b], n = a + v (b - a)."""
    f, prim = MP_FNS[name]
    a, b, v = mp.mpf(a), mp.mpf(b), mp.mpf(v)
    n = a + v * (b - a)

    def avg(p, q):
        return f(p) if p == q else (prim(q) - prim(p)) / (q - p)

    return (1 - v) * avg(a, n) + v * avg(n, b)


def mp_max_abs(name, a, b):
    """max(1, max |f| on [a, b]) for the builtins, whose |f| peaks at an end or, for
    xlogx, at 1/e."""
    f = MP_FNS[name][0]
    xs = [mp.mpf(a), mp.mpf(b)]
    if name == "xlogx" and a < 1.0 / math.e < b:
        xs.append(1 / mp.e)
    return max(mp.mpf(1), *(abs(f(x)) for x in xs))


def split_avg_error(name, a, b, v):
    """|closed form - oracle| in units of eps * max(1, max |f| on [a, b])."""
    got = cvx.split_integral_avg(cvx.get_builtin(name), a, b, v)
    assert math.isfinite(got), (name, a, b, v)
    with mp.workprec(MP_PREC):
        return float(abs(mp.mpf(got) - mp_split_avg(name, a, b, v)) / mp_max_abs(name, a, b)) / EPS


def test_closed_form_split_averages_against_mpmath():
    rng = np.random.default_rng(2024)
    worst = {name: 0.0 for name in cvx.BUILTINS}
    for _ in range(2000):
        a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)).tolist())
        v = float(rng.uniform())
        if not a < b:
            continue
        for name in cvx.BUILTINS:
            worst[name] = max(worst[name], split_avg_error(name, a, b, v))
    assert max(worst.values()) <= BUDGET, worst


# exp overflows past 709.78 and the double range ends near 1e-308 and 1e308
EDGE_CASES = [
    ("exp", -1000.0, 700.0),
    ("exp", 700.0, 709.0),
    ("neg-log", 1e-300, 1.0),
    ("neg-log", 1.0, 1e300),
    ("xlogx", 1e-300, 1.0),
    ("xlogx", 1.0, 1e300),
    ("neg-log", 1e-300, 1e300),
    ("xlogx", 1e-300, 1e300),
    ("square", 1e-300, 1.0),
    ("quartic", 1e-300, 1.0),
    # finite averages whose unscaled closed forms overflowed in p*p + p*q + q*q
    ("square", 1e154, 1.3e154),
    ("quartic", 5e76, 1e77),
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("name, a, b", EDGE_CASES)
@pytest.mark.parametrize("v", [0.0, 0.3, 0.5, 1.0])
def test_edge_intervals_get_finite_averages_within_budget(name, a, b, v):
    assert split_avg_error(name, a, b, v) <= BUDGET


def mp_chain_gaps(name, p, q, v):
    """(split average - midpoint estimate, trapezoid estimate - split average) of f on [p, q]."""
    f = MP_FNS[name][0]
    v = mp.mpf(v)

    def at(w):
        return p + w * (q - p)

    c = mp_split_avg(name, p, q, v)
    mid = (1 - v) * f(at(v / 2)) + v * f(at((1 + v) / 2))
    trap = ((1 - v) * f(p) + v * f(q) + f(at(v))) / 2
    return c - mid, trap - c


COROLLARIES = [
    (bnd.logmean_diff_reverse, "exp"),
    (bnd.identric_ratio_reverse, "neg-log"),
    (bnd.logmean_diff_refinement, "exp"),
    (bnd.identric_ratio_refinement, "neg-log"),
]


@pytest.mark.parametrize("corollary, name", COROLLARIES, ids=lambda x: getattr(x, "__name__", x))
def test_corollary_gaps_against_mpmath(corollary, name):
    # cor31/cor33 are the theorems at exp on [log a, log b], cor32/cor34 at -log on [a, b]
    rng = np.random.default_rng(77)
    worst = 0.0
    with mp.workprec(MP_PREC):
        for _ in range(2000):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)).tolist())
            v = float(rng.uniform(0.01, 0.99))
            p, q = (mp.log(a), mp.log(b)) if name == "exp" else (mp.mpf(a), mp.mpf(b))
            for rep, true_gap in zip(corollary(a, b, v), mp_chain_gaps(name, p, q, v)):
                worst = max(worst, float(abs(mp.mpf(rep.gap) - true_gap) / rep.scale) / EPS)
    assert worst <= BUDGET
