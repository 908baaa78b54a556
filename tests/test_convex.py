import dataclasses
import math

import numpy as np
import pytest

from meanbounds import bounds as bnd
from meanbounds import convex as cvx
from meanbounds import scalar as sc
from meanbounds.quadrature import QuadConfig, integrate

E = math.e
EXP = cvx.get_builtin("exp")
NEG_LOG = cvx.get_builtin("neg-log")
SQUARE = cvx.get_builtin("square")
ALL_FNS = tuple(cvx.BUILTINS.values())
# exp and -log under fns of their own: no closed form matches them, so they integrate
QUAD_EXP = cvx.make_convex_fn("exp", lambda t: np.exp(t), np.exp, np.exp)
QUAD_NEG_LOG = cvx.make_convex_fn("neg-log", lambda t: -np.log(t), domain=(0.0, math.inf))
COSH = cvx.make_convex_fn("cosh", np.cosh, np.sinh, np.cosh)


def per_point_split_avg(f, a, b, v):
    """The rule that split averages of specs without a closed form took before the batched
    one, kept as a reference: two scalar integrals on [0, 1] per point, by the change of
    variables t -> a + v (b - a) t on [a, n] and t -> n + (1 - v)(b - a) t on [n, b]."""
    n = cvx.node_point(a, b, v)
    first, second = np.vectorize(lambda x, y, w, m: (
        integrate(lambda t: f.fn(x + w * (y - x) * t), 0.0, 1.0),
        integrate(lambda t: f.fn(m + (1.0 - w) * (y - x) * t), 0.0, 1.0),
    ), otypes=(float, float))(a, b, v, n)
    return (1.0 - v) * first + v * second


def test_spec_rejects_an_empty_domain():
    with pytest.raises(ValueError, match="empty domain"):
        cvx.ConvexFnSpec("point", np.exp, domain=(1.0, 1.0))


class TestTermEvaluators:
    def test_midpoint_estimate_collapse(self):
        got = cvx.chain_terms(EXP, 1.0, 1.0, 0.37).midpoint_estimate
        assert got == pytest.approx(E, rel=1e-15)

    def test_midpoint_estimate_exp(self):
        got = cvx.chain_terms(EXP, 0.0, 1.0, 0.5).midpoint_estimate
        assert got == pytest.approx((math.exp(0.25) + math.exp(0.75)) / 2.0, rel=1e-15)
        assert got == pytest.approx(1.700512716650208, rel=1e-12)

    def test_midpoint_estimate_square(self):
        got = cvx.chain_terms(SQUARE, 0.0, 1.0, 0.5).midpoint_estimate
        assert got == pytest.approx(5.0 / 16.0)

    def test_trapezoid_estimate_collapse(self):
        got = cvx.chain_terms(EXP, 2.0, 2.0, 0.8).trapezoid_estimate
        assert got == pytest.approx(E**2, rel=1e-15)

    def test_trapezoid_estimate_square(self):
        got = cvx.chain_terms(SQUARE, 0.0, 1.0, 0.5).trapezoid_estimate
        assert got == pytest.approx(3.0 / 8.0)

    def test_trapezoid_estimate_exp(self):
        got = cvx.chain_terms(EXP, 1.0, 2.0, 0.25).trapezoid_estimate
        expected = (0.75 * E + 0.25 * E**2 + math.exp(1.25)) / 2.0
        assert got == pytest.approx(expected, rel=1e-15)


class TestConvexityGap:
    def test_zero_weight(self):
        assert cvx.chain_terms(EXP, 1.0, 5.0, 0.0).convexity_gap == 0.0

    def test_square(self):
        assert cvx.chain_terms(SQUARE, 0.0, 1.0, 0.5).convexity_gap == pytest.approx(0.25)

    def test_exp(self):
        got = cvx.chain_terms(EXP, 1.0, 4.0, 0.5).convexity_gap
        assert got == pytest.approx((E + E**4) / 2.0 - math.exp(2.5), rel=1e-14)
        assert got == pytest.approx(16.47572197009817, rel=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
            v = rng.uniform(0.0, 1.0)
            f = ALL_FNS[rng.integers(len(ALL_FNS))]
            assert cvx.chain_terms(f, a, b, v).convexity_gap >= -1e-12 * max(
                1.0, abs(float(f.fn(a))), abs(float(f.fn(b)))
            )


def maxweight_difference(f, a, b, v):
    t = cvx.chain_terms(f, a, b, v)
    return t.maxweight_lower - t.maxweight_upper


class TestSharpenedBounds:
    def test_zero_weight_degenerates_to_endpoint(self):
        t = cvx.chain_terms(EXP, 1.0, 3.0, 0.0)
        assert t.sharp_lower == pytest.approx(E, rel=1e-15)
        assert t.sharp_upper == pytest.approx(E, rel=1e-15)

    def test_square_hand_value(self):
        # at v = 1/2 the sharpened lower bound equals the midpoint estimate
        t = cvx.chain_terms(SQUARE, 0.0, 1.0, 0.5)
        assert t.sharp_lower == pytest.approx(5.0 / 16.0)
        assert t.sharp_lower == pytest.approx(t.midpoint_estimate)

    @pytest.mark.parametrize("f", [EXP, SQUARE])
    def test_half_weight_identity(self, f):
        t = cvx.chain_terms(f, 1.0, 4.0, 0.5)
        assert t.sharp_lower == pytest.approx(t.midpoint_estimate, rel=1e-14)

    def test_sharp_upper_exp(self):
        got = cvx.chain_terms(EXP, 1.0, 4.0, 0.25).sharp_upper
        expected = 0.75 * E + 0.25 * E**4 - 0.25 * ((E + E**4) / 2.0 - math.exp(2.5))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(11.5693183871058, rel=1e-12)

    def test_maxweight_equals_sharp_at_half(self):
        t = cvx.chain_terms(EXP, 1.0, 4.0, 0.5)
        assert t.maxweight_lower == t.sharp_lower
        assert t.maxweight_upper == t.sharp_upper

    def test_maxweight_difference_reference_values(self):
        d1, d2 = (maxweight_difference(EXP, a, 1.0, 0.25) for a in (4.0, 8.0))
        assert d1 == pytest.approx(4.35403, abs=5e-4)
        assert d2 == pytest.approx(-30.7996, abs=5e-3)

    def test_maxweight_no_ordering(self):
        d1, d2 = (maxweight_difference(EXP, a, 1.0, 0.25) for a in (4.0, 8.0))
        assert d1 > 0.0 > d2

    def test_maxweight_brackets_estimates(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
            v = rng.uniform(0.01, 0.99)
            f = ALL_FNS[rng.integers(len(ALL_FNS))]
            scale = max(1.0, abs(float(f.fn(a))), abs(float(f.fn(b))))
            t = cvx.chain_terms(f, a, b, v)
            assert t.midpoint_estimate <= t.maxweight_lower + 1e-9 * scale
            assert t.maxweight_upper <= t.trapezoid_estimate + 1e-9 * scale


class TestSplitIntegralAvg:
    def test_half_weight_is_plain_average(self):
        got = cvx.split_integral_avg(EXP, 0.0, 1.0, 0.5)
        assert got == pytest.approx(E - 1.0, rel=1e-12)

    def test_exp_oracle_identity(self):
        got = cvx.split_integral_avg(QUAD_EXP, 1.0, 2.0, 0.25)
        expected = sc.weighted_logarithmic(math.exp(1.0), math.exp(2.0), 0.25)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_neg_log_oracle_identity(self):
        got = cvx.split_integral_avg(QUAD_NEG_LOG, 1.0, 4.0, 1.0 / 3.0)
        expected = -sc.log_weighted_identric(1.0, 4.0, 1.0 / 3.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_oracle_identities_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
            if b - a < 1e-6:
                continue
            v = rng.uniform(0.01, 0.99)
            c_exp = cvx.split_integral_avg(QUAD_EXP, a, b, v)
            l_ref = sc.weighted_logarithmic(math.exp(a), math.exp(b), v)
            assert abs(c_exp - l_ref) <= 1e-8 * l_ref
            c_log = cvx.split_integral_avg(QUAD_NEG_LOG, a, b, v)
            i_ref = sc.log_weighted_identric(a, b, v)
            assert abs(c_log + i_ref) <= 1e-8 * max(abs(i_ref), 1e-3)

    @pytest.mark.parametrize("f", ALL_FNS, ids=lambda f: f.name)
    def test_quadrature_matches_closed_form(self, f):
        integrated = dataclasses.replace(f, fn=lambda t: f.fn(t))
        rel_tol = QuadConfig().rel_tol
        rng = np.random.default_rng(41)
        for _ in range(100):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
            if b - a < 1e-6:
                continue
            v = rng.uniform(0.01, 0.99)
            exact = cvx.split_integral_avg(f, a, b, v)
            quad = cvx.split_integral_avg(integrated, a, b, v)
            assert abs(quad - exact) <= rel_tol * max(1.0, abs(exact)), (a, b, v)

    @pytest.mark.parametrize("f", (COSH,) + ALL_FNS, ids=lambda f: f.name)
    def test_batched_matches_per_point_rule(self, f):
        # within 1e-14 of the per-point rule, relative to the largest of |f(a)|, |f(b)| and the
        # average (an average of xlogx across t = 1 cancels); array calls are their 0-d calls
        integrated = dataclasses.replace(f, fn=lambda t: f.fn(t))
        rng = np.random.default_rng(22)
        a, b = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(10.0), (2, 200))), axis=0)
        v = rng.uniform(0.01, 0.99, 200)
        got = cvx.split_integral_avg(integrated, a, b, v)
        want = per_point_split_avg(integrated, a, b, v)
        scale = np.maximum.reduce([abs(want), abs(f.fn(a)), abs(f.fn(b))])
        assert (abs(got - want) <= 1e-14 * scale).all()
        one_at_a_time = [cvx.split_integral_avg(integrated, *abv) for abv in zip(a, b, v)]
        assert np.array_equal(got, one_at_a_time)

    def test_closed_forms_are_matched_by_identity(self, monkeypatch):
        calls = []
        integrate = cvx.integrate
        monkeypatch.setattr(cvx, "integrate", lambda *args: calls.append(args) or integrate(*args))
        for f in ALL_FNS:
            cvx.split_integral_avg(f, 1.0, 2.0, 0.3)
        assert calls == []

        class Unhashable:
            __hash__ = None

            def __call__(self, t):
                return np.exp(t)

        got = cvx.split_integral_avg(dataclasses.replace(EXP, fn=Unhashable()), 1.0, 2.0, 0.3)
        assert len(calls) == 1  # both pieces in one call
        assert got == pytest.approx(cvx.split_integral_avg(EXP, 1.0, 2.0, 0.3), rel=1e-12)

    def test_unhashable_spec_field(self):
        listed = dataclasses.replace(NEG_LOG, domain=[0.0, math.inf])
        with pytest.raises(TypeError):
            hash(listed)
        funcs = (bnd.deriv_gap_bounds, bnd.curvature_gap_bounds)
        want = [[r.to_dict() for r in func(NEG_LOG, 1.0, 3.0, 0.4)] for func in funcs]
        got = [[r.to_dict() for r in func(listed, 1.0, 3.0, 0.4)] for func in funcs]
        assert got == want

    def test_brute_force_midpoint_rule(self):
        # naive high-resolution midpoint rule over the defining unit integrals
        rng = np.random.default_rng(33)
        ts = (np.arange(1_000_000) + 0.5) / 1_000_000
        names = tuple(cvx.BUILTINS)
        for k in range(20):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
            if b - a < 1e-3:
                b = a + 0.5
            v = rng.uniform(0.05, 0.95)
            f = cvx.get_builtin(names[k % len(names)])
            node = a + v * (b - a)
            naive = (1.0 - v) * float(np.mean(f.fn(a + v * (b - a) * ts))) + v * float(
                np.mean(f.fn(node + (1.0 - v) * (b - a) * ts))
            )
            got = cvx.split_integral_avg(f, a, b, v)
            assert got == pytest.approx(naive, rel=1e-6)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            cvx.split_integral_avg(EXP, 2.0, 1.0, 0.5)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            cvx.split_integral_avg(NEG_LOG, -1.0, 2.0, 0.5)


class TestChainEval:
    def test_degenerate_interval(self):
        rep = cvx.chain_eval(EXP, 1.0, 1.0 + 1e-9, 0.5)
        assert rep.passed
        assert all(abs(x - E) <= 1e-8 for x in rep.values)

    def test_exp_regression_slacks(self):
        rep = cvx.chain_eval(EXP, 1.0, 2.0, 0.25)
        assert rep.passed and rep.certified
        frozen = (
            0.0621206100642393,
            0.02730382845746293,
            0.03598703818111426,
            0.07240474260473606,
            0.0548212459683568,
            0.14299497333919575,
        )
        assert rep.slacks == pytest.approx(frozen, rel=1e-9)

    def test_neg_log_wide(self):
        assert cvx.chain_eval(NEG_LOG, 1.0, 10.0, 0.9).passed

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            cvx.chain_eval(EXP, 2.0, 1.0, 0.5)

    def test_full_random_suite_per_function(self):
        # every builtin, one array call on 10,000 seeded draws of (a, b, v), each row drawn
        # as the two ends and then v; zero slack violations at 1e-9 scale
        log_lo, log_hi = np.log(0.1), np.log(10.0)
        u = np.random.default_rng(4242).uniform((log_lo, log_lo, 0.01), (log_hi, log_hi, 0.99),
                                                (10_000, 3))
        a, b, v = np.exp(u[:, 0]), np.exp(u[:, 1]), u[:, 2]
        keep = abs(b - a) >= 1e-6
        lo, hi, v = np.minimum(a, b)[keep], np.maximum(a, b)[keep], v[keep]
        for f in ALL_FNS:
            rep = cvx.chain_eval(f, lo, hi, v)
            first = np.argmin(rep.passed)  # the first failing point, if one fails
            assert rep.passed.all(), (f.name, lo[first], hi[first], v[first],
                                      [slack[first] for slack in rep.slacks])

    def test_propagates_quadrature_failure(self):
        from meanbounds.quadrature import QuadratureError

        spiky = cvx.ConvexFnSpec(
            "spiky", lambda t: np.abs(np.asarray(t, dtype=float) - 0.37)
        )
        with pytest.raises(QuadratureError):
            cvx.chain_eval(spiky, 0.0, 1.0, 0.5, quad=QuadConfig(rel_tol=1e-13, max_levels=4))


@pytest.mark.parametrize("check", [cvx.chain_terms, cvx.gap_sandwich_check, cvx.refined_gap_check,
                                   cvx.chain_eval, bnd.deriv_gap_bounds])
def test_weight_is_checked_before_the_interval(check):
    with pytest.raises(ValueError, match=r"weight must lie in \[0, 1\], got 1.5"):
        check(EXP, 2.0, math.nan, 1.5)


class TestGapSandwich:
    def test_half_weight_equalities(self):
        res = cvx.gap_sandwich_check(EXP, 1.0, 4.0, 0.5)
        assert res.passed
        assert res.lower_bound == pytest.approx(res.gap, rel=1e-14)
        assert res.upper_bound == pytest.approx(res.gap, rel=1e-14)

    def test_zero_weight(self):
        res = cvx.gap_sandwich_check(EXP, 1.0, 4.0, 0.0)
        assert res.passed
        assert res.lower_bound == 0.0
        assert res.gap == 0.0

    def test_exp_quarter(self):
        assert cvx.gap_sandwich_check(EXP, 1.0, 4.0, 0.25).passed

    def test_refined_zero_weight(self):
        res = cvx.refined_gap_check(EXP, 1.0, 4.0, 0.0)
        assert res.passed
        assert res.lhs == 0.0
        assert res.rhs == 0.0

    def test_refined_exp(self):
        assert cvx.refined_gap_check(EXP, 1.0, 4.0, 0.25).passed

    def test_refined_square_hand_value(self):
        # for t^2 the gap is v(1-v)(b-a)^2, so both sides are exact fractions
        res = cvx.refined_gap_check(SQUARE, 0.0, 1.0, 1.0 / 3.0)
        assert res.passed
        assert res.lhs == pytest.approx(2.0 / 9.0, rel=1e-14)
        assert res.rhs == pytest.approx(1.0 / 8.0, rel=1e-14)

    @pytest.mark.parametrize("check", [cvx.gap_sandwich_check, cvx.refined_gap_check])
    def test_overflow_raises(self, check):
        # exp overflows at 710: a numeric failure, not a violated inequality
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
            check(EXP, 700.0, 710.0, 0.5)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
            check(EXP, np.array([1.0, 700.0, 2.0]), np.array([4.0, 710.0, 3.0]), 0.5)

    def test_random_suite(self):
        rng = np.random.default_rng(55)
        for _ in range(2000):
            a, b = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
            v = rng.uniform(0.01, 0.99)
            f = ALL_FNS[rng.integers(len(ALL_FNS))]
            assert cvx.gap_sandwich_check(f, a, b, v).passed
            assert cvx.refined_gap_check(f, a, b, v).passed


class TestFunctionRegistry:
    def test_builtin_names(self):
        assert set(cvx.BUILTINS) == {"exp", "neg-log", "square", "quartic", "xlogx"}

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            cvx.get_builtin("cube")

    @pytest.mark.parametrize("f", ALL_FNS, ids=lambda f: f.name)
    def test_builtin_midpoint_convexity(self, f):
        lo = 0.05 if f.domain[0] == 0.0 else -5.0
        viol = cvx.convexity_violation(f, lo, 10.0)
        assert viol <= 1e-12 * cvx._fn_scale(f, lo, 10.0)

    @pytest.mark.parametrize("f", ALL_FNS, ids=lambda f: f.name)
    def test_builtin_derivatives_match_finite_differences(self, f):
        lo = 0.05 if f.domain[0] == 0.0 else -5.0
        xs = np.linspace(lo, 10.0, 41)
        h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(xs))
        fd = (np.asarray(f.fn(xs + h), float) - np.asarray(f.fn(xs - h), float)) / (2 * h)
        d1 = np.asarray(f.deriv1(xs), dtype=float)
        assert np.max(np.abs(fd - d1) / np.maximum(1.0, np.abs(d1))) < 1e-6

    def test_make_convex_fn_accepts_convex(self):
        spec = cvx.make_convex_fn("cosh", np.cosh, np.sinh, np.cosh)
        assert spec.name == "cosh"

    def test_make_convex_fn_rejects_nonconvex(self):
        with pytest.raises(cvx.ConvexityError):
            cvx.make_convex_fn("sin", np.sin, check_interval=(0.0, math.pi))

    def test_make_convex_fn_rejects_wrong_derivative(self):
        with pytest.raises(ValueError):
            cvx.make_convex_fn("bad", np.cosh, deriv1=np.cosh, check_interval=(0.0, 2.0))

    def test_chain_eval_flags_nonconvex(self):
        concave = cvx.ConvexFnSpec("neg-square", lambda t: -np.square(np.asarray(t, float)))
        rep = cvx.chain_eval(concave, 0.0, 1.0, 0.5)
        assert not rep.certified
        assert not rep.passed


POINT_TERMS = (
    "endpoint_average",
    "midpoint_estimate",
    "trapezoid_estimate",
    "convexity_gap",
    "sharp_lower",
    "sharp_upper",
    "maxweight_lower",
    "maxweight_upper",
)


def pointwise_terms(f, a, b, v):
    """The point terms with f evaluated one point at a time."""

    def fx(x):
        return float(f.fn(x))

    def gap(lo, hi, w):
        return (1.0 - w) * fx(lo) + w * fx(hi) - fx(cvx.node_point(lo, hi, w))

    n = cvx.node_point(a, b, v)
    m1 = cvx.node_point(a, b, v / 2.0)
    m2 = cvx.node_point(a, b, (1.0 + v) / 2.0)
    ends = (1.0 - v) * fx(a) + v * fx(b)
    lo_w, hi_w = min(v, 1.0 - v), max(v, 1.0 - v)
    return {
        "endpoint_average": ends,
        "midpoint_estimate": (1.0 - v) * fx(m1) + v * fx(m2),
        "trapezoid_estimate": 0.5 * (ends + fx(n)),
        "convexity_gap": ends - fx(n),
        "sharp_lower": fx(n) + 2.0 * lo_w * gap(m1, m2, 0.5),
        "sharp_upper": ends - lo_w * gap(a, b, 0.5),
        "maxweight_lower": fx(n) + 2.0 * hi_w * gap(m1, m2, 0.5),
        "maxweight_upper": ends - hi_w * gap(a, b, 0.5),
    }


@pytest.mark.parametrize("f", ALL_FNS, ids=lambda f: f.name)
def test_point_terms_equal_pointwise_evaluation(f):
    # one vector evaluation of f gives the same bits as one call per point
    rng = np.random.default_rng(2001)
    for _ in range(200):
        a, b = np.sort(np.exp(rng.uniform(-3.0, 3.0, 2)))
        v = float(rng.choice([0.0, 0.5, 1.0, rng.uniform()]))
        expected = pointwise_terms(f, float(a), float(b), v)
        terms = cvx.chain_terms(f, float(a), float(b), v)
        got = {name: getattr(terms, name) for name in POINT_TERMS}
        assert all(type(x) is float for x in got.values()), got
        assert got == expected


# every builtin, one spec that integrates and has no derivatives, and one that is convex
# only on part of the range (sin, convex on [pi, 2 pi]), so its certification varies
MIXED_SPECS = (*ALL_FNS, QUAD_NEG_LOG, cvx.ConvexFnSpec("sin", np.sin, np.cos))


def test_mixed_terms_equal_one_spec_terms():
    # each point of terms over several specs holds the bits of one spec's terms on that
    # spec's points alone
    rng = np.random.default_rng(16)
    a, b = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(6.0), (2, 70))), axis=0)
    v = rng.uniform(0.01, 0.99, 70)
    which = rng.integers(0, len(MIXED_SPECS), 70)
    mixed = cvx._Terms(MIXED_SPECS, which, a, b, v)
    certified = set()
    for k, f in enumerate(MIXED_SPECS):
        at = which == k
        one = cvx._Terms((f,), 0, a[at], b[at], v[at])
        names = ("fa", "fb", "node", "f1", "f2", "fh", "fmh", "average", "fn_scale", "certified")
        pairs = [(getattr(mixed, name)[at], getattr(one, name)) for name in names]
        pairs += [(got[at], want) for got, want in zip(mixed.bounds, one.bounds)]
        assert at.any() and len(pairs) == 13
        for got, want in pairs:
            assert got.tobytes() == np.broadcast_to(want, got.shape).tobytes(), f.name
        certified |= set(mixed.certified[at].tolist())
    assert certified == {True, False}


def test_given_bounds_win_and_first_reads_are_kept():
    terms = cvx._Terms((EXP,), 0, np.array([1.0, 2.0]), np.array([2.0, 3.0]), 0.3,
                       bounds=(1.0, 2.0, 3.0))
    assert terms.bounds == (1.0, 2.0, 3.0)
    assert "average" not in vars(terms)
    assert terms.average is terms.average is vars(terms)["average"]


def term_reader(*names):
    """(f, a, b, v) -> the terms ``names`` read from one chain_terms call, named
    after the term it reads, or ``chain_terms`` if it reads several."""

    def read(f, a, b, v):
        terms = cvx.chain_terms(f, a, b, v)
        return [getattr(terms, name) for name in names]

    read.__name__ = names[0] if len(names) == 1 else "chain_terms"
    return read


class TestEvaluationCount:
    """f.fn is evaluated once for all chain points of a call."""

    @staticmethod
    def counting_square():
        calls = []

        def fn(t):
            calls.append(t)
            return SQUARE.fn(t)

        return dataclasses.replace(SQUARE, fn=fn), calls

    @pytest.mark.parametrize(
        "func, expected",
        [(term_reader(name), 1) for name in POINT_TERMS]
        + [
            (term_reader(*POINT_TERMS), 1),
            (cvx.gap_sandwich_check, 2),
            (cvx.refined_gap_check, 2),
            # one for the chain points, 2 quadrature levels of both pieces, one for f at their
            # left ends (a piece of zero length takes it) and 3 for the convexity spot check
            (cvx.chain_eval, 7),
            (bnd.deriv_gap_bounds, 4),
            (bnd.curvature_gap_bounds, 4),
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_fn_calls_on_square(self, func, expected):
        f, calls = self.counting_square()
        func(f, 1.0, 2.0, 0.3)
        assert len(calls) == expected
