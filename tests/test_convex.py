import dataclasses
import math

import numpy as np
import pytest

from meanbounds import bounds as bnd
from meanbounds import convex as cvx
from meanbounds import scalar as sc
from meanbounds.quadrature import QuadConfig

E = math.e
EXP = cvx.get_builtin("exp")
NEG_LOG = cvx.get_builtin("neg-log")
SQUARE = cvx.get_builtin("square")
ALL_FNS = tuple(cvx.BUILTINS.values())
# exp and -log under fns of their own: no closed form matches them, so they integrate
QUAD_EXP = cvx.make_convex_fn("exp", lambda t: np.exp(t), np.exp, np.exp)
QUAD_NEG_LOG = cvx.make_convex_fn("neg-log", lambda t: -np.log(t), domain=(0.0, math.inf))


class TestTermEvaluators:
    def test_midpoint_estimate_collapse(self):
        assert cvx.midpoint_estimate(EXP, 1.0, 1.0, 0.37) == pytest.approx(E, rel=1e-15)

    def test_midpoint_estimate_exp(self):
        got = cvx.midpoint_estimate(EXP, 0.0, 1.0, 0.5)
        assert got == pytest.approx((math.exp(0.25) + math.exp(0.75)) / 2.0, rel=1e-15)
        assert got == pytest.approx(1.700512716650208, rel=1e-12)

    def test_midpoint_estimate_square(self):
        assert cvx.midpoint_estimate(SQUARE, 0.0, 1.0, 0.5) == pytest.approx(5.0 / 16.0)

    def test_trapezoid_estimate_collapse(self):
        assert cvx.trapezoid_estimate(EXP, 2.0, 2.0, 0.8) == pytest.approx(E**2, rel=1e-15)

    def test_trapezoid_estimate_square(self):
        assert cvx.trapezoid_estimate(SQUARE, 0.0, 1.0, 0.5) == pytest.approx(3.0 / 8.0)

    def test_trapezoid_estimate_exp(self):
        got = cvx.trapezoid_estimate(EXP, 1.0, 2.0, 0.25)
        expected = (0.75 * E + 0.25 * E**2 + math.exp(1.25)) / 2.0
        assert got == pytest.approx(expected, rel=1e-15)


class TestConvexityGap:
    def test_zero_weight(self):
        assert cvx.convexity_gap(EXP, 1.0, 5.0, 0.0) == 0.0

    def test_square(self):
        assert cvx.convexity_gap(SQUARE, 0.0, 1.0, 0.5) == pytest.approx(0.25)

    def test_exp(self):
        got = cvx.convexity_gap(EXP, 1.0, 4.0, 0.5)
        assert got == pytest.approx((E + E**4) / 2.0 - math.exp(2.5), rel=1e-14)
        assert got == pytest.approx(16.47572197009817, rel=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
            v = rng.uniform(0.0, 1.0)
            f = ALL_FNS[rng.integers(len(ALL_FNS))]
            assert cvx.convexity_gap(f, a, b, v) >= -1e-12 * max(
                1.0, abs(float(f.fn(a))), abs(float(f.fn(b)))
            )


class TestSharpenedBounds:
    def test_zero_weight_degenerates_to_endpoint(self):
        assert cvx.sharp_lower(EXP, 1.0, 3.0, 0.0) == pytest.approx(E, rel=1e-15)
        assert cvx.sharp_upper(EXP, 1.0, 3.0, 0.0) == pytest.approx(E, rel=1e-15)

    def test_square_hand_value(self):
        # at v = 1/2 the sharpened lower bound equals the midpoint estimate
        got = cvx.sharp_lower(SQUARE, 0.0, 1.0, 0.5)
        assert got == pytest.approx(5.0 / 16.0)
        assert got == pytest.approx(cvx.midpoint_estimate(SQUARE, 0.0, 1.0, 0.5))

    @pytest.mark.parametrize("f", [EXP, SQUARE])
    def test_half_weight_identity(self, f):
        assert cvx.sharp_lower(f, 1.0, 4.0, 0.5) == pytest.approx(
            cvx.midpoint_estimate(f, 1.0, 4.0, 0.5), rel=1e-14
        )

    def test_sharp_upper_exp(self):
        got = cvx.sharp_upper(EXP, 1.0, 4.0, 0.25)
        expected = 0.75 * E + 0.25 * E**4 - 0.25 * ((E + E**4) / 2.0 - math.exp(2.5))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(11.5693183871058, rel=1e-12)

    def test_maxweight_equals_sharp_at_half(self):
        assert cvx.maxweight_lower(EXP, 1.0, 4.0, 0.5) == cvx.sharp_lower(EXP, 1.0, 4.0, 0.5)
        assert cvx.maxweight_upper(EXP, 1.0, 4.0, 0.5) == cvx.sharp_upper(EXP, 1.0, 4.0, 0.5)

    def test_maxweight_difference_reference_values(self):
        d1 = cvx.maxweight_lower(EXP, 4.0, 1.0, 0.25) - cvx.maxweight_upper(EXP, 4.0, 1.0, 0.25)
        d2 = cvx.maxweight_lower(EXP, 8.0, 1.0, 0.25) - cvx.maxweight_upper(EXP, 8.0, 1.0, 0.25)
        assert d1 == pytest.approx(4.35403, abs=5e-4)
        assert d2 == pytest.approx(-30.7996, abs=5e-3)

    def test_maxweight_no_ordering(self):
        d1 = cvx.maxweight_lower(EXP, 4.0, 1.0, 0.25) - cvx.maxweight_upper(EXP, 4.0, 1.0, 0.25)
        d2 = cvx.maxweight_lower(EXP, 8.0, 1.0, 0.25) - cvx.maxweight_upper(EXP, 8.0, 1.0, 0.25)
        assert d1 > 0.0 > d2

    def test_maxweight_brackets_estimates(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
            v = rng.uniform(0.01, 0.99)
            f = ALL_FNS[rng.integers(len(ALL_FNS))]
            scale = max(1.0, abs(float(f.fn(a))), abs(float(f.fn(b))))
            assert cvx.midpoint_estimate(f, a, b, v) <= cvx.maxweight_lower(
                f, a, b, v
            ) + 1e-9 * scale
            assert cvx.maxweight_upper(f, a, b, v) <= cvx.trapezoid_estimate(
                f, a, b, v
            ) + 1e-9 * scale


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
        assert len(calls) == 2
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
        # every builtin, seeded draws; zero slack violations at 1e-9 scale
        for f in ALL_FNS:
            rng = np.random.default_rng(4242)
            for _ in range(10_000):
                a, b = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
                v = rng.uniform(0.01, 0.99)
                lo, hi = min(a, b), max(a, b)
                if hi - lo < 1e-6:
                    continue
                rep = cvx.chain_eval(f, lo, hi, v)
                assert rep.passed, (f.name, lo, hi, v, rep.slacks)

    def test_propagates_quadrature_failure(self):
        from meanbounds.quadrature import QuadratureError

        spiky = cvx.ConvexFnSpec(
            "spiky", lambda t: np.abs(np.asarray(t, dtype=float) - 0.37)
        )
        with pytest.raises(QuadratureError):
            cvx.chain_eval(spiky, 0.0, 1.0, 0.5, quad=QuadConfig(rel_tol=1e-13, max_levels=4))


class TestGapSandwich:
    def test_half_weight_equalities(self):
        res = cvx.gap_sandwich_check(EXP, 1.0, 4.0, 0.5)
        assert res.passed
        assert res.lhs == pytest.approx(res.mid, rel=1e-14)
        assert res.rhs == pytest.approx(res.mid, rel=1e-14)

    def test_zero_weight(self):
        res = cvx.gap_sandwich_check(EXP, 1.0, 4.0, 0.0)
        assert res.passed
        assert res.lhs == 0.0
        assert res.mid == 0.0

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
        got = {name: getattr(cvx, name)(f, float(a), float(b), v) for name in POINT_TERMS}
        assert got == expected


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
        [(getattr(cvx, name), 1) for name in POINT_TERMS]
        + [
            (cvx.gap_sandwich_check, 2),
            (cvx.refined_gap_check, 2),
            # one for the chain points, 2 x 2 quadrature levels, 3 for the convexity spot check
            (cvx.chain_eval, 8),
            (bnd.deriv_gap_bounds, 5),
            (bnd.curvature_gap_bounds, 5),
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_fn_calls_on_square(self, func, expected):
        f, calls = self.counting_square()
        func(f, 1.0, 2.0, 0.3)
        assert len(calls) == expected
