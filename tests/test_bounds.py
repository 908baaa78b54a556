import math
import warnings

import numpy as np
import pytest

from meanbounds import bounds as bnd
from meanbounds import convex as cvx

E = math.e
EXP = cvx.get_builtin("exp")
NEG_LOG = cvx.get_builtin("neg-log")
SQUARE = cvx.get_builtin("square")
QUARTIC = cvx.get_builtin("quartic")
XLOGX = cvx.get_builtin("xlogx")


class TestDerivativeBounds:
    def test_exp_exact(self):
        assert bnd.derivative_bounds(EXP, 1.0, 2.0) == pytest.approx((E**2, E, E**2))

    def test_neg_log_exact(self):
        assert bnd.derivative_bounds(NEG_LOG, 1.0, 4.0) == pytest.approx(
            (1.0, 1.0 / 16.0, 1.0)
        )

    def test_quartic_endpoints(self):
        assert bnd.derivative_bounds(QUARTIC, 0.0, 1.0) == pytest.approx((4.0, 0.0, 12.0))

    def test_quartic_straddles_zero(self):
        k, m, big_m = bnd.derivative_bounds(QUARTIC, -2.0, 1.0)
        assert (k, m, big_m) == pytest.approx((32.0, 0.0, 48.0))

    def test_square(self):
        assert bnd.derivative_bounds(SQUARE, -2.0, 1.0) == pytest.approx((4.0, 2.0, 2.0))

    def test_xlogx(self):
        k, m, big_m = bnd.derivative_bounds(XLOGX, 1.0, 4.0)
        assert (k, m, big_m) == pytest.approx((math.log(4.0) + 1.0, 0.25, 1.0))

    def test_sampled_path_conservative(self):
        plain = cvx.ConvexFnSpec("exp-plain", np.exp, np.exp, np.exp)
        k, m, big_m = bnd.derivative_bounds(plain, 1.0, 2.0)
        assert k >= E**2 and m <= E and big_m >= E**2
        assert k == pytest.approx(E**2, rel=0.02)

    def test_finite_difference_fallback(self):
        bare = cvx.ConvexFnSpec("exp-bare", np.exp)
        k, m, big_m = bnd.derivative_bounds(bare, 1.0, 2.0)
        assert k == pytest.approx(1.01 * E**2, rel=1e-4)
        assert m == pytest.approx(0.99 * E, rel=1e-3)
        assert big_m == pytest.approx(1.01 * E**2, rel=1e-3)

    @pytest.mark.parametrize("f, a, b, message", [
        (NEG_LOG, -1.0, 2.0, "not inside the domain of 'neg-log'"),  # was K = -1.0
        (EXP, math.nan, 1.0, "^interval endpoints must be finite$"),  # was OverflowError
        (XLOGX, -2.0, -1.0, "not inside the domain of 'xlogx'"),  # was NaN and a warning
    ], ids=["neg-log-outside", "exp-nan", "xlogx-outside"])
    def test_interval_is_checked(self, f, a, b, message):
        with pytest.raises(ValueError, match=message):
            bnd.derivative_bounds(f, a, b)

    def test_either_order(self):
        assert bnd.derivative_bounds(XLOGX, 4.0, 1.0) == bnd.derivative_bounds(XLOGX, 1.0, 4.0)

    def test_sampled_overflow_raises_without_a_warning(self):
        # the sampled derivatives of exp overflow on [700, 710]
        plain = cvx.ConvexFnSpec("e", np.exp, np.exp, np.exp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="^derivative bounds are not finite$"):
                bnd.derivative_bounds(plain, 700.0, 710.0)
            with pytest.raises(FloatingPointError, match="^derivative bounds are not finite$"):
                bnd.derivative_bounds(plain, np.array([1.0, 700.0]), np.array([2.0, 710.0]))
            with pytest.raises(OverflowError):  # the builtin's exact bounds, as before
                bnd.derivative_bounds(EXP, 700.0, 710.0)


class TestHHGapBounds:
    def test_trapezoid_square_pinned(self):
        rep = bnd.trapezoid_gap_bounds(SQUARE, 0.0, 1.0)
        assert rep.passed
        assert rep.gap == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert rep.lower_bound == pytest.approx(rep.upper_bound)

    def test_trapezoid_exp(self):
        rep = bnd.trapezoid_gap_bounds(EXP, 0.0, 1.0)
        assert rep.passed
        assert rep.gap == pytest.approx((1.0 + E) / 2.0 - (E - 1.0), rel=1e-12)
        assert rep.gap == pytest.approx(0.140859085770477, rel=1e-10)
        assert (rep.lower_bound, rep.upper_bound) == pytest.approx((1.0 / 12.0, E / 12.0))

    def test_trapezoid_neg_log(self):
        rep = bnd.trapezoid_gap_bounds(NEG_LOG, 1.0, 2.0)
        assert rep.passed
        assert rep.gap == pytest.approx(-math.log(math.sqrt(2.0)) + 2.0 * math.log(2.0) - 1.0,
                                        rel=1e-10)
        assert (rep.lower_bound, rep.upper_bound) == pytest.approx((1.0 / 48.0, 1.0 / 12.0))

    def test_midpoint_square_pinned(self):
        rep = bnd.midpoint_gap_bounds(SQUARE, 0.0, 1.0)
        assert rep.passed
        assert rep.gap == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_midpoint_exp_wide(self):
        rep = bnd.midpoint_gap_bounds(EXP, 0.0, 2.0)
        assert rep.passed
        assert rep.gap == pytest.approx((E**2 - 1.0) / 2.0 - E, rel=1e-12)
        assert (rep.lower_bound, rep.upper_bound) == pytest.approx((1.0 / 6.0, E**2 / 6.0))

    def test_midpoint_exp_unit(self):
        rep = bnd.midpoint_gap_bounds(EXP, 0.0, 1.0)
        assert rep.passed
        assert rep.gap == pytest.approx(E - 1.0 - math.sqrt(E), rel=1e-10)
        assert rep.gap == pytest.approx(0.0695605577589169, rel=1e-10)
        assert (rep.lower_bound, rep.upper_bound) == pytest.approx((1.0 / 24.0, E / 24.0))


    @pytest.mark.parametrize("f", list(cvx.BUILTINS.values()), ids=lambda f: f.name)
    def test_half_weight_gaps_are_the_chain_at_one_half(self, f):
        # the trapezoid rule is the endpoint average, the midpoint rule f at the node, bit for bit
        rng = np.random.default_rng(19)
        a, b = np.sort(rng.uniform(0.1, 10.0, (2, 200)), axis=0)
        t = cvx.chain_terms(f, a, b, 0.5)
        _, m, big_m = bnd.derivative_bounds(f, a, b)
        quarter = np.square((b - a) / 2.0)
        for rep, gap, divisor in ((bnd.trapezoid_gap_bounds(f, a, b),
                                   t.endpoint_average - t.average, 3.0),
                                  (bnd.midpoint_gap_bounds(f, a, b),
                                   t.average - t.node, 6.0)):
            assert rep.gap.tolist() == gap.tolist()
            assert rep.lower_bound.tolist() == (m / divisor * quarter).tolist()
            assert rep.upper_bound.tolist() == (big_m / divisor * quarter).tolist()
            assert rep.passed.all()


class TestDerivGapBounds:
    def test_vanishing_weight_bound(self):
        rep1, rep2 = bnd.deriv_gap_bounds(EXP, 1.0, 2.0, 1e-9)
        assert rep1.upper_bound < 1e-8
        assert rep1.passed and rep2.passed

    def test_exp_with_stated_k(self):
        rep1, rep2 = bnd.deriv_gap_bounds(EXP, 1.0, 2.0, 0.25, K=E**2)
        bound = 0.25 * 0.75 * E**2 * 0.5
        assert rep1.upper_bound == pytest.approx(bound)
        assert rep2.upper_bound == pytest.approx(bound)
        assert rep1.passed and rep2.passed
        assert rep1.gap >= 0.0 and rep2.gap >= 0.0

    def test_neg_log_unit_k(self):
        rep1, rep2 = bnd.deriv_gap_bounds(NEG_LOG, 1.0, 4.0, 0.5, K=1.0)
        assert rep1.upper_bound == pytest.approx(0.375)
        assert rep1.passed and rep2.passed

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            bnd.deriv_gap_bounds(EXP, 2.0, 1.0, 0.5)

    @pytest.mark.parametrize("fn", [bnd.deriv_gap_bounds, bnd.curvature_gap_bounds])
    def test_interval_outside_domain_names_the_domain(self, fn):
        # checked before the derivative bounds, which would hit log(-2)
        with pytest.raises(ValueError, match="not inside the domain of 'xlogx'"):
            fn(XLOGX, -2.0, -1.0, 0.3)


class TestCurvatureGapBounds:
    def test_square_pins_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = sorted(rng.uniform(0.1, 10.0, 2))
            if b - a < 1e-6:
                continue
            v = rng.uniform(0.01, 0.99)
            for rep in bnd.curvature_gap_bounds(SQUARE, a, b, v):
                assert rep.lower_bound == pytest.approx(rep.upper_bound, rel=1e-14)
                assert abs(rep.gap - rep.lower_bound) <= 1e-10 * rep.scale

    def test_exp_sandwich(self):
        rep1, rep2 = bnd.curvature_gap_bounds(EXP, 1.0, 2.0, 0.25, m=E, M=E**2)
        assert rep1.passed and rep2.passed

    def test_neg_log_sandwich(self):
        rep1, rep2 = bnd.curvature_gap_bounds(NEG_LOG, 1.0, 3.0, 2.0 / 3.0, m=1.0 / 9.0, M=1.0)
        assert rep1.passed and rep2.passed

    def test_lower_bounds_nonnegative_for_builtins(self):
        rng = np.random.default_rng(5)
        for f in (EXP, NEG_LOG, SQUARE, QUARTIC, XLOGX):
            for _ in range(50):
                a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
                if b - a < 1e-6:
                    continue
                v = rng.uniform(0.01, 0.99)
                for rep in bnd.curvature_gap_bounds(f, a, b, v):
                    assert rep.lower_bound >= 0.0


class TestLogmeanCorollaries:
    def test_reverse_collapse(self):
        rep1, rep2 = bnd.logmean_diff_reverse(2.0, 2.0, 0.3)
        assert rep1.passed and rep2.passed
        assert rep1.gap == pytest.approx(0.0, abs=1e-14)
        assert rep1.upper_bound == 0.0

    def test_reverse_small(self):
        for rep in bnd.logmean_diff_reverse(1.0, 2.0, 0.25):
            assert rep.passed

    def test_reverse_wide(self):
        for rep in bnd.logmean_diff_reverse(1.0, 100.0, 0.5):
            assert rep.passed

    def test_refinement_collapse(self):
        rep1, rep2 = bnd.logmean_diff_refinement(3.0, 3.0, 0.5)
        assert rep1.passed and rep2.passed
        assert rep1.gap == pytest.approx(0.0, abs=1e-14)

    def test_refinement_cases(self):
        for a, b, v in ((1.0, 2.0, 0.25), (1.0, 10.0, 0.6)):
            for rep in bnd.logmean_diff_refinement(a, b, v):
                assert rep.passed

    def test_refinement_lower_bounds_strictly_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
            if b - a < 1e-9:
                continue
            v = rng.uniform(0.01, 0.99)
            rep1, rep2 = bnd.logmean_diff_refinement(a, b, v)
            assert rep1.lower_bound > 0.0
            assert rep2.lower_bound > 0.0

    @pytest.mark.parametrize(
        "fn",
        [
            bnd.logmean_diff_reverse,
            bnd.logmean_diff_refinement,
            bnd.identric_ratio_reverse,
            bnd.identric_ratio_refinement,
        ],
    )
    def test_orientation_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(2.0, 1.0, 0.5)


class TestIdentricCorollaries:
    def test_reverse_collapse(self):
        rep1, rep2 = bnd.identric_ratio_reverse(2.0, 2.0, 0.3)
        assert rep1.passed and rep2.passed
        assert rep1.gap == pytest.approx(0.0, abs=1e-13)

    def test_reverse_cases(self):
        for a, b, v in ((1.0, 2.0, 1.0 / 3.0), (2.0, 5.0, 0.8)):
            for rep in bnd.identric_ratio_reverse(a, b, v):
                assert rep.passed

    def test_refinement_collapse(self):
        for rep in bnd.identric_ratio_refinement(4.0, 4.0, 0.7):
            assert rep.passed

    def test_refinement_cases(self):
        for a, b, v in ((1.0, 2.0, 0.5), (3.0, 4.0, 0.9)):
            for rep in bnd.identric_ratio_refinement(a, b, v):
                assert rep.passed

    def test_small_a_no_overflow(self):
        # exponent (b-a)/(2a) is huge; the log-domain check must survive it
        for rep in bnd.identric_ratio_reverse(1e-3, 1e3, 0.5):
            assert rep.passed
            assert math.isfinite(rep.gap)


class TestSpecializationCoherence:
    """cor31/cor33 are thm32/thm33 at exp on [log a, log b], cor32/cor34 at -log on
    [a, b]: gaps, bounds and tolerance are the theorem's, and so is the scale, which
    the log-domain cor32/cor34 keep at 1 or more."""

    @staticmethod
    def same(srep, trep):
        fields = ("gap", "lower_bound", "upper_bound", "tol_used")
        assert [getattr(srep, x) for x in fields] == [getattr(trep, x) for x in fields]

    @staticmethod
    def draws(seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            a, b = sorted(np.exp(rng.uniform(np.log(0.5), np.log(50.0), 2)).tolist())
            if b / a >= 1.0 + 1e-6:
                yield a, b, float(rng.uniform(0.05, 0.95))

    def test_cor31_matches_thm32_through_exp(self):
        for a, b, v in self.draws(17):
            theorem = bnd.deriv_gap_bounds(EXP, math.log(a), math.log(b), v, K=b, tol=1e-12)
            for srep, trep in zip(bnd.logmean_diff_reverse(a, b, v), theorem):
                self.same(srep, trep)
                assert (srep.scale, srep.passed) == (trep.scale, trep.passed)

    def test_cor33_matches_thm33_through_exp(self):
        for a, b, v in self.draws(19):
            theorem = bnd.curvature_gap_bounds(EXP, math.log(a), math.log(b), v, m=a, M=b,
                                               tol=1e-12)
            for srep, trep in zip(bnd.logmean_diff_refinement(a, b, v), theorem):
                self.same(srep, trep)
                assert (srep.scale, srep.passed) == (trep.scale, trep.passed)

    def test_cor32_cor34_match_the_theorems_through_neg_log(self):
        for a, b, v in self.draws(23):
            for cor, thm in ((bnd.identric_ratio_reverse, bnd.deriv_gap_bounds),
                             (bnd.identric_ratio_refinement, bnd.curvature_gap_bounds)):
                for srep, trep in zip(cor(a, b, v), thm(NEG_LOG, a, b, v, tol=1e-12)):
                    self.same(srep, trep)
                    assert srep.scale == max(trep.scale, 1.0) and srep.passed


class TestRandomSuites:
    def test_thm_bounds_random(self):
        rng = np.random.default_rng(23)
        fns = (EXP, NEG_LOG, SQUARE, QUARTIC, XLOGX)
        for i in range(500):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
            if b - a < 1e-6:
                continue
            v = rng.uniform(0.01, 0.99)
            f = fns[i % len(fns)]
            for rep in bnd.deriv_gap_bounds(f, a, b, v):
                assert rep.passed, (f.name, a, b, v, rep)
            for rep in bnd.curvature_gap_bounds(f, a, b, v):
                assert rep.passed, (f.name, a, b, v, rep)

    def test_corollaries_random(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
            v = rng.uniform(0.01, 0.99)
            for fn in (
                bnd.logmean_diff_reverse,
                bnd.identric_ratio_reverse,
                bnd.logmean_diff_refinement,
                bnd.identric_ratio_refinement,
            ):
                for rep in fn(a, b, v):
                    assert rep.passed, (fn.__name__, a, b, v, rep)

    def test_wide_separated_ranges(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = rng.uniform(0.1, 0.2)
            b = rng.uniform(50.0, 100.0)
            v = rng.uniform(0.01, 0.99)
            for rep in bnd.logmean_diff_reverse(a, b, v) + bnd.logmean_diff_refinement(a, b, v):
                assert rep.passed
