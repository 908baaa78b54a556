import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanbounds import scalar as sc

E = math.e

ALL_MEANS = (
    sc.weighted_arithmetic,
    sc.weighted_geometric,
    sc.weighted_logarithmic,
    sc.weighted_identric,
)


def logmean_direct(a, b, v):
    # definition-level oracle, independent of the expm1 kernel
    node = a ** (1.0 - v) * b**v
    return (1.0 / (math.log(a) - math.log(b))) * (
        (1.0 - v) / v * (a - node) + v / (1.0 - v) * (node - b)
    )


def identric_direct(a, b, v):
    # definition-level oracle, literal displayed formula
    node = (1.0 - v) * a + v * b
    log_iv = (
        -1.0
        + (1.0 - 2.0 * v) * node * math.log(node) / (v * (1.0 - v) * (b - a))
        + (v * b * math.log(b) / (1.0 - v) - (1.0 - v) * a * math.log(a) / v) / (b - a)
    )
    return math.exp(log_iv)


class TestArithmetic:
    def test_midpoint(self):
        assert sc.weighted_arithmetic(1, 3, 0.5) == 2.0

    def test_endpoint(self):
        assert sc.weighted_arithmetic(5, 9, 0.0) == 5.0
        assert sc.weighted_arithmetic(5, 9, 1.0) == 9.0

    def test_quarter(self):
        assert sc.weighted_arithmetic(4, 1, 0.25) == pytest.approx(3.25, rel=1e-15)


class TestGeometric:
    def test_sqrt(self):
        assert sc.weighted_geometric(1, 16, 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_equal_args_exact(self):
        assert sc.weighted_geometric(7, 7, 0.3) == 7.0

    def test_quarter_power(self):
        assert sc.weighted_geometric(1, 2, 0.25) == pytest.approx(2**0.25, rel=1e-14)


class TestLogarithmic:
    def test_classical_at_half(self):
        assert sc.weighted_logarithmic(1, E, 0.5) == pytest.approx(E - 1, rel=1e-14)

    def test_equal_args(self):
        assert sc.weighted_logarithmic(3, 3, 0.7) == 3.0

    def test_direct_formula_value(self):
        got = sc.weighted_logarithmic(1, 2, 0.25)
        assert got == pytest.approx(logmean_direct(1, 2, 0.25), rel=1e-13)
        assert got == pytest.approx(1.2088134576705436, rel=1e-12)

    def test_endpoints(self):
        assert sc.weighted_logarithmic(2, 5, 0.0) == 2.0
        assert sc.weighted_logarithmic(2, 5, 1.0) == 5.0

    @pytest.mark.parametrize("v", [0.1, 0.37, 0.5, 0.73, 0.9])
    @pytest.mark.parametrize("t", [0.001, 0.4, 1.7, 30.0, 1000.0])
    def test_matches_direct_formula(self, t, v):
        assert sc.weighted_logarithmic(1.0, t, v) == pytest.approx(
            logmean_direct(1.0, t, v), rel=1e-12
        )

    def test_tiny_gap_no_cancellation(self):
        for v in (0.1, 0.5, 0.9):
            got = sc.weighted_logarithmic(1.0, 1.0 + 1e-13, v)
            assert math.isfinite(got)
            assert abs(got - 1.0) <= 1e-8

    def test_weight_endpoint_continuity(self):
        a, b = 2.0, 7.0
        gaps = [abs(sc.weighted_logarithmic(a, b, v) - a) for v in (1e-4, 1e-8, 1e-12)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-10 * a

    def test_series_matches_formula_across_switch(self):
        for v in (0.1, 0.25, 0.5, 0.75, 0.9):
            for h in (3e-9, 8e-9, 1e-8, 2e-8, 1e-7):
                lhs = sc._log_mean_unit_series(h, v)
                rhs = sc._log_mean_unit_formula(h, v)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_vectorized(self):
        ts = np.array([0.5, 1.0, 2.0])
        out = sc.log_mean_unit(ts, 0.3)
        assert out.shape == ts.shape
        assert out[1] == 1.0


class TestIdentric:
    def test_classical_at_half(self):
        assert sc.weighted_identric(1, E, 0.5) == pytest.approx(
            math.exp(1.0 / (E - 1.0)), rel=1e-14
        )

    def test_equal_args(self):
        assert sc.weighted_identric(5, 5, 0.2) == 5.0

    def test_closed_form_one_four(self):
        got = sc.weighted_identric(1, 4, 0.5)
        assert got == pytest.approx((1.0 / E) * 4.0 ** (4.0 / 3.0), rel=1e-14)
        assert got == pytest.approx(2.3358888476520834, rel=1e-12)

    def test_endpoints(self):
        assert sc.weighted_identric(2, 5, 0.0) == 2.0
        assert sc.weighted_identric(2, 5, 1.0) == 5.0

    @pytest.mark.parametrize("v", [0.1, 0.3, 0.5, 0.62, 0.9])
    @pytest.mark.parametrize("ab", [(0.5, 3.0), (1.0, 4.0), (2.0, 2.5), (9.0, 0.2)])
    def test_matches_direct_formula(self, ab, v):
        a, b = ab
        assert sc.weighted_identric(a, b, v) == pytest.approx(
            identric_direct(a, b, v), rel=1e-10
        )

    def test_series_switch_continuity(self):
        # just above the switch the full path agrees with the collapse value
        a = 1.0
        for db in (2e-8, 5e-8):
            b = 1.0 + db
            full = sc.weighted_identric(a, b, 0.3)
            collapse = sc.weighted_arithmetic(a, b, 0.3)
            assert full == pytest.approx(collapse, rel=1e-12)


class TestValidation:
    @pytest.mark.parametrize("mean", ALL_MEANS)
    def test_rejects_nonpositive(self, mean):
        with pytest.raises(ValueError):
            mean(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            mean(1.0, 0.0, 0.5)

    @pytest.mark.parametrize("mean", ALL_MEANS)
    def test_rejects_bad_weight(self, mean):
        with pytest.raises(ValueError):
            mean(1.0, 2.0, -0.1)
        with pytest.raises(ValueError):
            mean(1.0, 2.0, 1.1)
        with pytest.raises(ValueError):
            mean(1.0, 2.0, math.nan)

    def test_rejects_nonfinite_args(self):
        with pytest.raises(ValueError):
            sc.weighted_logarithmic(math.inf, 1.0, 0.5)


class TestKernelTrims:
    """One kernel call for both identric pieces, one reduction per input check."""

    @staticmethod
    def two_call_form(a, b, v):
        # log_weighted_identric with one 0-d kernel call per piece, each
        # piece's rho a difference of logs
        if v > 0.5:
            a, b, v = b, a, 1.0 - v
        log_a, log_b, log_n = np.log(a), np.log(b), np.log((1.0 - v) * a + v * b)
        if abs(log_b - log_a) < sc.H_SWITCH:
            return float(log_n)
        rho = log_n - log_a
        return float(
            log_n
            + (1.0 - v) * (sc._identric_rho(np.array(rho)) - rho)
            + v * sc._identric_rho(np.array(log_b - log_n))
        )

    def test_log_weighted_identric_matches_two_call_form(self):
        rng = np.random.default_rng(2020)
        near = sc.H_SWITCH * np.array([0.5, 0.99, 0.999999, 1.000001, 1.01, 2.0, 100.0])
        draws = 0
        for _ in range(200):
            a = float(np.exp(rng.uniform(-7.0, 7.0)))
            hs = np.concatenate([rng.uniform(-9.0, 9.0, 3), near, -near])
            for h in hs:
                b = a * math.exp(h)
                for v in (float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 1.0)), 0.5):
                    got = sc.log_weighted_identric(a, b, v)
                    assert type(got) is float
                    assert got == self.two_call_form(a, b, v), (a, b, v)
                    draws += 1
        assert draws >= 1000

    BAD = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize(
        "kernel, message",
        [(lambda t: sc.log_mean_unit(t, 0.3), "log_mean_unit needs finite positive arguments"),
         (sc.identric_unit_log, "identric_unit_log needs finite positive arguments")],
        ids=["log_mean_unit", "identric_unit_log"],
    )
    def test_input_check_messages(self, kernel, message, bad):
        for arg in (bad, np.float64(bad), np.array(bad), np.array([1.0, bad, 2.0]),
                    np.array([[2.0], [bad]])):
            with pytest.raises(ValueError, match=f"^{message}$"):
                kernel(arg)


pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
wt = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(a=pos, b=pos, v=wt)
@pytest.mark.parametrize("mean", ALL_MEANS)
def test_symmetry(mean, a, b, v):
    lhs = mean(a, b, v)
    rhs = mean(b, a, 1.0 - v)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(a=pos, b=pos, v=wt, c=pos)
@pytest.mark.parametrize("mean", ALL_MEANS)
def test_homogeneity(mean, a, b, v, c):
    assert mean(c * a, c * b, v) == pytest.approx(c * mean(a, b, v), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(a=pos, b=pos, v=wt)
@pytest.mark.parametrize("mean", ALL_MEANS)
def test_betweenness(mean, a, b, v):
    got = mean(a, b, v)
    lo, hi = min(a, b), max(a, b)
    assert lo * (1.0 - 1e-12) <= got <= hi * (1.0 + 1e-12)


class TestChains:
    def test_log_chain_collapse(self):
        rep = sc.logarithmic_chain(1.0, 1.0, 0.4)
        assert rep.passed
        assert all(x == 1.0 for x in rep.values)

    def test_log_chain_middle_term(self):
        rep = sc.logarithmic_chain(1.0, 2.0, 0.25)
        assert rep.passed
        assert rep.values[2] == pytest.approx(1.2088134576705436, rel=1e-12)
        assert all(s >= 0.0 for s in rep.slacks)

    def test_log_chain_reversed_orientation(self):
        rep = sc.logarithmic_chain(4.0, 1.0, 0.25)
        assert rep.passed
        mirrored = sc.logarithmic_chain(1.0, 4.0, 0.75)
        assert rep.values == pytest.approx(mirrored.values, rel=1e-13)

    def test_identric_chain_collapse(self):
        rep = sc.identric_chain(2.0, 2.0, 0.5)
        assert rep.passed
        assert all(x == 2.0 for x in rep.values)

    def test_identric_chain_middle_term(self):
        rep = sc.identric_chain(1.0, 4.0, 0.5)
        assert rep.passed
        assert rep.values[2] == pytest.approx(sc.weighted_identric(1, 4, 0.5), rel=1e-15)
        assert all(s >= 0.0 for s in rep.slacks)

    def test_identric_chain_wide(self):
        assert sc.identric_chain(1.0, 10.0, 0.9).passed

    def test_chain_endpoint_weights_degenerate(self):
        for v in (0.0, 1.0):
            rep = sc.logarithmic_chain(2.0, 3.0, v)
            assert rep.passed
            assert max(rep.values) - min(rep.values) <= 1e-14 * max(rep.values)

    def test_random_suite(self):
        rng = np.random.default_rng(1234)
        for _ in range(2000):
            a, b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2))
            v = rng.uniform(0.01, 0.99)
            rep = sc.logarithmic_chain(a, b, v)
            assert rep.passed, (a, b, v, rep.slacks)
            rep = sc.identric_chain(a, b, v)
            assert rep.passed, (a, b, v, rep.slacks)

    def test_report_scale_is_max_abs_value(self):
        rep = sc.logarithmic_chain(1.0, 2.0, 0.25)
        assert rep.scale == max(abs(x) for x in rep.values)
