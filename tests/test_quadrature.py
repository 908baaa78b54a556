import math

import numpy as np
import pytest

from meanbounds import quadrature
from meanbounds.quadrature import NonFiniteIntegrandError, QuadConfig, QuadratureError, integrate


def counting(fn):
    """fn, and the list of the abscissa counts of its calls."""
    calls = []
    return (lambda t: calls.append(np.size(t)) or fn(t)), calls


def wavy(t):
    return np.cosh(t) + np.sin(5.0 * t)


def one_at_a_time(lo, hi):
    """The one-interval call of wavy on each (lo, hi), and how often each called it."""
    values, levels = [], []
    for x, y in zip(lo, hi):
        fn, calls = counting(wavy)
        values.append(integrate(fn, x, y))
        levels.append(len(calls))
    return values, levels


def test_polynomial_exact():
    assert integrate(lambda t: t**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert integrate(lambda t: t**13, 0.0, 1.0) == pytest.approx(1.0 / 14.0, rel=1e-13)


def test_exponential():
    assert integrate(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)


def test_sign_changing_integrand():
    # integral of log over [1/2, 2] crosses zero inside the window
    got = integrate(np.log, 0.5, 2.0)
    expected = (2.0 * math.log(2.0) - 2.0) - (0.5 * math.log(0.5) - 0.5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_near_cancelling_integral():
    # antisymmetric integrand, true value 0; absolute floor must let it stop
    got = integrate(lambda t: t - 1.0, 0.0, 2.0)
    assert abs(got) < 1e-13


def test_zero_width():
    assert integrate(np.exp, 1.0, 1.0) == 0.0


def test_reversed_limits():
    assert integrate(np.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, rel=1e-13)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=1e-15)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.5)
    with pytest.raises(ValueError):
        QuadConfig(max_levels=0)
    with pytest.raises(ValueError):
        QuadConfig(max_levels=31)
    # range() raised TypeError on 2.5 and 3.0 at the first call, and True ran one level
    for max_levels in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="max_levels must be an integer"):
            QuadConfig(max_levels=max_levels)
    assert QuadConfig(max_levels=np.int64(5)).max_levels == 5


def test_nonconvergence_raises_with_context():
    step = lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(QuadratureError) as err:
        integrate(step, 0.0, 1.0, QuadConfig(rel_tol=1e-14, max_levels=4))
    assert math.isfinite(err.value.estimate)
    assert err.value.error_estimate > 0.0


def test_rejects_scalar_integrand():
    with pytest.raises(ValueError):
        integrate(lambda t: 1.0, 0.0, 1.0)


def test_rejects_nonfinite_values():
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(ValueError):
        integrate(lambda t: np.log(t - 0.5), 0.0, 1.0)


def test_rejects_nonfinite_limits():
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, math.inf)


def test_arrays_match_one_interval_calls():
    # zero-width and reversed intervals mixed in: each value is its one-interval call's, bit for
    # bit, and fn is called once per level, as often as the deepest interval alone calls it
    rng = np.random.default_rng(5)
    lo, hi = rng.uniform(-2.0, 2.0, (2, 40))
    hi[::7] = lo[::7]
    alone, levels = one_at_a_time(lo, hi)
    fn, calls = counting(wavy)
    got = integrate(fn, lo, hi)
    assert got.shape == lo.shape and np.array_equal(got, alone)
    assert all(isinstance(value, float) for value in alone)
    assert len(calls) == max(levels) and min(levels) == 0  # a zero-width interval: no call
    # the limits broadcast, and zero-width intervals alone make no call at all
    assert np.array_equal(integrate(wavy, 0.5, hi[None, :3]), [one_at_a_time([0.5] * 3, hi[:3])[0]])
    fn, calls = counting(wavy)
    assert np.array_equal(integrate(fn, lo[:3], lo[:3]), np.zeros(3)) and calls == []


def test_calls_hold_at_most_the_call_size(monkeypatch):
    # past the call size, a call takes as many whole intervals as fit in it, and one at least
    lo, hi = np.array([0.0, -1.0, 0.5]), np.array([1.0, 2.0, 0.6])
    alone, levels = one_at_a_time(lo, hi)
    monkeypatch.setattr(quadrature, "_CALL_SIZE", 14)
    fn, calls = counting(wavy)
    assert np.array_equal(integrate(fn, lo, hi), alone)
    # two intervals, then one at level 0; one interval per call from level 1 on
    live = [[n > level for n in levels].count(True) for level in range(max(levels))]
    assert calls == [14, 7] + [7 * 2**level for level in range(1, max(levels))
                               for _ in range(live[level])]


def test_array_call_raises_the_failing_intervals_error():
    # |t - 0.37| does not converge on [0, 1] in 4 levels; the linear pieces beside it do
    cfg = QuadConfig(max_levels=4)
    spike = lambda t: np.abs(t - 0.37)
    with pytest.raises(QuadratureError) as alone:
        integrate(spike, 0.0, 1.0, cfg)
    with pytest.raises(QuadratureError) as batched:
        integrate(spike, [1.0, 0.0, 2.0], [2.0, 1.0, 3.0], cfg)
    assert (batched.value.estimate, batched.value.error_estimate) == (
        alone.value.estimate, alone.value.error_estimate)
    assert str(batched.value) == str(alone.value)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntegrandError):
        integrate(np.sqrt, [1.0, -2.0, 2.0], [2.0, -1.0, 3.0])
