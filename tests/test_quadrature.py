import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanbounds import quadrature
from meanbounds.quadrature import QuadConfig, QuadratureError, integrate


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


class TestAbscissaeMemo:
    """Abscissae are built once per interval and level; the memo stays bounded."""

    def test_integrand_writing_into_its_input_cannot_corrupt_the_memo(self):
        def doubling(t):
            t *= 2.0
            return t

        integrate(np.exp, 0.0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            integrate(doubling, 0.0, 1.0)
        code = "import numpy as np; from meanbounds.quadrature import integrate; " \
               "print(repr(integrate(np.exp, 0.0, 1.0)))"
        env = dict(os.environ, PYTHONPATH=str(Path(quadrature.__file__).resolve().parents[1]))
        fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=120).stdout.strip()
        assert repr(integrate(np.exp, 0.0, 1.0)) == fresh

    def test_deep_levels_are_not_kept(self):
        quadrature._abscissae.cache_clear()
        step = lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0)
        with pytest.raises(QuadratureError):
            integrate(step, 0.0, 1.0, QuadConfig(rel_tol=1e-14, max_levels=20))
        # one entry per level up to the cap, none for levels 9-20
        assert quadrature._abscissae.cache_info().currsize == quadrature._MEMO_MAX_LEVEL + 1

    def test_memo_holds_about_one_megabyte_at_most(self):
        largest_entry = 7 * (1 << quadrature._MEMO_MAX_LEVEL) * 8
        assert quadrature._abscissae.cache_info().maxsize == quadrature._MEMO_MAX_ENTRIES
        assert quadrature._MEMO_MAX_ENTRIES * largest_entry <= 1 << 20
