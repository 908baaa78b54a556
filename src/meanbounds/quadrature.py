"""Adaptive composite Gauss-Legendre quadrature for smooth integrands.

Seven-point panels, panel count doubled per level, convergence judged from
the difference of consecutive levels.  The integrand must accept an ndarray
of abscissae and return one value per abscissa.  Only user-supplied convex
functions are integrated: the builtins have exact averages in ``convex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(7)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    max_levels: int = 20

    def __post_init__(self):
        if not 1e-14 <= self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in [1e-14, 1e-2], got {self.rel_tol}")
        if not 1 <= self.max_levels <= 30:
            raise ValueError(f"max_levels must lie in [1, 30], got {self.max_levels}")


DEFAULT_QUAD = QuadConfig()


class QuadratureError(RuntimeError):
    """Raised when refinement hits max_levels before reaching rel_tol.

    Carries the best estimate and the achieved error estimate so callers
    can decide whether the partial result is still usable.
    """

    def __init__(self, estimate: float, error_estimate: float, rel_tol: float):
        self.estimate = estimate
        self.error_estimate = error_estimate
        self.rel_tol = rel_tol
        super().__init__(
            f"quadrature did not converge: estimate={estimate!r}, "
            f"error_estimate={error_estimate!r}, rel_tol={rel_tol!r}"
        )


class NonFiniteIntegrandError(ArithmeticError, ValueError):
    """The integrand returned NaN or an infinity: a numeric failure, also a ValueError."""


def integrate(fn, lo: float, hi: float, config: QuadConfig | None = None) -> float:
    """Integral of ``fn`` over [lo, hi] to the configured relative tolerance."""
    cfg = config if config is not None else DEFAULT_QUAD
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if lo == hi:
        return 0.0

    prev = None
    total = math.nan
    err = math.inf
    for level in range(cfg.max_levels + 1):
        n = 1 << level
        edges = np.linspace(lo, hi, n + 1)
        half = 0.5 * (hi - lo) / n
        x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * _NODES[None, :]).ravel()
        fx = np.asarray(fn(x), dtype=float)
        if fx.shape != x.shape:
            raise ValueError("integrand must be vectorized over its input array")
        if not np.all(np.isfinite(fx)):
            raise NonFiniteIntegrandError("integrand returned non-finite values")
        total = float(half * (fx.reshape(-1, 7) @ _WEIGHTS).sum())
        if prev is not None:
            err = abs(total - prev)
            # absolute floor guards integrals that cancel to ~0
            floor = 16.0 * _EPS * float(np.max(np.abs(fx))) * abs(hi - lo)
            if err <= cfg.rel_tol * abs(total) + floor:
                return total
        prev = total
    raise QuadratureError(total, err, cfg.rel_tol)
