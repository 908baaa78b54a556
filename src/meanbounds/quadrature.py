"""Adaptive composite Gauss-Legendre quadrature for smooth integrands.

Seven-point panels, panel count doubled per level, convergence judged from
the difference of consecutive levels.  The integrand must accept a flat ndarray
of abscissae and return one value per abscissa.  Only user-supplied convex
functions are integrated: the builtins have exact averages in ``convex``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(7)
_EPS = float(np.finfo(float).eps)
_CALL_SIZE = 7 * 2**13  # abscissae per integrand call, or one interval's: the arrays stay cached


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    max_levels: int = 20

    def __post_init__(self):
        if not 1e-14 <= self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in [1e-14, 1e-2], got {self.rel_tol}")
        if isinstance(self.max_levels, bool) or not (isinstance(self.max_levels, (int, np.integer))
                                                     and 1 <= self.max_levels <= 30):
            raise ValueError(f"max_levels must be an integer in [1, 30], got {self.max_levels!r}")


DEFAULT_QUAD = QuadConfig()


class QuadratureError(ArithmeticError, RuntimeError):
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


def integrate(fn, lo, hi, config: QuadConfig | None = None):
    """Integral of ``fn`` over each [lo, hi] (broadcast; numbers give a float) to the configured
    relative tolerance.  Each level calls ``fn`` on the flat abscissae of the intervals not yet
    converged, each integrated bit for bit as alone; zero width gives 0 without a call."""
    cfg = config if config is not None else DEFAULT_QUAD
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("integration limits must be finite")
    out = np.zeros(lo.shape)
    live = np.flatnonzero(lo != hi)  # the flat index of each interval not yet converged
    lo, hi = lo.ravel()[live], hi.ravel()[live]
    for level in range(cfg.max_levels + 1):
        n = 1 << level
        half, total, peak = 0.5 * (hi - lo) / n, np.empty(live.size), np.empty(live.size)
        chunk = max(1, _CALL_SIZE // (7 * n))  # intervals per call of fn
        for at in (slice(i, i + chunk) for i in range(0, live.size, chunk)):
            edges = np.linspace(lo[at], hi[at], n + 1).T  # each row as alone, n being a power of 2
            x = 0.5 * (edges[:, :-1] + edges[:, 1:])[..., None] + half[at, None, None] * _NODES
            fx = np.asarray(fn(x.ravel()), dtype=float)
            if fx.shape != (x.size,):
                raise ValueError("integrand must be vectorized over its input array")
            if not np.isfinite(fx).all():
                raise NonFiniteIntegrandError("integrand returned non-finite values")
            fx = fx.reshape(x.shape)  # (n, 7) @ weights per interval as alone: a dot at n = 1
            total[at] = half[at] * (fx @ _WEIGHTS).sum(axis=1)
            peak[at] = np.abs(fx).max(axis=(1, 2))
        if level:
            err = abs(total - prev)
            floor = 16.0 * _EPS * peak * abs(hi - lo)  # guards integrals that cancel to ~0
            done = err <= cfg.rel_tol * abs(total) + floor
            out.flat[live[done]] = total[done]
            live, lo, hi, total, err = (y[~done] for y in (live, lo, hi, total, err))
            if not live.size:
                return out if out.ndim else float(out)
        prev = total
    raise QuadratureError(float(total[0]), float(err[0]), cfg.rel_tol)
