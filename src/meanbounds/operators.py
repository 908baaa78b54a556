"""Operator means on symmetric positive-definite matrices.

A scalar mean m with representing function g(t) = m(1, t) lifts to SPD
matrices through the congruence

    M(A, B) = A^{1/2} g(A^{-1/2} B A^{-1/2}) A^{1/2},

with the matrix function taken via the symmetric eigendecomposition.
Every functional-calculus output is symmetrized as (X + X^T)/2 so that
Loewner-order eigenvalue tests are not corrupted by roundoff.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .reports import ChainReport, Report
from .scalar import check_weight, log_mean_unit

OPERATOR_CHAIN_LABELS = (
    "geometric",
    "split_geometric_mix",
    "logarithmic",
    "avg_geom_arith",
    "arithmetic",
)

SYMMETRY_TOL = 1e-12


class NumericalBreakdown(RuntimeError):
    """A computed operator mean failed its SPD validation.

    Signals loss of positivity beyond tolerance, typically from extreme
    conditioning; distinct from invalid user input."""


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


class SpdMatrix:
    """Immutable symmetric positive-definite matrix.

    Construction validates symmetry (relative to the largest entry) and
    strict positive-definiteness via the smallest eigenvalue.
    """

    __slots__ = ("_m",)

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"entries must form a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        scale = float(np.max(np.abs(m)))
        if float(np.max(np.abs(m - m.T))) > SYMMETRY_TOL * max(scale, np.finfo(float).tiny):
            raise ValueError("matrix is not symmetric within tolerance")
        m = _sym(m)
        eigvals = np.linalg.eigvalsh(m)
        if eigvals[0] <= 0.0:
            raise ValueError(f"matrix is not positive definite (min eig {eigvals[0]!r})")
        m.setflags(write=False)
        self._m = m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._m

    def to_dict(self) -> dict:
        return {"dim": self.dim, "rows": self._m.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "SpdMatrix":
        try:
            dim = int(payload["dim"])
            rows = payload["rows"]
        except (KeyError, TypeError) as exc:
            raise ValueError('matrix JSON needs keys "dim" and "rows"') from exc
        m = np.array(rows, dtype=float)
        if m.shape != (dim, dim):
            raise ValueError(f'"rows" shape {m.shape} does not match "dim" {dim}')
        return cls(m)

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim})"


@dataclass(frozen=True)
class LoewnerVerdict(Report):
    """Outcome of a positive-semidefiniteness test on a difference.

    ``holds`` iff ``min_eig_of_difference >= -tol_used`` where tol_used is
    the requested relative tolerance scaled by the sum of the operands'
    spectral norms.
    """

    min_eig_of_difference: float
    tol_used: float
    holds: bool


def _as_entries(x) -> np.ndarray:
    if isinstance(x, SpdMatrix):
        return x.entries
    m = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def matrix_function(a, g) -> np.ndarray:
    """U diag(g(lambda)) U^T for the symmetric eigendecomposition of ``a``.

    ``g`` receives the eigenvalue array; the result is symmetrized.
    """
    m = _as_entries(a)
    lam, u = np.linalg.eigh(m)
    vals = np.asarray(g(lam), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix function undefined on part of the spectrum")
    return _sym((u * vals) @ u.T)


def _check_operands(a: SpdMatrix, b: SpdMatrix, v) -> float:
    v = check_weight(v)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return v


def _congruence_spectrum(a: SpdMatrix, b: SpdMatrix):
    """Eigen-data of A^{-1/2} B A^{-1/2} plus the frame A^{1/2} V."""
    lam_a, u = np.linalg.eigh(a.entries)
    root = (u * np.sqrt(lam_a)) @ u.T
    inv_root = (u / np.sqrt(lam_a)) @ u.T
    inner = _sym(inv_root @ b.entries @ inv_root)
    lam, v = np.linalg.eigh(inner)
    if lam[0] <= 0.0:
        raise NumericalBreakdown(
            "congruence transform lost positivity; inputs too ill-conditioned"
        )
    return lam, root @ v


def _from_representing(frame: np.ndarray, values: np.ndarray) -> np.ndarray:
    return _sym((frame * values) @ frame.T)


def weighted_arithmetic(a: SpdMatrix, b: SpdMatrix, v) -> SpdMatrix:
    """(1-v) A + v B."""
    v = _check_operands(a, b, v)
    return SpdMatrix((1.0 - v) * a.entries + v * b.entries)


def _lift(a: SpdMatrix, b: SpdMatrix, v, representing) -> SpdMatrix:
    """The congruence lift of ``representing(t, v)`` = m(1, t); weight
    endpoints return A and B."""
    v = _check_operands(a, b, v)
    if v == 0.0:
        return SpdMatrix(a.entries)
    if v == 1.0:
        return SpdMatrix(b.entries)
    lam, frame = _congruence_spectrum(a, b)
    mean = _from_representing(frame, representing(lam, v))
    try:
        return SpdMatrix(mean)
    except ValueError as exc:
        raise NumericalBreakdown(f"computed mean failed SPD validation: {exc}") from None


def weighted_geometric(a: SpdMatrix, b: SpdMatrix, v) -> SpdMatrix:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^v A^{1/2}."""
    return _lift(a, b, v, operator.pow)


def weighted_logarithmic(a: SpdMatrix, b: SpdMatrix, v) -> SpdMatrix:
    """Operator lift of the weighted logarithmic mean.

    Applies the representing function L_v(1, t) to the spectrum of
    A^{-1/2} B A^{-1/2}.
    """
    return _lift(a, b, v, log_mean_unit)


def spectral_norm(x) -> float:
    m = _as_entries(x)
    return float(np.max(np.abs(np.linalg.eigvalsh(_sym(m)))))


def loewner_leq(x, y, tol: float = 1e-10) -> LoewnerVerdict:
    """Test X <= Y in the Loewner order.

    Holds when the smallest eigenvalue of Y - X is at least
    -tol * (||X||_2 + ||Y||_2).
    """
    xm = _as_entries(x)
    ym = _as_entries(y)
    if xm.shape != ym.shape:
        raise ValueError(f"dimension mismatch: {xm.shape} vs {ym.shape}")
    min_eig = float(np.linalg.eigvalsh(_sym(ym - xm))[0])
    tol_used = tol * (spectral_norm(xm) + spectral_norm(ym))
    return LoewnerVerdict(min_eig, tol_used, min_eig >= -tol_used)


@dataclass(frozen=True)
class OperatorChainReport:
    """Matrix analogue of ChainReport: terms plus consecutive Loewner verdicts."""

    labels: tuple[str, ...]
    terms: tuple[np.ndarray, ...]
    verdicts: tuple[LoewnerVerdict, ...]
    tol_used: float
    passed: bool

    def min_eigs(self) -> tuple[float, ...]:
        return tuple(vd.min_eig_of_difference for vd in self.verdicts)

    def to_dict(self) -> dict:
        """The report without its matrices, each verdict as a nested object."""
        return {
            "labels": list(self.labels),
            "verdicts": [vd.to_dict() for vd in self.verdicts],
            "tol_used": self.tol_used,
            "pass": self.passed,
        }


def operator_chain(a: SpdMatrix, b: SpdMatrix, v, tol: float = 1e-10) -> OperatorChainReport:
    """Five-term operator chain in the Loewner order.

    geometric <= (1-v) geo(v/2) + v geo((1+v)/2) <= logarithmic
              <= (geometric + arithmetic)/2 <= arithmetic.
    """
    v = _check_operands(a, b, v)
    lam, frame = _congruence_spectrum(a, b)
    geo = _from_representing(frame, lam**v)
    mix = (1.0 - v) * _from_representing(frame, lam ** (v / 2.0)) + v * _from_representing(
        frame, lam ** ((1.0 + v) / 2.0)
    )
    logm = _from_representing(frame, log_mean_unit(lam, v))
    arith = (1.0 - v) * a.entries + v * b.entries
    avg = 0.5 * (geo + arith)
    terms = (geo, mix, logm, avg, arith)
    verdicts = tuple(loewner_leq(terms[i], terms[i + 1], tol) for i in range(4))
    passed = all(vd.holds for vd in verdicts)
    return OperatorChainReport(OPERATOR_CHAIN_LABELS, terms, verdicts, tol, passed)


def _representing_terms(t, v):
    """The five scalar chain terms at argument t (vectorized)."""
    t = np.asarray(t, dtype=float)
    return (
        t**v,
        (1.0 - v) * t ** (v / 2.0) + v * t ** ((1.0 + v) / 2.0),
        log_mean_unit(t, v),
        0.5 * (t**v + (1.0 - v) + v * t),
        (1.0 - v) + v * t,
    )


def representing_chain(t: float, v, tol: float = 1e-12) -> ChainReport:
    """Scalar chain underlying the operator chain, at the point t > 0.

    t^v <= (1-v) t^{v/2} + v t^{(1+v)/2} <= L_v(1,t)
        <= (t^v + (1-v) + v t)/2 <= (1-v) + v t.
    """
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be finite and positive, got {t}")
    v = check_weight(v)
    values = tuple(float(x) for x in _representing_terms(t, v))
    return ChainReport.from_values(OPERATOR_CHAIN_LABELS, values, tol)


class PointCheck(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def logmean_gm_check(x: float, tol: float = 1e-12) -> PointCheck:
    """Check (x^2 - 1)/log(x^2) >= x for x > 0.

    The left side is the logarithmic mean of x^2 and 1, the right side
    their geometric mean; equality at x = 1 is taken by limit.
    """
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be finite and positive, got {x}")
    lhs = float(log_mean_unit(x * x, 0.5))
    passed = lhs >= x - tol * max(1.0, x)
    return PointCheck(lhs, x, passed)
