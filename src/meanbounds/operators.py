"""Operator means on symmetric positive-definite matrices.

A scalar mean m with representing function g(t) = m(1, t) lifts to SPD
matrices through the congruence

    M(A, B) = A^{1/2} g(A^{-1/2} B A^{-1/2}) A^{1/2} = L g(C) L^T,

for A = L L^T, C = L^{-1} B L^{-T} and g(C) from C's symmetric eigendecomposition.
Every functional-calculus output is symmetrized as (X + X^T)/2 so that
Loewner-order eigenvalue tests are not corrupted by roundoff.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .reports import ChainReport, PointCheck, Report, check_result
from .scalar import check_weight, log_mean_unit, logarithmic_chain

OPERATOR_CHAIN_LABELS = (
    "geometric",
    "split_geometric_mix",
    "logarithmic",
    "avg_geom_arith",
    "arithmetic",
)

SYMMETRY_TOL = 1e-12


class NumericalBreakdown(ArithmeticError, RuntimeError):
    """A computed operator mean failed its SPD validation.

    Signals loss of positivity beyond tolerance, typically from extreme
    conditioning; distinct from invalid user input."""


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.swapaxes(-1, -2))


class SpdMatrix:
    """Immutable symmetric positive-definite matrix, or a stack (n, d, d) of them.

    Construction validates each matrix's symmetry (relative to its largest
    entry) and strict positive-definiteness via its smallest eigenvalue.
    """

    __slots__ = ("_m",)

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1] or m.shape[-1] == 0:
            raise ValueError(f"entries must form a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        scale = np.maximum(np.abs(m).max(axis=(-2, -1)), np.finfo(float).tiny)
        if (np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1)) > SYMMETRY_TOL * scale).any():
            raise ValueError("matrix is not symmetric within tolerance")
        m = _sym(m)
        if (low := np.linalg.eigvalsh(m).min()) <= 0.0:
            raise ValueError(f"matrix is not positive definite (min eig {float(low)!r})")
        m.setflags(write=False)
        self._m = m

    @classmethod
    def _by_construction(cls, m: np.ndarray) -> "SpdMatrix":
        """A float stack SPD by how it was built (Q diag(10^e) Q^T, symmetrized), taken without
        a copy or an eigen-solve: a congruence's Cholesky factor and spectrum then decide it."""
        if not np.isfinite(m).all():
            return cls(m)  # raises the public check's "matrix entries must be finite"
        out = object.__new__(cls)
        out._m = m
        m.setflags(write=False)
        return out

    @property
    def dim(self) -> int:
        return self._m.shape[-1]

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


def _check_operands(a: SpdMatrix, b: SpdMatrix, v):
    # v checked, and one weight per pair of A and B: a number for one pair, n for stacks of n
    v = check_weight(v)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not np.shape(v) == a.entries.shape[:-2] == b.entries.shape[:-2]:
        raise ValueError(f"need one weight per pair: {np.shape(v)} weights, A stack "
                         f"{a.entries.shape[:-2]}, B stack {b.entries.shape[:-2]}")
    return v


def _congruence(a: np.ndarray, b: np.ndarray):
    """A's Cholesky factor L and C = L^{-1} B L^{-T}, which has the spectrum of A^{-1/2} B A^{-1/2},
    for pairs or stacks.  The factorization decides A's positivity (ValueError)."""
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        SpdMatrix(a)  # raises the public check's "matrix is not positive definite (min eig ..."
        raise
    inv = np.linalg.inv(low)
    return low, _sym(inv @ b @ inv.swapaxes(-1, -2))


def _positive(lam: np.ndarray) -> np.ndarray:
    # ascending eigenvalues of C, all positive iff B is positive definite
    if (lam[..., 0] <= 0.0).any():
        raise NumericalBreakdown("congruence transform lost positivity; inputs too ill-conditioned")
    return lam


def _from_representing(frame: np.ndarray, values: np.ndarray) -> np.ndarray:
    """F diag(values) F^T, or a stack of them for a stack of value rows."""
    return _sym((frame * values[..., None, :]) @ frame.swapaxes(-1, -2))


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
    low, c = _congruence(a.entries, b.entries)
    lam, vec = np.linalg.eigh(c)
    mean = _from_representing(low @ vec, representing(_positive(lam), v))
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


def loewner_leq(x, y, tol: float = 1e-10) -> LoewnerVerdict:
    """Test X <= Y in the Loewner order, for one pair or stacks (n, d, d) of pairs.

    Holds when the smallest eigenvalue of Y - X is at least
    -tol * (||X||_2 + ||Y||_2); stacks give (n,) arrays of the fields.
    """
    xm, ym = (m.entries if isinstance(m, SpdMatrix) else np.asarray(m, dtype=float) for m in (x, y))
    if xm.shape != ym.shape or xm.ndim not in (2, 3) or xm.shape[-2] != xm.shape[-1]:
        raise ValueError(f"need square matrices or stacks of one shape, got {xm.shape}, {ym.shape}")
    lam = np.linalg.eigvalsh(_sym(np.stack([ym - xm, xm, ym])))  # Y - X, then both norms
    min_eig, tol_used = lam[0, ..., 0], tol * np.abs(lam[1:]).max(axis=-1).sum(axis=0)
    holds = min_eig >= -tol_used
    return LoewnerVerdict(min_eig, tol_used, holds) if xm.ndim == 3 else \
        LoewnerVerdict(float(min_eig), float(tol_used), bool(holds))


@dataclass(frozen=True)
class SpectralVerdict(Report):
    """A chain link g_k <= g_{k+1} on points (eigenvalues): it holds iff
    g_{k+1} - g_k >= -tol * max_j |g_j| at each, and reports the ``eigenvalue``
    where slack plus tolerance is least, with that slack (``margin``) and tolerance."""

    margin: float
    eigenvalue: float
    tol_used: float
    holds: bool


@dataclass(frozen=True)
class OperatorChainReport(Report):
    """Matrix analogue of ChainReport: consecutive spectral verdicts, whose fields and
    ``passed`` are (n,) arrays for stacks of n pairs, and the ``terms`` (matrices, or
    (n, d, d) stacks).  Verdicts read eigvalsh(C), for A = L L^T and C = L^{-1} B L^{-T}; the
    terms, made when first read, are L V g_k(Lambda) V^T L^T from their own eigh(C), whose
    Lambda is the verdicts' to LAPACK rounding.  Its dict leaves out L, C and the weights."""

    labels: tuple[str, ...]
    verdicts: tuple[SpectralVerdict, ...]
    tol_used: float
    passed: bool
    factor: np.ndarray = field(repr=False)
    congruence: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        lam, vec = np.linalg.eigh(self.congruence)
        chain = logarithmic_chain(1.0, _positive(lam), np.expand_dims(self.weights, -1))
        terms = _from_representing((self.factor @ vec)[..., None, :, :], np.stack(chain.values, -2))
        return tuple(np.moveaxis(terms, -3, 0))


def operator_chain(a: SpdMatrix, b: SpdMatrix, v, tol: float = 1e-10) -> OperatorChainReport:
    """Five-term operator chain in the Loewner order.

    geometric <= (1-v) geo(v/2) + v geo((1+v)/2) <= logarithmic
              <= (geometric + arithmetic)/2 <= arithmetic.
    Each term is F g_k(Lambda) F^T for one frame F, so by Sylvester's law of
    inertia the verdicts are the representing chain's links on Lambda.
    Stacks ``a``, ``b`` of n pairs take exactly n weights ``v`` and give one
    report whose verdict fields and ``passed`` are (n,) arrays.
    """
    stacked = a.entries.ndim == 3
    weights = np.reshape(_check_operands(a, b, v), -1)
    low, c = _congruence(*(m.entries.reshape(-1, a.dim, a.dim) for m in (a, b)))
    lam = _positive(np.linalg.eigvalsh(c))
    chain = logarithmic_chain(1.0, lam, weights[:, None], tol)
    slack, allowed = np.array(chain.slacks), tol * chain.scale
    worst = (slack + allowed).argmin(axis=-1)
    link, pair = np.arange(4)[:, None], np.arange(len(weights))
    margin, bound = slack[link, pair, worst], allowed[pair, worst]
    links = (margin, lam[pair, worst], bound, margin >= -bound)
    if not stacked:  # one pair: floats and bools
        links, low, c, weights = [x[:, 0].tolist() for x in links], low[0], c[0], weights[0]
    passed = np.logical_and.reduce(links[3])
    return OperatorChainReport(OPERATOR_CHAIN_LABELS, tuple(map(SpectralVerdict, *links)), tol,
                               passed if stacked else bool(passed), low, c, weights)


def representing_chain(t, v, tol: float = 1e-12) -> ChainReport:
    """Scalar chain underlying the operator chain, at t > 0 (broadcast over t, v).

    t^v <= (1-v) t^{v/2} + v t^{(1+v)/2} <= L_v(1,t)
        <= (t^v + (1-v) + v t)/2 <= (1-v) + v t: the logarithmic chain at (1, t).
    """
    return replace(logarithmic_chain(1.0, t, v, tol), labels=OPERATOR_CHAIN_LABELS)


def logmean_gm_check(x, tol: float = 1e-12) -> PointCheck:
    """Check (x^2 - 1)/log(x^2) >= x for x > 0, broadcast over ``x``.

    The left side is the logarithmic mean of x^2 and 1, the right side
    their geometric mean; equality at x = 1 is taken by limit.  An array
    ``x`` gives arrays of sides and verdicts.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        t = x * x
    for y, rule in ((x, "x must be finite and positive, got "),
                    (t, "x**2 must stay in the double range, got x = ")):
        bad = x[~((y > 0.0) & (y < np.inf))]
        if bad.size:
            raise ValueError(f"{rule}{bad[0]}")
    lhs = log_mean_unit(t, 0.5)
    passed = lhs >= x - tol * np.maximum(1.0, x)
    return check_result(lhs, x, passed)
