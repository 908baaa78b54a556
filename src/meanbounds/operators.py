"""Operator means on symmetric positive-definite matrices.

A scalar mean m with representing function g(t) = m(1, t) lifts to SPD
matrices through the congruence

    M(A, B) = A^{1/2} g(A^{-1/2} B A^{-1/2}) A^{1/2},

with the matrix function taken via the symmetric eigendecomposition.
Every functional-calculus output is symmetrized as (X + X^T)/2 so that
Loewner-order eigenvalue tests are not corrupted by roundoff.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

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


class NumericalBreakdown(RuntimeError):
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
        low = np.linalg.eigvalsh(m).min()
        if low <= 0.0:
            raise ValueError(f"matrix is not positive definite (min eig {low!r})")
        m.setflags(write=False)
        self._m = m

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


def _as_entries(x) -> np.ndarray:
    m = x.entries if isinstance(x, SpdMatrix) else np.asarray(x, dtype=float)
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


def _check_operands(a: SpdMatrix, b: SpdMatrix, v):
    # v checked, and one weight per pair of A and B: a number for one pair, n for stacks of n
    v = check_weight(v)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not np.shape(v) == a.entries.shape[:-2] == b.entries.shape[:-2]:
        raise ValueError(f"need one weight per pair: {np.shape(v)} weights, A stack "
                         f"{a.entries.shape[:-2]}, B stack {b.entries.shape[:-2]}")
    return v


def _congruence_spectrum(a: np.ndarray, b: np.ndarray):
    """Eigen-data of A^{-1/2} B A^{-1/2} plus the frame A^{1/2} V, for pairs or stacks."""
    lam_a, u = np.linalg.eigh(a)
    sqrt_a, ut = np.sqrt(lam_a)[..., None, :], u.swapaxes(-1, -2)
    inv_root = (u / sqrt_a) @ ut
    lam, v = np.linalg.eigh(_sym(inv_root @ b @ inv_root))
    if (lam[..., 0] <= 0.0).any():
        raise NumericalBreakdown(
            "congruence transform lost positivity; inputs too ill-conditioned"
        )
    return lam, (u * sqrt_a) @ ut @ v


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
    lam, frame = _congruence_spectrum(a.entries, b.entries)
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
    norm_x, norm_y = (float(np.max(np.abs(np.linalg.eigvalsh(_sym(m))))) for m in (xm, ym))
    tol_used = tol * (norm_x + norm_y)
    return LoewnerVerdict(min_eig, tol_used, min_eig >= -tol_used)


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
    """Matrix analogue of ChainReport: terms plus consecutive spectral verdicts.
    Its dict leaves the matrices out and nests each verdict."""

    labels: tuple[str, ...]
    terms: tuple[np.ndarray, ...] = field(repr=False)
    verdicts: tuple[SpectralVerdict, ...]
    tol_used: float
    passed: bool


def operator_chain(a: SpdMatrix, b: SpdMatrix, v, tol: float = 1e-10):
    """Five-term operator chain in the Loewner order.

    geometric <= (1-v) geo(v/2) + v geo((1+v)/2) <= logarithmic
              <= (geometric + arithmetic)/2 <= arithmetic.
    Each term is F g_k(Lambda) F^T for one frame F, so by Sylvester's law of
    inertia the verdicts are the representing chain's links on Lambda.
    Stacks ``a``, ``b`` of n pairs take exactly n weights ``v`` and give n reports.
    """
    stacked = a.entries.ndim == 3
    weights = np.reshape(_check_operands(a, b, v), -1)
    lam, frame = _congruence_spectrum(*(m.entries.reshape(-1, a.dim, a.dim) for m in (a, b)))
    chain = logarithmic_chain(1.0, lam, weights[:, None], tol)
    slack, allowed = np.array(chain.slacks), tol * chain.scale
    worst = (slack + allowed).argmin(axis=-1)
    link, pair = np.arange(4)[:, None], np.arange(len(weights))
    margin, bound = slack[link, pair, worst], allowed[pair, worst]
    links = zip(margin.T.tolist(), lam[pair, worst].T.tolist(), bound.T.tolist(),
                (margin >= -bound).T.tolist())
    reports = []
    for terms, link in zip(_from_representing(frame[:, None], np.stack(chain.values, 1)), links):
        verdicts = tuple(SpectralVerdict(*vd) for vd in zip(*link))
        reports.append(OperatorChainReport(OPERATOR_CHAIN_LABELS, tuple(terms), verdicts, tol,
                                           all(vd.holds for vd in verdicts)))
    return tuple(reports) if stacked else reports[0]


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
    bad = x[~((x > 0.0) & (x < np.inf))]
    if bad.size:
        raise ValueError(f"x must be finite and positive, got {bad[0]}")
    lhs = log_mean_unit(x * x, 0.5)
    passed = lhs >= x - tol * np.maximum(1.0, x)
    return check_result(lhs, x, passed)
