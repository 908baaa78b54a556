"""Report containers shared by the chain and bound evaluators."""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np


def chain_links(values, tol):
    """Links of a chain given as its terms, numbers or arrays of one shape: the
    slacks values[k+1] - values[k], and for each whether it is at least
    -tol * max_k |values[k]|.  Terms are never stacked (k, n).  A term that
    overflowed or is NaN makes that allowance non-finite, which would let every
    link hold: that raises FloatingPointError."""
    floor = -tol * reduce(np.maximum, map(abs, values))
    finite = abs(floor) < np.inf
    if not (finite.all() if finite.ndim else finite):
        raise FloatingPointError("chain terms are not finite")
    slacks = [y - x for x, y in zip(values, values[1:])]
    return slacks, [s >= floor for s in slacks]


class Report:
    """Base of the report dataclasses: ``to_dict`` is the report's fields in
    declaration order, tuples written as lists (a report in one as its dict)
    and ``passed`` as ``pass``; a field declared ``repr=False`` is left out."""

    def to_dict(self) -> dict:
        out = {}
        for fld in [f for f in fields(self) if f.repr]:
            value = getattr(self, fld.name)
            if isinstance(value, tuple):
                value = [x.to_dict() if isinstance(x, Report) else x for x in value]
            out["pass" if fld.name == "passed" else fld.name] = value
        return out


@dataclass(frozen=True)
class ChainReport(Report):
    """Evaluated terms of an inequality chain with pairwise slacks, at one point
    or at each point of arrays of one shape.

    ``slacks[i] = values[i+1] - values[i]``; the chain passes when every
    slack is at least ``-tol_used * scale`` with ``scale = max |values|``.
    Built from arrays, ``values`` and ``slacks`` are tuples of arrays and
    ``passed`` and ``scale`` are arrays, per point; ``to_dict`` is for one point.
    ``certified`` is lowered when the input failed a convexity spot check,
    in which case the numbers are still reported but carry no guarantee.
    """

    labels: tuple[str, ...]
    values: tuple
    slacks: tuple
    tol_used: float
    passed: bool
    certified: bool = True

    @classmethod
    def from_values(cls, labels, values, tol, certified=True):
        labels, values = tuple(labels), tuple(values)
        if len(labels) != len(values) or len(values) < 2:
            raise ValueError("need one label per value and at least two values")
        arrays = getattr(values[0], "ndim", 0) > 0
        values = values if arrays else tuple(float(x) for x in values)
        slacks, holds = chain_links(values, tol)
        passed = reduce(operator.and_, holds)
        return cls(labels, values, tuple(slacks), float(tol),
                   passed if arrays else bool(passed), certified if arrays else bool(certified))

    @property
    def scale(self):
        return reduce(np.maximum, map(abs, self.values))


@dataclass(frozen=True)
class GapBoundReport(Report):
    """A gap quantity together with its proven lower and upper bounds.

    Passes when ``lower_bound - tol*scale <= gap <= upper_bound + tol*scale``.
    ``scale`` is set by the producing operation to the magnitude of the
    terms whose difference forms the gap, so the verdict stays meaningful
    when the gap itself is many orders below those terms.
    """

    name: str
    gap: float
    lower_bound: float
    upper_bound: float
    tol_used: float
    scale: float
    passed: bool

    @classmethod
    def build(cls, name, gap, lower, upper, tol, scale):
        """Numbers, or arrays that broadcast to one shape (fields per point).  Raises
        FloatingPointError on a non-finite number, which would pass vacuously."""
        finite = np.isfinite(gap) & np.isfinite(lower) & np.isfinite(upper) & np.isfinite(scale)
        if not finite.all():
            raise FloatingPointError(f"{name}: gap, bounds or scale are not finite")
        if not np.ndim(gap):
            gap, lower, upper, scale = map(float, (gap, lower, upper, scale))
        passed = (lower - tol * scale <= gap) & (gap <= upper + tol * scale)
        return cls(str(name), gap, lower, upper, float(tol), scale,
                   passed if np.ndim(passed) else bool(passed))

    def slack_lower(self) -> float:
        return self.gap - self.lower_bound

    def slack_upper(self) -> float:
        return self.upper_bound - self.gap
