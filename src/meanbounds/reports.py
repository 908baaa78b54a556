"""Report containers shared by the chain and bound evaluators."""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce

import numpy as np


def chain_links(values, tol):
    """Links of a chain given as its terms, numbers or arrays of one shape: the
    slacks values[k+1] - values[k], the allowance tol * max_k |values[k]|, and for
    each slack whether it is at least -allowance.  Terms are never stacked (k, n)."""
    floor = -tol * reduce(np.maximum, map(np.abs, values))
    slacks = [y - x for x, y in zip(values, values[1:])]
    return slacks, -floor, [s >= floor for s in slacks]


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
    """Evaluated terms of an inequality chain with pairwise slacks.

    ``slacks[i] = values[i+1] - values[i]``; the chain passes when every
    slack is at least ``-tol_used * scale`` with ``scale = max |values|``.
    ``certified`` is lowered when the input failed a convexity spot check,
    in which case the numbers are still reported but carry no guarantee.
    """

    labels: tuple[str, ...]
    values: tuple[float, ...]
    slacks: tuple[float, ...]
    tol_used: float
    passed: bool
    certified: bool = True

    @classmethod
    def from_values(cls, labels, values, tol, certified=True):
        labels = tuple(labels)
        values = tuple(float(x) for x in values)
        if len(labels) != len(values) or len(values) < 2:
            raise ValueError("need one label per value and at least two values")
        slacks, _, holds = chain_links(values, tol)
        return cls(labels, values, tuple(slacks), float(tol), bool(all(holds)), certified)

    @property
    def scale(self) -> float:
        return max(abs(x) for x in self.values)


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
        gap = float(gap)
        lower = float(lower)
        upper = float(upper)
        scale = float(scale)
        passed = (lower - tol * scale) <= gap <= (upper + tol * scale)
        return cls(str(name), gap, lower, upper, float(tol), scale, passed)

    def slack_lower(self) -> float:
        return self.gap - self.lower_bound

    def slack_upper(self) -> float:
        return self.upper_bound - self.gap
