"""Report containers shared by the chain and bound evaluators."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, fields
from functools import reduce
from itertools import chain
from typing import NamedTuple

import numpy as np


def require_finite(message, *numbers):
    """Raise FloatingPointError(message) unless every number is finite: an inequality
    whose sides or bounds overflowed or are NaN would pass vacuously or fail as a
    violation, where it is a numeric failure."""
    if not reduce(operator.and_, map(np.isfinite, numbers)).all():
        raise FloatingPointError(message)


def chain_links(values, tol):
    """Links of a chain given as its terms, numbers or arrays of one shape: the
    slacks values[k+1] - values[k], and for each whether it is at least
    -tol * max_k |values[k]|.  Terms are never stacked (k, n).  A term that
    overflowed or is NaN makes that allowance non-finite, which would let every
    link hold: that raises FloatingPointError."""
    floor = -tol * reduce(np.maximum, map(abs, values))
    require_finite("chain terms are not finite", floor)
    slacks = [y - x for x, y in zip(values, values[1:])]
    return slacks, [s >= floor for s in slacks]


@dataclass(frozen=True)
class Table:
    """Rows of scalars held as columns of one length, under distinct keys: ``to_json``
    writes it as the list ``[dict(zip(keys, row)) for row in zip(*columns)]``."""

    keys: tuple
    columns: list


def to_json(value) -> str:
    """``json.dumps(value, indent=2)`` byte for byte, at about the cost of its leaves alone.  One
    walk lays the value out as a %-template (literal ``%`` doubled) and lists its leaves, scalars
    and empty containers; one C-encoder call with a newline, which no JSON token holds, as item
    separator writes them all.  A ``Table`` repeats one row template over its cells."""
    leaves = []
    template = _template(value, "\n", leaves)
    return template % tuple(_LEAVES.encode(leaves)[1:-1].split("\n"))


_LEAVES = json.JSONEncoder(separators=("\n", ": "))


def _template(value, pad, leaves):
    # value's layout at indent pad, one "%s" per leaf, each appended to leaves
    if isinstance(value, Table) and not any(map(len, value.columns)):
        value = []  # a table of no rows
    if not isinstance(value, (dict, list, tuple, Table)) or not value:
        leaves.append(value)
        return "%s"
    inner = pad + "  "
    if is_dict := isinstance(value, dict):  # each '"KEY": null' as json writes it, less null
        keys = _LEAVES.encode(dict.fromkeys(value))[1:-1].replace("%", "%%").split("\n")
        items = [k[:-4] + _template(x, inner, leaves) for k, x in zip(keys, value.values())]
    elif isinstance(value, Table):  # one row template per row, the cells as leaves row by row
        leaves.extend(chain.from_iterable(zip(*value.columns)))
        items = [_template(dict.fromkeys(value.keys, 0), inner, [])] * len(value.columns[0])
    else:
        items = [_template(x, inner, leaves) for x in value]
    return f"{'[{'[is_dict]}{inner}{(',' + inner).join(items)}{pad}{']}'[is_dict]}"


class PointCheck(NamedTuple):
    """The two sides of an inequality and whether it holds."""

    lhs: float
    rhs: float
    passed: bool


def check_result(lhs, rhs, passed) -> PointCheck:
    """A check's sides and verdict: arrays, or floats and a bool at one point.  A
    non-finite side raises FloatingPointError."""
    require_finite("inequality sides are not finite", lhs, rhs)
    return PointCheck(lhs, rhs, passed) if np.ndim(passed) else \
        PointCheck(float(lhs), float(rhs), bool(passed))


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
        require_finite(f"{name}: gap, bounds or scale are not finite", gap, lower, upper, scale)
        if not np.ndim(gap):
            gap, lower, upper, scale = map(float, (gap, lower, upper, scale))
        passed = (lower - tol * scale <= gap) & (gap <= upper + tol * scale)
        return cls(str(name), gap, lower, upper, float(tol), scale,
                   passed if np.ndim(passed) else bool(passed))

    def slack_lower(self) -> float:
        return self.gap - self.lower_bound

    def slack_upper(self) -> float:
        return self.upper_bound - self.gap
