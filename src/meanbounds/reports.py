"""Report containers shared by the chain and bound evaluators."""

from __future__ import annotations

from dataclasses import dataclass, fields


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
        slacks = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
        scale = max(abs(x) for x in values)
        passed = all(s >= -tol * scale for s in slacks)
        return cls(labels, values, slacks, float(tol), passed, certified)

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
