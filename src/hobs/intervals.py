"""Finite unions of real intervals, used as spectral-set descriptors.

Each end of an interval may be open, closed, or infinite.  This is the
only class of real subsets the workbench selects spectrum with
(half-lines, singletons, finite unions), so no boolean algebra beyond
union is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    lower: float = -math.inf
    upper: float = math.inf
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval ends must not be NaN")
        if self.lower > self.upper:
            raise ValueError("empty interval: lower > upper")

    def contains(self, x: float) -> bool:
        if x < self.lower or x > self.upper:
            return False
        if x == self.lower and not (self.lower_closed or self.lower == -math.inf):
            return False
        if x == self.upper and not (self.upper_closed or self.upper == math.inf):
            return False
        return True


@dataclass(frozen=True)
class IntervalUnion:
    parts: tuple[Interval, ...]

    def contains(self, x: float) -> bool:
        return any(p.contains(x) for p in self.parts)


def at_most(s: float) -> Interval:
    """The half-line (-inf, s]."""
    return Interval(upper=s)


def below(s: float) -> Interval:
    """The half-line (-inf, s)."""
    return Interval(upper=s, upper_closed=False)


def singleton(a: float) -> Interval:
    """The degenerate interval [a, a]."""
    return Interval(lower=a, upper=a)


def closed(a: float, b: float) -> Interval:
    return Interval(lower=a, upper=b)


def real_line() -> Interval:
    return Interval()


def union(*parts: Interval) -> IntervalUnion:
    return IntervalUnion(parts=tuple(parts))
