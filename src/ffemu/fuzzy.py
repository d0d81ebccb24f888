"""Triangular fuzzy numbers, alpha-cuts, and nested interval stacks.

A fuzzy quantity is represented either parametrically as a triangular
membership function (a, b, c) or discretely as a stack of nested intervals,
one per alpha level. The stack form is what the updating procedure produces;
the helpers here convert between the two and export curves as CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "TriangularFuzzyNumber",
    "Interval",
    "AlphaCutStack",
    "default_levels",
    "write_cuts_csv",
    "write_membership_csv",
]


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.lo <= self.hi:
            raise DomainError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, other: "Interval", slack: float = 0.0) -> bool:
        """Whether ``other`` lies inside, allowing ``slack`` overhang per side."""
        return self.lo - slack <= other.lo and other.hi <= self.hi + slack


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Triangular membership function with support [a, c] and peak at b."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        if not self.a <= self.b <= self.c:
            raise DomainError(f"triangular vertices out of order: ({self.a}, {self.b}, {self.c})")

    @property
    def is_crisp(self) -> bool:
        return self.a == self.b == self.c

    def membership(self, x: float) -> float:
        """Piecewise-linear membership degree in [0, 1]; 1 at the peak."""
        x = float(x)
        if x == self.b:
            return 1.0
        if x <= self.a or x >= self.c:
            return 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        return (self.c - x) / (self.c - self.b)

    def alpha_cut(self, alpha: float) -> Interval:
        """The interval {x : membership(x) >= alpha}; alpha 0 gives [a, c]."""
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {alpha}")
        if alpha == 1.0:
            return Interval(self.b, self.b)
        if alpha == 0.0:
            return Interval(self.a, self.c)
        lo = self.a + alpha * (self.b - self.a)
        hi = self.c - alpha * (self.c - self.b)
        if lo > hi:  # 1-ulp rounding near a degenerate peak
            lo = hi = 0.5 * (lo + hi)
        return Interval(lo, hi)


def default_levels(count: int = 10) -> np.ndarray:
    """Uniformly spaced alpha levels, descending from 1 to 0 inclusive."""
    if count < 1:
        raise DomainError("need at least one alpha level")
    if count == 1:
        return np.array([1.0])
    return np.linspace(1.0, 0.0, count)


@dataclass(frozen=True)
class AlphaCutStack:
    """Nested intervals at descending alpha levels; levels[0] must be 1.

    The discrete representation of a (convex) membership function: smaller
    alpha means a wider interval.
    """

    levels: np.ndarray
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if levels.ndim != 1 or levels.size != len(self.intervals):
            raise ConfigurationError("levels and intervals must have matching lengths")
        if levels.size == 0:
            raise ConfigurationError("stack must have at least one level")
        if levels[0] != 1.0:
            raise ConfigurationError(f"first level must be alpha = 1, got {levels[0]}")
        if np.any(np.diff(levels) >= 0.0):
            raise ConfigurationError("levels must be strictly descending")
        if levels[-1] < 0.0 or levels[0] > 1.0:
            raise ConfigurationError("levels must lie in [0, 1]")
        for k in range(len(self.intervals) - 1):
            inner, outer = self.intervals[k], self.intervals[k + 1]
            if not (outer.lo <= inner.lo and inner.hi <= outer.hi):
                raise ConfigurationError(
                    f"nesting violated between levels {levels[k]} and {levels[k + 1]}: "
                    f"[{inner.lo}, {inner.hi}] not inside [{outer.lo}, {outer.hi}]"
                )

    @classmethod
    def from_tfn(cls, tfn: TriangularFuzzyNumber, levels) -> "AlphaCutStack":
        """Stack of alpha-cuts of a triangular number at the given levels."""
        levels = np.asarray(levels, dtype=float)
        return cls(levels, tuple(tfn.alpha_cut(a) for a in levels))

    @property
    def n_levels(self) -> int:
        return len(self.intervals)

    @property
    def peak(self) -> Interval:
        return self.intervals[0]

    @property
    def support(self) -> Interval:
        return self.intervals[-1]

    def to_membership(self) -> np.ndarray:
        """Piecewise-linear membership polyline as an array of (x, mu) rows.

        Left branch first (ascending x and mu), then the right branch
        (descending mu); a degenerate peak contributes a single apex vertex.
        """
        left = [(iv.lo, a) for a, iv in zip(self.levels[::-1], self.intervals[::-1])]
        right = [(iv.hi, a) for a, iv in zip(self.levels, self.intervals)]
        if self.peak.width == 0.0:
            right = right[1:]
        return np.array(left + right, dtype=float)


def write_cuts_csv(stacks: dict[str, AlphaCutStack], path) -> None:
    """Write interval stacks as rows of (quantity_id, alpha, lo, hi)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity_id", "alpha", "lo", "hi"])
        for name, stack in stacks.items():
            for alpha, iv in zip(stack.levels, stack.intervals):
                writer.writerow([name, repr(float(alpha)), repr(iv.lo), repr(iv.hi)])


def write_membership_csv(stacks: dict[str, AlphaCutStack], path) -> None:
    """Write membership polylines as rows of (quantity_id, x, mu)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity_id", "x", "mu"])
        for name, stack in stacks.items():
            for x, mu in stack.to_membership():
                writer.writerow([name, repr(float(x)), repr(float(mu))])
