"""Triangular fuzzy numbers, alpha-cuts, and nested interval stacks.

A fuzzy quantity is represented either parametrically as a triangular
membership function (a, b, c) or discretely as a stack of nested
alpha-cuts, one per level, held as arrays of levels and lower and upper
bounds. The stack form is what the updating procedure produces;
the helpers here convert between the two and export curves as CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "TriangularFuzzyNumber",
    "AlphaCutStack",
    "default_levels",
    "write_cuts_csv",
    "write_membership_csv",
]


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

    def alpha_cut(self, alpha: float) -> tuple[float, float]:
        """Bounds (lo, hi) of {x : membership(x) >= alpha}; alpha 0 gives (a, c)."""
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {alpha}")
        if alpha == 1.0:
            return self.b, self.b
        if alpha == 0.0:
            return self.a, self.c
        lo = self.a + alpha * (self.b - self.a)
        hi = self.c - alpha * (self.c - self.b)
        if lo > hi:  # 1-ulp rounding near a degenerate peak
            lo = hi = 0.5 * (lo + hi)
        return lo, hi


def default_levels(count: int = 10) -> np.ndarray:
    """Uniformly spaced alpha levels, descending from 1 to 0 inclusive."""
    if count < 1:
        raise DomainError("need at least one alpha level")
    return np.linspace(1.0, 0.0, count)


def _first(mask) -> int | None:
    """Index of the first True in ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class AlphaCutStack:
    """Nested alpha-cuts [lo[k], hi[k]] at descending ``levels[k]``, levels[0] = 1.

    The discrete representation of a (convex) membership function, held as
    three 1-D float arrays of one length: smaller alpha means a wider cut.
    A stack that breaks any of this is a ``ConfigurationError`` naming the
    first offending level.
    """

    levels: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        levels, lo, hi = (np.asarray(v, dtype=float) for v in (self.levels, self.lo, self.hi))
        for name, value in zip(("levels", "lo", "hi"), (levels, lo, hi)):
            object.__setattr__(self, name, value)
        if levels.ndim != 1 or lo.shape != levels.shape or hi.shape != levels.shape:
            raise ConfigurationError("levels, lo and hi must be 1-D arrays of one length")
        if levels.size == 0:
            raise ConfigurationError("stack must have at least one level")
        if levels[0] != 1.0:
            raise ConfigurationError(f"first level must be alpha = 1, got {levels[0]}")
        if (k := _first(~(np.diff(levels) < 0.0))) is not None:
            raise ConfigurationError(f"levels must be strictly descending: {levels[k + 1]} after {levels[k]}")
        if (k := _first(levels < 0.0)) is not None:
            raise ConfigurationError(f"levels must lie in [0, 1], got {levels[k]}")
        if (k := _first(~(lo <= hi))) is not None:
            raise ConfigurationError(f"bounds out of order at level {levels[k]}: [{lo[k]}, {hi[k]}]")
        if (k := _first(~((lo[1:] <= lo[:-1]) & (hi[:-1] <= hi[1:])))) is not None:
            raise ConfigurationError(
                f"nesting violated between levels {levels[k]} and {levels[k + 1]}: "
                f"[{lo[k]}, {hi[k]}] not inside [{lo[k + 1]}, {hi[k + 1]}]"
            )

    @classmethod
    def from_tfn(cls, tfn: TriangularFuzzyNumber, levels) -> "AlphaCutStack":
        """Stack of alpha-cuts of a triangular number at the given levels."""
        levels = np.asarray(levels, dtype=float)
        cuts = np.array([tfn.alpha_cut(a) for a in levels]).reshape(-1, 2)
        return cls(levels, cuts[:, 0], cuts[:, 1])

    def to_membership(self) -> np.ndarray:
        """Piecewise-linear membership polyline as an array of (x, mu) rows.

        Left branch first (ascending x and mu), then the right branch
        (descending mu); a degenerate peak contributes a single apex vertex.
        """
        left = np.column_stack([self.lo[::-1], self.levels[::-1]])
        right = np.column_stack([self.hi, self.levels])
        return np.concatenate([left, right[1:] if self.lo[0] == self.hi[0] else right])


def write_cuts_csv(stacks: dict[str, AlphaCutStack], path) -> None:
    """Write interval stacks as rows of (quantity_id, alpha, lo, hi)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity_id", "alpha", "lo", "hi"])
        for name, stack in stacks.items():
            for row in zip(stack.levels.tolist(), stack.lo.tolist(), stack.hi.tolist()):
                writer.writerow([name, *map(repr, row)])


def write_membership_csv(stacks: dict[str, AlphaCutStack], path) -> None:
    """Write membership polylines as rows of (quantity_id, x, mu)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity_id", "x", "mu"])
        for name, stack in stacks.items():
            for x, mu in stack.to_membership():
                writer.writerow([name, repr(float(x)), repr(float(mu))])
