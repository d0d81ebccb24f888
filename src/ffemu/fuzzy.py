"""Triangular fuzzy numbers, alpha levels, and nested alpha-cut stacks.

A fuzzy quantity is represented either parametrically, as triangles held
in float arrays whose last axis is (a, b, c), or discretely, as a stack of
nested alpha-cuts: levels, and (L, q) lower and upper bounds with one row
per level and one column per quantity (q is 1 for a single quantity). The
stack form is what the updating procedure produces, one stack for all
parameters and one for all outputs.
The helpers here check and cut any number of triangles in one call and
hold the one rule for alpha levels (``check_levels``). Nothing here
writes a file: a stack's CSV curves are ``report``'s.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError, check, is_integer

__all__ = [
    "AlphaCutStack",
    "alpha_cuts",
    "check_levels",
    "default_levels",
    "triangles",
]


def _first(mask) -> int | None:
    """Index of the first True in ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def triangles(values, label=None) -> np.ndarray:
    """``values`` as a float array of triangles, its last axis (a, b, c); the first one out of
    order (NaN included) is a ``DomainError``, or a ``ConfigurationError`` under ``label``."""
    tfns = np.asarray(values, dtype=float)
    if tfns.ndim == 0 or tfns.shape[-1] != 3:
        raise ShapeError(f"triangles need a last axis of length 3, got shape {tfns.shape}")
    a, b, c = np.moveaxis(tfns, -1, 0)
    if (k := _first(~((a <= b) & (b <= c)))) is not None:
        a, b, c = tfns.reshape(-1, 3)[k].tolist()
        problem = f"triangular vertices out of order: ({a}, {b}, {c})"
        raise DomainError(problem) if label is None else ConfigurationError(f"{label!r} has {problem}")
    return tfns


def alpha_cuts(tfns, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) of {x : membership(x) >= alpha} for triangles (..., 3).

    A scalar alpha gives arrays of shape (...), and L levels give (L, ...).
    Alpha 1 gives (b, b) and alpha 0 gives (a, c); a cut that rounding
    crosses near a degenerate peak is pinched to its midpoint.
    """
    a, b, c = np.moveaxis(np.asarray(tfns, dtype=float), -1, 0)
    alpha = np.asarray(alpha, dtype=float)
    if not ((alpha >= 0.0) & (alpha <= 1.0)).all():
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    alpha = alpha.reshape(alpha.shape + (1,) * a.ndim)
    lo = a + alpha * (b - a)
    hi = c - alpha * (c - b)
    crossed = lo > hi
    mid = 0.5 * (lo + hi)
    lo = np.where(alpha == 1.0, b, np.where(alpha == 0.0, a, np.where(crossed, mid, lo)))
    hi = np.where(alpha == 1.0, b, np.where(alpha == 0.0, c, np.where(crossed, mid, hi)))
    return lo, hi


def check_levels(levels) -> np.ndarray:
    """``levels``, a list or 1-D array of alpha levels, as a float array.

    The levels are the run config's and ``summary.json``'s
    ``'alpha_levels'``, and every breach is a ``ConfigurationError`` naming
    that key: they must be finite numbers of at least 0 (``errors.check``),
    at least one, the first 1, and strictly descending; an order breach
    names the first offending level.
    """
    check(levels, "alpha_levels", shape=(-1,), at_least=0)
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ConfigurationError("'alpha_levels' must not be empty")
    if levels[0] != 1.0:
        raise ConfigurationError(f"'alpha_levels' must start at 1, got {levels[0]}")
    if (k := _first(~(np.diff(levels) < 0.0))) is not None:
        raise ConfigurationError(f"'alpha_levels' must descend strictly, got {levels[k + 1]} after {levels[k]}")
    return levels


def default_levels(count: int) -> np.ndarray:
    """``count`` uniformly spaced alpha levels, descending from 1 to 0
    inclusive; ``count`` is an integer of at least 1, named as
    ``'alpha_levels'``, which may also be a list of levels (``check_levels``)."""
    if not is_integer(count):
        levels = "a level count of at least 1 or a list of levels"
        raise ConfigurationError(f"'alpha_levels' must be {levels}, got {reprlib.repr(count)}")
    check(count, "alpha_levels", "integer", at_least=1)
    return np.linspace(1.0, 0.0, count)


@dataclass(frozen=True)
class AlphaCutStack:
    """Nested alpha-cuts [lo[k], hi[k]] at descending ``levels[k]``, levels[0] = 1.

    The discrete representation of (convex) membership functions: ``levels``
    is (L,), and ``lo`` and ``hi`` are (L, q), column j holding quantity j
    (a single quantity is one column). Smaller alpha means a wider cut. A
    stack that breaks any of this is a ``ConfigurationError`` naming the
    first offending level and its column.
    """

    levels: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        levels = check_levels(self.levels)
        lo, hi = (np.asarray(v, dtype=float) for v in (self.lo, self.hi))
        for name, value in zip(("levels", "lo", "hi"), (levels, lo, hi)):
            object.__setattr__(self, name, value)
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != levels.size:
            raise ConfigurationError("lo and hi must be (L, q) arrays, one row per level")
        if (i := _first(~(lo <= hi))) is not None:
            k, j = divmod(i, lo.shape[1])
            raise ConfigurationError(
                f"bounds out of order at level {levels[k]}: [{lo[k, j]}, {hi[k, j]}] in column {j}"
            )
        if (i := _first(~((lo[1:] <= lo[:-1]) & (hi[:-1] <= hi[1:])))) is not None:
            k, j = divmod(i, lo.shape[1])
            raise ConfigurationError(
                f"nesting violated between levels {levels[k]} and {levels[k + 1]}: [{lo[k, j]}, {hi[k, j]}] "
                f"not inside [{lo[k + 1, j]}, {hi[k + 1, j]}] in column {j}"
            )

    def to_membership(self, column: int) -> np.ndarray:
        """Piecewise-linear membership polyline of quantity ``column`` as (x, mu) rows.

        Left branch first (ascending x and mu), then the right branch
        (descending mu); a degenerate peak contributes a single apex vertex.
        """
        lo, hi = self.lo[:, column], self.hi[:, column]
        left = np.column_stack([lo[::-1], self.levels[::-1]])
        right = np.column_stack([hi, self.levels])
        return np.concatenate([left, right[1:] if lo[0] == hi[0] else right])

