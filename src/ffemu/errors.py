"""Exception hierarchy shared across the package, plus its number and known-key checks.

The CLI maps these onto exit codes: configuration problems exit 1,
numerical failures exit 2, and I/O problems (plain ``OSError``) exit 3.
"""

import math
import numbers


class FfemuError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FfemuError):
    """Invalid model, run configuration, or infeasible constraint setup."""


class ShapeError(FfemuError, ValueError):
    """Array dimension or length mismatch."""


class DomainError(FfemuError, ValueError):
    """Argument outside its mathematical domain (negative stiffness, bad alpha, ...)."""


class ConvergenceError(FfemuError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


class DegenerateVectorError(FfemuError, ValueError):
    """A zero (or otherwise degenerate) vector where a direction is required."""


class EvaluationError(FfemuError, RuntimeError):
    """Objective returned a non-finite value; carries the offending point."""

    def __init__(self, message: str, point=None, value=None):
        super().__init__(message)
        self.point = point
        self.value = value


class DiagnosticsError(FfemuError, RuntimeError):
    """A sampler or optimizer produced statistics indicating a broken setup."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; ``True`` and ``False`` are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number that is finite as a float.

    ``True`` and ``False`` are not numbers here, and an integer beyond the
    float range counts as non-finite. Each caller raises its own error.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def check_keys(obj: dict, valid, label: str = "") -> None:
    """The first key of the JSON object ``obj`` (sorted) not in ``valid`` is a
    ``ConfigurationError`` naming it as ``label`` + key; callers prefix the file."""
    if unknown := sorted(obj.keys() - set(valid)):
        raise ConfigurationError(f"unknown key '{label}{unknown[0]}'; valid keys: {', '.join(valid)}")
