"""Exception hierarchy shared across the package, plus the one input-value rule.

The CLI maps these onto exit codes: configuration problems exit 1,
numerical failures exit 2, and I/O problems (plain ``OSError``) exit 3.

Every value read from a JSON input (run config, truth spec, model file,
measured-data file, result bundle) is checked by ``check_value``: a scalar
or a list of a stated shape holding integers, finite numbers, strings,
booleans or objects. A boolean is not a number, and NaN, +-Infinity and an
integer beyond the float range are not finite (such an integer is not an
integer here either). Bounds (``at_least``, ``above``, ``at_most``) are
stated where the value is checked and hold for every entry. A complaint
names the value by its path in the file, as ``'aco.n_ants' must be at least
1, got 0``; ``in_file`` adds the file's name, once per file. ``check`` takes
a value in hand: ``check_settings`` checks a settings dataclass field by
field, each bound on its field; ``pipeline.FfemuRun`` its box, start,
levels, optimizer, weights and seed under their run-config keys, and
``model.StructuralModel`` and ``model.SpringElement`` their masses,
stiffnesses and parameter indices under the model file's, so a run or a
model built in Python reads as one read from a file. ``check_keys`` names
an unknown key.
"""

import math
import numbers
import operator
import reprlib
from contextlib import contextmanager
from dataclasses import fields


class FfemuError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FfemuError):
    """Invalid model, run configuration, or infeasible constraint setup.

    ``source`` is the input file the message names, once ``in_file`` named it.
    """

    source = None


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


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number that is finite as a float.

    ``True`` and ``False`` are not numbers here, and an integer beyond the
    float range counts as non-finite.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def is_integer(value) -> bool:
    """Whether ``value`` is an integer that is finite as a float; ``True``
    and ``False`` are not integers here."""
    return isinstance(value, numbers.Integral) and is_finite_number(value)


# kind: (test of one entry, "one" and "many" for messages)
_KINDS = {
    "integer": (is_integer, "an integer", "integers"),
    "number": (is_finite_number, "a finite number", "finite numbers"),
    "string": (lambda v: isinstance(v, str), "a string", "strings"),
    "boolean": (lambda v: isinstance(v, bool), "true or false", "booleans"),
    "object": (lambda v: isinstance(v, dict), "an object", "objects"),
}
_BOUNDS = {"at_least": operator.ge, "above": operator.gt, "at_most": operator.le}
_REQUIRED = object()


def _fits(value, test, shape) -> bool:
    """Whether ``value`` is nested lists of ``shape`` whose entries pass ``test``."""
    if not shape:
        return test(value)
    return (
        isinstance(value, list)
        and shape[0] in (-1, len(value))
        and all(_fits(v, test, shape[1:]) for v in value)
    )


def _complaint(label: str, kind: str, shape, value) -> str:
    _, what, many = _KINDS[kind]
    if shape:
        counts = ["" if n == -1 else f"{n} " for n in shape]
        for count in reversed(counts[1:]):
            many = f"rows of {count}{many}"
        what = f"a list of {counts[0]}{many}"
    return f"{label!r} must be {what}, got {reprlib.repr(value)}"


def check(value, label: str, kind: str = "number", shape=(), **bounds) -> None:
    """``value`` must be ``kind`` at ``shape``, every entry within ``bounds``
    (``at_least=1``, say); else a ``ConfigurationError`` naming it as ``label``.
    A numpy array or scalar is checked as its Python value (``tolist()``)."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if not _fits(value, _KINDS[kind][0], shape):
        raise ConfigurationError(_complaint(label, kind, shape, value))
    for name, bound in bounds.items():
        if not _fits(value, lambda v: _BOUNDS[name](v, bound), shape):
            raise ConfigurationError(f"{label!r} must be {name.replace('_', ' ')} {bound!r}, got {reprlib.repr(value)}")


def check_value(obj: dict, key: str, kind: str = "number", shape=(), label=None, default=_REQUIRED, **bounds):
    """``obj[key]``, which must be ``kind`` ("integer", "number", "string",
    "boolean" or "object") at ``shape``: ``()`` for a scalar, else the
    length of each list level, -1 for any length, with every entry
    ``at_least``, ``above`` or ``at_most`` the number given as ``bounds``.

    An absent key gives ``default``, or is a ``ConfigurationError`` when no
    default is given; a key whose default is None may also be null. Any
    other value is a ``ConfigurationError`` naming it as ``label`` (``key``
    when not given).
    """
    label = label or key
    value = obj.get(key)
    if key not in obj or (value is None and default is None):
        if default is _REQUIRED:
            raise ConfigurationError(f"missing required key {label!r}")
        return default
    check(value, label, kind, shape, **bounds)
    return value


def check_settings(config, section: str) -> None:
    """Each field of the settings dataclass ``config`` must hold an integer
    where its default is an int and a finite number where it is a float,
    within the bounds stated on the field (``metadata={"at_least": 1}``,
    say); else a ``ConfigurationError`` naming ``'<section>.<field>'``."""
    for f in fields(config):
        kind = "integer" if type(f.default) is int else "number"
        check(getattr(config, f.name), f"{section}.{f.name}", kind, **f.metadata)


def check_keys(obj: dict, valid, label: str = "") -> None:
    """The first key of the JSON object ``obj`` (sorted) not in ``valid`` is a
    ``ConfigurationError`` naming it as ``label`` + key."""
    if unknown := sorted(obj.keys() - set(valid)):
        raise ConfigurationError(f"unknown key '{label}{unknown[0]}'; valid keys: {', '.join(valid)}")


@contextmanager
def in_file(source):
    """Name the input file ``source`` in every input error the block raises.

    A ``ConfigurationError``, ``DomainError`` or ``ShapeError`` becomes a
    ``ConfigurationError`` reading ``<source>: <message>``. One that already
    names a file, from a file the block reads in turn (a run config's model
    or measured-data file), passes unchanged.
    """
    try:
        yield
    except (ConfigurationError, DomainError, ShapeError) as exc:
        if getattr(exc, "source", None) is not None:
            raise
        named = ConfigurationError(f"{source}: {exc}")
        named.source = source
        raise named from exc
