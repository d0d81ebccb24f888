"""The result bundle's JSON files, read back and checked.

``summary.json`` (an ``ffemu update`` run) and ``bayes_summary.json`` (an
``ffemu bayes`` run) are read through ``model.read_json``. Every field the
report and the membership curves read is checked for presence, type and
length before anything is rendered. ``cut_stack``, the one reader of the
cuts, makes a group's cuts one alpha-cut stack at ``alpha_levels``. The
measured triangles must be ordered, and every eigenvalue the report takes
the square root of must be positive, so a damaged or hand-edited file is
a ``ConfigurationError`` naming it, never a traceback.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError
from .fuzzy import AlphaCutStack, triangles
from .model import read_json

__all__ = ["SUMMARY_FILE", "BAYES_FILE", "cut_stack", "load_summary", "load_bayes_summary"]

SUMMARY_FILE = "summary.json"
BAYES_FILE = "bayes_summary.json"


def _load(path: Path, check, *args) -> dict:
    """One bundle JSON file, which must hold an object that passes
    ``check(data, *args)``; every complaint names ``path``."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object, got {type(data).__name__}")
    try:
        check(data, *args)
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return data


_KINDS = {"U": ("a string", "strings"), "i": ("an integer", "integers"), "iuf": ("a number", "numbers")}


def _field(obj: dict, key: str, shape=(), kinds="iuf", label=None, optional=False):
    """``obj[key]``, which must be a JSON array of ``shape`` (``()`` for a
    scalar, -1 for any length) of "U" strings, "i" integers or "iuf" numbers;
    else a ``ConfigurationError``. An optional field may be absent or null,
    and then gives None."""
    value, label = obj.get(key), label or key
    if value is None and optional:
        return None
    if key not in obj:
        raise ConfigurationError(f"missing field {label!r}")
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    fits = array.ndim == len(shape) and all(s in (-1, a) for s, a in zip(shape, array.shape))
    if not fits or array.dtype.kind not in kinds:
        what, many = _KINDS[kinds]
        if shape:
            count = "" if shape[0] == -1 else f"{shape[0]} "
            what = f"a list of {count}" + (many if len(shape) == 1 else f"rows of {shape[1]} {many}")
        raise ConfigurationError(f"field {label!r} must be {what}")
    return value


def _objects(data: dict, key: str) -> list:
    """``data[key]``, which must be a list of JSON objects."""
    value = data.get(key)
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ConfigurationError(f"field {key!r} must be a list of objects")
    return value


def cut_stack(summary: dict, group: str) -> AlphaCutStack:
    """The cuts of ``summary[group]`` ("parameters" or "outputs") as one (L, q)
    stack at the L ``alpha_levels``, column j holding entry j: L rows of
    [alpha, lo, hi] each, whose bounds make a valid stack (the level rule
    first) and whose alpha column is ``alpha_levels``."""
    levels, entries = summary["alpha_levels"], summary[group]
    for j, entry in enumerate(entries):
        _field(entry, "cuts", (len(levels), 3), label=f"{group}[{j}].cuts")
    cuts = np.asarray([entry["cuts"] for entry in entries], dtype=float).reshape(len(entries), len(levels), 3)
    stack = AlphaCutStack(levels, cuts[:, :, 1].T, cuts[:, :, 2].T)
    if (hits := np.argwhere(cuts[:, :, 0] != stack.levels)).size:
        j, k = hits[0]
        row = f"alpha {cuts[j, k, 0]} in row {k}, but alpha_levels[{k}] is {stack.levels[k]}"
        raise ConfigurationError(f"field '{group}[{j}].cuts' has {row}")
    return stack


def _check_summary(data: dict) -> None:
    """Check every ``summary.json`` field the report and the curves read."""
    n = len(_field(data, "alpha_levels", (-1,)))
    if n == 0:
        raise ConfigurationError("field 'alpha_levels' must not be empty")
    params, outputs = _objects(data, "parameters"), _objects(data, "outputs")
    meta = data.get("metadata")
    if not isinstance(meta, dict):
        raise ConfigurationError("field 'metadata' must be an object")
    for group, entries, fields in [
        ("parameters", params, [("id", (), "U"), ("center", (), "iuf")]),
        ("outputs", outputs, [("mode", (), "i")]),
    ]:
        for i, entry in enumerate(entries):
            for key, shape, kinds in fields:
                _field(entry, key, shape, kinds, f"{group}[{i}].{key}")
    p, m = len(params), len(outputs)
    for key, shape, optional in [
        ("theta_initial", (p,), True),
        ("measured_eigenvalue_tfns", (m, 3), False),
        ("updated_eigenvalues", (m,), False),
        ("initial_eigenvalues", (m,), True),
        ("objective_per_level", (n,), False),
    ]:
        _field(data, key, shape, optional=optional)
    for key, shape, kinds in [
        ("optimizer", (), "U"),
        ("seed", (), "i"),
        ("evaluation_counts", (n,), "i"),
        ("polish_evaluations", (n,), "i"),
        ("iterations", (n,), "i"),
        ("elapsed_seconds", (n,), "iuf"),
        ("objective_seconds", (n,), "iuf"),
        ("polish_seconds", (n,), "iuf"),
        ("stop_reasons", (n,), "U"),
    ]:
        _field(meta, key, shape, kinds, f"metadata.{key}")
    for key in ("updated_eigenvalues", "initial_eigenvalues", "measured_eigenvalue_tfns"):
        _positive(key, data.get(key))
    cut_stack(data, "parameters")
    for j, lows in enumerate(cut_stack(data, "outputs").lo.T):
        _positive(f"outputs[{j}].cuts", lows)
    triangles(data["measured_eigenvalue_tfns"])


def _positive(label: str, values) -> None:
    """``values``, eigenvalues whose square root the report takes, must all
    be positive; None (an absent optional field) passes."""
    if values is not None and not (np.asarray(values, dtype=float) > 0.0).all():
        raise ConfigurationError(f"field {label!r} must hold positive eigenvalues")


def _check_bayes(data: dict, summary: dict) -> None:
    """Check every ``bayes_summary.json`` field the report reads; its vectors
    have one entry per parameter or mode of ``summary``, its acceptance rate
    lies in [0, 1] and it counts at least one chain."""
    p, m = len(summary["parameters"]), len(summary["outputs"])
    for key, shape, kinds, optional in [
        ("mean", (p,), "iuf", False),
        ("cov_percent", (p,), "iuf", False),
        ("posterior_eigenvalues", (m,), "iuf", True),
        ("acceptance_rate", (), "iuf", False),
        ("chains", (), "i", False),
    ]:
        _field(data, key, shape, kinds, optional=optional)
    _positive("posterior_eigenvalues", data.get("posterior_eigenvalues"))
    if not 0.0 <= data["acceptance_rate"] <= 1.0:
        raise ConfigurationError("field 'acceptance_rate' must lie in [0, 1]")
    if data["chains"] < 1:
        raise ConfigurationError("field 'chains' must be a positive integer")


def load_summary(bundle_dir) -> dict:
    """Read ``summary.json`` from a bundle; raises FileNotFoundError naming it.

    A file that is not valid JSON, not one JSON object, or lacks a field the
    report reads (or holds one of the wrong type or length) is a
    ``ConfigurationError`` naming it.
    """
    path = Path(bundle_dir) / SUMMARY_FILE
    if not path.exists():
        raise FileNotFoundError(f"result bundle is missing {SUMMARY_FILE} (looked in {path.parent})")
    return _load(path, _check_summary)


def load_bayes_summary(bundle_dir, summary: dict) -> dict | None:
    """Read ``bayes_summary.json`` from a bundle, or None when it has none.

    It is checked like ``summary.json`` (the bundle's, as ``load_summary``
    returns it), and its vectors must have one entry per parameter or mode.
    """
    path = Path(bundle_dir) / BAYES_FILE
    return _load(path, _check_bayes, summary) if path.exists() else None
