"""The result bundle's JSON files, read back and checked.

``summary.json`` (an ``ffemu update`` run) and ``bayes_summary.json`` (an
``ffemu bayes`` run) are read through ``model.read_json``. Every field the
report and the membership curves read is checked for presence, type and
length before anything is rendered. The cuts must make valid alpha-cut
stacks, the measured triangles must be ordered and cut at valid levels,
and every eigenvalue the report takes the square root of must be
positive, so a damaged or hand-edited file is a ``ConfigurationError``
naming it, never a traceback.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError
from .fuzzy import AlphaCutStack, check_levels, triangles
from .model import read_json

__all__ = ["SUMMARY_FILE", "BAYES_FILE", "load_summary", "load_bayes_summary"]

SUMMARY_FILE = "summary.json"
BAYES_FILE = "bayes_summary.json"


def _read_object(path: Path) -> dict:
    """One bundle JSON file, which must hold an object."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


_KINDS = {"U": ("a string", "strings"), "i": ("an integer", "integers"), "iuf": ("a number", "numbers")}


def _field(path: Path, obj: dict, key: str, shape=(), kinds="iuf", label=None, optional=False):
    """``obj[key]``, which must be a JSON array of ``shape`` (``()`` for a
    scalar, -1 for any length) of "U" strings, "i" integers or "iuf" numbers;
    else a ``ConfigurationError`` naming ``path``. An optional field may be
    absent or null, and then gives None."""
    value, label = obj.get(key), label or key
    if value is None and optional:
        return None
    if key not in obj:
        raise ConfigurationError(f"{path}: missing field {label!r}")
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
        raise ConfigurationError(f"{path}: field {label!r} must be {what}")
    return value


def _objects(path: Path, data: dict, key: str) -> list:
    """``data[key]``, which must be a list of JSON objects."""
    value = data.get(key)
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ConfigurationError(f"{path}: field {key!r} must be a list of objects")
    return value


def _check_summary(path: Path, data: dict) -> None:
    """Check every ``summary.json`` field the report and the curves read."""
    n = len(_field(path, data, "alpha_levels", (-1,)))
    if n == 0:
        raise ConfigurationError(f"{path}: field 'alpha_levels' must not be empty")
    params, outputs = _objects(path, data, "parameters"), _objects(path, data, "outputs")
    meta = data.get("metadata")
    if not isinstance(meta, dict):
        raise ConfigurationError(f"{path}: field 'metadata' must be an object")
    for group, entries, fields in [
        ("parameters", params, [("id", (), "U"), ("center", (), "iuf"), ("cuts", (n, 3), "iuf")]),
        ("outputs", outputs, [("mode", (), "i"), ("cuts", (n, 3), "iuf")]),
    ]:
        for i, entry in enumerate(entries):
            for key, shape, kinds in fields:
                _field(path, entry, key, shape, kinds, f"{group}[{i}].{key}")
    p, m = len(params), len(outputs)
    for key, shape, kinds, optional in [
        ("theta_initial", (p,), "iuf", True),
        ("measured_eigenvalue_tfns", (m, 3), "iuf", False),
        ("updated_eigenvalues", (m,), "iuf", False),
        ("initial_eigenvalues", (m,), "iuf", True),
        ("objective_per_level", (n,), "iuf", False),
    ]:
        _field(path, data, key, shape, kinds, optional=optional)
    for key, shape, kinds, optional in [
        ("optimizer", (), "U", False),
        ("seed", (), "i", False),
        ("evaluation_counts", (n,), "i", False),
        ("elapsed_seconds", (n,), "iuf", False),
        # recorded since later versions; older bundles lack them
        ("polish_evaluations", (n,), "i", True),
        ("iterations", (n,), "i", True),
        ("objective_seconds", (n,), "iuf", True),
        ("polish_seconds", (n,), "iuf", True),
        ("stop_reasons", (n,), "U", True),
    ]:
        _field(path, meta, key, shape, kinds, f"metadata.{key}", optional)
    for key in ("updated_eigenvalues", "initial_eigenvalues", "measured_eigenvalue_tfns"):
        _positive(path, key, data.get(key))
    for j, entry in enumerate(outputs):
        _positive(path, f"outputs[{j}].cuts", np.asarray(entry["cuts"])[:, 1:])
    try:  # the cuts must make alpha-cut stacks, the levels keep the level rule, the triangles their order
        for entry in params + outputs:
            AlphaCutStack(*np.asarray(entry["cuts"], dtype=float).T)
        check_levels(data["alpha_levels"])
        triangles(data["measured_eigenvalue_tfns"])
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _positive(path: Path, label: str, values) -> None:
    """``values``, eigenvalues whose square root the report takes, must all
    be positive; None (an absent optional field) passes."""
    if values is not None and not (np.asarray(values, dtype=float) > 0.0).all():
        raise ConfigurationError(f"{path}: field {label!r} must hold positive eigenvalues")


def _check_bayes(path: Path, data: dict, summary: dict) -> None:
    """Check every ``bayes_summary.json`` field the report reads; its vectors
    have one entry per parameter or mode of ``summary``."""
    p, m = len(summary["parameters"]), len(summary["outputs"])
    for key, shape, kinds, optional in [
        ("mean", (p,), "iuf", False),
        ("cov_percent", (p,), "iuf", False),
        ("posterior_eigenvalues", (m,), "iuf", True),
        ("acceptance_rate", (), "iuf", False),
        # absent from summaries written before they were recorded
        ("windows", (), "i", True),
        ("solved_rows", (), "i", True),
    ]:
        _field(path, data, key, shape, kinds, optional=optional)
    _positive(path, "posterior_eigenvalues", data.get("posterior_eigenvalues"))


def load_summary(bundle_dir) -> dict:
    """Read ``summary.json`` from a bundle; raises FileNotFoundError naming it.

    A file that is not valid JSON, not one JSON object, or lacks a field the
    report reads (or holds one of the wrong type or length) is a
    ``ConfigurationError`` naming it.
    """
    path = Path(bundle_dir) / SUMMARY_FILE
    if not path.exists():
        raise FileNotFoundError(f"result bundle is missing {SUMMARY_FILE} (looked in {path.parent})")
    data = _read_object(path)
    _check_summary(path, data)
    return data


def load_bayes_summary(bundle_dir, summary: dict) -> dict | None:
    """Read ``bayes_summary.json`` from a bundle, or None when it has none.

    It is checked like ``summary.json`` (the bundle's, as ``load_summary``
    returns it), and its vectors must have one entry per parameter or mode.
    """
    path = Path(bundle_dir) / BAYES_FILE
    if not path.exists():
        return None
    data = _read_object(path)
    _check_bayes(path, data, summary)
    return data
