"""The result bundle's JSON files, read back and checked.

``summary.json`` (an ``ffemu update`` run) and ``bayes_summary.json`` (an
``ffemu bayes`` run) are read through ``model.read_json``. Every field the
report and the membership curves read is checked for presence, kind and
shape by ``errors.check_value`` before anything is rendered, so every
number is finite and a complaint names the field, as
``'metadata.elapsed_seconds'``. ``cut_stack``, the one reader of the
cuts, makes a group's cuts one alpha-cut stack at ``alpha_levels``. The
measured triangles must be ordered, and every eigenvalue the report takes
the square root of must be positive, so a damaged or hand-edited file is
a ``ConfigurationError`` naming it, never a traceback.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigurationError, check_value, in_file
from .fuzzy import AlphaCutStack, triangles
from .model import read_json

__all__ = ["SUMMARY_FILE", "BAYES_FILE", "cut_stack", "load_summary", "load_bayes_summary"]

SUMMARY_FILE = "summary.json"
BAYES_FILE = "bayes_summary.json"


def _load(path: Path, check, *args) -> dict:
    """One bundle JSON file, which must hold an object that passes
    ``check(data, *args)``; every complaint names ``path``."""
    data = read_json(path)
    with in_file(path):
        check(data, *args)
    return data


def cut_stack(summary: dict, group: str) -> AlphaCutStack:
    """The cuts of ``summary[group]`` ("parameters" or "outputs") as one (L, q)
    stack at the L ``alpha_levels``, column j holding entry j: L rows of
    [alpha, lo, hi] each, whose bounds make a valid stack (the level rule
    first) and whose alpha column is ``alpha_levels``."""
    levels, entries = summary["alpha_levels"], summary[group]
    for j, entry in enumerate(entries):
        check_value(entry, "cuts", shape=(len(levels), 3), label=f"{group}[{j}].cuts")
    cuts = np.asarray([entry["cuts"] for entry in entries], dtype=float).reshape(len(entries), len(levels), 3)
    stack = AlphaCutStack(levels, cuts[:, :, 1].T, cuts[:, :, 2].T)
    if (hits := np.argwhere(cuts[:, :, 0] != stack.levels)).size:
        j, k = hits[0]
        row = f"alpha {cuts[j, k, 0]} in row {k}, but alpha_levels[{k}] is {stack.levels[k]}"
        raise ConfigurationError(f"'{group}[{j}].cuts' has {row}")
    return stack


def _check_summary(data: dict) -> None:
    """Check every ``summary.json`` field the report and the curves read."""
    n = len(check_value(data, "alpha_levels", shape=(-1,)))
    params = check_value(data, "parameters", "object", (-1,))
    outputs = check_value(data, "outputs", "object", (-1,))
    for key, entries in [("alpha_levels", n), ("parameters", params), ("outputs", outputs)]:
        if not entries:
            raise ConfigurationError(f"{key!r} must not be empty")
    meta = check_value(data, "metadata", "object")
    for group, entries, fields in [
        ("parameters", params, [("id", "string"), ("center", "number")]),
        ("outputs", outputs, [("mode", "integer")]),
    ]:
        for i, entry in enumerate(entries):
            for key, kind in fields:
                check_value(entry, key, kind, label=f"{group}[{i}].{key}")
    p, m = len(params), len(outputs)
    # the report takes the square root of every eigenvalue
    check_value(data, "measured_eigenvalue_tfns", shape=(m, 3), above=0)
    check_value(data, "updated_eigenvalues", shape=(m,), above=0)
    check_value(data, "objective_per_level", shape=(n,))
    check_value(data, "theta_initial", shape=(p,), default=None)
    check_value(data, "initial_eigenvalues", shape=(m,), default=None, above=0)
    for key, kind, shape in [
        ("optimizer", "string", ()),
        ("seed", "integer", ()),
        ("evaluation_counts", "integer", (n,)),
        ("polish_evaluations", "integer", (n,)),
        ("iterations", "integer", (n,)),
        ("elapsed_seconds", "number", (n,)),
        ("objective_seconds", "number", (n,)),
        ("polish_seconds", "number", (n,)),
        ("stop_reasons", "string", (n,)),
    ]:
        check_value(meta, key, kind, shape, f"metadata.{key}")
    cut_stack(data, "parameters")
    lows = cut_stack(data, "outputs").lo
    if (hits := np.argwhere(lows <= 0.0)).size:
        k, j = hits[0]
        bound = f"lower bounds above 0, got {lows[k, j].item()!r} in row {k}"
        raise ConfigurationError(f"'outputs[{j}].cuts' must have {bound}")
    triangles(data["measured_eigenvalue_tfns"])


def _check_bayes(data: dict, summary: dict) -> None:
    """Check every ``bayes_summary.json`` field the report reads; its vectors
    have one entry per parameter or mode of ``summary``, its acceptance rate
    lies in [0, 1] and it counts at least one chain."""
    p, m = len(summary["parameters"]), len(summary["outputs"])
    for key in ("mean", "cov_percent"):
        check_value(data, key, shape=(p,))
    check_value(data, "posterior_eigenvalues", shape=(m,), above=0)
    check_value(data, "acceptance_rate", at_least=0, at_most=1)
    check_value(data, "chains", "integer", at_least=1)


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
