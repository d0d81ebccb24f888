"""Outside-in tracing of one ``ffemu`` CLI run.

Run as ``python3 bench/tracer.py SPANS.npz CLI_ARG...`` with the package on
``PYTHONPATH``. It replaces the public names that callers resolve at call
time with timing wrappers, runs ``ffemu.cli.main`` in this process, and
writes every span (name, start, end, parent, thread id, tag) when the run
ends. The exit code is the CLI's. ``layer_totals`` and
``optimizer_overhead_s`` read the span file back.

A wrapped name that no longer exists is skipped and listed as absent, so
a refactor that renames or stops calling a layer reports that layer with
0 calls instead of breaking the traced run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter

import numpy as np


def _off_identity(perm) -> int:
    perm = np.asarray(perm)
    return int(bool((perm != np.arange(perm.size)).any()))


def _iterations(result) -> int:
    return int(getattr(result, "n_iterations", 0))


# (module, attribute path, span name, tag of the return value)
WRAPPED = (
    ("ffemu.pipeline", "objective_value", "objective_value", None),
    ("ffemu.pipeline", "aco_minimize", "optimizer", _iterations),
    ("ffemu.pipeline", "pso_minimize", "optimizer", _iterations),
    ("ffemu.pipeline", "propagate_outputs", "propagate_outputs", None),
    ("ffemu.objective", "interval_modal", "interval_modal", None),
    ("ffemu.objective", "error_vectors", "error_vectors", None),
    ("ffemu.objective", "pair_modes", "pair_modes", _off_identity),
    ("ffemu.model", "StructuralModel.modal", "modal", None),
    ("ffemu.bayes", "log_posterior", "log_posterior", None),
    ("ffemu.report", "write_bundle", "write_bundle", None),
)
SPAN_NAMES = sorted({name for _, _, name, _ in WRAPPED})


class Tracer:
    """Spans kept in memory; worker-thread spans are parented to the main
    thread's innermost open span, the call that handed them out."""

    def __init__(self):
        self.records = []
        self.absent = []
        self._ids = itertools.count()
        self._stacks = {}
        self._main = threading.get_ident()

    def install(self, module_name: str, path: str, name: str, tag=None) -> None:
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{path}")
            return
        setattr(owner, attr, self._wrap(fn, SPAN_NAMES.index(name), tag))

    def _wrap(self, fn, name_id: int, tag):
        records, ids, stacks, main = self.records, self._ids, self._stacks, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks.setdefault(thread, [])
            outer = stack or stacks.get(main)
            parent = outer[-1] if outer else -1
            span = next(ids)
            stack.append(span)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                flag = tag(result) if tag is not None and result is not None else 0
                records.append((span, name_id, start, end, parent, thread, flag))

        return traced

    def save(self, path) -> None:
        rows = np.array(sorted(self.records), dtype=float).reshape(-1, 7)
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            absent=np.array(self.absent, dtype=str),
            span=rows[:, 0].astype(np.int64),
            name=rows[:, 1].astype(np.int64),
            start=rows[:, 2],
            end=rows[:, 3],
            parent=rows[:, 4].astype(np.int64),
            thread=rows[:, 5].astype(np.int64),
            tag=rows[:, 6].astype(np.int64),
        )


def load_spans(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_totals(spans: dict) -> dict:
    """Per span name: (calls, busy seconds, sum of tags)."""
    duration = spans["end"] - spans["start"]
    totals = {}
    for i, name in enumerate(spans["names"]):
        mask = spans["name"] == i
        totals[str(name)] = (
            int(mask.sum()),
            float(duration[mask].sum()),
            int(spans["tag"][mask].sum()),
        )
    return totals


def _covered(intervals: np.ndarray) -> float:
    """Length of the union of [start, end] rows."""
    total, reach = 0.0, -np.inf
    for start, end in intervals[np.argsort(intervals[:, 0])]:
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def optimizer_overhead_s(spans: dict) -> float:
    """Optimizer self time: each optimizer span minus the part of it that
    its objective_value child spans cover."""
    names = list(spans["names"])
    opt = np.nonzero(spans["name"] == names.index("optimizer"))[0]
    is_objective = spans["name"] == names.index("objective_value")
    total = 0.0
    for i in opt:
        start, end = spans["start"][i], spans["end"][i]
        child = is_objective & (spans["parent"] == spans["span"][i])
        rows = np.column_stack([spans["start"][child], spans["end"][child]])
        total += (end - start) - _covered(np.clip(rows, start, end))
    return total


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for module_name, path, name, tag in WRAPPED:
        tracer.install(module_name, path, name, tag)
    from ffemu import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
