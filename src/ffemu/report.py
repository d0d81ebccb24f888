"""The result bundle: every file of it written, read back and checked, and
the tables rendered from it.

A run is persisted as a directory whose files, and their formats, only
this module writes and reads. ``write_bundle`` writes an ``ffemu update``
run: ``summary.json`` holds raw values only (eigenvalues, cut bounds,
counts), ``history.csv`` the per-level histories, and
``regenerate_curves`` five curve CSVs cut from the summary: (alpha, lo,
hi) cuts and (x, mu) membership polylines of the parameters and the
outputs, and the measured outputs' polylines, each row led by its
quantity_id. These six go through one writer, ``_write_csv``.
``write_chain_bundle`` writes an ``ffemu bayes`` run: ``chain.csv``, by
its own chunked writer, and ``bayes_summary.json``. Percent errors and
frequencies are recomputed at render time so every printed number can be
traced back to raw data.

``load_summary`` and ``load_bayes_summary`` read the two JSON files back
and check every field the report and the curves read with
``errors.check_value``, so every number is finite and a complaint names
the field, as ``'metadata.elapsed_seconds'``; ``cut_stack``, the one
reader of the cuts, makes a group's cuts one alpha-cut stack. The
measured triangles must be ordered, and every eigenvalue the report takes
the square root of positive, so a damaged or hand-edited file is a
``ConfigurationError`` naming it, never a traceback.

``table`` is the one table renderer: a table is a list of columns, each
``(title, width, format spec)``, and its rows of cells, so a column's
title, width and format are written once. ``render_bundle`` is the one
path from a bundle directory to the printed text, which ``ffemu update``
prints for the bundle it has just written and ``ffemu report`` for any
bundle; the sampler table of ``ffemu bayes`` goes through ``table`` too.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, check_value, in_file
from .fuzzy import AlphaCutStack, alpha_cuts, triangles
from .model import StructuralModel, read_json, write_json
from .objective import eigenvalue_to_hz

__all__ = [
    "SUMMARY_FILE", "BAYES_FILE", "parameter_labels", "write_bundle", "regenerate_curves",
    "write_chain_bundle", "write_chain_csv", "cut_stack", "load_summary", "load_bayes_summary",
    "table", "render_tables", "render_bundle",
]

SUMMARY_FILE = "summary.json"
BAYES_FILE = "bayes_summary.json"
CSV_CHUNK = 512  # chain.csv rows formatted per write


def parameter_labels(model: StructuralModel) -> list[str]:
    """Human-readable label per updating parameter: the springs that use it."""
    labels = []
    for i in range(model.parameter_count):
        ids = [s.id for s in model.springs if s.param_index == i]
        labels.append("+".join(ids) if ids else f"theta_{i}")
    return labels


def write_bundle(out_dir, run, result) -> Path:
    """Persist a finished run; returns the directory path.

    ``run`` is the FfemuRun that produced ``result``. Entry j of
    ``parameters`` (``outputs``) holds column j of ``result.parameters``
    (``result.outputs``) as rows of [alpha, lo, hi]. ``updated_eigenvalues``
    is the alpha = 1 row of ``result.outputs``: level 1 is the point box at
    the centre ``result.parameters.lo[0]``, so that row is the centre's
    sorted eigenvalues, already solved by ``propagate_outputs``.
    ``initial_eigenvalues`` are those of ``run.theta_initial``, one
    ``eigenvalues_batch`` row.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, params, outputs = run.model, result.parameters, result.outputs
    initial_eigs = None if run.theta_initial is None else model.eigenvalues_batch(run.theta_initial[None])[0].tolist()
    summary = {
        "metadata": {
            "package_version": __version__,
            "optimizer": run.optimizer,
            "seed": int(run.seed),
            "evaluation_counts": [int(h.n_evaluations) for h in result.histories],
            "polish_evaluations": [int(v) for v in result.polish_evaluations],
            "elapsed_seconds": [float(v) for v in result.elapsed_seconds],
            "objective_seconds": [float(h.objective_seconds) for h in result.histories],
            "polish_seconds": [float(v) for v in result.polish_seconds],
            "iterations": [int(h.n_iterations) for h in result.histories],
            "stop_reasons": [h.stop_reason for h in result.histories],
        },
        "alpha_levels": params.levels.tolist(),
        "theta_min": [float(v) for v in run.theta_min],
        "theta_max": [float(v) for v in run.theta_max],
        "theta_initial": None if run.theta_initial is None else [float(v) for v in run.theta_initial],
        "objective_per_level": [float(v) for v in result.objective_values],
        "parameters": [
            {"id": label, "center": center, "cuts": rows}
            for label, center, rows in zip(parameter_labels(model), params.lo[0].tolist(), _cut_rows(params).tolist())
        ],
        "outputs": [{"mode": j + 1, "cuts": rows} for j, rows in enumerate(_cut_rows(outputs).tolist())],
        "measured_eigenvalue_tfns": run.measured.eigenvalue_tfns.tolist(),
        "initial_eigenvalues": initial_eigs,
        "updated_eigenvalues": outputs.lo[0].tolist(),
    }
    write_json(out / SUMMARY_FILE, summary)

    history = (
        [k + 1, alpha, i, float(b), float(m)]
        for k, (alpha, hist) in enumerate(zip(params.levels.tolist(), result.histories))
        for i, (b, m) in enumerate(zip(hist.history_best, hist.history_mean))
    )
    _write_csv(out / "history.csv", ["level", "alpha", "iteration", "best_f", "mean_f"], history)
    regenerate_curves(out, summary)
    return out


def _cut_rows(stack: AlphaCutStack) -> np.ndarray:
    """The stack's (q, L, 3) cuts: per quantity, its rows of [alpha, lo, hi]."""
    return np.stack(np.broadcast_arrays(stack.levels[:, None], stack.lo, stack.hi), axis=-1).swapaxes(0, 1)


def _write_csv(path: Path, header: list, rows) -> None:
    """Write ``header`` and ``rows`` of Python ints, floats and strings as one
    CSV file; the csv module writes a float as its shortest round-trip ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_curves(path: Path, columns: list, names, curves) -> None:
    """One row of (quantity_id, *columns) per point of each quantity's (k,
    len(columns)) curve, named by ``names``, quantity by quantity."""
    rows = ([name, *point] for name, curve in zip(names, curves, strict=True) for point in curve.tolist())
    _write_csv(path, ["quantity_id", *columns], rows)


def regenerate_curves(out_dir, summary: dict) -> None:
    """Rewrite the membership CSVs from the raw summary data: one stack each
    for the parameters and the outputs (in Hz), as ``cut_stack``
    reads them, and the measured triangles cut at ``alpha_levels``."""
    out = Path(out_dir)
    params, outputs = (cut_stack(summary, group) for group in ("parameters", "outputs"))
    hz = AlphaCutStack(outputs.levels, *eigenvalue_to_hz([outputs.lo, outputs.hi]))
    measured = alpha_cuts(summary["measured_eigenvalue_tfns"], outputs.levels)
    measured = AlphaCutStack(outputs.levels, *eigenvalue_to_hz(measured))
    ids, modes = [p["id"] for p in summary["parameters"]], [f"mode_{o['mode']}" for o in summary["outputs"]]
    measured_ids = [f"mode_{j + 1}" for j in range(measured.lo.shape[1])]
    cut = [("parameter", ids, params), ("output", modes, hz)]
    for stem, names, stack in cut:
        _write_curves(out / f"{stem}_cuts.csv", ["alpha", "lo", "hi"], names, _cut_rows(stack))
    for stem, names, stack in [*cut, ("measured_output", measured_ids, measured)]:
        _write_curves(out / f"{stem}_membership.csv", ["x", "mu"], names, map(stack.to_membership, range(len(names))))


def write_chain_bundle(out_dir, run, chain, summary, chains: int) -> Path:
    """Persist a finished M-H run of ``chains`` chains; returns the directory path.

    ``chain`` is the ``bayes.Chain`` that ``run`` sampled, whose samples
    ``write_chain_csv`` writes, and ``summary`` its ``bayes.ChainSummary``.
    ``posterior_eigenvalues`` are those of the posterior mean, one
    ``eigenvalues_batch`` row. The chain's diagnostics go in as they are:
    the posterior ``mode`` and the diagonal of the Laplace covariance
    (``laplace_variance``) that fixed the proposal, and each parameter's
    ``ess`` and split-R-hat (``rhat``, null when it is undefined for any
    parameter, as for chains too short to split).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_chain_csv(chain.samples, out / "chain.csv")
    bayes = {
        "mean": summary.mean.tolist(),
        "sd": summary.sd.tolist(),
        "cov_percent": summary.cov_percent.tolist(),
        "acceptance_rate": float(chain.acceptance_rate),
        "n_samples": int(chain.samples.shape[0]),
        "chains": chains,
        "posterior_eigenvalues": run.model.eigenvalues_batch(summary.mean[None, :])[0].tolist(),
        "mode": chain.laplace.mode.tolist(),
        "laplace_variance": np.diag(chain.laplace.covariance).tolist(),
        "ess": chain.ess.tolist(),
        "rhat": None if np.isnan(chain.rhat).any() else chain.rhat.tolist(),
    }
    write_json(out / BAYES_FILE, bayes)
    return out


def write_chain_csv(samples, path) -> None:
    r"""Dump the (n, d) ``samples`` as (sample_index, theta_0, ..., theta_d-1) rows.

    The rows are ``samples`` in order, so chain-major for a lockstep
    run: chain 0's s published states, then chain 1's, and so on, the last
    chain or chains publishing fewer, with ``sample_index`` counting 0, 1,
    ... across the chains, not restarting in each. Fields are
    comma-separated, lines end in ``\r\n``, and every value is its
    shortest round-trip ``repr``, so reading the file back gives the
    samples bit for bit. Rows are formatted ``CSV_CHUNK`` at a time, and a
    row that repeats the previous one bit for bit (a rejected step) reuses
    its text.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    bits = samples.view(np.uint64)
    repeats = np.zeros(len(samples), dtype=bool)
    repeats[1:] = (bits[1:] == bits[:-1]).all(axis=1)
    header = ["sample_index"] + [f"theta_{i}" for i in range(samples.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        text = ""
        for start in range(0, len(samples), CSV_CHUNK):
            chunk = slice(start, start + CSV_CHUNK)
            lines = []
            for i, row, repeat in zip(
                range(start, start + CSV_CHUNK), samples[chunk].tolist(), repeats[chunk].tolist()
            ):
                if not repeat:
                    text = ",".join(["", *map(repr, row)])  # each value with its leading comma
                lines.append(f"{i}{text}\r\n")
            fh.write("".join(lines))


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
    """Check every ``bayes_summary.json`` field the report reads, and the
    sampler's diagnostics; its vectors have one entry per parameter or mode
    of ``summary``, its acceptance rate lies in [0, 1], it counts at least
    one chain, the Laplace variances are positive, the ESS are not negative
    and ``rhat`` may be null."""
    p, m = len(summary["parameters"]), len(summary["outputs"])
    for key in ("mean", "cov_percent", "mode"):
        check_value(data, key, shape=(p,))
    check_value(data, "laplace_variance", shape=(p,), above=0)
    check_value(data, "ess", shape=(p,), at_least=0)
    if "rhat" not in data:
        raise ConfigurationError("missing required key 'rhat'")
    check_value(data, "rhat", shape=(p,), default=None)
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


def table(columns, rows) -> list[str]:
    """The lines of one table: a header of column titles, then one line per row.

    Each column is ``(title, width, spec)``. Every title and cell is
    right-aligned to its column's width, one space apart; a cell is
    formatted by its column's format spec, and a ``None`` cell prints as
    ``-``. A row must have one cell per column.
    """
    lines = [" ".join(f"{title:>{width}}" for title, width, _ in columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"a row of {len(row)} cells in a table of {len(columns)} columns")
        cells = ("-" if cell is None else format(cell, spec) for (_, _, spec), cell in zip(columns, row))
        lines.append(" ".join(f"{text:>{width}}" for (_, width, _), text in zip(columns, cells)))
    return lines


def _intervals(lo, hi) -> list[str]:
    return [f"[{a:.6g}, {b:.6g}]" for a, b in zip(lo, hi)]


def render_tables(summary: dict, bayes: dict | None = None) -> str:
    """Render the parameter, eigenvalue and per-level tables as monospaced text.

    Percent errors and frequencies are computed here, from raw stored
    values, never read from the file. ``bayes`` (a ``bayes_summary.json``)
    adds the M-H columns.
    """
    params, outputs = (cut_stack(summary, group) for group in ("parameters", "outputs"))
    interval = "interval (alpha=0)"
    columns = [("param", 8, ""), ("initial", 12, ".6g"), ("updated", 12, ".6g"), (interval, 28, "")]
    cells = [
        [p["id"] for p in summary["parameters"]],
        summary.get("theta_initial") or [None] * params.lo.shape[1],
        [p["center"] for p in summary["parameters"]],
        _intervals(params.lo[-1], params.hi[-1]),
    ]
    if bayes is not None:
        columns += [("M-H mean", 12, ".6g"), ("c.o.v. %", 9, ".2f")]
        cells += [bayes["mean"], bayes["cov_percent"]]
    lines = ["Updating parameters (N/m)", *table(columns, zip(*cells)), ""]

    measured = eigenvalue_to_hz([t[1] for t in summary["measured_eigenvalue_tfns"]])
    totals = []

    def estimate(name, eigenvalues):
        """The frequency and percent-error columns of one set of eigenvalues."""
        freq = err = [None] * measured.size
        if eigenvalues is not None:
            freq = eigenvalue_to_hz(eigenvalues)
            err = 100.0 * np.abs(freq - measured) / measured
            totals.append(f"{name} {np.mean(err):.2f}")
        return [(name, 12, ".6g"), ("err %", 8, ".2f")], [freq, err]

    parts = [
        ([("mode", 4, ""), ("measured", 12, ".6g")], [[o["mode"] for o in summary["outputs"]], measured]),
        estimate("initial", summary.get("initial_eigenvalues")),
        estimate("updated", summary["updated_eigenvalues"]),
        ([(interval, 26, "")], [_intervals(*eigenvalue_to_hz([outputs.lo[-1], outputs.hi[-1]]))]),
    ]
    if bayes is not None:
        parts.append(estimate("M-H", bayes["posterior_eigenvalues"]))
    columns, cells = (sum(group, []) for group in zip(*parts))  # the parts' columns and cells, in order
    lines += ["Eigenvalues as frequencies (Hz)", *table(columns, zip(*cells))]
    lines.append("total average error %: " + ", ".join(totals))
    if bayes is not None:
        rhat = "-" if bayes["rhat"] is None else f"{max(bayes['rhat']):.3f}"
        lines.append(
            f"M-H sampler: acceptance rate {bayes['acceptance_rate']:.3f}   chains {bayes['chains']}"
            f"   min ESS {min(bayes['ess']):.0f}   max R-hat {rhat}"
        )

    # per alpha level: why the search stopped, its work, and where the
    # level's time went (overhead = elapsed - objective - polish)
    meta = summary["metadata"]
    seconds = [meta[f"{key}_seconds"] for key in ("elapsed", "objective", "polish")]
    columns = [
        ("level", 5, ""), ("alpha", 6, ".3f"), ("stop", 14, ""), ("iters", 6, "d"), ("evals", 7, "d"),
        ("polish", 6, "d"), ("f", 10, ".3e"), ("elapsed s", 10, ".4f"), ("objective s", 11, ".4f"),
        ("polish s", 9, ".4f"), ("overhead s", 10, ".4f"),
    ]
    cells = [
        range(1, len(summary["alpha_levels"]) + 1), summary["alpha_levels"], meta["stop_reasons"],
        meta["iterations"], meta["evaluation_counts"], meta["polish_evaluations"],
        summary["objective_per_level"], *seconds, [e - o - p for e, o, p in zip(*seconds)],
    ]
    lines += ["", "Per alpha level", *table(columns, zip(*cells)), ""]
    lines.append(
        f"optimizer: {meta['optimizer']}   seed: {meta['seed']}   "
        f"objective evaluations: {sum(meta['evaluation_counts'])} + {sum(meta['polish_evaluations'])} polish"
        f"   wall clock: {sum(meta['elapsed_seconds']):.1f} s"
    )
    return "\n".join(lines)


def render_bundle(bundle_dir, curves: bool = False) -> str:
    """The text ``ffemu report`` prints for the bundle in ``bundle_dir``:
    ``render_tables`` of its ``summary.json`` and, when there is one, its
    ``bayes_summary.json``. With ``curves``, the membership CSVs are first
    rewritten from the summary (``regenerate_curves``)."""
    summary = load_summary(bundle_dir)
    bayes = load_bayes_summary(bundle_dir, summary)
    if curves:
        regenerate_curves(bundle_dir, summary)
    return render_tables(summary, bayes)
