"""Result bundles and table rendering.

An updating run is persisted as a directory: ``summary.json`` holds raw
values only (eigenvalues, cut bounds, counts); percent errors and
frequencies are recomputed at render time so every printed number can be
traced back to raw data. Membership curves are emitted as CSV. Reading a
bundle's JSON files back, and checking them, is ``bundle``'s job; its
``cut_stack`` turns a group's cuts back into one stack.

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
from .bundle import SUMMARY_FILE, cut_stack, load_bayes_summary, load_summary
from .fuzzy import AlphaCutStack, alpha_cuts, write_cuts_csv, write_membership_csv
from .model import StructuralModel, write_json
from .objective import eigenvalue_to_hz

__all__ = [
    "parameter_labels",
    "write_bundle",
    "regenerate_curves",
    "table",
    "render_tables",
    "render_bundle",
]


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

    def cuts(stack):  # per quantity, its rows of [alpha, lo, hi]
        rows = np.stack(np.broadcast_arrays(stack.levels[:, None], stack.lo, stack.hi), axis=-1)
        return rows.swapaxes(0, 1).tolist()

    initial_eigs = (
        None
        if run.theta_initial is None
        else model.eigenvalues_batch(run.theta_initial[None, :])[0].tolist()
    )
    summary = {
        "metadata": {
            "package_version": __version__,
            "optimizer": run.optimizer,
            "seed": int(run.seed),
            "evaluation_counts": [int(h.n_evaluations) for h in result.histories],
            "polish_evaluations": [int(v) for v in result.polish_evaluations],
            "elapsed_seconds": [float(v) for v in result.elapsed_seconds],
            "objective_seconds": [float(v) for v in result.objective_seconds],
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
            for label, center, rows in zip(parameter_labels(model), params.lo[0].tolist(), cuts(params))
        ],
        "outputs": [{"mode": j + 1, "cuts": rows} for j, rows in enumerate(cuts(outputs))],
        "measured_eigenvalue_tfns": run.measured.eigenvalue_tfns.tolist(),
        "initial_eigenvalues": initial_eigs,
        "updated_eigenvalues": outputs.lo[0].tolist(),
    }
    write_json(out / SUMMARY_FILE, summary)

    _write_history(out / "history.csv", result)
    regenerate_curves(out, summary)
    return out


def _write_history(path: Path, result) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "alpha", "iteration", "best_f", "mean_f"])
        for k, (alpha, hist) in enumerate(zip(result.parameters.levels, result.histories)):
            for i, (b, m) in enumerate(zip(hist.history_best, hist.history_mean)):
                writer.writerow([k + 1, repr(float(alpha)), i, repr(float(b)), repr(float(m))])


def regenerate_curves(out_dir, summary: dict) -> None:
    """Rewrite the membership CSVs from the raw summary data: one stack each
    for the parameters and the outputs (in Hz), as ``bundle.cut_stack``
    reads them, and the measured triangles cut at ``alpha_levels``."""
    out = Path(out_dir)
    params, outputs = (cut_stack(summary, group) for group in ("parameters", "outputs"))
    hz = AlphaCutStack(outputs.levels, *eigenvalue_to_hz([outputs.lo, outputs.hi]))
    measured = alpha_cuts(summary["measured_eigenvalue_tfns"], outputs.levels)
    measured = AlphaCutStack(outputs.levels, *eigenvalue_to_hz(measured))
    ids, modes = [p["id"] for p in summary["parameters"]], [f"mode_{o['mode']}" for o in summary["outputs"]]
    write_cuts_csv(ids, params, out / "parameter_cuts.csv")
    write_membership_csv(ids, params, out / "parameter_membership.csv")
    write_cuts_csv(modes, hz, out / "output_cuts.csv")
    write_membership_csv(modes, hz, out / "output_membership.csv")
    measured_ids = [f"mode_{j + 1}" for j in range(measured.lo.shape[1])]
    write_membership_csv(measured_ids, measured, out / "measured_output_membership.csv")


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
        lines.append(f"M-H sampler: acceptance rate {bayes['acceptance_rate']:.3f}   chains {bayes['chains']}")

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
