"""Result bundles and table rendering.

An updating run is persisted as a directory: ``summary.json`` holds raw
values only (eigenvalues, cut bounds, counts); percent errors and
frequencies are recomputed at render time so every printed number can be
traced back to raw data. Membership curves are emitted as CSV. Reading a
bundle's JSON files back, and checking them, is ``bundle``'s job; its
``cut_stack`` turns a group's cuts back into one stack.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import SUMMARY_FILE, cut_stack
from .fuzzy import AlphaCutStack, alpha_cuts, write_cuts_csv, write_membership_csv
from .model import StructuralModel, write_json
from .objective import eigenvalue_to_hz

__all__ = [
    "parameter_labels",
    "write_bundle",
    "render_tables",
    "regenerate_curves",
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


def _fmt_interval(lo, hi) -> str:
    return f"[{lo:.6g}, {hi:.6g}]"


def _level_table(summary: dict) -> list[str]:
    """One row per alpha level: why the search stopped, its work, and where
    the level's time went (overhead = elapsed - objective - polish)."""
    meta = summary["metadata"]
    lines = [
        "Per alpha level",
        f"{'level':>5} {'alpha':>6} {'stop':>14} {'iters':>6} {'evals':>7} {'polish':>6} "
        f"{'f':>10} {'elapsed s':>10} {'objective s':>11} {'polish s':>9} {'overhead s':>10}",
    ]
    for k, alpha in enumerate(summary["alpha_levels"]):
        elapsed, objective_s, polish_s = (meta[f"{key}_seconds"][k] for key in ("elapsed", "objective", "polish"))
        lines.append(
            f"{k + 1:>5} {alpha:>6.3f} {meta['stop_reasons'][k]:>14} {meta['iterations'][k]:>6d} "
            f"{meta['evaluation_counts'][k]:>7d} {meta['polish_evaluations'][k]:>6d} "
            f"{summary['objective_per_level'][k]:>10.3e} {elapsed:>10.4f} "
            f"{objective_s:>11.4f} {polish_s:>9.4f} {elapsed - objective_s - polish_s:>10.4f}"
        )
    return lines


def _cell(value, spec: str, width: int) -> str:
    return f"{'-':>{width}}" if value is None else f"{value:>{width}{spec}}"


def render_tables(summary: dict, bayes: dict | None = None) -> str:
    """Render the parameter and eigenvalue tables as monospaced text.

    Percent errors and frequencies are computed here, from raw stored
    values, never read from the file.
    """
    lines = []
    params, outputs = (cut_stack(summary, group) for group in ("parameters", "outputs"))
    theta_initial = summary.get("theta_initial")
    lines.append("Updating parameters (N/m)")
    header = f"{'param':>8} {'initial':>12} {'updated':>12} {'interval (alpha=0)':>28}"
    if bayes is not None:
        header += f" {'M-H mean':>12} {'c.o.v. %':>9}"
    lines.append(header)
    for i, p in enumerate(summary["parameters"]):
        row = (
            f"{p['id']:>8} "
            f"{_cell(None if theta_initial is None else theta_initial[i], '.6g', 12)} "
            f"{_cell(p['center'], '.6g', 12)} "
            f"{_fmt_interval(params.lo[-1, i], params.hi[-1, i]):>28}"
        )
        if bayes is not None:
            row += f" {_cell(bayes['mean'][i], '.6g', 12)} {bayes['cov_percent'][i]:>9.2f}"
        lines.append(row)
    lines.append("")

    lines.append("Eigenvalues as frequencies (Hz)")
    header = (
        f"{'mode':>4} {'measured':>12} {'initial':>12} {'err %':>8} "
        f"{'updated':>12} {'err %':>8} {'interval (alpha=0)':>26}"
    )
    if bayes is not None:
        header += f" {'M-H':>12} {'err %':>8}"
    lines.append(header)

    def hz(eigenvalues):
        return None if eigenvalues is None else eigenvalue_to_hz(eigenvalues)

    measured_hz = hz([t[1] for t in summary["measured_eigenvalue_tfns"]])
    updated_hz = hz(summary["updated_eigenvalues"])
    initial_hz = hz(summary.get("initial_eigenvalues"))
    bayes_hz = None if bayes is None else hz(bayes["posterior_eigenvalues"])
    support_lo, support_hi = hz([outputs.lo[-1], outputs.hi[-1]])
    err_initial, err_updated, err_bayes = [], [], []
    for j, out in enumerate(summary["outputs"]):
        meas = measured_hz[j]
        e_upd = 100.0 * abs(updated_hz[j] - meas) / meas
        err_updated.append(e_upd)
        row = f"{out['mode']:>4} {_cell(meas, '.6g', 12)} "
        if initial_hz is None:
            row += f"{'-':>12} {'-':>8} "
        else:
            e_ini = 100.0 * abs(initial_hz[j] - meas) / meas
            err_initial.append(e_ini)
            row += f"{_cell(initial_hz[j], '.6g', 12)} {e_ini:>8.2f} "
        row += f"{_cell(updated_hz[j], '.6g', 12)} {e_upd:>8.2f} "
        row += f"{_fmt_interval(support_lo[j], support_hi[j]):>26}"
        if bayes_hz is not None:
            e_b = 100.0 * abs(bayes_hz[j] - meas) / meas
            err_bayes.append(e_b)
            row += f" {_cell(bayes_hz[j], '.6g', 12)} {e_b:>8.2f}"
        lines.append(row)

    total_line = "total average error %:"
    parts = []
    if err_initial:
        parts.append(f"initial {np.mean(err_initial):.2f}")
    parts.append(f"updated {np.mean(err_updated):.2f}")
    if err_bayes:
        parts.append(f"M-H {np.mean(err_bayes):.2f}")
    lines.append(f"{total_line} " + ", ".join(parts))
    if bayes is not None:
        lines.append(
            f"M-H sampler: acceptance rate {bayes['acceptance_rate']:.3f}   chains {bayes['chains']}"
        )
    lines.append("")
    lines += _level_table(summary)
    lines.append("")
    meta = summary["metadata"]
    lines.append(
        f"optimizer: {meta['optimizer']}   seed: {meta['seed']}   "
        f"objective evaluations: {sum(meta['evaluation_counts'])} + {sum(meta['polish_evaluations'])} polish"
        f"   wall clock: {sum(meta['elapsed_seconds']):.1f} s"
    )
    return "\n".join(lines)
