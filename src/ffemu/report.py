"""Result bundles and table rendering.

An updating run is persisted as a directory: ``summary.json`` holds raw
values only (eigenvalues, cut bounds, counts); percent errors and
frequencies are recomputed at render time so every printed number can be
traced back to raw data. Membership curves are emitted as CSV. Reading a
bundle's JSON files back, and checking them, is ``bundle``'s job.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import SUMMARY_FILE
from .fuzzy import AlphaCutStack, alpha_cuts, write_cuts_csv, write_membership_csv
from .model import StructuralModel
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


def _stack_payload(stack: AlphaCutStack) -> list:
    """A stack as JSON rows of [alpha, lo, hi]."""
    return np.column_stack([stack.levels, stack.lo, stack.hi]).tolist()


def _stack_from_payload(payload) -> AlphaCutStack:
    return AlphaCutStack(*np.asarray(payload, dtype=float).T)


def _stack_to_hz(stack: AlphaCutStack) -> AlphaCutStack:
    return AlphaCutStack(stack.levels, eigenvalue_to_hz(stack.lo), eigenvalue_to_hz(stack.hi))


def write_bundle(out_dir, run, result) -> Path:
    """Persist a finished run; returns the directory path.

    ``run`` is the FfemuRun that produced ``result``. ``updated_eigenvalues``
    is the alpha = 1 row of ``result.output_stacks``: level 1 is the point
    box at ``result.center``, so that row is the centre's sorted
    eigenvalues, already solved by ``propagate_outputs``.
    ``initial_eigenvalues`` are those of ``run.theta_initial``, one
    ``eigenvalues_batch`` row.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = run.model
    labels = parameter_labels(model)
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
            "evaluation_counts": [int(v) for v in result.evaluation_counts],
            "polish_evaluations": [int(v) for v in result.polish_evaluations],
            "elapsed_seconds": [float(v) for v in result.elapsed_seconds],
            "objective_seconds": [float(v) for v in result.objective_seconds],
            "polish_seconds": [float(v) for v in result.polish_seconds],
            "iterations": [int(h.n_iterations) for h in result.histories],
            "stop_reasons": [h.stop_reason for h in result.histories],
        },
        "alpha_levels": [float(a) for a in result.levels],
        "theta_min": [float(v) for v in run.theta_min],
        "theta_max": [float(v) for v in run.theta_max],
        "theta_initial": None if run.theta_initial is None else [float(v) for v in run.theta_initial],
        "objective_per_level": [float(v) for v in result.objective_values],
        "parameters": [
            {
                "id": labels[i],
                "center": float(result.center[i]),
                "cuts": _stack_payload(result.parameter_stacks[i]),
            }
            for i in range(model.parameter_count)
        ],
        "outputs": [
            {
                "mode": j + 1,
                "cuts": _stack_payload(result.output_stacks[j]),
            }
            for j in range(model.n_dof)
        ],
        "measured_eigenvalue_tfns": run.measured.eigenvalue_tfns.tolist(),
        "initial_eigenvalues": initial_eigs,
        "updated_eigenvalues": [float(stack.lo[0]) for stack in result.output_stacks],
    }
    with open(out / SUMMARY_FILE, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    _write_history(out / "history.csv", result)
    regenerate_curves(out, summary)
    return out


def _write_history(path: Path, result) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "alpha", "iteration", "best_f", "mean_f"])
        for k, (alpha, hist) in enumerate(zip(result.levels, result.histories)):
            for i, (b, m) in enumerate(zip(hist.history_best, hist.history_mean)):
                writer.writerow([k + 1, repr(float(alpha)), i, repr(float(b)), repr(float(m))])


def regenerate_curves(out_dir, summary: dict) -> None:
    """Rewrite the membership CSVs from the raw summary data."""
    out = Path(out_dir)
    param_stacks = {p["id"]: _stack_from_payload(p["cuts"]) for p in summary["parameters"]}
    output_stacks = {
        f"mode_{o['mode']}": _stack_to_hz(_stack_from_payload(o["cuts"])) for o in summary["outputs"]
    }
    levels = np.asarray(summary["alpha_levels"], dtype=float)
    lo, hi = eigenvalue_to_hz(alpha_cuts(summary["measured_eigenvalue_tfns"], levels))
    measured_stacks = {f"mode_{j + 1}": AlphaCutStack(levels, lo[:, j], hi[:, j]) for j in range(lo.shape[1])}
    write_cuts_csv(param_stacks, out / "parameter_cuts.csv")
    write_membership_csv(param_stacks, out / "parameter_membership.csv")
    write_cuts_csv(output_stacks, out / "output_cuts.csv")
    write_membership_csv(output_stacks, out / "output_membership.csv")
    write_membership_csv(measured_stacks, out / "measured_output_membership.csv")


def _fmt_interval(lo, hi) -> str:
    return f"[{lo:.6g}, {hi:.6g}]"


def _level_table(summary: dict) -> list[str]:
    """One row per alpha level: why the search stopped, its work, and where
    the level's time went (overhead = elapsed - objective - polish).

    A column whose field a bundle lacks (written before it was recorded)
    shows "-" in every row.
    """
    meta = summary["metadata"]
    n = len(summary["alpha_levels"])

    def column(key):
        return meta.get(key) or [None] * n

    stops, iters, polish = column("stop_reasons"), column("iterations"), column("polish_evaluations")
    objective_s, polish_s = column("objective_seconds"), column("polish_seconds")
    lines = [
        "Per alpha level",
        f"{'level':>5} {'alpha':>6} {'stop':>14} {'iters':>6} {'evals':>7} {'polish':>6} "
        f"{'f':>10} {'elapsed s':>10} {'objective s':>11} {'polish s':>9} {'overhead s':>10}",
    ]
    for k, alpha in enumerate(summary["alpha_levels"]):
        elapsed = meta["elapsed_seconds"][k]
        overhead = (
            None if objective_s[k] is None or polish_s[k] is None
            else elapsed - objective_s[k] - polish_s[k]
        )
        lines.append(
            f"{k + 1:>5} {alpha:>6.3f} {stops[k] or '-':>14} {_cell(iters[k], 'd', 6)} "
            f"{meta['evaluation_counts'][k]:>7d} {_cell(polish[k], 'd', 6)} "
            f"{summary['objective_per_level'][k]:>10.3e} {elapsed:>10.4f} "
            f"{_cell(objective_s[k], '.4f', 11)} {_cell(polish_s[k], '.4f', 9)} "
            f"{_cell(overhead, '.4f', 10)}"
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
    params = summary["parameters"]
    theta_initial = summary.get("theta_initial")
    lines.append("Updating parameters (N/m)")
    header = f"{'param':>8} {'initial':>12} {'updated':>12} {'interval (alpha=0)':>28}"
    if bayes is not None:
        header += f" {'M-H mean':>12} {'c.o.v. %':>9}"
    lines.append(header)
    for i, p in enumerate(params):
        support = p["cuts"][-1]
        row = (
            f"{p['id']:>8} "
            f"{_cell(None if theta_initial is None else theta_initial[i], '.6g', 12)} "
            f"{_cell(p['center'], '.6g', 12)} "
            f"{_fmt_interval(support[1], support[2]):>28}"
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
    bayes_hz = None if bayes is None else hz(bayes.get("posterior_eigenvalues"))
    err_initial, err_updated, err_bayes = [], [], []
    for j, out in enumerate(summary["outputs"]):
        support = out["cuts"][-1]
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
        row += f"{_fmt_interval(eigenvalue_to_hz(support[1]), eigenvalue_to_hz(support[2])):>26}"
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
        windows, solved = bayes.get("windows"), bayes.get("solved_rows")
        lines.append(
            f"M-H sampler: acceptance rate {bayes['acceptance_rate']:.3f}   "
            f"windows {'-' if windows is None else windows}   "
            f"solved rows {'-' if solved is None else solved}"
        )
    lines.append("")
    lines += _level_table(summary)
    lines.append("")
    meta = summary["metadata"]
    polish = meta.get("polish_evaluations")  # absent from bundles written before the polish
    lines.append(
        f"optimizer: {meta['optimizer']}   seed: {meta['seed']}   "
        f"objective evaluations: {sum(meta['evaluation_counts'])}"
        + ("" if polish is None else f" + {sum(polish)} polish")
        + f"   wall clock: {sum(meta['elapsed_seconds']):.1f} s"
    )
    return "\n".join(lines)
