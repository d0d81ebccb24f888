"""Result bundles and table rendering.

An updating run is persisted as a directory: ``summary.json`` holds raw
values only (eigenvalues, cut bounds, counts); percent errors and
frequencies are recomputed at render time so every printed number can be
traced back to raw data. Membership curves are emitted as CSV.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .fuzzy import AlphaCutStack, Interval, write_cuts_csv, write_membership_csv
from .model import StructuralModel
from .objective import eigenvalue_to_hz

__all__ = [
    "parameter_labels",
    "write_bundle",
    "load_summary",
    "load_bayes_summary",
    "render_tables",
    "regenerate_curves",
]

SUMMARY_FILE = "summary.json"
BAYES_FILE = "bayes_summary.json"
CURVE_FILES = (
    "parameter_cuts.csv",
    "parameter_membership.csv",
    "output_cuts.csv",
    "output_membership.csv",
    "measured_output_membership.csv",
)


def parameter_labels(model: StructuralModel) -> list[str]:
    """Human-readable label per updating parameter: the springs that use it."""
    labels = []
    for i in range(model.parameter_count):
        ids = [s.id for s in model.springs if s.param_index == i]
        labels.append("+".join(ids) if ids else f"theta_{i}")
    return labels


def _stack_payload(stack: AlphaCutStack) -> list:
    return [[float(a), iv.lo, iv.hi] for a, iv in zip(stack.levels, stack.intervals)]


def _stack_from_payload(payload) -> AlphaCutStack:
    levels = np.array([row[0] for row in payload])
    return AlphaCutStack(levels, tuple(Interval(row[1], row[2]) for row in payload))


def _stack_to_hz(stack: AlphaCutStack) -> AlphaCutStack:
    return AlphaCutStack(
        stack.levels,
        tuple(Interval(eigenvalue_to_hz(iv.lo), eigenvalue_to_hz(iv.hi)) for iv in stack.intervals),
    )


def write_bundle(out_dir, run, result) -> Path:
    """Persist a finished run; returns the directory path.

    ``run`` is the FfemuRun that produced ``result``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = run.model
    labels = parameter_labels(model)
    initial_eigs = (
        None
        if run.theta_initial is None
        else [float(v) for v in model.modal(run.theta_initial).eigenvalues]
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
        "measured_eigenvalue_tfns": [
            [t.a, t.b, t.c] for t in run.measured.eigenvalue_tfns
        ],
        "initial_eigenvalues": initial_eigs,
        "updated_eigenvalues": [float(v) for v in model.modal(result.center).eigenvalues],
    }
    with open(out / SUMMARY_FILE, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    _write_history(out / "history.csv", result)
    regenerate_curves(out, summary)
    return out


def _write_history(path: Path, result) -> None:
    import csv

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
    measured_stacks = {}
    for j, (a, b, c) in enumerate(summary["measured_eigenvalue_tfns"]):
        from .fuzzy import TriangularFuzzyNumber

        stack = AlphaCutStack.from_tfn(TriangularFuzzyNumber(a, b, c), levels)
        measured_stacks[f"mode_{j + 1}"] = _stack_to_hz(stack)
    write_cuts_csv(param_stacks, out / "parameter_cuts.csv")
    write_membership_csv(param_stacks, out / "parameter_membership.csv")
    write_cuts_csv(output_stacks, out / "output_cuts.csv")
    write_membership_csv(output_stacks, out / "output_membership.csv")
    write_membership_csv(measured_stacks, out / "measured_output_membership.csv")


def load_summary(bundle_dir) -> dict:
    """Read ``summary.json`` from a bundle; raises FileNotFoundError naming it."""
    path = Path(bundle_dir) / SUMMARY_FILE
    if not path.exists():
        raise FileNotFoundError(f"result bundle is missing {SUMMARY_FILE} (looked in {path.parent})")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_bayes_summary(bundle_dir) -> dict | None:
    path = Path(bundle_dir) / BAYES_FILE
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value, width: int = 12) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    return f"{value:{width}.6g}"


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
            f"{_fmt(None if theta_initial is None else theta_initial[i])} "
            f"{_fmt(p['center'])} "
            f"{_fmt_interval(support[1], support[2]):>28}"
        )
        if bayes is not None:
            row += f" {_fmt(bayes['mean'][i])} {bayes['cov_percent'][i]:>9.2f}"
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

    measured_hz = [eigenvalue_to_hz(t[1]) for t in summary["measured_eigenvalue_tfns"]]
    updated_hz = [eigenvalue_to_hz(v) for v in summary["updated_eigenvalues"]]
    initial_hz = (
        None
        if summary.get("initial_eigenvalues") is None
        else [eigenvalue_to_hz(v) for v in summary["initial_eigenvalues"]]
    )
    bayes_hz = (
        None
        if bayes is None or bayes.get("posterior_eigenvalues") is None
        else [eigenvalue_to_hz(v) for v in bayes["posterior_eigenvalues"]]
    )
    err_initial, err_updated, err_bayes = [], [], []
    for j, out in enumerate(summary["outputs"]):
        support = out["cuts"][-1]
        meas = measured_hz[j]
        e_upd = 100.0 * abs(updated_hz[j] - meas) / meas
        err_updated.append(e_upd)
        row = f"{out['mode']:>4} {_fmt(meas)} "
        if initial_hz is None:
            row += f"{_fmt(None)} {'-':>8} "
        else:
            e_ini = 100.0 * abs(initial_hz[j] - meas) / meas
            err_initial.append(e_ini)
            row += f"{_fmt(initial_hz[j])} {e_ini:>8.2f} "
        row += f"{_fmt(updated_hz[j])} {e_upd:>8.2f} "
        row += f"{_fmt_interval(eigenvalue_to_hz(support[1]), eigenvalue_to_hz(support[2])):>26}"
        if bayes_hz is not None:
            e_b = 100.0 * abs(bayes_hz[j] - meas) / meas
            err_bayes.append(e_b)
            row += f" {_fmt(bayes_hz[j])} {e_b:>8.2f}"
        lines.append(row)

    total_line = "total average error %:"
    parts = []
    if err_initial:
        parts.append(f"initial {np.mean(err_initial):.2f}")
    parts.append(f"updated {np.mean(err_updated):.2f}")
    if err_bayes:
        parts.append(f"M-H {np.mean(err_bayes):.2f}")
    lines.append(f"{total_line} " + ", ".join(parts))
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
