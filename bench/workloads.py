"""Benchmark workloads: the run configuration each one writes, and its checks.

Every configuration starts from ``scenarios.bundled_run_config`` with the
benchmark's seed. Iteration budgets are cut from the bundled 10 levels x 300
iterations so that one ``ffemu update`` at the CLI's default thread count
fits the benchmark's per-run time limit; they stay large enough that every
correctness check below passes on every seed tried.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

CENTRE_TOL = 1e-3  # alpha = 1 centre vs theta_true, relative
CUT_TOL = 0.03  # parameter cut bounds vs generating cut, share of the spread
POSTERIOR_MEAN_TOL = 0.02  # M-H posterior mean vs theta_true, relative


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str  # "update" or "bayes"
    config: Callable[[int], dict]
    check: Callable[[dict, Path], list]


def fuzzy_aco_config(seed: int) -> dict:
    """Bundled fuzzy ACO run (5% spreads, eigenvalue block only) on 2 levels.

    No stagnation stop, so every seed does the same 18,020 evaluations.
    """
    from ffemu import scenarios

    config = scenarios.bundled_run_config(optimizer="aco", seed=seed)
    config["alpha_levels"] = 2
    config["aco"].update(max_iterations=450, stagnation_window=450)
    return config


def bayes_config(seed: int) -> dict:
    """Bundled M-H baseline, long enough that sampling dominates the run."""
    from ffemu import scenarios

    config = scenarios.bundled_run_config(seed=seed)
    config["bayes"]["n_samples"] = 40000
    return config


def _theta_and_spreads(config: dict) -> tuple[np.ndarray, np.ndarray]:
    truth = config["truth"]
    theta = np.asarray(truth["theta_true"], dtype=float)
    return theta, float(truth.get("spread_fraction", 0.0)) * theta


def nesting_problems(label: str, cuts: list) -> list:
    """Rows are [alpha, lo, hi] with alpha descending; deeper cuts must contain shallower ones."""
    problems = []
    for prev, row in zip(cuts, cuts[1:]):
        if row[1] > prev[1] or row[2] < prev[2]:
            problems.append(f"{label}: cut at alpha={row[0]:g} does not contain alpha={prev[0]:g}")
    problems += [f"{label}: crossed cut at alpha={r[0]:g}" for r in cuts if r[1] > r[2]]
    return problems


def update_problems(config: dict, out: Path) -> list:
    """Checks on an ``ffemu update`` bundle; an empty list means it passed."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    theta, spreads = _theta_and_spreads(config)
    problems = []
    for p in summary["parameters"]:
        problems += nesting_problems(f"parameter {p['id']}", p["cuts"])
    for o in summary["outputs"]:
        problems += nesting_problems(f"mode {o['mode']}", o["cuts"])

    centre = np.array([p["center"] for p in summary["parameters"]])
    rel = np.abs(centre - theta) / theta
    if np.any(rel > CENTRE_TOL):
        problems.append(f"alpha=1 centre off theta_true by {rel.max():.2e} (limit {CENTRE_TOL:g})")

    for o, tfn in zip(summary["outputs"], summary["measured_eigenvalue_tfns"]):
        b = tfn[1]
        for alpha, lo, hi in o["cuts"]:
            if lo > b * (1 + CENTRE_TOL) or hi < b * (1 - CENTRE_TOL):
                problems.append(
                    f"mode {o['mode']}: output cut at alpha={alpha:g} misses measured centre {b:.6g}"
                )

    for i, p in enumerate(summary["parameters"]):
        for alpha, lo, hi in p["cuts"]:
            half = (1.0 - alpha) * spreads[i]
            err = max(abs(lo - (theta[i] - half)), abs(hi - (theta[i] + half))) / spreads[i]
            if err > CUT_TOL:
                problems.append(
                    f"parameter {p['id']}: cut at alpha={alpha:g} off by {err:.3f} "
                    f"of its spread (limit {CUT_TOL:g})"
                )
    return problems


def read_chain(out: Path) -> np.ndarray:
    """Samples from ``chain.csv`` without the index column."""
    with open(out / "chain.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row[1:]] for row in rows])


def bayes_problems(config: dict, out: Path) -> list:
    """Checks on an ``ffemu bayes`` output directory."""
    summary = json.loads((out / "bayes_summary.json").read_text(encoding="utf-8"))
    theta, _ = _theta_and_spreads(config)
    problems = []
    expected = config["bayes"]["n_samples"] - config["bayes"]["burn_in"]
    if summary["n_samples"] != expected:
        problems.append(f"chain kept {summary['n_samples']} samples, expected {expected}")
    rel = np.abs(np.asarray(summary["mean"]) - theta) / theta
    if np.any(rel > POSTERIOR_MEAN_TOL):
        problems.append(
            f"posterior mean off theta_true by {rel.max():.2e} (limit {POSTERIOR_MEAN_TOL:g})"
        )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzzy-aco", "update", fuzzy_aco_config, update_problems),
        Workload("bayes", "bayes", bayes_config, bayes_problems),
    )
}
