"""Benchmark of the ``ffemu`` CLI: one command runs a workload, checks its
outputs and prints every metric with its unit.

    python3 bench/run.py --workload fuzzy-aco --seed 1 --seconds 20 --trace 0

Run it from the repository root; the package is imported from ``src/``.
Working files go to ``.bench_work/<workload>/`` and are replaced on every
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the raw samples.

``--trace 0`` measures what a user of the CLI sees. It alternates set-up
probes and whole CLI runs until the next round would overrun ``--seconds``
(at least one round), so every sample is spread over the whole window:

- ``setup_s``: median over fresh processes of the time to import the
  package and return from ``pipeline.load_run_config`` (which simulates
  the measured data), ``SETUP_PER_ROUND`` of them before each CLI run;
- ``wall_s``: mean wall time of the CLI runs, process start to exit;
- ``peak_rss_mb``: peak resident memory of the CLI child processes (see
  ``peak_rss.py``).

Both times are rescaled to a reference CPU speed (see ``speed.py``): on a
small shared machine the CPU's own speed moved the same run by more than
the 25% a change may cost. The environment line keeps every measured time
and the slowdown it was divided by.

``--trace 1`` makes one untraced CLI run and one traced run (see
``tracer.py``) and prints the per-layer metrics. Every CLI run is checked
(see ``workloads.py``); a run that exits non-zero or fails a check counts
as failed. The CLI is called without ``--threads``, as users call it.

Each child process runs on one CPU, taking the CPUs in turn. The CLI's
default thread pool has one worker per core, and its workers hand the GIL
to each other: spread over two CPUs of a shared machine that hand-off made
the same ``ffemu update`` take anywhere from 10 s to 29 s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
from ess import min_ess  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, read_chain  # noqa: E402

RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PER_ROUND = 2
CONVERGED_F = 1e-12

SETUP_SNIPPET = """
import sys
from ffemu import pipeline
pipeline.load_run_config(sys.argv[1])
print(pipeline.__file__)
"""


class Runner:
    """Child processes of one benchmark run, all under one deadline."""

    def __init__(self, root: Path, work: Path, workload, probe: SpeedProbe):
        self.src = root / "src"
        self.work = work
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.probe = probe
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spawned = 0
        self.raw_s = []  # measured wall time of every child, before rescaling
        self.slowdowns = []
        self.peak_kib = 0  # largest VmHWM of an untraced CLI run
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _spawn(self, args: list) -> tuple[float, subprocess.CompletedProcess]:
        """Runs one child on the next CPU; returns its time at the reference speed."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise subprocess.TimeoutExpired(args, 0)
        cpu = self.cpus[self.spawned % len(self.cpus)]
        self.spawned += 1
        self.probe.cpu = cpu
        os.sched_setaffinity(0, {cpu})  # this thread only; the child inherits it
        start = time.perf_counter()
        proc = subprocess.run(
            args, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=timeout
        )
        end = time.perf_counter()
        slowdown = self.probe.slowdown(cpu, start, end)
        self.raw_s.append(end - start)
        self.slowdowns.append(slowdown)
        return (end - start) / slowdown, proc

    def setup(self, config_path: Path, repeats: int) -> list:
        """Times, at the reference speed, of fresh processes that import the
        package and load the config."""
        times = []
        for _ in range(repeats):
            elapsed, proc = self._spawn([sys.executable, "-c", SETUP_SNIPPET, str(config_path)])
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
            imported = Path(proc.stdout.strip()).resolve()
            if not imported.is_relative_to(self.src.resolve()):
                raise RuntimeError(f"imported ffemu from {imported}, not from {self.src}")
            times.append(elapsed)
        return times

    def cli_args(self, config_path: Path, out: Path) -> list:
        return [self.workload.subcommand, "--config", str(config_path), "--out", str(out)]

    def run_cli(self, config: dict, config_path: Path, out: Path, traced_spans=None) -> float:
        """One checked CLI run; returns its wall time at the reference speed."""
        peak_file = self.work / "peak_kib"
        if traced_spans is None:
            prefix = [sys.executable, str(BENCH_DIR / "peak_rss.py"), str(peak_file)]
        else:
            prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), str(traced_spans)]
        self.attempted += 1
        elapsed, proc = self._spawn(prefix + self.cli_args(config_path, out))
        if traced_spans is None and peak_file.exists():
            self.peak_kib = max(self.peak_kib, int(peak_file.read_text(encoding="ascii")))
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        else:
            problems = self.workload.check(config, out)
        self.failed += bool(problems)
        self.problems += [f"run {self.attempted}: {p}" for p in problems]
        return elapsed


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summary(out: Path) -> dict | None:
    path = out / "summary.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def _bundle_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def end_to_end(runner: Runner, config: dict, config_path: Path, seconds: float) -> tuple[dict, dict]:
    setup_times, walls = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setup_times += runner.setup(config_path, SETUP_PER_ROUND)
        walls.append(runner.run_cli(config, config_path, runner.work / "out"))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    metrics = {
        "wall_s": _metric(statistics.fmean(walls), "s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(runner.peak_kib / 1024.0, "MB"),
    }
    return metrics, {"wall_s": walls, "setup_s": setup_times}


def per_layer(runner: Runner, config: dict, config_path: Path) -> tuple[dict, dict]:
    plain_out, traced_out = runner.work / "out", runner.work / "traced"
    spans_path = runner.work / "spans.npz"
    plain_wall = runner.run_cli(config, config_path, plain_out)
    traced_wall = runner.run_cli(config, config_path, traced_out, traced_spans=spans_path)

    spans = tracer.load_spans(spans_path)
    totals = tracer.layer_totals(spans)

    def calls(name):
        return totals[name][0]

    def busy_s(name):
        return totals[name][1]

    def us_per_call(name):
        n = calls(name)
        return 1e6 * busy_s(name) / n if n else 0.0

    summary = _summary(traced_out)
    plain_summary = _summary(plain_out)
    evaluations = sum(summary["metadata"]["evaluation_counts"]) if summary else 0
    level_f = summary["objective_per_level"] if summary else []
    optimizer_s = sum(plain_summary["metadata"]["elapsed_seconds"]) if plain_summary else 0.0
    max_iterations = config[config["optimizer"]]["max_iterations"]
    iterations = spans["tag"][spans["name"] == tracer.SPAN_NAMES.index("optimizer")]

    bayes_file = traced_out / "bayes_summary.json"
    acceptance, ess = 0.0, 0.0
    if bayes_file.exists():
        acceptance = json.loads(bayes_file.read_text(encoding="utf-8"))["acceptance_rate"]
        ess = min_ess(read_chain(traced_out))

    metrics = {
        "model.modal_calls": _metric(calls("modal"), "count"),
        "model.modal_us": _metric(us_per_call("modal"), "us"),
        "linalg.pair_modes_calls": _metric(calls("pair_modes"), "count"),
        "linalg.pair_modes_us": _metric(us_per_call("pair_modes"), "us"),
        "linalg.pair_fallback_frac": _metric(
            totals["pair_modes"][2] / calls("pair_modes") if calls("pair_modes") else 0.0,
            "fraction",
        ),
        "objective.calls": _metric(calls("objective_value"), "count"),
        "objective.us_per_call": _metric(us_per_call("objective_value"), "us"),
        "objective.interval_modal_us": _metric(us_per_call("interval_modal"), "us"),
        "objective.error_vectors_us": _metric(us_per_call("error_vectors"), "us"),
        "objective.busy_s": _metric(busy_s("objective_value"), "s"),
        "optim.evaluations": _metric(evaluations, "count"),
        "optim.iterations": _metric(int(iterations.sum()), "count"),
        "optim.stagnation_stops": _metric(int((iterations < max_iterations).sum()), "count"),
        "optim.evals_per_s": _metric(
            sum(plain_summary["metadata"]["evaluation_counts"]) / optimizer_s if optimizer_s else 0.0,
            "1/s",
        ),
        "optim.overhead_s": _metric(tracer.optimizer_overhead_s(spans), "s"),
        "pipeline.level_f_max": _metric(max(level_f, default=0.0), "1"),
        "pipeline.levels_converged": _metric(sum(f <= CONVERGED_F for f in level_f), "count"),
        "pipeline.propagate_outputs_s": _metric(busy_s("propagate_outputs"), "s"),
        "bayes.log_posterior_us": _metric(us_per_call("log_posterior"), "us"),
        "bayes.acceptance_rate": _metric(acceptance, "fraction"),
        "bayes.ess_min": _metric(ess, "samples"),
        "bayes.ess_per_s": _metric(ess / plain_wall, "1/s"),
        "report.write_bundle_s": _metric(busy_s("write_bundle"), "s"),
        "report.bundle_bytes": _metric(_bundle_bytes(traced_out), "bytes"),
        "trace.overhead_frac": _metric(traced_wall / plain_wall - 1.0, "fraction"),
        "trace.absent_layers": _metric(len(spans["absent"]), "count"),
    }
    detail = {
        "wall_s": [plain_wall],
        "traced_wall_s": traced_wall,
        "absent_layers": [str(a) for a in spans["absent"]],
    }
    return metrics, detail


def _commit(root: Path) -> str:
    """HEAD of a git checkout, read without running git; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ffemu" / "cli.py").is_file():
        print(f"no ffemu sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload.config(args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

    try:
        with SpeedProbe() as probe:
            runner = Runner(root, work, workload, probe)
            if args.trace:
                metrics, detail = per_layer(runner, config, config_path)
            else:
                metrics, detail = end_to_end(runner, config, config_path, args.seconds)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    for problem in runner.problems:
        print(problem, file=sys.stderr)

    environment = {
        "workload": workload.name,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(root),
        **detail,
        "measured_s": runner.raw_s,
        "slowdown": runner.slowdowns,
    }
    print(json.dumps({"environment": environment}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
