"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ess import effective_sample_size  # noqa: E402

ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_closed_form(phi):
    # AR(1) x_t = phi x_{t-1} + e_t has tau = (1 + phi) / (1 - phi)
    n = 200_000
    noise = np.random.default_rng(7).normal(size=n)
    x = lfilter([1.0], [1.0, -phi], noise)
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert effective_sample_size(x) == pytest.approx(expected, rel=0.05)


def test_ess_of_constant_chain_is_zero():
    assert effective_sample_size(np.full(100, 3.0)) == 0.0


def _exact_bundle(tmp_path: Path) -> tuple[dict, Path]:
    """A fuzzy-aco config and a bundle holding its generating cuts exactly."""
    config = workloads.fuzzy_aco_config(seed=0)
    theta, spreads = workloads._theta_and_spreads(config)
    levels = [1.0, 0.5, 0.0]
    tfns = [[90.0 * (j + 1), 100.0 * (j + 1), 110.0 * (j + 1)] for j in range(5)]
    summary = {
        "parameters": [
            {
                "id": f"k{i}",
                "center": float(theta[i]),
                "cuts": [
                    [a, theta[i] - (1 - a) * spreads[i], theta[i] + (1 - a) * spreads[i]]
                    for a in levels
                ],
            }
            for i in range(theta.size)
        ],
        "outputs": [
            {"mode": j + 1, "cuts": [[a, lo + (b - lo) * a, hi - (hi - b) * a] for a in levels]}
            for j, (lo, b, hi) in enumerate(tfns)
        ],
        "measured_eigenvalue_tfns": tfns,
    }
    (tmp_path / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return config, tmp_path


def test_exact_bundle_passes_every_check(tmp_path):
    config, out = _exact_bundle(tmp_path)
    assert workloads.WORKLOADS["fuzzy-aco"].check(config, out) == []


def test_one_unnested_cut_fails_the_check(tmp_path):
    config, out = _exact_bundle(tmp_path)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    cuts = summary["parameters"][2]["cuts"]
    cuts[2][1] = cuts[1][1] + 1.0  # alpha = 0 lower bound now inside the alpha = 0.5 cut
    (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    problems = workloads.WORKLOADS["fuzzy-aco"].check(config, out)
    assert any("does not contain" in p for p in problems)


def test_posterior_mean_off_truth_fails_the_check(tmp_path):
    config = workloads.bayes_config(seed=0)
    theta, _ = workloads._theta_and_spreads(config)
    payload = {
        "mean": list(theta * 1.03),
        "n_samples": config["bayes"]["n_samples"] - config["bayes"]["burn_in"],
    }
    (tmp_path / "bayes_summary.json").write_text(json.dumps(payload), encoding="utf-8")
    assert any("posterior mean" in p for p in workloads.bayes_problems(config, tmp_path))


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_shortened_workload_prints_every_metric_with_unit(trace, kind, monkeypatch, capsys):
    short = replace(
        workloads.WORKLOADS["fuzzy-aco"],
        config=lambda seed: {
            **workloads.fuzzy_aco_config(seed),
            "aco": {**workloads.fuzzy_aco_config(seed)["aco"], "max_iterations": 5},
        },
    )
    monkeypatch.setitem(workloads.WORKLOADS, "fuzzy-aco", short)
    monkeypatch.chdir(ROOT)
    args = ["--workload", "fuzzy-aco", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    assert all(NAME.fullmatch(name) for name in printed)
    if trace:
        assert result["metrics"]["optim.evaluations"]["value"] == 2 * (10 + 20 * 5)
        assert result["metrics"]["objective.calls"]["value"] == 2 * (10 + 20 * 5)


def test_missing_layer_is_reported_absent(tmp_path, monkeypatch):
    import ffemu.pipeline

    monkeypatch.delattr(ffemu.pipeline, "propagate_outputs")
    traced = tracer.Tracer()
    traced.install("ffemu.pipeline", "propagate_outputs", "propagate_outputs")
    traced.save(tmp_path / "spans.npz")
    spans = tracer.load_spans(tmp_path / "spans.npz")
    assert list(spans["absent"]) == ["ffemu.pipeline.propagate_outputs"]
    assert tracer.layer_totals(spans)["propagate_outputs"] == (0, 0.0, 0)


def test_slowdown_is_loop_time_over_reference_without_preempted_loops():
    probe = speed.SpeedProbe()
    ref = speed.REF_LOOP_S
    probe.samples = [(1.0, 0, 2 * ref), (2.0, 0, 2 * ref), (3.0, 0, 9 * ref), (2.5, 1, ref)]
    assert probe.slowdown(0, 0.5, 3.5) == pytest.approx(2.0**speed.SENSITIVITY)
    assert probe.slowdown(1, 0.0, 9.0) == pytest.approx(1.0)
    assert probe.slowdown(1, 5.0, 6.0) == pytest.approx(1.0)  # no sample inside: all of CPU 1
    assert probe.slowdown(2, 0.0, 9.0) == 1.0  # never sampled
