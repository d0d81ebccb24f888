"""Tests for the command-line interface and the package's import graph."""

import ast
import csv
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ffemu
from ffemu import cli, report, scenarios
from ffemu.pipeline import load_run_config, run_ffemu
from ffemu.report import cut_stack, load_summary

from test_model import FIXED_PAIR, FREE_PAIR, NO_PARAMETER_MESSAGE, NO_PARAMETERS, SPLIT_TRIPLE


@pytest.fixture
def small_config(tmp_path):
    """Bundled fuzzy ACO run cut to 2 levels and a small search budget."""
    config = scenarios.bundled_run_config(seed=2)
    config["alpha_levels"] = 2
    config["aco"].update(max_iterations=30)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path


class TestUpdate:
    def test_writes_bundle(self, small_config, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert cli.main(["update", "--config", str(small_config), "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metadata"]["evaluation_counts"] == [10 + 20 * 30] * 2
        assert "level 1" not in capsys.readouterr().err

    def test_rerun_writes_the_same_bundle(self, tmp_path):
        # every CSV byte for byte, and summary.json apart from its timings
        config = scenarios.bundled_run_config(seed=5)
        config["alpha_levels"] = 2
        config["aco"].update(max_iterations=20)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        bundles = [tmp_path / "first", tmp_path / "second"]
        for out in bundles:
            assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        csvs = sorted(p.name for p in bundles[0].glob("*.csv"))
        assert "history.csv" in csvs and csvs == sorted(p.name for p in bundles[1].glob("*.csv"))
        for name in csvs:
            assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes(), name
        first, second = (json.loads((out / "summary.json").read_text()) for out in bundles)
        for summary in (first, second):
            for key in [key for key in summary["metadata"] if key.endswith("_seconds")]:
                del summary["metadata"][key]
        assert first == second

    def test_bundle_records_and_report_renders_the_level_table(self, small_config, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert cli.main(["update", "--config", str(small_config), "--out", str(out)]) == cli.EXIT_OK
        meta = json.loads((out / "summary.json").read_text())["metadata"]
        assert meta["stop_reasons"] == ["max_iterations"] * 2
        assert meta["iterations"] == [30, 30]
        for k in range(2):
            spent = meta["objective_seconds"][k] + meta["polish_seconds"][k]
            assert 0.0 < spent <= meta["elapsed_seconds"][k]
        capsys.readouterr()
        assert cli.main(["report", "--bundle", str(out)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("Per alpha level")
        assert lines[at + 1].split() == [
            "level", "alpha", "stop", "iters", "evals", "polish", "f",
            "elapsed", "s", "objective", "s", "polish", "s", "overhead", "s",
        ]
        row = lines[at + 3].split()
        assert row[:5] == ["2", "0.000", "max_iterations", "30", "610"]
        overhead = meta["elapsed_seconds"][1] - meta["objective_seconds"][1] - meta["polish_seconds"][1]
        assert float(row[-1]) == pytest.approx(overhead, abs=1e-4)

    def test_bundle_reads_back_the_result_stacks_bit_for_bit(self, small_config, tmp_path):
        run = load_run_config(small_config)
        result = run_ffemu(run)
        out = report.write_bundle(tmp_path / "bundle", run, result)
        summary = load_summary(out)
        for group, stack in [("parameters", result.parameters), ("outputs", result.outputs)]:
            read = cut_stack(summary, group)
            for name in ("levels", "lo", "hi"):
                assert getattr(read, name).shape == getattr(stack, name).shape
                assert getattr(read, name).tobytes() == getattr(stack, name).tobytes(), (group, name)

    @pytest.mark.parametrize("command, bayes", [("update", False), ("update", True), ("bayes", True)])
    @pytest.mark.parametrize(
        "start, message",
        [
            ([4000, 2000, 2000], "theta_initial must be 5 finite numbers, got [4000.0, 2000.0, 2000.0]"),
            (
                [40000, 2000, 2000, 2000, 2000],
                "theta_initial [40000.0, 2000.0, 2000.0, 2000.0, 2000.0] is outside [theta_min, theta_max]",
            ),
        ],
    )
    def test_bad_theta_initial_is_a_configuration_error_naming_the_config(
        self, command, bayes, start, message, tmp_path, capsys
    ):
        config = scenarios.bundled_run_config(seed=2)
        config["theta_initial"] = start
        if not bayes:
            del config["bayes"]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, bayes", [("update", False), ("update", True), ("bayes", True)])
    @pytest.mark.parametrize("low", [-3400.0, 0.0])
    def test_non_positive_theta_min_is_a_configuration_error_naming_the_config(
        self, command, bayes, low, tmp_path, capsys
    ):
        # one box rule, checked by the run, whichever command reads it
        config = scenarios.bundled_run_config(seed=2)
        config["theta_min"][0] = low
        if not bayes:
            del config["bayes"]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        message = f"theta_min entries must be positive (stiffnesses), got {config['theta_min']}"
        assert capsys.readouterr().err == f"configuration error: {path}: {message}\n"
        assert not out.exists()

    def test_updated_eigenvalues_are_the_alpha_one_output_cuts(self, small_config, tmp_path):
        # one eigenvalue convention: the centre's eigenvalues are recorded
        # once, with the bits of the output stacks' alpha = 1 row
        out = tmp_path / "bundle"
        assert cli.main(["update", "--config", str(small_config), "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["alpha_levels"][0] == 1.0
        for value, output in zip(summary["updated_eigenvalues"], summary["outputs"], strict=True):
            _, lo, hi = output["cuts"][0]
            assert value.hex() == lo.hex() == hi.hex()

    def test_verbose_logs_one_record_per_level(self, small_config, tmp_path, caplog, capsys):
        out = tmp_path / "bundle"
        args = ["update", "--config", str(small_config), "--out", str(out), "--verbose"]
        assert cli.main(args) == cli.EXIT_OK
        records = [r for r in caplog.records if r.name.startswith("ffemu")]
        assert [r.levelno for r in records] == [logging.INFO] * 2
        assert "level 1 (alpha=1.000)" in records[0].getMessage()
        assert "level 2 (alpha=0.000)" in records[1].getMessage()
        assert "610 evaluations" in records[1].getMessage()
        assert capsys.readouterr().err.count("level ") == 2
        # the handler the flag attached is gone once the command returns
        assert logging.getLogger("ffemu").handlers == []


@pytest.mark.parametrize("initial", [True, False], ids=["initial", "no-initial"])
@pytest.mark.parametrize("bayes", [False, True], ids=["no-bayes", "bayes"])
def test_update_prints_what_report_prints(initial, bayes, tmp_path, capsys):
    config = scenarios.bundled_run_config(seed=2)
    config["alpha_levels"] = 3
    config["aco"].update(max_iterations=5)
    config["bayes"].update(n_samples=300, burn_in=50)
    if not initial:
        del config["theta_initial"]
    path, out = tmp_path / "run.json", tmp_path / "bundle"
    path.write_text(json.dumps(config))
    if bayes:  # the M-H summary is in the bundle before update writes the rest
        assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert cli.main(["report", "--bundle", str(out)]) == cli.EXIT_OK
    reported = capsys.readouterr().out
    assert printed == f"{reported}\nresult bundle written to {out}\n"
    lines = reported.splitlines()
    headers = {}
    for title, rows in [("Updating parameters (N/m)", 5), ("Eigenvalues as frequencies (Hz)", 5), ("Per alpha level", 3)]:
        at = lines.index(title)
        headers[title] = lines[at + 1]
        assert [len(line) for line in lines[at + 2 : at + 2 + rows]] == [len(lines[at + 1])] * rows, title
    assert ("M-H mean" in headers["Updating parameters (N/m)"]) == ("M-H" in headers["Eigenvalues as frequencies (Hz)"]) == bayes
    assert lines[2].split()[:2] == ["k1", "4150" if initial else "-"]


class TestReport:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        """One finished bundle with an M-H summary next to it."""
        root = tmp_path_factory.mktemp("report")
        config = scenarios.bundled_run_config(seed=2)
        config["alpha_levels"] = 2
        config["aco"].update(max_iterations=5)
        path = root / "run.json"
        path.write_text(json.dumps(config))
        out = root / "bundle"
        assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        config["bayes"].update(n_samples=300, burn_in=50)
        path.write_text(json.dumps(config))
        assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        return out

    @pytest.mark.parametrize("name", ["summary.json", "bayes_summary.json"])
    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"metadata": {', "invalid JSON at line 1, column 15"),  # truncated
            ("[1]", "expected a JSON object, got list"),
        ],
    )
    def test_corrupt_file_is_a_configuration_error(self, bundle, name, content, message, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        (copy / name).write_text(content)
        capsys.readouterr()
        assert cli.main(["report", "--bundle", str(copy)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: {copy / name}: {message}")


    def test_renders_the_sampler_telemetry(self, bundle, capsys):
        payload = json.loads((bundle / "bayes_summary.json").read_text())
        capsys.readouterr()
        assert cli.main(["report", "--bundle", str(bundle)]) == cli.EXIT_OK
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("M-H sampler:"))
        assert line.split() == [
            "M-H", "sampler:", "acceptance", "rate", f"{payload['acceptance_rate']:.3f}",
            "chains", str(payload["chains"]), "min", "ESS", f"{min(payload['ess']):.0f}",
            "max", "R-hat", f"{max(payload['rhat']):.3f}",
        ]

    def test_an_undefined_rhat_prints_as_a_dash(self, bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        data = json.loads((copy / "bayes_summary.json").read_text())
        data["rhat"] = None
        (copy / "bayes_summary.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["report", "--bundle", str(copy)]) == cli.EXIT_OK
        line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("M-H sampler:"))
        assert line.endswith("   max R-hat -")

    def test_bundle_records_the_laplace_fit_and_the_diagnostics(self, bundle):
        payload = json.loads((bundle / "bayes_summary.json").read_text())
        mode, variance = np.array(payload["mode"]), np.array(payload["laplace_variance"])
        # the bundled measured centres are the truth's eigenvalues
        np.testing.assert_allclose(mode, scenarios.THETA_TRUE, rtol=1e-9)
        assert (variance > 0).all() and (np.sqrt(variance) < 0.05 * mode).all()
        assert all(e > 0 for e in payload["ess"]) and all(r > 0.9 for r in payload["rhat"])

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("summary.json", lambda d: d.pop("alpha_levels"), "missing required key 'alpha_levels'"),
            (
                "summary.json",
                lambda d: d["metadata"].update(evaluation_counts=["x", 1]),
                "'metadata.evaluation_counts' must be a list of 2 integers, got ['x', 1]",
            ),
            (
                "summary.json",
                lambda d: d["parameters"][1]["cuts"].pop(),
                "'parameters[1].cuts' must be a list of 2 rows of 3 finite numbers, got [[",
            ),
            (
                "summary.json",
                lambda d: d.update(theta_initial=[1.0]),
                "'theta_initial' must be a list of 5 finite numbers, got [1.0]",
            ),
            (
                "bayes_summary.json",
                lambda d: d.update(cov_percent=[1.0]),
                "'cov_percent' must be a list of 5 finite numbers, got [1.0]",
            ),
            ("summary.json", lambda d: d.update(alpha_levels=[]), "'alpha_levels' must not be empty"),
            (
                "summary.json",
                lambda d: d.update(measured_eigenvalue_tfns=[[1.0, 2.0]] * 5),
                "'measured_eigenvalue_tfns' must be a list of 5 rows of 3 finite numbers, got [[1.0, 2.0], ",
            ),
            ("summary.json", lambda d: d.pop("metadata"), "missing required key 'metadata'"),
            (
                "summary.json",
                lambda d: d["outputs"][0].update(mode="1"),
                "'outputs[0].mode' must be an integer, got '1'",
            ),
            ("bayes_summary.json", lambda d: d.pop("acceptance_rate"), "missing required key 'acceptance_rate'"),
            (
                "bayes_summary.json",
                lambda d: d.update(chains=2.5),
                "'chains' must be an integer, got 2.5",
            ),
            ("bayes_summary.json", lambda d: d.update(chains=True), "'chains' must be an integer, got True"),
            ("bayes_summary.json", lambda d: d.update(chains="16"), "'chains' must be an integer, got '16'"),
            ("bayes_summary.json", lambda d: d.update(chains=0), "'chains' must be at least 1, got 0"),
            ("bayes_summary.json", lambda d: d.update(chains=-16), "'chains' must be at least 1, got -16"),
            *[
                (
                    "bayes_summary.json",
                    lambda d, rate=rate: d.update(acceptance_rate=rate),
                    f"'acceptance_rate' must be {bound}, got {rate!r}",
                )
                for rate, bound in ((-0.25, "at least 0"), (1.5, "at most 1"))
            ],
            (
                "bayes_summary.json",
                lambda d: d.update(acceptance_rate=math.nan),
                "'acceptance_rate' must be a finite number, got nan",
            ),
            # NaN and Infinity, as json.dump writes them
            (
                "summary.json",
                lambda d: d["parameters"][0].update(center=math.nan),
                "'parameters[0].center' must be a finite number, got nan",
            ),
            (
                "summary.json",
                lambda d: d["objective_per_level"].__setitem__(0, math.nan),
                "'objective_per_level' must be a list of 2 finite numbers, got [nan, ",
            ),
            (
                "summary.json",
                lambda d: d["metadata"]["elapsed_seconds"].__setitem__(0, math.inf),
                "'metadata.elapsed_seconds' must be a list of 2 finite numbers, got [inf, ",
            ),
            (
                "bayes_summary.json",
                lambda d: d["mean"].__setitem__(0, math.nan),
                "'mean' must be a list of 5 finite numbers, got [nan, ",
            ),
            (
                "summary.json",
                lambda d: d["parameters"][0]["cuts"][1].__setitem__(slice(1, 3), [5000.0, 3000.0]),
                "bounds out of order at level 0.0: [5000.0, 3000.0] in column 0",
            ),
            (
                "summary.json",
                lambda d: d["measured_eigenvalue_tfns"].__setitem__(0, [3.0, 1.0, 2.0]),
                "triangular vertices out of order: (3.0, 1.0, 2.0)",
            ),
            (
                "summary.json",
                lambda d: d["parameters"][1].update(cuts=[[1.0, 100.0, 300.0], [0.0, 150.0, 250.0]]),
                "nesting violated between levels 1.0 and 0.0: [100.0, 300.0] not inside [150.0, 250.0] in column 1",
            ),
            ("summary.json", lambda d: d.update(alpha_levels=[0.0, 1.0]), "first level must be alpha = 1, got 0.0"),
            (
                "summary.json",
                lambda d: d["updated_eigenvalues"].__setitem__(0, -1.0),
                "'updated_eigenvalues' must be above 0, got [-1.0, ",
            ),
            (
                "summary.json",
                lambda d: d["initial_eigenvalues"].__setitem__(2, 0.0),
                "'initial_eigenvalues' must be above 0, got [",
            ),
            (
                "summary.json",
                lambda d: d["outputs"][1]["cuts"][1].__setitem__(1, -5.0),
                "'outputs[1].cuts' must have lower bounds above 0, got -5.0 in row 1\n",
            ),
            (
                "summary.json",
                lambda d: d["measured_eigenvalue_tfns"].__setitem__(0, [-1.0, 1.0, 2.0]),
                "'measured_eigenvalue_tfns' must be above 0, got [[-1.0, 1.0, 2.0], ",
            ),
            (
                "bayes_summary.json",
                lambda d: d["posterior_eigenvalues"].__setitem__(4, -1.0),
                "'posterior_eigenvalues' must be above 0, got [",
            ),
            (
                "bayes_summary.json",
                lambda d: d["laplace_variance"].__setitem__(1, 0.0),
                "'laplace_variance' must be above 0, got [",
            ),
            ("bayes_summary.json", lambda d: d["ess"].__setitem__(2, -1.0), "'ess' must be at least 0, got ["),
            (
                "bayes_summary.json",
                lambda d: d.update(rhat=[1.0]),
                "'rhat' must be a list of 5 finite numbers, got [1.0]",
            ),
            # every telemetry field this version writes is required
            *[
                ("summary.json", lambda d, key=key: d["metadata"].pop(key), f"missing required key 'metadata.{key}'")
                for key in ("stop_reasons", "iterations", "objective_seconds", "polish_seconds", "polish_evaluations")
            ],
            *[
                ("bayes_summary.json", lambda d, key=key: d.pop(key), f"missing required key {key!r}")
                for key in ("chains", "posterior_eigenvalues", "mode", "laplace_variance", "ess", "rhat")
            ],
            # a bundle without parameters
            (
                "summary.json",
                lambda d: d.update(parameters=[], theta_initial=None),
                "'parameters' must not be empty\n",
            ),
            # a bundle without outputs, every per-mode vector emptied with them
            (
                "summary.json",
                lambda d: d.update(
                    outputs=[], measured_eigenvalue_tfns=[], updated_eigenvalues=[], initial_eigenvalues=[]
                ),
                "'outputs' must not be empty\n",
            ),
            # an alpha column that disagrees with alpha_levels
            (
                "summary.json",
                lambda d: d["parameters"][0]["cuts"][1].__setitem__(0, 0.7),
                "'parameters[0].cuts' has alpha 0.7 in row 1, but alpha_levels[1] is 0.0",
            ),
            (
                "summary.json",
                lambda d: d["outputs"][3]["cuts"][0].__setitem__(0, 0.5),
                "'outputs[3].cuts' has alpha 0.5 in row 0, but alpha_levels[0] is 1.0",
            ),
        ],
    )
    def test_missing_or_mistyped_field_is_a_configuration_error(
        self, bundle, name, edit, message, tmp_path, capsys
    ):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        data = json.loads((copy / name).read_text())
        edit(data)
        (copy / name).write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main(["report", "--bundle", str(copy)]) == cli.EXIT_CONFIG
        # a prefix: a value's complaint ends in the value, which may be run-dependent
        assert capsys.readouterr().err.startswith(f"configuration error: {copy / name}: {message}")

    def test_no_deleted_or_mistyped_field_ends_in_a_traceback(self, bundle, tmp_path, capsys):
        # every field at every level the report reads, deleted or set to a
        # string: the report renders it or refuses it as a configuration error
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        for name in ("summary.json", "bayes_summary.json"):
            text = (copy / name).read_text()
            data = json.loads(text)
            objects = [data] + [v for v in data.values() if isinstance(v, dict)]
            objects += [v[0] for v in data.values() if isinstance(v, list) and v and isinstance(v[0], dict)]
            for obj in objects:
                for key in list(obj):
                    for edit in ("delete", "string"):
                        value = obj.pop(key)
                        if edit == "string":
                            obj[key] = "x"
                        (copy / name).write_text(json.dumps(data))
                        code = cli.main(["report", "--bundle", str(copy)])
                        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), (name, key, edit)
                        obj[key] = value
            (copy / name).write_text(text)
        capsys.readouterr()

    def test_a_bare_mean_is_a_configuration_error(self, bundle, tmp_path, capsys):
        copy = tmp_path / "bundle"
        shutil.copytree(bundle, copy)
        (copy / "bayes_summary.json").write_text(json.dumps({"mean": "x"}))
        capsys.readouterr()
        assert cli.main(["report", "--bundle", str(copy)]) == cli.EXIT_CONFIG
        message = "'mean' must be a list of 5 finite numbers, got 'x'"
        assert capsys.readouterr().err == f"configuration error: {copy / 'bayes_summary.json'}: {message}\n"


class TestBayes:
    @pytest.mark.parametrize("section", [5, [1]])
    def test_non_object_bayes_section_is_a_configuration_error(self, section, tmp_path, capsys):
        config = scenarios.bundled_run_config(seed=2)
        config["bayes"] = section
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args = ["bayes", "--config", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and "'bayes' must be an object" in err


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("likelihood_sd", math.nan, "'bayes.likelihood_sd' must be a finite number, got nan"),
            # the proposal comes from the Laplace fit; its old setting is unknown
            ("proposal_fraction", 0.01, "unknown key 'bayes.proposal_fraction'; valid keys: n_samples, burn_in, likelihood_sd"),
            ("n_samples", 2500.9, "'bayes.n_samples' must be an integer, got 2500.9"),
            ("n_samples", "2000", "'bayes.n_samples' must be an integer, got '2000'"),
            ("burn_in", True, "'bayes.burn_in' must be an integer, got True"),
        ],
    )
    def test_malformed_setting_is_a_configuration_error_naming_its_key(
        self, key, value, message, tmp_path, capsys
    ):
        config = scenarios.bundled_run_config(seed=2)
        config["bayes"][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))  # NaN and Infinity as JSON literals
        out = tmp_path / "out"
        assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {path}: {message}\n"
        assert not out.exists()

    def test_unknown_setting_is_a_configuration_error_naming_its_key(self, tmp_path, capsys):
        config = scenarios.bundled_run_config(seed=2)
        config["bayes"]["n_sample"] = config["bayes"].pop("n_samples")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        valid = "n_samples, burn_in, likelihood_sd"
        assert err == f"configuration error: {path}: unknown key 'bayes.n_sample'; valid keys: {valid}\n"
        assert not out.exists()

    def test_absent_section_samples_with_the_defaults(self, tmp_path, capsys):
        config = scenarios.bundled_run_config(seed=2)
        del config["bayes"]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        # 10,000 samples, the first 1,000 burned in
        assert json.loads((out / "bayes_summary.json").read_text())["n_samples"] == 9000
        assert len((out / "chain.csv").read_bytes().splitlines()) == 9001

    def test_summary_records_the_chain_count(self, tmp_path, capsys):
        config = scenarios.bundled_run_config(seed=2)
        config["bayes"].update(n_samples=400, burn_in=50)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        payload = json.loads((out / "bayes_summary.json").read_text())
        # n_samples - burn_in states kept in all, from 16 chains
        assert (payload["n_samples"], payload["chains"]) == (350, 16)
        with open(out / "chain.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in rows] == list(range(350))  # sample_index runs across the chains
        line = f"acceptance rate: {payload['acceptance_rate']:.3f}   chains: 16"
        assert line in capsys.readouterr().out.splitlines()

    def test_non_finite_laplace_covariance_names_likelihood_sd(self, tmp_path, capsys):
        # J^T J overflows at the posterior mode: the run stops there,
        # naming the setting, without a numpy warning
        config = scenarios.bundled_run_config(seed=2)
        config["bayes"]["likelihood_sd"] = 1e-300
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: the Laplace covariance at the posterior mode is not finite and positive definite"
        )
        assert "likelihood_sd = 1e-300" in err
        assert not out.exists()


class TestSimulate:
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("spread_fraction", -0.1, "'spread_fraction' must be at least 0, got -0.1"),
            (
                "spread_fractions",
                0.5,
                "unknown key 'spread_fractions'; valid keys: theta_true, spreads, spread_fraction, shape_tfns",
            ),
        ],
    )
    def test_truth_file_error_names_the_file(self, key, value, message, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"theta_true": scenarios.THETA_TRUE.tolist(), key: value}))
        args = ["simulate", "--truth", str(truth), "--out", str(tmp_path / "m.json")]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {truth}: {message}\n"
        assert not (tmp_path / "m.json").exists()

    def test_bundled_truth_specs(self):
        theta = "[4000.0, 2200.0, 2120.0, 2600.0, 2400.0]"
        for kind, fraction in [("fuzzy", "0.05"), ("crisp", "0.0")]:
            spec = scenarios.bundled_truth_spec(kind)
            assert json.dumps(spec) == f'{{"theta_true": {theta}, "spread_fraction": {fraction}}}'

    @pytest.mark.parametrize("data, node", [(FREE_PAIR, 0), (SPLIT_TRIPLE, 1)], ids=["free-pair", "split-triple"])
    @pytest.mark.parametrize("command", ["simulate", "update"])
    def test_floating_model_is_a_configuration_error_naming_the_model_file(
        self, command, data, node, tmp_path, capsys
    ):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        if command == "simulate":
            args = ["simulate", "--model", str(model), "--out", str(tmp_path / "out")]
        else:
            config = scenarios.bundled_run_config(seed=2)
            config["model"] = "model.json"
            (tmp_path / "run.json").write_text(json.dumps(config))
            args = ["update", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_CONFIG
        message = f"node {node} has no spring path to ground, so K(theta) is singular"
        assert capsys.readouterr().err == f"configuration error: {model}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data", [FIXED_PAIR, NO_PARAMETERS], ids=["fixed-springs", "parameters-0"])
    @pytest.mark.parametrize(
        "command, source", [("simulate", None), ("update", "truth"), ("update", "measured"), ("bayes", "measured")]
    )
    def test_model_without_updating_parameter_is_a_configuration_error_naming_the_model_file(
        self, command, source, data, tmp_path, capsys
    ):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))
        out = tmp_path / "out"
        if command == "simulate":
            args = ["simulate", "--model", str(model), "--out", str(out)]
        else:
            config = scenarios.bundled_run_config(seed=2)
            config["model"] = "model.json"
            if source == "measured":
                assert cli.main(["simulate", "--levels", "2", "--out", str(tmp_path / "m.json")]) == cli.EXIT_OK
                del config["truth"]
                config["measured"] = "m.json"
            (tmp_path / "run.json").write_text(json.dumps(config))
            args = [command, "--config", str(tmp_path / "run.json"), "--out", str(out)]
        capsys.readouterr()
        assert cli.main(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {model}: {NO_PARAMETER_MESSAGE}\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_no_levels_is_a_configuration_error(self, count, tmp_path, capsys):
        args = ["simulate", "--levels", count, "--out", str(tmp_path / "m.json")]
        assert cli.main(args) == cli.EXIT_CONFIG
        message = "need at least one alpha level, as a 1-D list"
        assert capsys.readouterr().err == f"configuration error: {message}\n"


class TestMeasuredFile:
    @pytest.fixture(scope="class")
    def measured(self, tmp_path_factory):
        """A simulated measured-data file with shape triangles, in Hz."""
        root = tmp_path_factory.mktemp("measured")
        truth = root / "truth.json"
        truth.write_text(json.dumps(dict(scenarios.bundled_truth_spec("fuzzy"), shape_tfns=True)))
        out = root / "m.json"
        args = ["simulate", "--truth", str(truth), "--levels", "2", "--out", str(out)]
        assert cli.main(args) == cli.EXIT_OK
        return json.loads(out.read_text())

    def run_with(self, data, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        config = scenarios.bundled_run_config(seed=2)
        del config["truth"]
        config.update(measured="m.json", alpha_levels=2)
        config["aco"].update(max_iterations=5)
        (tmp_path / "run.json").write_text(json.dumps(config))
        args = ["update", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "b")]
        return path, cli.main(args)

    def test_simulated_file_runs(self, measured, tmp_path, capsys):
        assert self.run_with(measured, tmp_path)[1] == cli.EXIT_OK

    @pytest.mark.parametrize(
        "mode, key, index, value, message",
        [
            (0, "eigenvalue", 2, math.inf, "'modes[0].eigenvalue' must be a list of 3 finite numbers, got ["),
            (1, "eigenvalue", 0, "1.0", "'modes[1].eigenvalue' must be a list of 3 finite numbers, got ['1.0', "),
            (0, "mode_shape", 1, math.nan, "'modes[0].mode_shape' must be a list of finite numbers, got ["),
            (4, "mode_shape", 0, "0.5", "'modes[4].mode_shape' must be a list of 5 finite numbers, got ['0.5', "),
            (2, "mode_shape_tfns", 3, [0.1, None, 0.2], "'modes[2].mode_shape_tfns' must be a list of 5 rows of 3"),
            (0, "eigenvalue", 0, -0.7, "'modes[0].eigenvalue' must be above 0, got [-0.7, "),
            (0, "eigenvalue", 0, 1e6, "triangular vertices out of order"),
            (3, "mode_shape_tfns", 1, [0.1, 0.2], "'modes[3].mode_shape_tfns' must be a list of 5 rows of 3"),
            (3, "mode_shape", None, None, "missing required key 'modes[3].mode_shape'"),
            (None, "modes", None, 5, "'modes' must be a list of objects, got 5"),
            (None, "units", None, "khz", "'units' must be 'hz' or 'eigenvalue', got 'khz'"),
            (None, "unit", None, "eigenvalue", "unknown key 'unit'; valid keys: units, modes"),
            (2, "mode_shape_tfn", None, [[0.1, 0.2, 0.3]] * 5, "unknown key 'modes[2].mode_shape_tfn'"),
            (0, "mode_shapes", None, [1.0] * 5, "unknown key 'modes[0].mode_shapes'"),
            (1, "mode_shape", None, [0.0] * 5, "'modes[1].mode_shape' must not be a zero vector, got [0.0, 0.0, "),
            (0, "mode_shape", None, [], "'modes[0].mode_shape' must not be a zero vector, got []"),
            (1, "mode_shape_tfns", None, [[0.0, 0.5, 1.0]] * 5, "'modes[1].mode_shape_tfns' lower (a) vertex vector"),
            (2, "mode_shape_tfns", None, [[-1.0, -0.5, 0.0]] * 5, "'modes[2].mode_shape_tfns' upper (c) vertex vector"),
        ],
    )
    def test_bad_value_is_a_configuration_error_naming_the_file(
        self, measured, mode, key, index, value, message, tmp_path, capsys
    ):
        # modes[mode][key][index] = value, or the key deleted when value is None
        data = json.loads(json.dumps(measured))
        entry = data if mode is None else data["modes"][mode]
        if value is None:
            del entry[key]
        elif index is None:
            entry[key] = value
        else:
            entry[key][index] = value
        path, code = self.run_with(data, tmp_path)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ") and message in err
        assert not (tmp_path / "b").exists()

    def command_error(self, data, command, eigenvector_weight, levels, tmp_path, capsys):
        """The stderr of ``command`` on a run config reading ``data`` at
        ``levels`` levels, which must exit 1 naming the run config, with no
        traceback and no bundle."""
        (tmp_path / "m.json").write_text(json.dumps(data))
        config = scenarios.bundled_run_config(seed=2)
        del config["truth"]
        config.update(measured="m.json", alpha_levels=levels)
        config["aco"].update(max_iterations=5)
        config["bayes"].update(n_samples=300, burn_in=50)
        config["weights"]["eigenvector"] = eigenvector_weight
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "b")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "b").exists()
        return err.removeprefix(f"configuration error: {path}: ")

    @pytest.mark.parametrize("command, eigenvector_weight", [("update", 0.0), ("update", 0.5), ("bayes", 0.5)])
    def test_short_mode_shapes_are_a_configuration_error_naming_the_run_config(
        self, measured, command, eigenvector_weight, tmp_path, capsys
    ):
        # 3-component shapes (and shape triangles) for the 5-DOF model
        data = json.loads(json.dumps(measured))
        for entry in data["modes"]:
            entry["mode_shape"], entry["mode_shape_tfns"] = entry["mode_shape"][:3], entry["mode_shape_tfns"][:3]
        err = self.command_error(data, command, eigenvector_weight, 2, tmp_path, capsys)
        assert "must have 5 modes of 5 components each" in err and "got 5 modes of 3 components" in err

    @pytest.mark.parametrize("command, eigenvector_weight", [("update", 0.0), ("update", 0.5), ("bayes", 0.5)])
    def test_zero_shape_cut_is_a_configuration_error_naming_the_run_config(
        self, measured, command, eigenvector_weight, tmp_path, capsys
    ):
        # a = -b: no vertex vector is zero, but the lower cut at alpha 0.5 is
        data = json.loads(json.dumps(measured))
        for entry in data["modes"]:
            entry["mode_shape_tfns"] = [[-abs(v), abs(v), 2 * abs(v)] for v in entry["mode_shape"]]
        err = self.command_error(data, command, eigenvector_weight, 3, tmp_path, capsys)
        assert err == "'modes[0].mode_shape_tfns' has a zero lower cut vector at alpha 0.5\n"

    def test_modes_out_of_order_are_a_configuration_error_naming_the_file(self, measured, tmp_path, capsys):
        data = json.loads(json.dumps(measured))
        data["modes"][:2] = data["modes"][1::-1]
        path, code = self.run_with(data, tmp_path)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ")
        assert "modes out of ascending order: modes[1] is below modes[0]" in err
        assert not (tmp_path / "b").exists()

    def test_top_level_list_is_a_configuration_error(self, measured, tmp_path, capsys):
        path, code = self.run_with([measured], tmp_path)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {path}: expected a JSON object, got list\n"


class TestNonNumericConfigValues:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("theta_min", [100.0, "abc", 100.0, 100.0, 100.0]),
            ("theta_max", "x"),
            ("theta_initial", "abc"),
            ("alpha_levels", ["1", "half", 0]),
            # NaN, Infinity and a 401-digit integer as JSON literals
            ("theta_min", [math.nan, 1900.0, 1700.0, 1900.0, 2150.0]),
            ("theta_max", [4600.0, 2500.0, math.inf, 3300.0, 2650.0]),
            ("theta_max", [4600.0, 2500.0, 10**400, 3300.0, 2650.0]),
            ("theta_initial", [4150.0, math.nan, 2160.0, 2500.0, 2460.0]),
            ("alpha_levels", [1.0, math.nan]),
        ],
    )
    def test_is_a_configuration_error_naming_file_and_key(self, key, value, tmp_path, capsys):
        config = scenarios.bundled_run_config(seed=2)
        config[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args = ["update", "--config", str(path), "--out", str(tmp_path / "bundle")]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: {key!r} must be a list of finite numbers, got ")
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", "x", "'seed' must be an integer, got 'x'"),
            ("seed", 2.5, "'seed' must be an integer, got 2.5"),
            ("seed", -1, "'seed' must be a non-negative integer, got -1"),
            ("weights", {"eigenvalue": "abc"}, "'weights.eigenvalue' must be a finite number"),
            ("weights", {"eigenvector": None}, "'weights.eigenvector' must be a finite number"),
            ("weights", {"eigenvalue": 10**400}, "'weights.eigenvalue' must be a finite number"),
            ("weights", 5, "'weights' must be an object"),
            (
                "weights",
                {"eigenvalues": 2.0},
                "unknown key 'weights.eigenvalues'; valid keys: eigenvalue, eigenvector",
            ),
            ("weights", {"eigenvalue": -1.0}, "'weights.eigenvalue' must be at least 0, got -1.0"),
            ("weights", {"eigenvector": -0.3}, "'weights.eigenvector' must be at least 0, got -0.3"),
            (
                "weights",
                {"eigenvalue": 0, "eigenvector": 0},
                "at least one weight must be positive, got (0.0, 0.0)",
            ),
            ("aco", [1], "'aco' must be an object"),
            ("aco", 5, "'aco' must be an object"),
            ("pso", "xy", "'pso' must be an object"),
            ("aco", {"n_ants": 2.5}, "'aco.n_ants' must be an integer, got 2.5"),
            ("aco", {"n_ants": 0}, "'aco.n_ants' must be at least 1, got 0"),
            ("pso", {"swarm_size": True}, "'pso.swarm_size' must be an integer, got True"),
            (
                "aco",
                {"rng_seed": 5},
                "unknown key 'aco.rng_seed'; valid keys: archive_size, n_ants, q, xi, max_iterations, "
                "stagnation_window, stagnation_tolerance\n",
            ),
            (
                "pso",
                {"colour": 1},
                "unknown key 'pso.colour'; valid keys: swarm_size, inertia, cognitive, social, v_max_fraction, "
                "max_iterations, stagnation_window, stagnation_tolerance\n",
            ),
            (
                "bayes",
                {"colour": 1},
                "unknown key 'bayes.colour'; valid keys: n_samples, burn_in, likelihood_sd\n",
            ),
            ("aco", {"q": math.nan}, "'aco.q' must be a finite number, got nan"),
            ("aco", {"xi": math.inf}, "'aco.xi' must be a finite number, got inf"),
            (
                "aco",
                {"stagnation_tolerance": "1e-10"},
                "'aco.stagnation_tolerance' must be a finite number, got '1e-10'",
            ),
            ("pso", {"inertia": math.nan}, "'pso.inertia' must be a finite number, got nan"),
            ("truth", {"theta_true": "x"}, "'truth.theta_true' must be a list of 5 finite numbers, got 'x'"),
            (
                "truth",
                {"theta_true": scenarios.THETA_TRUE.tolist(), "spread_fraction": -0.1},
                "'truth.spread_fraction' must be at least 0, got -0.1",
            ),
            ("alpha_levels", 0, "'alpha_levels' must be a level count of at least 1"),
            ("alpha_levels", True, "'alpha_levels' must be a level count of at least 1"),
            ("alpha_levels", [1.0, 0.5, -0.5], "levels must lie in [0, 1], got -0.5"),
            ("alpha_levels", [], "need at least one alpha level"),
            # NaN and a 401-digit integer as JSON literals
            ("aco", {"q": 10**400}, "'aco.q' must be a finite number, got 1000"),
            ("pso", {"inertia": 10**400}, "'pso.inertia' must be a finite number, got 1000"),
            (
                "truth",
                {"theta_true": [math.nan] + scenarios.THETA_TRUE.tolist()[1:], "spread_fraction": 0.05},
                "'truth.theta_true' must be a list of 5 finite numbers, got [nan, ",
            ),
            (
                "truth",
                {"theta_true": scenarios.THETA_TRUE.tolist(), "spread_fraction": math.nan},
                "'truth.spread_fraction' must be a finite number, got nan",
            ),
            (
                "truth",
                {"theta_true": scenarios.THETA_TRUE.tolist(), "spreads": [1.0, 2.0]},
                "'truth.spreads' must be a list of 5 finite numbers, got [1.0, 2.0]",
            ),
            (
                "truth",
                {"theta_true": scenarios.THETA_TRUE.tolist(), "spread_fraction": 0.05, "spread_fractions": 0.5},
                "unknown key 'truth.spread_fractions'; valid keys: theta_true, spreads, spread_fraction, shape_tfns",
            ),
            (
                "truth",
                {"theta_true": scenarios.THETA_TRUE.tolist(), "spread_fraction": 0.05, "shape_tfns": "no"},
                "'truth.shape_tfns' must be true or false, got 'no'",
            ),
            (
                "truth",
                {"theta_true": scenarios.THETA_TRUE.tolist(), "spread_fraction": 0.05, "shape_tfns": 1},
                "'truth.shape_tfns' must be true or false, got 1",
            ),
            ("alpha_level", 2, "unknown key 'alpha_level'; valid keys: model, theta_min"),
            ("weight", {"eigenvalue": 1.0}, "unknown key 'weight'; valid keys: model, theta_min"),
            ("aco", {"q": 1e200}, "aco.q = 1e+200 makes the rank roulette table non-finite"),
            ("aco", {"q": 1e-170}, "aco.q = 1e-170 makes the rank roulette table non-finite"),
        ],
    )
    def test_bad_scalar_or_section_is_a_configuration_error(self, key, value, message, tmp_path, capsys):
        config = scenarios.bundled_run_config(seed=2)
        config[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args = ["update", "--config", str(path), "--out", str(tmp_path / "bundle")]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: {message}")
        assert not (tmp_path / "bundle").exists()


    @pytest.mark.parametrize("command, content, kind", [("update", "[1]", "list"), ("bayes", '"x"', "str")])
    def test_non_object_config_is_a_configuration_error(self, command, content, kind, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(content)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {path}: expected a JSON object, got {kind}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("measured", 5), ("model", 5), ("measured", ["m.json"])])
    def test_non_string_path_is_a_configuration_error(self, key, value, tmp_path, capsys):
        config = scenarios.bundled_run_config(seed=2)
        del config["truth"]
        config.update(measured="m.json")
        config[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args = ["update", "--config", str(path), "--out", str(tmp_path / "bundle")]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {path}: {key!r} must be a string, got {value!r}\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["update", "--config", "run.json", "--threads", "2"],  # removed flag
            ["update"],  # missing required option
            ["no-such-command"],
        ],
    )
    def test_usage_error_exits_with_configuration_code(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["update", "bayes"])
    def test_negative_seed_is_a_usage_error_naming_the_flag(self, command, tmp_path, capsys):
        # the value came from the command line, not the config
        path = tmp_path / "run.json"
        path.write_text(json.dumps(scenarios.bundled_run_config(seed=2)))
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert info.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: argument --seed: must be a non-negative integer, got -1" in err
        assert "configuration error" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["update", "bayes"])
    def test_negative_config_seed_is_a_configuration_error_under_the_flag(self, command, tmp_path, capsys):
        # --seed replaces a seed the config file must still get right
        path = tmp_path / "run.json"
        path.write_text(json.dumps(scenarios.bundled_run_config(seed=-1)))
        args = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "3"]
        assert cli.main(args) == cli.EXIT_CONFIG
        message = "'seed' must be a non-negative integer, got -1"
        assert capsys.readouterr().err == f"configuration error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["update", "--help"])
        assert info.value.code == 0


NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np

import ffemu.cli as cli
from ffemu import scenarios

out = Path(sys.argv[1])
config = scenarios.bundled_run_config(seed=2)
config["alpha_levels"] = 1
config["aco"].update(max_iterations=20)
config["bayes"].update(n_samples=300, burn_in=50)
path = out / "run.json"
path.write_text(json.dumps(config))
assert cli.main(["bayes", "--config", str(path), "--out", str(out / "bayes")]) == cli.EXIT_OK
assert cli.main(["update", "--config", str(path), "--out", str(out / "bundle")]) == cli.EXIT_OK
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("scipy modules:", json.dumps(loaded))
"""


def test_cli_runs_load_no_scipy_module(tmp_path):
    # a fresh interpreter, since this one has scipy loaded by other tests
    src = str(Path(ffemu.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.strip().splitlines()[-1]
    assert last == "scipy modules: []"


UPDATE_IMPORTS_SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np

from ffemu import pipeline, scenarios

out = Path(sys.argv[1])
config = scenarios.bundled_run_config(seed=2)
config["alpha_levels"] = 1
config["aco"].update(max_iterations=20)
config["bayes"].update(n_samples=300, burn_in=50)
path = out / "run.json"
path.write_text(json.dumps(config))
assert pipeline.load_run_config(path).bayes is not None
loaded = {"load_run_config": "ffemu.bayes" in sys.modules}
import ffemu.cli as cli
assert cli.main(["update", "--config", str(path), "--out", str(out / "bundle")]) == cli.EXIT_OK
loaded["update"] = "ffemu.bayes" in sys.modules
assert cli.main(["bayes", "--config", str(path), "--out", str(out / "bayes")]) == cli.EXIT_OK
loaded["bayes"] = "ffemu.bayes" in sys.modules
print(json.dumps(loaded))
"""


def test_update_loads_no_sampler(tmp_path):
    # a fresh interpreter, since this one has ffemu.bayes loaded by other tests
    src = str(Path(ffemu.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", UPDATE_IMPORTS_SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert loaded == {"load_run_config": False, "update": False, "bayes": True}
    assert (tmp_path / "bayes" / "chain.csv").is_file()


REPORT_IMPORTS_SCRIPT = """
import json, sys

import ffemu.cli as cli

assert cli.main(["report", "--bundle", sys.argv[1]]) == cli.EXIT_OK
unused = ("ffemu.optim", "ffemu.pipeline", "ffemu.scenarios", "ffemu.bayes")
print(json.dumps([m for m in unused if m in sys.modules]))
"""


def test_report_loads_no_pipeline_scenarios_or_sampler(tmp_path):
    config = scenarios.bundled_run_config(seed=2)
    config["alpha_levels"] = 1
    config["aco"].update(max_iterations=5)
    config["bayes"].update(n_samples=300, burn_in=50)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "bundle"
    assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    # a fresh interpreter, since this one has every submodule loaded
    src = str(Path(ffemu.__file__).resolve().parents[1])
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", REPORT_IMPORTS_SCRIPT, str(out)],
        env=dict(os.environ, PYTHONPATH=env_path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "M-H sampler:" in done.stdout
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_package_import_loads_no_submodule():
    # a fresh interpreter, since this one has every submodule loaded
    src = str(Path(ffemu.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "import json, sys, ffemu; print(json.dumps(sorted(m for m in sys.modules if m.startswith('ffemu.'))))"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def package_imports() -> list:
    """Every ``from .`` import in the package's modules, read with ``ast``, as
    (module, imported module, whether the import sits inside a function);
    ``from . import name`` imports module ``name``, or ``__init__`` for any
    other name."""
    package = Path(ffemu.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = (f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
        inside = {id(node) for f in functions for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [a.name if a.name in modules else "__init__" for a in node.names]
                targets = [node.module] if node.module else names
                found += [(path.stem, target, id(node) in inside) for target in targets]
    return found


def test_package_import_graph_is_acyclic():
    graph = {}
    for module, target, _ in package_imports():
        graph.setdefault(module, set()).add(target)
    path, done = [], set()

    def visit(module):
        if module in path:
            pytest.fail("import cycle: " + " → ".join(path[path.index(module):] + [module]))
        if module not in done:
            path.append(module)
            for target in sorted(graph.get(module, ())):
                visit(target)
            done.add(path.pop())

    for module in sorted(graph):
        visit(module)


def test_only_cli_imports_package_modules_inside_functions():
    # cli defers the pipeline, the scenarios and the sampler to the commands
    # that call them; every other module imports at the top, so its
    # dependencies are the graph the acyclic test reads
    assert sorted({module for module, _, inside in package_imports() if inside} - {"cli"}) == []
