"""Tests for the command-line interface."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffemu
from ffemu import cli, scenarios


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

    def test_report_renders_a_bundle_without_telemetry(self, small_config, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert cli.main(["update", "--config", str(small_config), "--out", str(out)]) == cli.EXIT_OK
        path = out / "summary.json"
        summary = json.loads(path.read_text())
        for key in ("stop_reasons", "iterations", "objective_seconds", "polish_seconds", "polish_evaluations"):
            del summary["metadata"][key]
        path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert cli.main(["report", "--bundle", str(out)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        row = lines[lines.index("Per alpha level") + 2].split()
        assert row[:6] == ["1", "1.000", "-", "-", "610", "-"]
        assert row[-3:] == ["-", "-", "-"]

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


class TestNonNumericConfigValues:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("theta_min", [100.0, "abc", 100.0, 100.0, 100.0]),
            ("theta_max", "x"),
            ("theta_initial", "abc"),
            ("alpha_levels", ["1", "half", 0]),
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
        assert err.startswith(f"configuration error: {path}: {key!r} must be a list of numbers")
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", "x", "'seed' must be a non-negative integer"),
            ("seed", 2.5, "'seed' must be a non-negative integer"),
            ("seed", -1, "'seed' must be a non-negative integer"),
            ("weights", {"eigenvalue": "abc"}, "'weights.eigenvalue' must be a finite number"),
            ("weights", {"eigenvector": None}, "'weights.eigenvector' must be a finite number"),
            ("weights", {"eigenvalue": 10**400}, "'weights.eigenvalue' must be a finite number"),
            ("weights", 5, "'weights' must be an object"),
            ("aco", [1], "'aco' must be an object"),
            ("aco", 5, "'aco' must be an object"),
            ("pso", "xy", "'pso' must be an object"),
            ("aco", {"n_ants": 2.5}, "bad optimizer section: n_ants must be an integer"),
            ("aco", {"n_ants": 0}, "bad optimizer section: n_ants must be at least 1"),
            ("pso", {"swarm_size": True}, "bad optimizer section: swarm_size must be an integer"),
            ("truth", {"theta_true": "x"}, "'truth': truth spec values must be numbers"),
            (
                "truth",
                {"theta_true": scenarios.THETA_TRUE.tolist(), "spread_fraction": -0.1},
                "'truth': spread_fraction must be non-negative",
            ),
            ("alpha_levels", 0, "'alpha_levels' must be a level count of at least 1"),
            ("alpha_levels", True, "'alpha_levels' must be a level count of at least 1"),
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

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["update", "--help"])
        assert info.value.code == 0


NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path

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
