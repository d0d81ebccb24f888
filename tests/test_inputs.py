"""The one input-value rule at every numeric key of every JSON input.

Each file the CLI reads (run config, truth spec, model file, measured-data
file and the result bundle's two summaries) gets one table: at each numeric
key, a boolean, a string, NaN, Infinity, an integer beyond the float range
and a nested list must each exit 1, naming the file and the key. A second
table sets each bounded key just outside its range: each case must exit 1,
naming the file, the key and the value.
"""

import json
import math
import shutil
import warnings
from dataclasses import fields
from importlib import resources

import pytest

from ffemu import cli, scenarios
from ffemu.optim import AcoConfig, PsoConfig
from ffemu.pipeline import WEIGHT_KEYS, McmcConfig

BAD_VALUES = [True, "1", math.nan, math.inf, 10**400, [[1]]]
BAD_IDS = ["true", "string", "nan", "infinity", "beyond-float-range", "nested-list"]


def set_at(data, where, value):
    """``data[where[0]][where[1]]... = value``."""
    for key in where[:-1]:
        data = data[key]
    data[where[-1]] = value


def assert_names_file_and_key(capsys, path, label):
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: "), err
    assert f"'{label}'" in err, err


SECTION_KEYS = [
    ((section, f.name), f"{section}.{f.name}")
    for section, cls in [("aco", AcoConfig), ("pso", PsoConfig), ("bayes", McmcConfig)]
    for f in fields(cls)
]
RUN_CONFIG_KEYS = [
    (("theta_min", 0), "theta_min"),
    (("theta_max", 2), "theta_max"),
    (("theta_initial", 4), "theta_initial"),
    (("alpha_levels",), "alpha_levels"),
    (("alpha_levels", 1), "alpha_levels"),
    (("seed",), "seed"),
    *[(("weights", key), f"weights.{key}") for key in WEIGHT_KEYS],
    *SECTION_KEYS,
]


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("where, label", RUN_CONFIG_KEYS, ids=[label for _, label in RUN_CONFIG_KEYS])
def test_run_config_value(where, label, value, tmp_path, capsys):
    config = scenarios.bundled_run_config(seed=2)
    config["alpha_levels"] = [1.0, 0.5, 0.0]
    set_at(config, where, value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert_names_file_and_key(capsys, path, label)
    assert not out.exists()


TRUTH_KEYS = [(("theta_true", 0), "theta_true"), (("spreads", 3), "spreads"), (("spread_fraction",), "spread_fraction")]


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("where, label", TRUTH_KEYS, ids=[label for _, label in TRUTH_KEYS])
def test_truth_spec_value(where, label, value, tmp_path, capsys):
    spec = {"theta_true": scenarios.THETA_TRUE.tolist()}
    if label == "spreads":
        spec["spreads"] = (0.05 * scenarios.THETA_TRUE).tolist()
    else:
        spec["spread_fraction"] = 0.05
    set_at(spec, where, value)
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "m.json"
    assert cli.main(["simulate", "--truth", str(path), "--levels", "2", "--out", str(out)]) == cli.EXIT_CONFIG
    assert_names_file_and_key(capsys, path, label)
    assert not out.exists()


MODEL_KEYS = [
    (("masses", 1), "masses"),
    (("parameters",), "parameters"),
    (("springs", 0, "param"), "springs[0].param"),
    (("springs", 2, "stiffness"), "springs[2].stiffness"),
    (("springs", 1, "a"), "springs[1].a"),
    (("springs", 3, "b"), "springs[3].b"),
]


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("where, label", MODEL_KEYS, ids=[label for _, label in MODEL_KEYS])
def test_model_file_value(where, label, value, tmp_path, capsys):
    model = json.loads(resources.files("ffemu.data").joinpath("model_5dof.json").read_text(encoding="utf-8"))
    set_at(model, where, value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "m.json"
    assert cli.main(["simulate", "--model", str(path), "--levels", "2", "--out", str(out)]) == cli.EXIT_CONFIG
    assert_names_file_and_key(capsys, path, label)
    assert not out.exists()


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """A simulated measured-data file with shape triangles."""
    root = tmp_path_factory.mktemp("measured")
    truth = root / "truth.json"
    truth.write_text(json.dumps(dict(scenarios.bundled_truth_spec("fuzzy"), shape_tfns=True)))
    out = root / "m.json"
    assert cli.main(["simulate", "--truth", str(truth), "--levels", "2", "--out", str(out)]) == cli.EXIT_OK
    return json.loads(out.read_text())


MEASURED_KEYS = [
    (("modes", 0, "eigenvalue", 1), "modes[0].eigenvalue"),
    (("modes", 3, "eigenvalue", 2), "modes[3].eigenvalue"),
    (("modes", 2, "mode_shape", 4), "modes[2].mode_shape"),
    (("modes", 1, "mode_shape_tfns", 0, 2), "modes[1].mode_shape_tfns"),
]


def update_with_measured(measured, where, value, tmp_path):
    """Exit code of ``ffemu update`` on the measured-data file ``measured``
    with ``value`` set at ``where``, and that file's path."""
    data = json.loads(json.dumps(measured))
    set_at(data, where, value)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    config = scenarios.bundled_run_config(seed=2)
    del config["truth"]
    config.update(measured="m.json", alpha_levels=2)
    (tmp_path / "run.json").write_text(json.dumps(config))
    code = cli.main(["update", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    return code, path


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("where, label", MEASURED_KEYS, ids=[label for _, label in MEASURED_KEYS])
def test_measured_file_value(measured, where, label, value, tmp_path, capsys):
    code, path = update_with_measured(measured, where, value, tmp_path)
    assert code == cli.EXIT_CONFIG
    assert_names_file_and_key(capsys, path, label)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One finished bundle with an M-H summary next to it."""
    root = tmp_path_factory.mktemp("bundle")
    config = scenarios.bundled_run_config(seed=2)
    config.update(alpha_levels=2, theta_initial=scenarios.THETA_INITIAL.tolist())
    config["aco"].update(max_iterations=5)
    config["bayes"].update(n_samples=300, burn_in=50)
    path = root / "run.json"
    path.write_text(json.dumps(config))
    out = root / "bundle"
    assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bayes", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    return out


BUNDLE_KEYS = [
    ("summary.json", ("alpha_levels", 1), "alpha_levels"),
    ("summary.json", ("parameters", 0, "center"), "parameters[0].center"),
    ("summary.json", ("parameters", 1, "cuts", 1, 2), "parameters[1].cuts"),
    ("summary.json", ("outputs", 2, "mode"), "outputs[2].mode"),
    ("summary.json", ("outputs", 0, "cuts", 0, 1), "outputs[0].cuts"),
    ("summary.json", ("theta_initial", 0), "theta_initial"),
    ("summary.json", ("measured_eigenvalue_tfns", 1, 0), "measured_eigenvalue_tfns"),
    ("summary.json", ("updated_eigenvalues", 2), "updated_eigenvalues"),
    ("summary.json", ("initial_eigenvalues", 0), "initial_eigenvalues"),
    ("summary.json", ("objective_per_level", 0), "objective_per_level"),
    *[
        ("summary.json", ("metadata", key, 1), f"metadata.{key}")
        for key in (
            "evaluation_counts", "polish_evaluations", "iterations",
            "elapsed_seconds", "objective_seconds", "polish_seconds",
        )
    ],
    ("summary.json", ("metadata", "seed"), "metadata.seed"),
    ("bayes_summary.json", ("mean", 0), "mean"),
    ("bayes_summary.json", ("cov_percent", 1), "cov_percent"),
    ("bayes_summary.json", ("posterior_eigenvalues", 2), "posterior_eigenvalues"),
    ("bayes_summary.json", ("acceptance_rate",), "acceptance_rate"),
    ("bayes_summary.json", ("chains",), "chains"),
    ("bayes_summary.json", ("mode", 0), "mode"),
    ("bayes_summary.json", ("laplace_variance", 1), "laplace_variance"),
    ("bayes_summary.json", ("ess", 2), "ess"),
    ("bayes_summary.json", ("rhat", 3), "rhat"),
]


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("name, where, label", BUNDLE_KEYS, ids=[label for *_, label in BUNDLE_KEYS])
def test_bundle_value(bundle, name, where, label, value, tmp_path, capsys):
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    data = json.loads((copy / name).read_text())
    set_at(data, where, value)
    (copy / name).write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["report", "--bundle", str(copy)]) == cli.EXIT_CONFIG
    assert_names_file_and_key(capsys, copy / name, label)


def assert_names_file_key_and_value(capsys, path, label, value):
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: '{label}' must be "), err
    assert err.endswith(f", got {value!r}\n"), err


OUT_OF_RANGE = [
    (("aco", "archive_size"), 1),
    (("aco", "n_ants"), 0),
    (("aco", "q"), 0),
    (("aco", "xi"), -1),
    (("aco", "max_iterations"), -1),
    (("aco", "stagnation_window"), 0),
    (("pso", "swarm_size"), 1),
    (("pso", "v_max_fraction"), 0),
    (("pso", "v_max_fraction"), 1.5),
    (("pso", "max_iterations"), -1),
    (("pso", "stagnation_window"), 0),
    (("bayes", "burn_in"), -1),
    (("bayes", "n_samples"), scenarios.bundled_run_config()["bayes"]["burn_in"]),
    (("bayes", "likelihood_sd"), 0),
    (("truth", "spread_fraction"), -0.1),
    (("weights", "eigenvalue"), -1.0),
    (("weights", "eigenvector"), -0.3),
]


@pytest.mark.parametrize("where, value", OUT_OF_RANGE, ids=[f"{'.'.join(w)}={v}" for w, v in OUT_OF_RANGE])
def test_run_config_value_out_of_range(where, value, tmp_path, capsys):
    config = scenarios.bundled_run_config(seed=2)
    config["alpha_levels"] = 2
    set_at(config, where, value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert_names_file_key_and_value(capsys, path, ".".join(where), value)
    assert not out.exists()


def test_measured_eigenvalue_out_of_range(measured, tmp_path, capsys):
    code, path = update_with_measured(measured, ("modes", 2, "eigenvalue", 0), -1, tmp_path)
    assert code == cli.EXIT_CONFIG
    value = [-1, *measured["modes"][2]["eigenvalue"][1:]]
    assert_names_file_key_and_value(capsys, path, "modes[2].eigenvalue", value)


@pytest.mark.parametrize(
    "optimizer, where, value, named",
    [
        ("aco", ("aco", "xi"), 1e308, "'aco.xi'"),
        ("pso", ("pso", "cognitive"), 1e308, "'pso.cognitive'"),
        ("pso", ("pso", "inertia"), 1e308, "'pso.inertia'"),
        ("pso", ("pso", "social"), 1e308, "'pso.social'"),
        # a box too wide for a step at any setting is named, whichever optimizer runs
        ("aco", ("theta_max", 0), 1e300, "the box [theta_min, theta_max]"),
        ("pso", ("theta_max", 0), 1e300, "the box [theta_min, theta_max]"),
    ],
    ids=["aco-xi", "pso-cognitive", "pso-inertia", "pso-social", "aco-wide-box", "pso-wide-box"],
)
def test_setting_that_overflows_a_search_step_is_a_configuration_error(
    optimizer, where, value, named, tmp_path, capsys
):
    config = scenarios.bundled_run_config(optimizer=optimizer, seed=2)
    config["alpha_levels"] = 2
    set_at(config, where, value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: {path}: {named} makes a search step overflow on a box span of "
    )
    assert not out.exists()


@pytest.mark.parametrize("optimizer", ["aco", "pso"])
def test_bundled_configs_run_without_a_warning(optimizer, tmp_path, capsys):
    config = scenarios.bundled_run_config(optimizer=optimizer, seed=2)
    config["alpha_levels"] = 2
    config[optimizer]["max_iterations"] = 20
    config["bayes"].update(n_samples=300, burn_in=50)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["update", "--config", str(path), "--out", str(tmp_path / "bundle")]) == cli.EXIT_OK
        assert cli.main(["bayes", "--config", str(path), "--out", str(tmp_path / "bayes")]) == cli.EXIT_OK
        assert cli.main(["report", "--bundle", str(tmp_path / "bundle")]) == cli.EXIT_OK
