"""The one input-value rule at every numeric key of every JSON input.

Each file the CLI reads (run config, truth spec, model file, measured-data
file and the result bundle's two summaries) gets one table: at each numeric
key, a boolean, a string, NaN, Infinity, an integer beyond the float range
and a nested list must each exit 1, naming the file and the key. A second
table sets each bounded key just outside its range: each case must exit 1,
naming the file, the key and the value. A bad box, start, weight or seed
reads the same from a run-config file as from ``FfemuRun(...)``, less the
file's name, and so do bad alpha levels and a non-string optimizer; a bad
measured eigenvalue triangle, shape triangle or mode order reads the same
from a measured-data file as from ``MeasuredFuzzyModalData(...)``. A
model file's zero mass, non-positive fixed stiffness or negative parameter
index is named in the same words, with the spring's position once. A
search coefficient that is now a constant of ``optim`` is a key its section
does not have: any of those values there exits 1 as an unknown key.
"""

import json
import math
import shutil
import sys
import warnings
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest

from ffemu import cli, scenarios
from ffemu.errors import ConfigurationError
from ffemu.objective import MeasuredFuzzyModalData, load_measured
from ffemu.optim import STEP_SCALE, AcoConfig, PsoConfig
from ffemu.pipeline import STEP_MARGIN, WEIGHT_KEYS, McmcConfig, load_run_config

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


REMOVED_KEYS = [
    ("aco", "q"),
    ("aco", "xi"),
    ("aco", "stagnation_tolerance"),
    ("pso", "inertia"),
    ("pso", "cognitive"),
    ("pso", "social"),
    ("pso", "v_max_fraction"),
    ("pso", "stagnation_tolerance"),
]


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("where", REMOVED_KEYS, ids=[".".join(where) for where in REMOVED_KEYS])
def test_removed_run_config_key_is_unknown_whatever_its_value(where, value, tmp_path, capsys):
    # the key is checked before its value: no value reads as a bad number
    config = scenarios.bundled_run_config(optimizer=where[0], seed=2)
    config["alpha_levels"] = [1.0, 0.5, 0.0]
    set_at(config, where, value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: unknown key '{'.'.join(where)}'; valid keys: "), err
    assert "must be" not in err
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
    assert cli.main(["simulate", "--truth", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert_names_file_and_key(capsys, path, label)
    assert not out.exists()


MODEL_KEYS = [
    (("masses", 1), "masses"),
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
    assert cli.main(["simulate", "--model", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert_names_file_and_key(capsys, path, label)
    assert not out.exists()


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("masses", 2), 0, "'masses' must be above 0, got [27.0, 27.0, 0, 53.0, 29.0]"),
        (("springs", 2, "stiffness"), -5, "springs[2] (id 'k3'): 'stiffness' must be above 0, got -5.0"),
        (("springs", 0, "param"), -1, "springs[0] (id 'k1'): 'param' must be at least 0, got -1"),
    ],
    ids=["zero-mass", "negative-fixed-stiffness", "negative-param"],
)
def test_model_file_value_out_of_range(where, value, message, tmp_path, capsys):
    # the model's and the spring's own bounds, in the one rule's words; a
    # spring's position is named once
    model = json.loads(resources.files("ffemu.data").joinpath("model_5dof.json").read_text(encoding="utf-8"))
    set_at(model, where, value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "m.json"
    assert cli.main(["simulate", "--model", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "where, message",
    [
        (("paramters",), "unknown key 'paramters'; valid keys: masses, springs"),
        (("springs", 0, "paramters"), "unknown key 'springs[0].paramters'; valid keys: id, a, b, stiffness, param"),
        (("springs", 9, "paramters"), "unknown key 'springs[9].paramters'; valid keys: id, a, b, stiffness, param"),
        # the parameter count is the springs' to say
        (("parameters",), "unknown key 'parameters'; valid keys: masses, springs"),
    ],
    ids=["top", "first-spring", "last-spring", "parameter-count"],
)
@pytest.mark.parametrize("command", ["simulate", "update"])
def test_model_file_unknown_key(where, message, command, tmp_path, capsys):
    # a misspelt or retired key is named, not silently ignored, in the file and from a run config
    model = json.loads(resources.files("ffemu.data").joinpath("model_5dof.json").read_text(encoding="utf-8"))
    set_at(model, where, 5)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out"
    if command == "simulate":
        args = ["simulate", "--model", str(path), "--out", str(out)]
    else:
        config = dict(scenarios.bundled_run_config(seed=2), model="model.json")
        (tmp_path / "run.json").write_text(json.dumps(config))
        args = ["update", "--config", str(tmp_path / "run.json"), "--out", str(out)]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {path}: {message}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """A simulated measured-data file with shape triangles."""
    root = tmp_path_factory.mktemp("measured")
    truth = root / "truth.json"
    truth.write_text(json.dumps(dict(scenarios.bundled_truth_spec("fuzzy"), shape_tfns=True)))
    out = root / "m.json"
    assert cli.main(["simulate", "--truth", str(truth), "--out", str(out)]) == cli.EXIT_OK
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
    ("bayes_summary.json", ("sd", 1), "sd"),
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
    (("aco", "max_iterations"), -1),
    (("aco", "stagnation_window"), 0),
    (("pso", "swarm_size"), 1),
    (("pso", "max_iterations"), -1),
    (("pso", "stagnation_window"), 0),
    (("bayes", "burn_in"), -1),
    (("bayes", "n_samples"), scenarios.bundled_run_config()["bayes"]["burn_in"]),
    (("bayes", "likelihood_sd"), 0),
    (("truth", "spread_fraction"), -0.1),
    (("truth", "spreads", 1), -1.0),
    (("weights", "eigenvalue"), -1.0),
    (("weights", "eigenvector"), -0.3),
    (("theta_min", 0), 0),
    (("seed",), -1),
    (("alpha_levels",), 0),
]


@pytest.mark.parametrize(
    "where, value", OUT_OF_RANGE, ids=[f"{'.'.join(map(str, w))}={v}" for w, v in OUT_OF_RANGE]
)
def test_run_config_value_out_of_range(where, value, tmp_path, capsys):
    config = scenarios.bundled_run_config(seed=2)
    config["alpha_levels"] = 2
    if where[:2] == ("truth", "spreads"):  # the spreads in place of the bundled fraction
        config["truth"]["spreads"] = (0.05 * scenarios.THETA_TRUE).tolist()
        del config["truth"]["spread_fraction"]
    set_at(config, where, value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["update", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    if isinstance(where[-1], int):  # a list entry: the complaint names the whole list
        where = where[:-1]
        value = config
        for key in where:
            value = value[key]
    assert_names_file_key_and_value(capsys, path, ".".join(where), value)
    assert not out.exists()


SAME_WORDING = [
    (("weights", "eigenvalue"), -1.0),
    (("theta_initial", 1), math.nan),
    (("theta_initial",), scenarios.THETA_INITIAL[:3].tolist()),
    (("theta_max",), scenarios.THETA_MAX[:4].tolist()),
    (("theta_min", 0), 0.0),
    (("seed",), -1),
    (("alpha_levels",), 0),
    (("alpha_levels",), True),
    (("alpha_levels",), 2.5),
    (("alpha_levels",), "x"),
    (("alpha_levels",), None),
    (("alpha_levels",), [0.5, 0]),
    (("alpha_levels",), [1, 1]),
    (("alpha_levels",), [1, -0.5]),
    (("optimizer",), 5),
    (("optimizer",), None),
]
SAME_WORDING_IDS = [
    "negative-weight", "nan-start", "short-start", "four-entry-theta-max", "zero-theta-min", "negative-seed",
    "zero-levels", "true-levels", "fractional-levels", "string-levels", "null-levels", "first-level-not-1", "repeated-level", "negative-level",
    "numeric-optimizer", "null-optimizer",
]


@pytest.mark.parametrize("where, value", SAME_WORDING, ids=SAME_WORDING_IDS)
def test_bad_run_value_reads_the_same_from_a_file_and_from_python(where, value, tmp_path):
    config = scenarios.bundled_run_config(seed=2)
    config["alpha_levels"] = 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(config))
    run = load_run_config(good)
    set_at(config, where, value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigurationError) as from_file:
        load_run_config(path)
    with pytest.raises(ConfigurationError) as from_python:
        replace(
            run,
            theta_min=np.array(config["theta_min"]),
            theta_max=np.array(config["theta_max"]),
            theta_initial=np.array(config["theta_initial"]),
            weights=tuple(config["weights"][key] for key in WEIGHT_KEYS),
            seed=config["seed"],
            levels=config["alpha_levels"],
            optimizer=config["optimizer"],
        )
    assert str(from_file.value) == f"{path}: {from_python.value}"
    assert f"'{where[0]}" in str(from_python.value)
    if where == ("alpha_levels",) and not isinstance(value, list) and value != 0:
        assert "must be a level count of at least 1 or a list of levels" in str(from_python.value)


def test_level_count_gives_the_same_run_from_a_file_and_from_python(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(scenarios.bundled_run_config(seed=2), alpha_levels=4)))
    from_file = load_run_config(path)
    from_python = replace(from_file, levels=4)
    assert from_python.levels.tobytes() == from_file.levels.tobytes() == np.linspace(1.0, 0.0, 4).tobytes()


def test_measured_eigenvalue_out_of_range(measured, tmp_path, capsys):
    code, path = update_with_measured(measured, ("modes", 2, "eigenvalue", 0), -1, tmp_path)
    assert code == cli.EXIT_CONFIG
    value = [-1, *measured["modes"][2]["eigenvalue"][1:]]
    assert_names_file_key_and_value(capsys, path, "modes[2].eigenvalue", value)


# (eigenvalue triangles, mode-major shapes, mode-major shape triangles or
# None for crisp shapes, the complaint); two modes of two components
EIGENVALUES = [[90.0, 100.0, 110.0], [190.0, 200.0, 210.0]]
SHAPES = [[0.6, 0.8], [0.8, -0.6]]
MEASURED_SAME_WORDING = {
    "zero-mode-shape": (
        EIGENVALUES, [SHAPES[0], [0.0, 0.0]], None, "'modes[1].mode_shape' must not be a zero vector, got [0.0, 0.0]"
    ),
    "empty-mode-shape": (EIGENVALUES, [[], []], None, "'modes[0].mode_shape' must not be a zero vector, got []"),
    "zero-lower-vertex": (
        EIGENVALUES, SHAPES, [[[0.0, 0.6, 0.7], [0.0, 0.8, 0.9]], [[0.8] * 3, [-0.6] * 3]],
        "'modes[0].mode_shape_tfns' lower (a) vertex vector must not be zero",
    ),
    "zero-peak-vertex": (
        EIGENVALUES, SHAPES, [[[-0.1, 0.0, 0.1], [-0.1, 0.0, 0.1]], [[0.8] * 3, [-0.6] * 3]],
        "'modes[0].mode_shape_tfns' peak (b) vertex vector must not be zero",
    ),
    "zero-upper-vertex": (
        EIGENVALUES, [[-0.6, -0.8], SHAPES[1]], [[[-0.7, -0.6, 0.0], [-0.9, -0.8, 0.0]], [[0.8] * 3, [-0.6] * 3]],
        "'modes[0].mode_shape_tfns' upper (c) vertex vector must not be zero",
    ),
    "unordered-eigenvalue": (
        [[100.0, 90.0, 110.0], EIGENVALUES[1]], SHAPES, None,
        "'modes[0].eigenvalue' has triangular vertices out of order: (100.0, 90.0, 110.0)",
    ),
    "negative-eigenvalue": (
        [EIGENVALUES[0], [-1.0, 200.0, 210.0]], SHAPES, None,
        "'modes[1].eigenvalue' must be above 0, got [-1.0, 200.0, 210.0]",
    ),
    "zero-eigenvalue": (
        [[0.0, 100.0, 110.0], EIGENVALUES[1]], SHAPES, None, "'modes[0].eigenvalue' must be above 0, got [0.0, 100.0, 110.0]"
    ),
    "unordered-shape-triangle": (
        EIGENVALUES, SHAPES, [[[0.6] * 3, [0.8] * 3], [[0.8, 0.8, 0.9], [-0.5, -0.6, -0.4]]],
        "'modes[1].mode_shape_tfns' has triangular vertices out of order: (-0.5, -0.6, -0.4)",
    ),
    "descending-modes": (
        EIGENVALUES[::-1], SHAPES, None, "modes out of ascending order: modes[1] is below modes[0]"
    ),
}


@pytest.mark.parametrize("case", MEASURED_SAME_WORDING)
def test_bad_measured_value_reads_the_same_from_a_file_and_from_python(case, tmp_path):
    eigenvalues, shapes, shape_tfns, message = MEASURED_SAME_WORDING[case]
    modes = [{"eigenvalue": tfn, "mode_shape": shape} for tfn, shape in zip(eigenvalues, shapes)]
    if shape_tfns is not None:
        for mode, tfns in zip(modes, shape_tfns):
            mode["mode_shape_tfns"] = tfns
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"units": "eigenvalue", "modes": modes}))
    with pytest.raises(ConfigurationError) as from_file:
        load_measured(path)
    triangles = np.stack([shapes] * 3, axis=-1) if shape_tfns is None else np.array(shape_tfns)
    with pytest.raises(ConfigurationError) as from_python:
        MeasuredFuzzyModalData(eigenvalues, triangles.swapaxes(0, 1))
    assert str(from_python.value) == message
    assert str(from_file.value) == f"{path}: {message}"


def test_all_zero_shape_triangles_in_a_file_are_named_not_the_shape(tmp_path):
    # mode 0's mode_shape is not zero; from Python the same degenerate
    # triangles are a zero crisp 'mode_shape' (the zero-mode-shape row)
    modes = [
        {"eigenvalue": EIGENVALUES[0], "mode_shape": [1.0, 0.5], "mode_shape_tfns": [[0.0] * 3] * 2},
        {"eigenvalue": EIGENVALUES[1], "mode_shape": SHAPES[1], "mode_shape_tfns": [[v] * 3 for v in SHAPES[1]]},
    ]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"units": "eigenvalue", "modes": modes}))
    with pytest.raises(ConfigurationError) as info:
        load_measured(path)
    assert str(info.value) == f"{path}: 'modes[0].mode_shape_tfns' peak (b) vertex vector must not be zero"


@pytest.mark.parametrize(
    "optimizer, where, value, named",
    [
        # a box too wide for a step is named, whichever optimizer runs
        ("aco", ("theta_max", 0), 1e300, "the box [theta_min, theta_max]"),
        ("pso", ("theta_max", 0), 1e300, "the box [theta_min, theta_max]"),
        # span * STEP_MARGIN is finite here; times STEP_SCALE it is not
        ("aco", ("theta_max", 0), 2e298, "the box [theta_min, theta_max]"),
        ("pso", ("theta_max", 0), 2e298, "the box [theta_min, theta_max]"),
    ],
    ids=["aco-wide-box", "pso-wide-box", "aco-box-times-step-scale", "pso-box-times-step-scale"],
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


@pytest.mark.parametrize("coordinate", range(5))
def test_step_overflow_rule_falls_between_two_adjacent_spans(coordinate, tmp_path):
    # the widest span decides, whichever coordinate has it: the largest top
    # whose span times STEP_SCALE times STEP_MARGIN is finite is a valid
    # box, and the next float above it is named
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(scenarios.bundled_run_config(seed=2), alpha_levels=2)))
    run = load_run_config(path)
    bottom = float(run.theta_min[coordinate])

    def overflows(top):
        return not math.isfinite((top - bottom) * STEP_SCALE * STEP_MARGIN)

    top = sys.float_info.max / STEP_MARGIN / STEP_SCALE
    while overflows(top):
        top = math.nextafter(top, 0.0)
    while not overflows(math.nextafter(top, math.inf)):
        top = math.nextafter(top, math.inf)
    theta_max = run.theta_max.copy()
    theta_max[coordinate] = top
    assert replace(run, theta_max=theta_max).theta_max[coordinate] == top
    theta_max[coordinate] = math.nextafter(top, math.inf)
    with pytest.raises(ConfigurationError) as info:
        replace(run, theta_max=theta_max)
    span = float(theta_max[coordinate] - bottom)
    assert str(info.value) == (
        f"the box [theta_min, theta_max] makes a search step overflow on a box span of {span!r}"
    )


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
