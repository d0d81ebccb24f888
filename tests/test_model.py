"""Tests for structural model assembly and the model file format."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from reference import brute_force_assemble

from ffemu import scenarios
from ffemu.errors import ConfigurationError, DomainError, ShapeError
from ffemu.model import GROUND, SpringElement, StructuralModel, load_model, model_from_dict, resolve_model


def chain_2dof():
    # one fixed ground spring at node 0, one parameter spring between the
    # two nodes
    return StructuralModel(
        masses=np.array([1.0, 1.0]),
        springs=(
            SpringElement("g", GROUND, 0, stiffness=1.0),
            SpringElement("c", 0, 1, param_index=0),
        ),
        parameter_count=1,
    )


def test_single_mass_ground_spring():
    model = StructuralModel(
        masses=np.array([1.0]),
        springs=(SpringElement("k", GROUND, 0, param_index=0),),
        parameter_count=1,
    )
    assert brute_force_assemble(model, [5.0]).tolist() == [[5.0]]
    assert model.eigenvalues_batch([[5.0]])[0].tolist() == [5.0]
    assert_modal_matches_generalized_eig(model, np.array([5.0]), [[5.0]])


def test_two_dof_chain_matches_hand_superposition():
    hand = np.array([[2.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(brute_force_assemble(chain_2dof(), np.ones(1)), hand)
    assert_modal_matches_generalized_eig(chain_2dof(), np.ones(1), hand)
    lam = chain_2dof().eigenvalues_batch(np.ones((1, 1)))[0]
    np.testing.assert_allclose(lam, [0.3819660112501051, 2.618033988749895], rtol=1e-12)


def assert_modal_matches_generalized_eig(model, theta, stiffness):
    # the package's one-row modal_batch, which assembles K(theta) itself,
    # must give the generic reference solver's bits on (stiffness, M)
    from reference import generalized_eig

    lam, phi = model.modal_batch(theta[None, :])
    slow_lam, slow_phi = generalized_eig(stiffness, np.diag(model.masses))
    np.testing.assert_array_equal(lam[0], slow_lam)
    np.testing.assert_array_equal(phi[0], slow_phi)


def test_default_model_matches_brute_force_superposition():
    model = resolve_model("bundled")
    theta = scenarios.THETA_TRUE
    k = brute_force_assemble(model, theta)
    np.testing.assert_array_equal(k, k.T)
    np.testing.assert_array_equal(model.masses, [27.0, 27.0, 71.0, 53.0, 29.0])
    assert_modal_matches_generalized_eig(model, theta, k)


def test_stiffness_monotone_in_theta():
    model = resolve_model("bundled")
    rng = np.random.default_rng(2)
    for _ in range(100):
        theta = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX)
        theta_up = theta + rng.uniform(0.0, 200.0, 5)
        k_lo = brute_force_assemble(model, theta)
        k_hi = brute_force_assemble(model, theta_up)
        # increment is PSD by construction from non-negative superposition
        assert np.linalg.eigvalsh(k_hi - k_lo).min() >= -1e-9
        lam_lo, lam_hi = model.eigenvalues_batch([theta, theta_up])
        assert np.all(lam_hi >= lam_lo - 1e-9 * lam_lo)


def test_modal_matches_generalized_eig_bitwise():
    # a one-row modal_batch takes the cached diagonal-mass shortcut; it
    # must agree with the generic reference solver on the brute-force pair
    # exactly
    model = resolve_model("bundled")
    rng = np.random.default_rng(6)
    for _ in range(20):
        theta = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX)
        assert_modal_matches_generalized_eig(model, theta, brute_force_assemble(model, theta))


def crossing_two_mass_model():
    # the 2-mass model of test_objective.TestResidualBatch: two unit masses
    # grounded by parameter springs and weakly coupled, so the localized
    # modes swap order where k0 and k1 cross
    return StructuralModel(
        masses=np.array([1.0, 1.0]),
        springs=(
            SpringElement("k0", GROUND, 0, param_index=0),
            SpringElement("k1", GROUND, 1, param_index=1),
            SpringElement("c", 0, 1, stiffness=0.01),
        ),
        parameter_count=2,
    )


class TestEigenvaluesBatch:
    def test_matches_modal_batch_on_bundled_model(self):
        model = resolve_model("bundled")
        rng = np.random.default_rng(17)
        thetas = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX, (500, 5))
        expected, _ = model.modal_batch(thetas)
        got = model.eigenvalues_batch(thetas)
        assert got.shape == (500, 5)
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))

    def test_agrees_with_modal_batch_to_1e12_at_five_percent(self):
        # eigvalsh and eigh round differently, so the residual's two paths
        # agree to this bound, not bit for bit: every vertex of the box
        # theta_true +- 5%, random points inside it and its centre
        model = resolve_model("bundled")
        theta = scenarios.THETA_TRUE
        corners = theta * np.array(list(itertools.product([0.95, 1.05], repeat=theta.size)))
        inside = np.random.default_rng(5).uniform(0.95 * theta, 1.05 * theta, (200, theta.size))
        thetas = np.vstack([corners, inside, theta])
        expected, _ = model.modal_batch(thetas)
        assert np.all(np.abs(model.eigenvalues_batch(thetas) - expected) <= 1e-12 * np.abs(expected))

    def test_matches_modal_batch_across_a_mode_crossing(self):
        model = crossing_two_mass_model()
        k0 = np.linspace(1.0, 3.0, 201)
        thetas = np.column_stack((k0, np.full_like(k0, 2.0)))  # k0 == k1 at row 100
        expected, _ = model.modal_batch(thetas)
        got = model.eigenvalues_batch(thetas)
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))

    @pytest.mark.parametrize(
        "model_factory",
        [lambda: resolve_model("bundled"), crossing_two_mass_model],
        ids=["five_dof_model", "crossing_two_mass_model"],
    )
    def test_rows_bitwise_independent_of_stack_size_and_position(self, model_factory):
        # the residuals solve each box's vertices as consecutive rows and
        # the M-H chains step in lockstep, so a row's solution must not
        # depend on what else is in its stack: every stack size from 1 to
        # 64, and a few large ones, must give each row, wherever it sits,
        # the bits of that row solved alone
        model = model_factory()
        rng = np.random.default_rng(37)
        pool = rng.uniform(100.0, 6000.0, (4096, model.parameter_count))
        pool[::4, 1] = pool[::4, 0]  # equal k0, k1: near-degenerate modes
        alone_lam, alone_phi = map(np.concatenate, zip(*(model.modal_batch(row[None, :]) for row in pool)))
        alone_eig = np.concatenate([model.eigenvalues_batch(row[None, :]) for row in pool])
        for size in [*range(1, 65), 128, 1000, 4096]:
            pick = rng.permutation(len(pool))[:size]
            lam, phi = model.modal_batch(pool[pick])
            assert lam.tobytes() == alone_lam[pick].tobytes(), size
            assert phi.tobytes() == alone_phi[pick].tobytes(), size
            assert model.eigenvalues_batch(pool[pick]).tobytes() == alone_eig[pick].tobytes(), size

    @pytest.mark.parametrize("method", ["modal_batch", "eigenvalues_batch"])
    @pytest.mark.parametrize(
        "thetas, error",
        [
            (np.ones(5), ShapeError),
            (np.ones((2, 3)), ShapeError),
            (np.array([[4000.0, 0.0, 2120.0, 2600.0, 2400.0]]), DomainError),
        ],
    )
    def test_rejects_bad_rows_like_modal_batch(self, method, thetas, error):
        with pytest.raises(error):
            getattr(resolve_model("bundled"), method)(thetas)


def test_nonpositive_theta_rejected():
    model = resolve_model("bundled")
    with pytest.raises(DomainError):
        model.modal_batch(np.array([[4000.0, -1.0, 2120.0, 2600.0, 2400.0]]))


class TestValidation:
    def test_both_endpoints_ground_rejected(self):
        with pytest.raises(ConfigurationError):
            SpringElement("bad", GROUND, GROUND, stiffness=1.0)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            SpringElement("bad", 2, 2, stiffness=1.0)

    def test_stiffness_and_param_both_given_rejected(self):
        with pytest.raises(ConfigurationError):
            SpringElement("bad", 0, 1, stiffness=1.0, param_index=0)

    def test_negative_fixed_stiffness_rejected(self):
        with pytest.raises(ConfigurationError, match=re.escape("'stiffness' must be above 0, got -5.0")):
            SpringElement("bad", 0, 1, stiffness=-5.0)

    def test_negative_param_index_rejected(self):
        with pytest.raises(ConfigurationError, match=re.escape("'param' must be at least 0, got -1")):
            SpringElement("bad", 0, 1, param_index=-1)

    def test_unreferenced_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="never referenced"):
            StructuralModel(
                masses=np.array([1.0]),
                springs=(SpringElement("k", GROUND, 0, param_index=0),),
                parameter_count=2,
            )

    def test_node_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="node 5"):
            StructuralModel(
                masses=np.array([1.0, 1.0]),
                springs=(SpringElement("k", 0, 5, param_index=0),),
                parameter_count=1,
            )

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ConfigurationError, match=re.escape("'masses' must be above 0, got [1.0, 0.0]")):
            StructuralModel(
                masses=np.array([1.0, 0.0]),
                springs=(SpringElement("k", 0, 1, stiffness=1.0),),
                parameter_count=0,
            )


# no spring path from either mass to ground
FREE_PAIR = {"masses": [1.0, 1.0], "springs": [{"id": "k1", "a": 0, "b": 1, "param": 0}]}
# mass 0 grounded; masses 1 and 2 joined by two springs, with no path to ground
SPLIT_TRIPLE = {
    "masses": [1.0, 1.0, 1.0],
    "springs": [
        {"id": "k1", "a": "ground", "b": 0, "param": 0},
        {"id": "k2", "a": 1, "b": 2, "param": 1},
        {"id": "k3", "a": 1, "b": 2, "param": 2},
    ],
}

# two masses on fixed springs only, and a model that declares no parameter
FIXED_PAIR = {
    "masses": [1.0, 1.0],
    "springs": [
        {"id": "k1", "a": "ground", "b": 0, "stiffness": 1000.0},
        {"id": "k2", "a": 0, "b": 1, "stiffness": 500.0},
    ],
}
NO_PARAMETERS = {"masses": [1.0], "parameters": 0, "springs": [{"id": "k1", "a": "ground", "b": 0, "param": 0}]}
NO_PARAMETER_MESSAGE = "need at least one updating parameter (a spring with 'param'), got 0"


class TestParameterCount:
    @pytest.mark.parametrize("data", [FIXED_PAIR, NO_PARAMETERS], ids=["fixed-springs", "parameters-0"])
    def test_no_updating_parameter_is_a_configuration_error_naming_the_file(self, data, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}: {NO_PARAMETER_MESSAGE}")):
            load_model(path)


class TestGrounding:
    @pytest.mark.parametrize("data, node", [(FREE_PAIR, 0), (SPLIT_TRIPLE, 1)], ids=["free-pair", "split-triple"])
    def test_floating_node_is_a_configuration_error_naming_the_file(self, data, node, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        message = f"{path}: node {node} has no spring path to ground, so K(theta) is singular"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            load_model(path)

    def test_ground_reached_through_a_chain_listed_far_end_first(self):
        # the only ground spring is at node 0, and is listed last
        model = StructuralModel(
            masses=np.ones(4),
            springs=(
                SpringElement("c", 2, 3, param_index=0),
                SpringElement("b", 1, 2, param_index=0),
                SpringElement("a", 0, 1, param_index=0),
                SpringElement("g", 0, GROUND, param_index=0),
            ),
            parameter_count=1,
        )
        assert model.eigenvalues_batch([[1.0]])[0, 0] > 0.0


class TestModelFile:
    def test_bundled_model_loads(self):
        model = resolve_model("bundled")
        assert model.n_dof == 5
        assert model.parameter_count == 5
        assert [s.id for s in model.springs if s.param_index is not None] == [
            "k1", "k2", "k4", "k6", "k8",
        ]

    def test_ground_tokens(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "masses": [1.0, 2.0],
                    "springs": [
                        {"id": "a", "a": "ground", "b": 0, "stiffness": 3.0},
                        {"id": "b", "a": 1, "b": -1, "stiffness": 4.0},
                        {"id": "c", "a": 0, "b": 1, "param": 0},
                    ],
                }
            )
        )
        model = load_model(path)
        hand = np.array([[8.0, -5.0], [-5.0, 9.0]])
        np.testing.assert_array_equal(brute_force_assemble(model, np.array([5.0])), hand)
        assert_modal_matches_generalized_eig(model, np.array([5.0]), hand)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "masses": [1.0,\n}')
        with pytest.raises(ConfigurationError, match="line 3"):
            load_model(path)

    def test_semantic_error_names_spring(self):
        with pytest.raises(ConfigurationError, match=r"springs\[1\].*'k2'"):
            model_from_dict(
                {
                    "masses": [1.0, 1.0],
                    "springs": [
                        {"id": "k1", "a": 0, "b": 1, "stiffness": 1.0},
                        {"id": "k2", "a": 0, "b": 1},
                    ],
                },
                source="unit",
            )

    def test_missing_key_reported(self):
        with pytest.raises(ConfigurationError, match="'springs'"):
            model_from_dict({"masses": [1.0]}, source="unit")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["springs"][1].update(param="x"), "'springs[1].param' must be an integer, got 'x'"),
            (lambda d: d["springs"][1].update(param=1.9), "'springs[1].param' must be an integer, got 1.9"),
            (lambda d: d["springs"][1].update(param=True), "'springs[1].param' must be an integer, got True"),
            (lambda d: d.update(parameters="2"), "'parameters' must be an integer"),
            (lambda d: d.update(masses=[1.0, math.nan]), "'masses' must be a list of finite numbers"),
            (lambda d: d.update(masses=[math.inf, 1.0]), "'masses' must be a list of finite numbers"),
            (
                lambda d: d["springs"].append({"id": "k3", "a": 0, "b": 1, "stiffness": math.nan}),
                "'springs[2].stiffness' must be a finite number, got nan",
            ),
        ],
    )
    def test_mistyped_or_non_finite_value_names_source_and_spring(self, edit, message):
        data = {
            "masses": [1.0, 1.0],
            "springs": [
                {"id": "k1", "a": "ground", "b": 0, "param": 0},
                {"id": "k2", "a": 0, "b": 1, "param": 1},
            ],
        }
        model_from_dict(data, source="unit")  # valid before the edit
        edit(data)
        with pytest.raises(ConfigurationError, match=re.escape(f"unit: {message}")):
            model_from_dict(data, source="unit")

    def test_bad_endpoint_token(self):
        with pytest.raises(ConfigurationError, match=re.escape("unit: 'springs[0].a' must be a node index or 'ground'")):
            model_from_dict(
                {
                    "masses": [1.0],
                    "springs": [{"id": "k", "a": "floor", "b": 0, "stiffness": 1.0}],
                },
                source="unit",
            )
