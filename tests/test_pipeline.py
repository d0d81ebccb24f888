"""Tests for measurement simulation and the multi-level updating pipeline."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from reference import alpha_cut

from ffemu import cli, pipeline, scenarios
from ffemu.errors import ConfigurationError
from ffemu.fuzzy import AlphaCutStack, alpha_cuts, default_levels
from ffemu.model import GROUND, SpringElement, StructuralModel, resolve_model
from ffemu.objective import load_measured, residual_batch, save_measured, unit_columns, vertex_modes
from ffemu.optim import POLISH_ITERATIONS, AcoConfig, PsoConfig
from ffemu.pipeline import (
    FfemuRun,
    McmcConfig,
    load_run_config,
    propagate_outputs,
    run_ffemu,
    simulate_measurements,
)

LEVELS4 = np.array([1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0])
EIG_ONLY = (1.0, 0.0)


def one_dof_model():
    return StructuralModel(
        masses=np.array([1.0]),
        springs=(SpringElement("k", GROUND, 0, param_index=0),),
        parameter_count=1,
    )


def fuzzy_run(optimizer="aco", levels=LEVELS4, iters=150, seed=0):
    model = resolve_model("bundled")
    truth = scenarios.THETA_TRUE
    measured = simulate_measurements(model, truth, 0.05 * truth)
    return FfemuRun(
        model=model,
        measured=measured,
        theta_min=scenarios.THETA_MIN,
        theta_max=scenarios.THETA_MAX,
        optimizer=optimizer,
        aco=AcoConfig(max_iterations=iters),
        pso=PsoConfig(max_iterations=iters),
        levels=levels,
        weights=EIG_ONLY,
        seed=seed,
        theta_initial=scenarios.THETA_INITIAL,
    )


class TestSimulateMeasurements:
    def test_zero_spreads_give_crisp_data(self):
        model = resolve_model("bundled")
        measured = simulate_measurements(model, scenarios.THETA_TRUE, np.zeros(5))
        assert measured.is_crisp
        (center,), _ = model.modal_batch(scenarios.THETA_TRUE[None, :])
        np.testing.assert_array_equal(measured.eigenvalue_tfns[:, 1], center)
        for (a, b, c), lam in zip(measured.eigenvalue_tfns, center):
            assert a == b == c == lam

    def test_one_dof_identity_map(self):
        # lambda = k/m with m = 1, so the parameter triangle (4, 5, 6)
        # propagates to the identical eigenvalue triangle
        measured = simulate_measurements(one_dof_model(), [5.0], [1.0])
        a, b, c = measured.eigenvalue_tfns[0]
        assert a == pytest.approx(4.0, rel=1e-12)
        assert b == pytest.approx(5.0, rel=1e-12)
        assert c == pytest.approx(6.0, rel=1e-12)

    def test_support_interval_matches_grid_brute_force(self):
        # coarse grid oracle; box corners are grid points, and stiffness
        # monotonicity puts the extremes there
        model = resolve_model("bundled")
        truth = scenarios.THETA_TRUE
        spreads = 0.05 * truth
        measured = simulate_measurements(model, truth, spreads)
        axes = [np.linspace(t - s, t + s, 3) for t, s in zip(truth, spreads)]
        lam, _ = model.modal_batch(np.array(list(itertools.product(*axes))))
        grid_lo, grid_hi = lam.min(axis=0), lam.max(axis=0)
        for j, tfn in enumerate(measured.eigenvalue_tfns):
            lo, hi = alpha_cuts(tfn, 0.0)
            assert lo == pytest.approx(grid_lo[j], rel=1e-3)
            assert hi == pytest.approx(grid_hi[j], rel=1e-3)

    def test_mode_shapes_are_center_shapes(self):
        model = resolve_model("bundled")
        measured = simulate_measurements(model, scenarios.THETA_TRUE, 0.02 * scenarios.THETA_TRUE)
        _, (center,) = model.modal_batch(scenarios.THETA_TRUE[None, :])
        np.testing.assert_allclose(measured.mode_shapes, center, atol=1e-12)

    def test_shape_tfns_nest_and_peak_at_center(self):
        model = resolve_model("bundled")
        measured = simulate_measurements(
            model, scenarios.THETA_TRUE, 0.05 * scenarios.THETA_TRUE, shape_tfns=True
        )
        _, (center,) = model.modal_batch(scenarios.THETA_TRUE[None, :])
        assert measured.shape_tfns is not None
        for i, j in np.ndindex(5, 5):
            a, b, c = measured.shape_tfns[i, j]
            assert b == pytest.approx(center[i, j], abs=1e-12)
            assert a <= b <= c
        wide = measured.cuts_at(0.0)
        narrow = measured.cuts_at(0.5)
        # cuts of the fuzzy shapes widen as alpha drops (before normalization
        # they nest component-wise; compare through the raw TFNs)
        raw = measured.shape_tfns[0, 0]
        (wide_lo, wide_hi), (narrow_lo, narrow_hi) = alpha_cuts(raw, 0.0), alpha_cuts(raw, 0.5)
        assert wide_hi - wide_lo >= narrow_hi - narrow_lo
        assert wide[2].shape == narrow[2].shape

    @pytest.mark.parametrize("fraction", [0.0, 0.05, 0.3])
    def test_triangles_are_the_vertex_images_bit_for_bit(self, fraction):
        # mode j's triangle is its eigenvalue at the support's lower vertex,
        # at the peak and at the upper vertex, each a row of one modal_batch
        # solve (eigvalsh rounds differently from the eigh that vertex_modes
        # calls); the measured shapes are the peak's, re-normalised to unit
        # columns on the way in
        model = resolve_model("bundled")
        truth = scenarios.THETA_TRUE
        spreads = fraction * truth
        measured = simulate_measurements(model, truth, spreads, shape_tfns=True)
        lam, vec = model.modal_batch(np.stack([truth - spreads, truth, truth + spreads]))
        assert measured.eigenvalue_tfns.tobytes() == lam.T.tobytes()
        np.testing.assert_allclose(measured.mode_shapes, vec[1], rtol=0, atol=1e-15)
        # each shape component's triangle is (min, peak, max) over the peak's
        # value and its MAC-paired values at the two support vertices
        _, ((low, high),) = vertex_modes(model, np.concatenate([truth - spreads, truth + spreads])[None, :])
        peak = vec[1]
        lows, highs = np.minimum(np.minimum(peak, low), high), np.maximum(np.maximum(peak, low), high)
        assert measured.shape_tfns.tobytes() == np.stack([lows, peak, highs], axis=-1).tobytes()
        assert fraction == 0.0 or not measured.is_crisp

    def test_crisp_shapes_are_the_peaks_unit_shapes_bit_for_bit(self):
        # a crisp shape is the triangle (u, u, u) of the peak's shape scaled
        # to unit length, and its cut is u scaled once more, as every run
        # has cut it
        model = resolve_model("bundled")
        truth = scenarios.THETA_TRUE
        measured = simulate_measurements(model, truth, 0.05 * truth)
        _, ((peak, _),) = vertex_modes(model, np.tile(truth, 2)[None, :])
        unit = unit_columns(peak)
        assert measured.shape_tfns.tobytes() == np.stack([unit] * 3, axis=-1).tobytes()
        for alpha in LEVELS4:
            _, _, vec_lo, vec_hi = measured.cuts_at(alpha)
            assert vec_lo.tobytes() == vec_hi.tobytes() == unit_columns(unit).tobytes()

    def test_shape_tfns_layout_survives_save_load_and_cuts(self, tmp_path):
        # shape_tfns[i, j] is component i of mode j, laid out like
        # mode_shapes; the 5-DOF model's distinct components and modes make
        # a transposed layout anywhere show
        model = resolve_model("bundled")
        measured = simulate_measurements(model, scenarios.THETA_TRUE, 0.05 * scenarios.THETA_TRUE, shape_tfns=True)
        assert measured.shape_tfns.shape == (5, 5, 3)
        np.testing.assert_allclose(measured.shape_tfns[..., 1], measured.mode_shapes, atol=1e-15)
        save_measured(measured, tmp_path / "m.json")
        loaded = load_measured(tmp_path / "m.json")
        np.testing.assert_allclose(loaded.eigenvalue_tfns, measured.eigenvalue_tfns, rtol=1e-14)
        np.testing.assert_array_equal(loaded.shape_tfns, measured.shape_tfns)
        np.testing.assert_allclose(loaded.mode_shapes, measured.mode_shapes, atol=1e-15)
        for alpha in LEVELS4:
            eig_lo, eig_hi, vec_lo, vec_hi = loaded.cuts_at(alpha)
            eig = np.array([alpha_cut(t, alpha) for t in loaded.eigenvalue_tfns])
            np.testing.assert_array_equal(eig_lo, eig[:, 0])
            np.testing.assert_array_equal(eig_hi, eig[:, 1])
            vec = np.empty((2, 5, 5))
            for i, j in np.ndindex(5, 5):
                vec[:, i, j] = alpha_cut(loaded.shape_tfns[i, j], alpha)
            vec /= np.linalg.norm(vec, axis=1, keepdims=True)
            np.testing.assert_array_equal(vec_lo, vec[0])
            np.testing.assert_array_equal(vec_hi, vec[1])

    def test_spread_validation(self):
        model = one_dof_model()
        with pytest.raises(Exception):
            simulate_measurements(model, [5.0], [-1.0])
        with pytest.raises(Exception):
            simulate_measurements(model, [5.0], [6.0])  # support hits zero


class TestRunFfemu:
    @pytest.fixture(scope="class")
    def aco_result(self):
        run = fuzzy_run("aco")
        return run, run_ffemu(run)

    def test_nesting_exact_and_level1_degenerate(self, aco_result):
        _, result = aco_result
        for stack in (result.parameters, result.outputs):
            assert (stack.hi[0] - stack.lo[0] >= 0.0).all()
            for k in range(stack.levels.size - 1):
                assert (stack.lo[k + 1] <= stack.lo[k]).all()
                assert (stack.hi[k] <= stack.hi[k + 1]).all()
        assert (result.parameters.hi[0] - result.parameters.lo[0] == 0.0).all()

    def test_center_is_peak_of_every_stack(self, aco_result):
        _, result = aco_result
        # the centre is the alpha = 1 row, a point: the peak of every parameter
        stack = result.parameters
        for i in range(stack.lo.shape[1]):
            assert stack.lo[0, i] == stack.hi[0, i]

    def test_warm_start_never_worsens(self, aco_result):
        run, result = aco_result
        for k in range(1, run.levels.size):
            measured_k = run.measured.cuts_at(run.levels[k])
            prev_lower = result.parameters.lo[k - 1]
            prev_upper = result.parameters.hi[k - 1]
            r = residual_batch(run.model, [np.concatenate([prev_lower, prev_upper])], measured_k, run.weights)[0]
            assert result.objective_values[k] <= r @ r + 1e-18

    def test_evaluation_bookkeeping(self, aco_result):
        run, result = aco_result
        for k, hist in enumerate(result.histories):
            expected = run.aco.archive_size + run.aco.n_ants * hist.n_iterations
            assert hist.n_evaluations == expected

    def test_time_split_and_stop_reasons(self, aco_result):
        run, result = aco_result
        objective_seconds = np.array([hist.objective_seconds for hist in result.histories])
        assert objective_seconds.shape == result.polish_seconds.shape == (run.levels.size,)
        assert np.all(objective_seconds > 0.0) and np.all(result.polish_seconds > 0.0)
        assert np.all(objective_seconds + result.polish_seconds <= result.elapsed_seconds)
        for hist in result.histories:
            expected = "max_iterations" if hist.n_iterations == run.aco.max_iterations else "stagnation"
            assert hist.stop_reason == expected

    def test_search_values_match_one_row_objective(self, aco_result):
        # the optimizer's values come from whole-population batches; they
        # must be the very numbers the one-row objective gives, so the
        # polish (which starts from them) can never report a level worse
        run, result = aco_result
        for k, hist in enumerate(result.histories):
            measured_k = run.measured.cuts_at(run.levels[k])
            r = residual_batch(run.model, [hist.best_x], measured_k, run.weights)[0]
            assert r @ r == hist.best_f

    def test_containment_of_generating_cuts_aco(self, aco_result):
        run, result = aco_result
        truth = scenarios.THETA_TRUE
        spreads = 0.05 * truth
        slack = 0.01 * (scenarios.THETA_MAX - scenarios.THETA_MIN)
        for i in range(5):
            gen = (truth[i] - spreads[i], truth[i], truth[i] + spreads[i])
            for k, alpha in enumerate(run.levels):
                cut_lo, cut_hi = alpha_cuts(gen, alpha)
                stack = result.parameters
                assert stack.lo[k, i] <= cut_lo + slack[i]
                assert stack.hi[k, i] >= cut_hi - slack[i]

    def test_every_level_converges_within_polish_cap(self, aco_result):
        # with eigenvalue-only weights each level is a zero-residual
        # least-squares problem, so the polish must reach rounding level
        run, result = aco_result
        d = run.model.parameter_count
        for k, hist in enumerate(result.histories):
            n = d if k == 0 else 2 * d
            assert result.objective_values[k] <= 1e-12
            assert result.objective_values[k] <= hist.best_f
            assert 0 < result.polish_evaluations[k] <= 1 + POLISH_ITERATIONS * (n + 1)

    def test_output_stacks_bracket_measured_centers(self, aco_result):
        run, result = aco_result
        centers = run.measured.eigenvalue_tfns[:, 1]
        stack = result.outputs
        for j in range(stack.lo.shape[1]):
            assert stack.lo[-1, j] <= centers[j] <= stack.hi[-1, j]

    def test_deterministic_rerun(self, aco_result):
        run, result = aco_result
        again = run_ffemu(fuzzy_run("aco"))
        a, b = result.parameters, again.parameters
        for k in range(a.levels.size):
            assert (a.lo[k] == b.lo[k]).all() and (a.hi[k] == b.hi[k]).all()
        np.testing.assert_array_equal(result.objective_values, again.objective_values)

    def test_containment_pso_at_looser_slack(self):
        # After 300 iterations the swarm alone leaves the alpha < 1 levels
        # near objective 3e-5, with bounds tens of N/m too narrow; the
        # per-level least-squares polish takes each level to its minimum.
        # The slack here is 10 % of box width, against 1 % for ACO above.
        run = fuzzy_run("pso", iters=300)
        result = run_ffemu(run)
        truth = scenarios.THETA_TRUE
        spreads = 0.05 * truth
        slack = 0.10 * (scenarios.THETA_MAX - scenarios.THETA_MIN)
        for i in range(5):
            gen = (truth[i] - spreads[i], truth[i], truth[i] + spreads[i])
            for k, alpha in enumerate(run.levels):
                cut_lo, cut_hi = alpha_cuts(gen, alpha)
                stack = result.parameters
                assert stack.lo[k, i] <= cut_lo + slack[i]
                assert stack.hi[k, i] >= cut_hi - slack[i]

    @pytest.mark.parametrize("optimizer", ["aco", "pso"])
    def test_each_level_searches_the_box_anchored_to_the_previous_level(self, monkeypatch, optimizer):
        # level 1 searches [theta_min, theta_max]; level k >= 2 searches
        # lower in [theta_min, lower[k-1]] and upper in [upper[k-1], theta_max],
        # with a generator seeded run.seed + k; the optimizer is looked up in
        # the pipeline module at call time, so a wrapper of it sees every level
        calls = []
        minimize = getattr(pipeline, f"{optimizer}_minimize")

        def recording(f, region, config, rng, initial=None):
            calls.append((region.lo.copy(), region.hi.copy(), rng.bit_generator.state))
            return minimize(f, region, config, rng, initial=initial)

        monkeypatch.setattr(pipeline, f"{optimizer}_minimize", recording)
        run = fuzzy_run(optimizer, iters=20, seed=4)
        result = run_ffemu(run)
        lower, upper = result.parameters.lo, result.parameters.hi
        assert len(calls) == run.levels.size
        np.testing.assert_array_equal(calls[0][0], run.theta_min)
        np.testing.assert_array_equal(calls[0][1], run.theta_max)
        for k in range(1, run.levels.size):
            np.testing.assert_array_equal(calls[k][0], np.concatenate([run.theta_min, upper[k - 1]]))
            np.testing.assert_array_equal(calls[k][1], np.concatenate([lower[k - 1], run.theta_max]))
        for k, (_, _, state) in enumerate(calls):
            assert state == np.random.default_rng(run.seed + k).bit_generator.state

    @pytest.mark.parametrize("optimizer", ["aco", "pso"])
    def test_search_free_level_evaluates_exactly_its_start_rows(self, monkeypatch, optimizer):
        # the search-free null: at max_iterations 0 a level evaluates its
        # start rows once, theta_initial (level 1) or the previous level's
        # [lower | upper] vertices, then uniform draws from
        # default_rng(seed + k) over the level's box, archive_size (ACO) or
        # swarm_size (PSO) rows in all, and then the polish alone moves
        seen = []
        minimize = getattr(pipeline, f"{optimizer}_minimize")

        def recording(f, region, config, rng, initial=None):
            seen.append([])
            return minimize(lambda x: seen[-1].append(x.copy()) or f(x), region, config, rng, initial=initial)

        monkeypatch.setattr(pipeline, f"{optimizer}_minimize", recording)
        run = fuzzy_run(optimizer, iters=0, seed=3)
        size = run.aco.archive_size if optimizer == "aco" else run.pso.swarm_size
        result = run_ffemu(run)
        lower, upper = result.parameters.lo, result.parameters.hi
        assert len(seen) == run.levels.size
        for k, (rows, history) in enumerate(zip(seen, result.histories)):
            if k == 0:
                lo, hi, start = run.theta_min, run.theta_max, run.theta_initial
            else:
                lo, hi = np.concatenate([run.theta_min, upper[k - 1]]), np.concatenate([lower[k - 1], run.theta_max])
                start = np.concatenate([lower[k - 1], upper[k - 1]])
            drawn = np.random.default_rng(run.seed + k).uniform(lo, hi, size=(size - 1, lo.size))
            expected = np.clip(np.vstack([start, drawn]), lo, hi)
            assert len(rows) == 1 and rows[0].tobytes() == expected.tobytes()
            assert (history.n_evaluations, history.n_iterations, history.stop_reason) == (size, 0, "max_iterations")

    def test_pinched_box_collapses_everything(self):
        model = resolve_model("bundled")
        theta_p = scenarios.THETA_TRUE * 1.01
        eps = 1e-6 * theta_p
        measured = simulate_measurements(model, scenarios.THETA_TRUE, np.zeros(5))
        run = FfemuRun(
            model=model,
            measured=measured,
            theta_min=theta_p,
            theta_max=theta_p + eps,
            optimizer="aco",
            aco=AcoConfig(max_iterations=20),
            levels=LEVELS4,
            weights=EIG_ONLY,
            seed=0,
        )
        result = run_ffemu(run)
        stack = result.parameters
        assert (stack.hi[-1] - stack.lo[-1] <= eps.max()).all()
        r = residual_batch(model, [theta_p], measured.cuts_at(1.0), EIG_ONLY)[0]
        assert result.objective_values[0] == pytest.approx(r @ r, rel=1e-2)

    def test_shape_weighted_levels_record_their_residual_norms(self):
        # the one tier-1 run with a shape weight: fuzzy shapes, 3 levels
        model = resolve_model("bundled")
        levels = default_levels(3)
        truth = scenarios.THETA_TRUE
        measured = simulate_measurements(model, truth, 0.05 * truth, shape_tfns=True)
        run = FfemuRun(
            model=model,
            measured=measured,
            theta_min=scenarios.THETA_MIN,
            theta_max=scenarios.THETA_MAX,
            aco=AcoConfig(max_iterations=40),
            levels=levels,
            weights=(1.0, 0.3),
            seed=7,
            theta_initial=scenarios.THETA_INITIAL,
        )
        result = run_ffemu(run)
        lower, upper = result.parameters.lo, result.parameters.hi
        for k, alpha in enumerate(levels):
            cuts = measured.cuts_at(alpha)
            r = residual_batch(model, np.hstack([lower[k : k + 1], upper[k : k + 1]]), cuts, run.weights)[0]
            assert r[5:10].any() and r[15:].any()  # the shape errors are in the objective
            assert result.objective_values[k] == r @ r
        assert (np.diff(lower, axis=0) <= 0.0).all() and (np.diff(upper, axis=0) >= 0.0).all()
        stack = result.outputs
        assert (np.diff(stack.lo, axis=0) <= 0.0).all() and (np.diff(stack.hi, axis=0) >= 0.0).all()

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((-1.0, 0.0), "'weights.eigenvalue' must be at least 0, got -1.0"),
            ((1.0, -0.5), "'weights.eigenvector' must be at least 0, got -0.5"),
            ((1.0, float("nan")), "'weights.eigenvector' must be a finite number, got nan"),
            ((1.0, "0.5"), "'weights.eigenvector' must be a finite number, got '0.5'"),
            ((1.0, 0.0, 0.0), "'weights' must be a list of 2 finite numbers, got [1.0, 0.0, 0.0]"),
            ((0.0, 0.0), "at least one weight must be positive"),
        ],
    )
    def test_bad_weights_rejected(self, weights, message):
        model = one_dof_model()
        measured = simulate_measurements(model, [5.0], [0.5])
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            FfemuRun(model=model, measured=measured, theta_min=[1.0], theta_max=[9.0], weights=weights)

    def test_default_weights_are_one_each(self):
        model = one_dof_model()
        measured = simulate_measurements(model, [5.0], [0.5])
        run = FfemuRun(model=model, measured=measured, theta_min=[1.0], theta_max=[9.0])
        assert run.weights == (1.0, 1.0)

    def test_defaults_are_ten_levels_aco_and_seed_0(self):
        model = one_dof_model()
        measured = simulate_measurements(model, [5.0], [0.5])
        run = FfemuRun(model=model, measured=measured, theta_min=[1.0], theta_max=[9.0])
        assert run.levels.tobytes() == np.linspace(1.0, 0.0, 10).tobytes()
        assert (run.optimizer, run.seed) == ("aco", 0)

    @pytest.mark.parametrize("key", ["theta_min", "theta_max"])
    def test_box_is_required(self, key):
        model = one_dof_model()
        settings = {"theta_min": [1.0], "theta_max": [9.0]}
        del settings[key]
        with pytest.raises(ConfigurationError, match=f"missing required key '{key}'"):
            FfemuRun(model=model, measured=simulate_measurements(model, [5.0], [0.5]), **settings)

    def test_mode_count_mismatch_rejected(self):
        measured = simulate_measurements(one_dof_model(), [5.0], [0.5])
        with pytest.raises(ConfigurationError, match="modes"):
            FfemuRun(
                model=resolve_model("bundled"),
                measured=measured,
                theta_min=scenarios.THETA_MIN,
                theta_max=scenarios.THETA_MAX,
            )

    def test_unknown_optimizer_rejected(self):
        model = resolve_model("bundled")
        measured = simulate_measurements(model, scenarios.THETA_TRUE, np.zeros(5))
        with pytest.raises(ConfigurationError, match="valid choices"):
            FfemuRun(
                model=model,
                measured=measured,
                theta_min=scenarios.THETA_MIN,
                theta_max=scenarios.THETA_MAX,
                optimizer="annealing",
            )


class TestPriorBox:
    """``FfemuRun`` owns the prior box and the start point, for both the
    fuzzy search and the M-H chains."""

    def one_dof_run(self, **overrides):
        settings = dict(theta_min=[1.0], theta_max=[9.0])
        settings.update(overrides)
        model = one_dof_model()
        return FfemuRun(model=model, measured=simulate_measurements(model, [5.0], [0.5]), **settings)

    @pytest.mark.parametrize("field", ["theta_min", "theta_max", "theta_initial"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_vectors_must_be_finite(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            self.one_dof_run(**{field: [value]})

    @pytest.mark.parametrize("value", [0.0, -3400.0])
    def test_theta_min_must_be_positive(self, value):
        with pytest.raises(ConfigurationError, match=re.escape(f"'theta_min' must be above 0, got [{value}]")):
            self.one_dof_run(theta_min=[value])

    @pytest.mark.parametrize("theta_max", [[1.0], [0.5]])
    def test_box_must_be_strictly_ordered(self, theta_max):
        with pytest.raises(ConfigurationError, match="theta_min must be strictly below theta_max"):
            self.one_dof_run(theta_max=theta_max)

    def test_start_outside_box_rejected(self):
        with pytest.raises(ConfigurationError, match=r"is outside \[theta_min, theta_max\]"):
            self.one_dof_run(theta_initial=[100.0])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"theta_min": [[1.0]]}, "'theta_min' must be a list of 1 finite numbers, got [[1.0]]"),
            (
                {"theta_min": [1.0, 1.0], "theta_max": [9.0, 9.0]},
                "'theta_min' must be a list of 1 finite numbers, got [1.0, 1.0]",
            ),
            ({"theta_initial": [5.0, 5.0]}, "'theta_initial' must be a list of 1 finite numbers, got [5.0, 5.0]"),
        ],
        ids=["two-dimensional", "longer-than-the-model", "start-length"],
    )
    def test_vector_shapes_must_match_the_model(self, overrides, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            self.one_dof_run(**overrides)


class TestPropagateOutputs:
    def test_degenerate_stacks_give_degenerate_outputs(self):
        model = resolve_model("bundled")
        theta = scenarios.THETA_TRUE
        levels = default_levels(4)
        stack = AlphaCutStack(levels, np.tile(theta, (4, 1)), np.tile(theta, (4, 1)))
        outputs = propagate_outputs(model, stack)
        lam = model.eigenvalues_batch(theta[None, :])[0]
        for j in range(outputs.lo.shape[1]):
            for lo, hi in zip(outputs.lo[:, j], outputs.hi[:, j]):
                assert lo == hi == lam[j]

    def test_one_dof_identity(self):
        levels = default_levels(10)
        stack = AlphaCutStack(levels, *alpha_cuts([[4, 5, 6]], levels))
        outputs = propagate_outputs(one_dof_model(), stack)
        for k in range(stack.levels.size):
            assert outputs.lo[k, 0] == pytest.approx(stack.lo[k, 0], rel=1e-12)
            assert outputs.hi[k, 0] == pytest.approx(stack.hi[k, 0], rel=1e-12)


class TestRunConfig:
    def write_config(self, tmp_path, **overrides):
        config = {
            "model": "bundled",
            "theta_min": scenarios.THETA_MIN.tolist(),
            "theta_max": scenarios.THETA_MAX.tolist(),
            "theta_initial": scenarios.THETA_INITIAL.tolist(),
            "alpha_levels": 4,
            "optimizer": "aco",
            "seed": 3,
            "truth": {"theta_true": scenarios.THETA_TRUE.tolist(), "spread_fraction": 0.05},
            "weights": {"eigenvalue": 1.0, "eigenvector": 0.0},
            "aco": {"archive_size": 10, "n_ants": 20, "max_iterations": 50},
            "bayes": {"n_samples": 500, "burn_in": 100, "likelihood_sd": 0.005},
        }
        config.update(overrides)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        return path

    def test_inline_truth_parses(self, tmp_path):
        run = load_run_config(self.write_config(tmp_path))
        assert run.optimizer == "aco"
        assert run.seed == 3
        assert run.levels.size == 4
        assert run.aco.max_iterations == 50
        assert not run.measured.is_crisp
        assert run.bayes == McmcConfig(n_samples=500, burn_in=100, likelihood_sd=0.005)
        assert run.weights == (1.0, 0.0)

    @pytest.mark.parametrize("count", [1, 2, 4, 10])
    def test_truth_triangles_do_not_depend_on_the_level_grid(self, count, tmp_path):
        # the bundled fuzzy truth's data are its vertex images at every
        # level count, so each load reads the same fuzzy triangles
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(scenarios.bundled_run_config(), alpha_levels=count)))
        run = load_run_config(path)
        assert run.levels.size == count
        truth, spreads = scenarios.THETA_TRUE, 0.05 * scenarios.THETA_TRUE
        lam, _ = run.model.modal_batch(np.stack([truth - spreads, truth, truth + spreads]))
        assert run.measured.eigenvalue_tfns.tobytes() == lam.T.tobytes()
        assert not run.measured.is_crisp

    def test_absent_values_take_the_runs_defaults(self, tmp_path):
        path = self.write_config(tmp_path, weights={"eigenvector": 0.0})
        raw = json.loads(path.read_text())
        for key in ("alpha_levels", "optimizer", "seed"):
            del raw[key]
        path.write_text(json.dumps(raw))
        run = load_run_config(path)
        assert run.levels.tobytes() == np.linspace(1.0, 0.0, 10).tobytes()
        assert (run.optimizer, run.seed, run.weights) == ("aco", 0, (1.0, 0.0))

    def test_absent_sections_take_the_defaults(self, tmp_path):
        path = self.write_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["bayes"]
        path.write_text(json.dumps(raw))
        run = load_run_config(path)
        assert run.bayes == McmcConfig() and run.pso == PsoConfig()

    def test_measured_path_resolves_relative(self, tmp_path):
        model = resolve_model("bundled")
        measured = simulate_measurements(model, scenarios.THETA_TRUE, 0.05 * scenarios.THETA_TRUE)
        save_measured(measured, tmp_path / "meas.json")
        path = self.write_config(tmp_path, measured="meas.json")
        raw = json.loads(path.read_text())
        del raw["truth"]
        path.write_text(json.dumps(raw))
        assert load_run_config(path).measured.n_modes == 5

    def test_both_measured_and_truth_rejected(self, tmp_path):
        path = self.write_config(tmp_path, measured="meas.json")
        with pytest.raises(ConfigurationError, match="exactly one"):
            load_run_config(path)

    def test_unknown_optimizer_lists_choices(self, tmp_path):
        path = self.write_config(tmp_path, optimizer="genetic")
        with pytest.raises(ConfigurationError, match="aco, pso"):
            load_run_config(path)

    def test_seed_override(self, tmp_path):
        # --seed 7 writes, for both commands, what "seed": 7 in the config
        # writes, and not what the config's own seed 3 writes
        def outputs(command, seed=3, flag=()):
            out = tmp_path / f"{command}-{seed}-{len(flag)}"
            args = [command, "--config", str(self.write_config(tmp_path, seed=seed)), "--out", str(out)]
            assert cli.main(args + list(flag)) == cli.EXIT_OK
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.json"}
            if (out / "summary.json").exists():  # compared apart from its timings
                summary = files["summary.json"] = json.loads((out / "summary.json").read_text())
                for key in [key for key in summary["metadata"] if key.endswith("_seconds")]:
                    del summary["metadata"][key]
            return files

        for command in ("update", "bayes"):
            flagged = outputs(command, flag=["--seed", "7"])
            assert len(flagged) >= 2 and flagged == outputs(command, seed=7), command
            assert flagged != outputs(command), command

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.json"
        # the measured data are read before the run, so the config has them
        path.write_text(json.dumps({"model": "bundled", "truth": scenarios.bundled_truth_spec()}))
        with pytest.raises(ConfigurationError, match="missing required key 'theta_min'"):
            load_run_config(path)

    def test_bad_optimizer_section(self, tmp_path):
        path = self.write_config(tmp_path, aco={"archive_size": 10, "bogus_knob": 1})
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}: unknown key 'aco.bogus_knob'; valid keys: ")):
            load_run_config(path)
