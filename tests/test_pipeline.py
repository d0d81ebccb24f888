"""Tests for measurement simulation and the multi-level updating pipeline."""

import itertools
import json

import numpy as np
import pytest

from ffemu import scenarios
from ffemu.errors import ConfigurationError
from ffemu.fuzzy import AlphaCutStack, Interval, TriangularFuzzyNumber, default_levels
from ffemu.model import GROUND, SpringElement, StructuralModel
from ffemu.objective import IntervalParameters, WeightingConfig, objective_value, save_measured
from ffemu.optim import POLISH_ITERATIONS, AcoConfig, PsoConfig
from ffemu.pipeline import (
    FfemuRun,
    load_run_config,
    propagate_outputs,
    run_ffemu,
    simulate_measurements,
)

LEVELS4 = np.array([1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0])
EIG_ONLY = WeightingConfig.from_scalars(5, eigenvalue=1.0, eigenvector=0.0)


def one_dof_model():
    return StructuralModel(
        masses=np.array([1.0]),
        springs=(SpringElement("k", GROUND, 0, param_index=0),),
        parameter_count=1,
    )


def fuzzy_run(optimizer="aco", levels=LEVELS4, iters=150, seed=0):
    model = scenarios.five_dof_model()
    truth = scenarios.THETA_TRUE
    measured = simulate_measurements(model, truth, 0.05 * truth, levels=levels)
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
        model = scenarios.five_dof_model()
        measured = simulate_measurements(model, scenarios.THETA_TRUE, np.zeros(5))
        assert measured.is_crisp
        center = model.modal(scenarios.THETA_TRUE).eigenvalues
        np.testing.assert_array_equal(measured.center_eigenvalues(), center)
        for tfn, lam in zip(measured.eigenvalue_tfns, center):
            assert tfn.a == tfn.b == tfn.c == lam

    def test_one_dof_identity_map(self):
        # lambda = k/m with m = 1, so the parameter triangle (4, 5, 6)
        # propagates to the identical eigenvalue triangle
        measured = simulate_measurements(one_dof_model(), [5.0], [1.0])
        tfn = measured.eigenvalue_tfns[0]
        assert tfn.a == pytest.approx(4.0, rel=1e-12)
        assert tfn.b == pytest.approx(5.0, rel=1e-12)
        assert tfn.c == pytest.approx(6.0, rel=1e-12)

    def test_support_interval_matches_grid_brute_force(self):
        # coarse grid oracle; box corners are grid points, and stiffness
        # monotonicity puts the extremes there
        model = scenarios.five_dof_model()
        truth = scenarios.THETA_TRUE
        spreads = 0.05 * truth
        measured = simulate_measurements(model, truth, spreads)
        axes = [np.linspace(t - s, t + s, 3) for t, s in zip(truth, spreads)]
        grid_lo = np.full(5, np.inf)
        grid_hi = np.full(5, -np.inf)
        for theta in itertools.product(*axes):
            lam = model.modal(np.array(theta)).eigenvalues
            grid_lo = np.minimum(grid_lo, lam)
            grid_hi = np.maximum(grid_hi, lam)
        for j, tfn in enumerate(measured.eigenvalue_tfns):
            cut = tfn.alpha_cut(0.0)
            assert cut.lo == pytest.approx(grid_lo[j], rel=1e-3)
            assert cut.hi == pytest.approx(grid_hi[j], rel=1e-3)

    def test_mode_shapes_are_center_shapes(self):
        model = scenarios.five_dof_model()
        measured = simulate_measurements(model, scenarios.THETA_TRUE, 0.02 * scenarios.THETA_TRUE)
        center = model.modal(scenarios.THETA_TRUE)
        np.testing.assert_allclose(measured.mode_shapes, center.eigenvectors, atol=1e-12)

    def test_shape_tfns_nest_and_peak_at_center(self):
        model = scenarios.five_dof_model()
        measured = simulate_measurements(
            model, scenarios.THETA_TRUE, 0.05 * scenarios.THETA_TRUE, shape_tfns=True
        )
        center = model.modal(scenarios.THETA_TRUE)
        assert measured.shape_tfns is not None
        for j, col in enumerate(measured.shape_tfns):
            for i, tfn in enumerate(col):
                assert tfn.b == pytest.approx(center.eigenvectors[i, j], abs=1e-12)
                assert tfn.a <= tfn.b <= tfn.c
        wide = measured.cuts_at(0.0)
        narrow = measured.cuts_at(0.5)
        # cuts of the fuzzy shapes widen as alpha drops (before normalization
        # they nest component-wise; compare through the raw TFNs)
        raw = measured.shape_tfns[0][0]
        assert raw.alpha_cut(0.0).width >= raw.alpha_cut(0.5).width
        assert wide.vec_lo.shape == narrow.vec_lo.shape

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
        for stack in result.parameter_stacks + result.output_stacks:
            assert stack.peak.width >= 0.0
            for k in range(stack.n_levels - 1):
                assert stack.intervals[k + 1].lo <= stack.intervals[k].lo
                assert stack.intervals[k].hi <= stack.intervals[k + 1].hi
        for stack in result.parameter_stacks:
            assert stack.peak.width == 0.0

    def test_center_is_peak_of_every_stack(self, aco_result):
        _, result = aco_result
        for i, stack in enumerate(result.parameter_stacks):
            assert stack.peak.lo == result.center[i]

    def test_warm_start_never_worsens(self, aco_result):
        run, result = aco_result
        for k in range(1, run.levels.size):
            measured_k = run.measured.cuts_at(run.levels[k])
            prev = IntervalParameters(
                np.array([s.intervals[k - 1].lo for s in result.parameter_stacks]),
                np.array([s.intervals[k - 1].hi for s in result.parameter_stacks]),
            )
            f_prev = objective_value(run.model, prev, measured_k, run.weights)
            assert result.objective_values[k] <= f_prev + 1e-18

    def test_evaluation_bookkeeping(self, aco_result):
        run, result = aco_result
        for k, hist in enumerate(result.histories):
            expected = run.aco.archive_size + run.aco.n_ants * hist.n_iterations
            assert result.evaluation_counts[k] == expected == hist.n_evaluations

    def test_time_split_and_stop_reasons(self, aco_result):
        run, result = aco_result
        assert result.objective_seconds.shape == result.polish_seconds.shape == (run.levels.size,)
        assert np.all(result.objective_seconds > 0.0) and np.all(result.polish_seconds > 0.0)
        assert np.all(result.objective_seconds + result.polish_seconds <= result.elapsed_seconds)
        for hist in result.histories:
            expected = "max_iterations" if hist.n_iterations == run.aco.max_iterations else "stagnation"
            assert hist.stop_reason == expected

    def test_search_values_match_one_row_objective(self, aco_result):
        # the optimizer's values come from whole-population batches; they
        # must be the very numbers the one-row objective gives, so the
        # polish (which starts from them) can never report a level worse
        run, result = aco_result
        for k, hist in enumerate(result.histories):
            to_params = IntervalParameters.from_point if k == 0 else IntervalParameters.from_flat
            measured_k = run.measured.cuts_at(run.levels[k])
            f = objective_value(run.model, to_params(hist.best_x), measured_k, run.weights)
            assert f == hist.best_f

    def test_containment_of_generating_cuts_aco(self, aco_result):
        run, result = aco_result
        truth = scenarios.THETA_TRUE
        spreads = 0.05 * truth
        slack = 0.01 * (scenarios.THETA_MAX - scenarios.THETA_MIN)
        for i in range(5):
            gen = TriangularFuzzyNumber(truth[i] - spreads[i], truth[i], truth[i] + spreads[i])
            for k, alpha in enumerate(run.levels):
                cut = gen.alpha_cut(alpha)
                iv = result.parameter_stacks[i].intervals[k]
                assert iv.lo <= cut.lo + slack[i]
                assert iv.hi >= cut.hi - slack[i]

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
        centers = run.measured.center_eigenvalues()
        for j, stack in enumerate(result.output_stacks):
            assert stack.support.lo <= centers[j] <= stack.support.hi

    def test_deterministic_rerun(self, aco_result):
        run, result = aco_result
        again = run_ffemu(fuzzy_run("aco"))
        for a, b in zip(result.parameter_stacks, again.parameter_stacks):
            for iva, ivb in zip(a.intervals, b.intervals):
                assert (iva.lo, iva.hi) == (ivb.lo, ivb.hi)
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
            gen = TriangularFuzzyNumber(truth[i] - spreads[i], truth[i], truth[i] + spreads[i])
            for k, alpha in enumerate(run.levels):
                cut = gen.alpha_cut(alpha)
                iv = result.parameter_stacks[i].intervals[k]
                assert iv.lo <= cut.lo + slack[i]
                assert iv.hi >= cut.hi - slack[i]

    def test_pinched_box_collapses_everything(self):
        model = scenarios.five_dof_model()
        theta_p = scenarios.THETA_TRUE * 1.01
        eps = 1e-6 * theta_p
        measured = simulate_measurements(model, scenarios.THETA_TRUE, np.zeros(5), levels=LEVELS4)
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
        for stack in result.parameter_stacks:
            assert stack.support.width <= eps.max()
        crisp_residual = objective_value(
            model,
            IntervalParameters.from_point(theta_p),
            measured.cuts_at(1.0),
            EIG_ONLY,
        )
        assert result.objective_values[0] == pytest.approx(crisp_residual, rel=1e-2)

    def test_mode_count_mismatch_rejected(self):
        measured = simulate_measurements(one_dof_model(), [5.0], [0.5])
        with pytest.raises(ConfigurationError, match="modes"):
            FfemuRun(
                model=scenarios.five_dof_model(),
                measured=measured,
                theta_min=scenarios.THETA_MIN,
                theta_max=scenarios.THETA_MAX,
            )

    def test_unknown_optimizer_rejected(self):
        model = scenarios.five_dof_model()
        measured = simulate_measurements(model, scenarios.THETA_TRUE, np.zeros(5))
        with pytest.raises(ConfigurationError, match="valid choices"):
            FfemuRun(
                model=model,
                measured=measured,
                theta_min=scenarios.THETA_MIN,
                theta_max=scenarios.THETA_MAX,
                optimizer="annealing",
            )


class TestPropagateOutputs:
    def test_degenerate_stacks_give_degenerate_outputs(self):
        model = scenarios.five_dof_model()
        theta = scenarios.THETA_TRUE
        levels = default_levels(4)
        stacks = [
            AlphaCutStack(levels, tuple(Interval(t, t) for _ in range(4))) for t in theta
        ]
        outputs = propagate_outputs(model, stacks)
        lam = model.eigenvalues_batch(theta[None, :])[0]
        for j, stack in enumerate(outputs):
            for iv in stack.intervals:
                assert iv.lo == iv.hi == lam[j]

    def test_one_dof_identity(self):
        stacks = [AlphaCutStack.from_tfn(TriangularFuzzyNumber(4, 5, 6), default_levels())]
        outputs = propagate_outputs(one_dof_model(), stacks)
        for iv_in, iv_out in zip(stacks[0].intervals, outputs[0].intervals):
            assert iv_out.lo == pytest.approx(iv_in.lo, rel=1e-12)
            assert iv_out.hi == pytest.approx(iv_in.hi, rel=1e-12)


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
        rc = load_run_config(self.write_config(tmp_path))
        assert rc.run.optimizer == "aco"
        assert rc.run.seed == 3
        assert rc.run.levels.size == 4
        assert rc.run.aco.max_iterations == 50
        assert not rc.run.measured.is_crisp
        assert rc.bayes is not None and rc.bayes.n_samples == 500
        np.testing.assert_array_equal(rc.run.weights.lower, [1, 1, 1, 1, 1, 0, 0, 0, 0, 0])

    def test_measured_path_resolves_relative(self, tmp_path):
        model = scenarios.five_dof_model()
        measured = simulate_measurements(
            model, scenarios.THETA_TRUE, 0.05 * scenarios.THETA_TRUE, levels=default_levels(4)
        )
        save_measured(measured, tmp_path / "meas.json")
        path = self.write_config(tmp_path, measured="meas.json")
        raw = json.loads(path.read_text())
        del raw["truth"]
        path.write_text(json.dumps(raw))
        rc = load_run_config(path)
        assert rc.run.measured.n_modes == 5

    def test_both_measured_and_truth_rejected(self, tmp_path):
        path = self.write_config(tmp_path, measured="meas.json")
        with pytest.raises(ConfigurationError, match="exactly one"):
            load_run_config(path)

    def test_unknown_optimizer_lists_choices(self, tmp_path):
        path = self.write_config(tmp_path, optimizer="genetic")
        with pytest.raises(ConfigurationError, match="aco, pso"):
            load_run_config(path)

    def test_seed_override(self, tmp_path):
        rc = load_run_config(self.write_config(tmp_path), seed_override=99)
        assert rc.run.seed == 99
        assert rc.bayes.rng_seed == 99

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "bundled"}))
        with pytest.raises(ConfigurationError, match="theta_min"):
            load_run_config(path)

    def test_bad_optimizer_section(self, tmp_path):
        path = self.write_config(tmp_path, aco={"archive_size": 10, "bogus_knob": 1})
        with pytest.raises(ConfigurationError, match="optimizer section"):
            load_run_config(path)
