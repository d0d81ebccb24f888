"""Tests for the interval modal objective and feasible-region projection."""

import itertools

import numpy as np
import pytest

from ffemu import scenarios
from ffemu.errors import ConfigurationError, DegenerateVectorError, DomainError
from ffemu.fuzzy import TriangularFuzzyNumber
from ffemu.linalg import ModalSolution, pair_modes
from ffemu.model import GROUND, SpringElement, StructuralModel
from ffemu.objective import (
    FeasibleRegion,
    IntervalParameters,
    MeasuredFuzzyModalData,
    MeasuredModalIntervals,
    WeightingConfig,
    error_vectors,
    interval_modal,
    load_measured,
    modal_scale_factor,
    objective_value,
    residual_batch,
    residual_vector,
    save_measured,
)


def one_dof_model():
    return StructuralModel(
        masses=np.array([1.0]),
        springs=(SpringElement("k", GROUND, 0, param_index=0),),
        parameter_count=1,
    )


def measured_from_params(model, params):
    """Self-consistent measured intervals: regenerate from the candidate itself."""
    lower, upper = interval_modal(model, params)
    return MeasuredModalIntervals(
        lower.eigenvalues, upper.eigenvalues, lower.eigenvectors, upper.eigenvectors
    )


class TestIntervalModal:
    def test_degenerate_parameters_give_identical_solutions(self):
        model = scenarios.five_dof_model()
        params = IntervalParameters.from_point(scenarios.THETA_TRUE)
        lower, upper = interval_modal(model, params)
        np.testing.assert_array_equal(lower.eigenvalues, upper.eigenvalues)
        np.testing.assert_array_equal(lower.eigenvectors, upper.eigenvectors)

    def test_one_dof_scalar_monotone(self):
        lower, upper = interval_modal(one_dof_model(), IntervalParameters([4.0], [9.0]))
        assert lower.eigenvalues[0] == pytest.approx(4.0, rel=1e-12)
        assert upper.eigenvalues[0] == pytest.approx(9.0, rel=1e-12)

    def test_bounds_bracket_center(self):
        model = scenarios.five_dof_model()
        params = IntervalParameters(scenarios.THETA_MIN, scenarios.THETA_MAX)
        lower, upper = interval_modal(model, params)
        center = model.modal(params.center).eigenvalues
        assert np.all(lower.eigenvalues <= center + 1e-12)
        assert np.all(center <= upper.eigenvalues + 1e-12)

    def test_vertex_bounds_match_grid_brute_force(self):
        # Oracle: coarse exhaustive grid over all five axes; endpoints are
        # grid points, so under stiffness monotonicity the grid extremes
        # must coincide with the vertex solves.
        model = scenarios.five_dof_model()
        params = IntervalParameters(scenarios.THETA_MIN, scenarios.THETA_MAX)
        lower, upper = interval_modal(model, params)
        axes = [np.linspace(lo, hi, 3) for lo, hi in zip(params.lower, params.upper)]
        grid_lo = np.full(model.n_dof, np.inf)
        grid_hi = np.full(model.n_dof, -np.inf)
        for theta in itertools.product(*axes):
            lam = model.modal(np.array(theta)).eigenvalues
            grid_lo = np.minimum(grid_lo, lam)
            grid_hi = np.maximum(grid_hi, lam)
        np.testing.assert_allclose(lower.eigenvalues, grid_lo, rtol=1e-3)
        np.testing.assert_allclose(upper.eigenvalues, grid_hi, rtol=1e-3)
        # vertex solves can never be inside the grid range
        assert np.all(lower.eigenvalues <= grid_lo + 1e-9)
        assert np.all(upper.eigenvalues >= grid_hi - 1e-9)


class TestModalScaleFactor:
    def test_identical_unit_vectors(self):
        v = np.array([0.6, 0.8])
        assert modal_scale_factor(v, v) == pytest.approx(1.0, rel=1e-15)

    def test_pure_scaling(self):
        v = np.array([0.6, 0.8])
        assert modal_scale_factor(2.0 * v, v) == pytest.approx(2.0, rel=1e-15)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(13)
        phi_m = rng.standard_normal(5)
        phi = rng.standard_normal(5)
        # independent oracle: two-stage 1-D grid minimization of the residual
        coarse = np.linspace(-10.0, 10.0, 20001)
        errs = np.linalg.norm(phi_m[:, None] - coarse[None, :] * phi[:, None], axis=0)
        best = coarse[np.argmin(errs)]
        fine = np.linspace(best - 1e-3, best + 1e-3, 20001)
        errs = np.linalg.norm(phi_m[:, None] - fine[None, :] * phi[:, None], axis=0)
        oracle = fine[np.argmin(errs)]
        assert modal_scale_factor(phi_m, phi) == pytest.approx(oracle, abs=1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            modal_scale_factor(np.ones(3), np.zeros(3))


class TestErrorVectors:
    def test_exact_match_gives_zeros(self):
        model = scenarios.five_dof_model()
        params = IntervalParameters(0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        measured = measured_from_params(model, params)
        lower, upper = interval_modal(model, params)
        e_lo, e_hi = error_vectors(measured, lower, upper)
        # eigenvalue entries are bitwise zero; shape entries only pick up
        # the last-ulp renormalization of the stored measured vectors
        np.testing.assert_array_equal(e_lo[:5], np.zeros(5))
        np.testing.assert_array_equal(e_hi[:5], np.zeros(5))
        np.testing.assert_allclose(e_lo, np.zeros(10), atol=1e-15)
        np.testing.assert_allclose(e_hi, np.zeros(10), atol=1e-15)

    def test_lower_eigenvalue_error_hand_value(self):
        phi = np.array([[1.0]])
        measured = MeasuredModalIntervals([100.0], [100.0], phi, phi)
        pred_lo = ModalSolution(np.array([90.0]), phi)
        pred_hi = ModalSolution(np.array([100.0]), phi)
        e_lo, e_hi = error_vectors(measured, pred_lo, pred_hi)
        np.testing.assert_allclose(e_lo, [0.1, 0.0])
        np.testing.assert_allclose(e_hi, [0.0, 0.0])

    def test_upper_eigenvalue_error_hand_value(self):
        phi = np.array([[1.0]])
        measured = MeasuredModalIntervals([100.0], [100.0], phi, phi)
        pred_hi = ModalSolution(np.array([110.0]), phi)
        pred_lo = ModalSolution(np.array([100.0]), phi)
        e_lo, e_hi = error_vectors(measured, pred_lo, pred_hi)
        assert e_hi[0] == pytest.approx(0.1, rel=1e-12)

    def test_invariant_to_predicted_vector_scaling(self):
        rng = np.random.default_rng(23)
        n = 4
        vecs = np.linalg.qr(rng.standard_normal((n, n)))[0]
        measured = MeasuredModalIntervals(
            np.arange(1.0, n + 1), np.arange(2.0, n + 2), vecs, vecs
        )
        pred = ModalSolution(np.arange(1.0, n + 1), vecs + 0.05 * rng.standard_normal((n, n)))
        scaled = ModalSolution(pred.eigenvalues.copy(), pred.eigenvectors * -7.3)
        e_ref = error_vectors(measured, pred, pred)
        e_scaled = error_vectors(measured, scaled, scaled)
        np.testing.assert_allclose(e_scaled[0], e_ref[0], atol=1e-12)
        np.testing.assert_allclose(e_scaled[1], e_ref[1], atol=1e-12)

    def test_widening_beyond_measured_increases_error(self):
        model = one_dof_model()
        phi = np.array([[1.0]])
        measured = MeasuredModalIntervals([4.0], [9.0], phi, phi)
        widths = []
        for lo in (4.0, 3.5, 3.0):
            pred_lo, pred_hi = interval_modal(model, IntervalParameters([lo], [9.0]))
            e_lo, _ = error_vectors(measured, pred_lo, pred_hi)
            widths.append(abs(e_lo[0]))
        assert widths[0] < widths[1] < widths[2]


class TestObjective:
    def test_self_consistency_is_exactly_zero(self):
        model = scenarios.five_dof_model()
        params = IntervalParameters(0.96 * scenarios.THETA_TRUE, 1.02 * scenarios.THETA_TRUE)
        measured = measured_from_params(model, params)
        value = objective_value(model, params, measured, WeightingConfig.identity(5))
        assert 0.0 <= value <= 1e-16

    def test_one_dof_hand_sum(self):
        # both branches off by 10% -> 0.1^2 + 0.1^2
        model = one_dof_model()
        phi = np.array([[1.0]])
        measured = MeasuredModalIntervals([100.0], [100.0], phi, phi)
        params = IntervalParameters([90.0], [110.0])
        value = objective_value(model, params, measured, WeightingConfig.identity(1))
        assert value == pytest.approx(0.02, rel=1e-12)

    def test_doubling_lower_weights_doubles_lower_contribution(self):
        model = one_dof_model()
        phi = np.array([[1.0]])
        measured = MeasuredModalIntervals([100.0], [100.0], phi, phi)
        params = IntervalParameters([90.0], [100.0])  # only the lower branch errs
        w1 = objective_value(model, params, measured, WeightingConfig.identity(1))
        w2 = objective_value(
            model, params, measured,
            WeightingConfig(lower=2.0 * np.ones(2), upper=np.ones(2)),
        )
        assert w2 == pytest.approx(2.0 * w1, rel=1e-15)

    def test_nonnegative_on_random_candidates(self):
        model = scenarios.five_dof_model()
        measured = measured_from_params(
            model, IntervalParameters(0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        )
        rng = np.random.default_rng(31)
        weights = WeightingConfig.identity(5)
        for _ in range(25):
            a = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX)
            b = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX)
            params = IntervalParameters(np.minimum(a, b), np.maximum(a, b))
            assert objective_value(model, params, measured, weights) >= 0.0


class TestProjection:
    def region(self):
        return FeasibleRegion(
            theta_min=np.array([0.0, 0.0]),
            theta_max=np.array([10.0, 10.0]),
            prev_lower=np.array([4.0, 5.0]),
            prev_upper=np.array([6.0, 7.0]),
        )

    def test_feasible_candidate_unchanged(self):
        p = IntervalParameters([3.0, 4.0], [7.0, 8.0])
        out = self.region().project_interval(p)
        np.testing.assert_array_equal(out.lower, p.lower)
        np.testing.assert_array_equal(out.upper, p.upper)

    def test_upper_snapped_to_previous_upper(self):
        p = IntervalParameters([3.0, 4.0], [5.0, 6.5])
        out = self.region().project_interval(p)
        np.testing.assert_array_equal(out.upper, [6.0, 7.0])

    def test_lower_snapped_into_range(self):
        p = IntervalParameters([5.0, 6.0], [7.0, 8.0])
        out = self.region().project_interval(p)
        np.testing.assert_array_equal(out.lower, [4.0, 5.0])

    def test_crossed_candidate_collapses_to_midpoint(self):
        region = FeasibleRegion(theta_min=np.array([0.0]), theta_max=np.array([10.0]))
        out = region.project(np.array([5.0, 3.0]))
        np.testing.assert_array_equal(out, [4.0, 4.0])

    def test_row_stack_matches_row_by_row(self):
        # with and without previous-level anchors; the unanchored region
        # also exercises the crossed-bound repair
        anchored = self.region()
        free = FeasibleRegion(theta_min=np.zeros(2), theta_max=np.full(2, 10.0))
        rows = np.random.default_rng(47).uniform(-5.0, 15.0, (50, 4))
        for region in (anchored, free):
            expected = np.array([region.project(x) for x in rows])
            np.testing.assert_array_equal(region.project(rows), expected)

    def test_idempotent(self):
        region = self.region()
        rng = np.random.default_rng(41)
        for _ in range(200):
            x = rng.uniform(-5.0, 15.0, 4)
            once = region.project(x)
            np.testing.assert_array_equal(region.project(once), once)

    def test_projected_point_satisfies_constraints(self):
        region = self.region()
        rng = np.random.default_rng(43)
        for _ in range(200):
            out = region.project(rng.uniform(-5.0, 15.0, 4))
            lower, upper = out[:2], out[2:]
            assert np.all(region.theta_min <= lower)
            assert np.all(lower <= region.prev_lower)
            assert np.all(region.prev_upper <= upper)
            assert np.all(upper <= region.theta_max)

    def test_infeasible_region_rejected(self):
        with pytest.raises(ConfigurationError):
            FeasibleRegion(
                theta_min=np.array([0.0]),
                theta_max=np.array([1.0]),
                prev_lower=np.array([2.0]),
                prev_upper=np.array([3.0]),
            )

    def test_flat_bounds_views(self):
        region = self.region()
        np.testing.assert_array_equal(region.lo, [0.0, 0.0, 6.0, 7.0])
        np.testing.assert_array_equal(region.hi, [4.0, 5.0, 10.0, 10.0])


def two_mass_model(coupling=0.01):
    """Two unit masses, each grounded by a parameter spring, weakly coupled.

    The modes localize on one mass each, so they swap order where k0 and
    k1 cross.
    """
    return StructuralModel(
        masses=np.array([1.0, 1.0]),
        springs=(
            SpringElement("k0", GROUND, 0, param_index=0),
            SpringElement("k1", GROUND, 1, param_index=1),
            SpringElement("c", 0, 1, stiffness=coupling),
        ),
        parameter_count=2,
    )


def reference_residual(model, lower, upper, measured, weights):
    """Per-candidate reference: vertex solves, pairing and error vectors."""
    pred_lo, pred_hi = interval_modal(model, IntervalParameters(lower, upper))
    e_lo, e_hi = error_vectors(measured, pred_lo, pred_hi)
    return np.concatenate([np.sqrt(weights.lower) * e_lo, np.sqrt(weights.upper) * e_hi])


class TestResidualBatch:
    def population(self, seed, m=30):
        rng = np.random.default_rng(seed)
        a = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX, (m, 5))
        b = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX, (m, 5))
        return np.minimum(a, b), np.maximum(a, b)

    @pytest.mark.parametrize("eigenvector_weight", [0.0, 1.0])
    def test_rows_match_per_candidate_reference(self, eigenvector_weight):
        model = scenarios.five_dof_model()
        measured = measured_from_params(
            model, IntervalParameters(0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        )
        weights = WeightingConfig.from_scalars(5, 1.0, eigenvector_weight)
        lower, upper = self.population(53)
        batch = residual_batch(model, lower, upper, measured, weights)
        assert batch.shape == (30, 20)
        for row, lo, hi in zip(batch, lower, upper):
            ref = reference_residual(model, lo, hi, measured, weights)
            assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()
            one_row = residual_vector(model, IntervalParameters(lo, hi), measured, weights)
            np.testing.assert_array_equal(one_row, row)

    def test_crossing_modes_take_the_pairing_fallback(self):
        # the upper vertex has k0 > k1 while the centre has k0 < k1: sorted
        # order swaps the two localized modes, so its MAC diagonal does not
        # dominate and pairing must reorder them
        model = two_mass_model()
        lower = np.array([[1.0, 1.9], [1.0, 1.9]])
        upper = np.array([[2.2, 2.0], [1.2, 2.0]])  # row 1 does not cross
        crossing = IntervalParameters(lower[0], upper[0])
        center = model.modal(crossing.center)
        assert pair_modes(center, model.modal(crossing.upper)).tolist() == [1, 0]
        measured = MeasuredModalIntervals([0.9, 1.8], [2.1, 2.3], np.eye(2), np.eye(2))
        weights = WeightingConfig.identity(2)
        batch = residual_batch(model, lower, upper, measured, weights)
        for row, lo, hi in zip(batch, lower, upper):
            ref = reference_residual(model, lo, hi, measured, weights)
            assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()
        # paired upper eigenvalues are out of ascending order on the crossing row
        e_hi = batch[0, 4:6] / np.sqrt(weights.upper[:2])
        lam_hi = e_hi * measured.eig_hi + measured.eig_hi
        assert lam_hi[0] > lam_hi[1]

    def test_nonpositive_row_rejected(self):
        model = scenarios.five_dof_model()
        measured = measured_from_params(model, IntervalParameters.from_point(scenarios.THETA_TRUE))
        lower, upper = self.population(59, m=4)
        lower[2, 1] = 0.0
        with pytest.raises(DomainError):
            residual_batch(model, lower, upper, measured, WeightingConfig.identity(5))

    def test_crossed_row_rejected(self):
        model = scenarios.five_dof_model()
        measured = measured_from_params(model, IntervalParameters.from_point(scenarios.THETA_TRUE))
        lower, upper = self.population(61, m=4)
        with pytest.raises(DomainError, match="crossed"):
            residual_batch(model, upper, lower, measured, WeightingConfig.identity(5))


class TestMeasuredData:
    def make_data(self, crisp=False):
        spread = 0.0 if crisp else 0.1
        tfns = [
            TriangularFuzzyNumber(100.0 * (1 - spread), 100.0, 100.0 * (1 + spread)),
            TriangularFuzzyNumber(200.0 * (1 - spread), 200.0, 200.0 * (1 + spread)),
        ]
        vecs = np.array([[0.8, -0.6], [0.6, 0.8]]).T
        return MeasuredFuzzyModalData(tfns, vecs)

    def test_cuts_at_peak_are_degenerate(self):
        cuts = self.make_data().cuts_at(1.0)
        np.testing.assert_array_equal(cuts.eig_lo, cuts.eig_hi)

    def test_crisp_detection(self):
        assert self.make_data(crisp=True).is_crisp
        assert not self.make_data().is_crisp

    def test_save_load_round_trip_hz(self, tmp_path):
        data = self.make_data()
        path = tmp_path / "measured.json"
        save_measured(data, path)
        loaded = load_measured(path)
        for a, b in zip(data.eigenvalue_tfns, loaded.eigenvalue_tfns):
            assert b.a == pytest.approx(a.a, rel=1e-14)
            assert b.b == pytest.approx(a.b, rel=1e-14)
            assert b.c == pytest.approx(a.c, rel=1e-14)
        np.testing.assert_allclose(loaded.mode_shapes, data.mode_shapes, atol=1e-15)

    def test_save_load_round_trip_eigenvalue_units(self, tmp_path):
        data = self.make_data()
        path = tmp_path / "measured.json"
        save_measured(data, path, units="eigenvalue")
        loaded = load_measured(path)
        for a, b in zip(data.eigenvalue_tfns, loaded.eigenvalue_tfns):
            assert (b.a, b.b, b.c) == (a.a, a.b, a.c)

    def test_shape_tfns_round_trip_and_cuts(self, tmp_path):
        tfns = [TriangularFuzzyNumber(90.0, 100.0, 115.0)]
        shape = [[TriangularFuzzyNumber(0.9, 1.0, 1.05)]]
        data = MeasuredFuzzyModalData(tfns, np.array([[1.0]]), shape)
        path = tmp_path / "measured.json"
        save_measured(data, path)
        loaded = load_measured(path)
        cuts = loaded.cuts_at(0.0)
        assert cuts.vec_lo[0, 0] == pytest.approx(0.9 / 0.9)  # normalized columns
        raw = loaded.shape_tfns[0][0]
        assert (raw.a, raw.b, raw.c) == (0.9, 1.0, 1.05)

    def test_nonpositive_eigenvalue_support_rejected(self):
        with pytest.raises(DomainError):
            MeasuredFuzzyModalData(
                [TriangularFuzzyNumber(-1.0, 1.0, 2.0)], np.array([[1.0]])
            )
