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
    _shape_errors,
    load_measured,
    objective_value,
    residual_batch,
    residual_vector,
    save_measured,
    vertex_modes,
)


def one_dof_model():
    return StructuralModel(
        masses=np.array([1.0]),
        springs=(SpringElement("k", GROUND, 0, param_index=0),),
        parameter_count=1,
    )


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


def measured_from_params(model, params):
    """Self-consistent measured intervals: regenerate from the candidate itself."""
    lam, vec = vertex_modes(model, params.lower[None, :], params.upper[None, :])
    return MeasuredModalIntervals(lam[0], lam[1], vec[0], vec[1])


def paired_vertex_modes(model, lower, upper):
    """Per-candidate MAC-paired vertex solutions of one box, the reference
    for ``vertex_modes``' shapes.

    The centre and both vertices are solved one at a time; each vertex
    solution is reordered by ``pair_modes`` against the centre, eigenvalues
    included, and its shapes are sign-aligned with the centre's.
    """
    center = model.modal(0.5 * (lower + upper))
    paired = []
    for theta in (lower, upper):
        sol = model.modal(theta)
        perm = pair_modes(center, sol)
        vec = sol.eigenvectors[:, perm]
        flip = np.sum(vec * center.eigenvectors, axis=0) < 0.0
        vec[:, flip] = -vec[:, flip]
        paired.append(ModalSolution(sol.eigenvalues[perm], vec))
    return paired


def reference_shape_errors(measured_cols, predicted_cols):
    """Least-squares-scaled shape residual norms, one mode at a time."""
    errors = []
    for phi_m, phi in zip(measured_cols.T, predicted_cols.T):
        beta = (phi_m @ phi) / (phi @ phi)
        errors.append(np.linalg.norm(phi_m - beta * phi) / np.linalg.norm(phi_m))
    return np.array(errors)


def reference_residual(model, lower, upper, measured, weights):
    """Per-candidate reference row: sorted vertex eigenvalues, paired vertex shapes.

    Without shape weights the eigenvalues come from the eigenvalue-only
    solve, as in ``residual_batch``; it differs from ``modal`` in the last
    bits.
    """
    n = measured.n_modes
    shape_lo, shape_hi = paired_vertex_modes(model, lower, upper)
    lam_lo, lam_hi = model.eigenvalues_batch(np.stack([lower, upper]))
    if np.any(weights.lower[n:]) or np.any(weights.upper[n:]):
        lam_lo, lam_hi = model.modal(lower).eigenvalues, model.modal(upper).eigenvalues
    e_lo = np.concatenate([
        (measured.eig_lo - lam_lo) / measured.eig_lo,
        reference_shape_errors(measured.vec_lo, shape_lo.eigenvectors),
    ])
    e_hi = np.concatenate([
        (lam_hi - measured.eig_hi) / measured.eig_hi,
        reference_shape_errors(measured.vec_hi, shape_hi.eigenvectors),
    ])
    return np.concatenate([np.sqrt(weights.lower) * e_lo, np.sqrt(weights.upper) * e_hi])


class TestIntervalModal:
    def test_degenerate_parameters_give_identical_solutions(self):
        model = scenarios.five_dof_model()
        theta = scenarios.THETA_TRUE[None, :]
        lam, vec = vertex_modes(model, theta, theta)
        np.testing.assert_array_equal(lam[0], lam[1])
        np.testing.assert_array_equal(vec[0], vec[1])

    def test_one_dof_scalar_monotone(self):
        lam, _ = vertex_modes(one_dof_model(), [[4.0]], [[9.0]])
        assert lam[0, 0] == pytest.approx(4.0, rel=1e-12)
        assert lam[1, 0] == pytest.approx(9.0, rel=1e-12)

    def test_bounds_bracket_center(self):
        model = scenarios.five_dof_model()
        params = IntervalParameters(scenarios.THETA_MIN, scenarios.THETA_MAX)
        lam, _ = vertex_modes(model, params.lower[None, :], params.upper[None, :])
        center = model.modal(params.center).eigenvalues
        assert np.all(lam[0] <= center + 1e-12)
        assert np.all(center <= lam[1] + 1e-12)

    def test_vertex_bounds_match_grid_brute_force(self):
        # Oracle: coarse exhaustive grid over all five axes; endpoints are
        # grid points, so under stiffness monotonicity the grid extremes
        # must coincide with the vertex solves.
        model = scenarios.five_dof_model()
        params = IntervalParameters(scenarios.THETA_MIN, scenarios.THETA_MAX)
        lam, _ = vertex_modes(model, params.lower[None, :], params.upper[None, :])
        axes = [np.linspace(lo, hi, 3) for lo, hi in zip(params.lower, params.upper)]
        grid_lo = np.full(model.n_dof, np.inf)
        grid_hi = np.full(model.n_dof, -np.inf)
        for theta in itertools.product(*axes):
            eigs = model.modal(np.array(theta)).eigenvalues
            grid_lo = np.minimum(grid_lo, eigs)
            grid_hi = np.maximum(grid_hi, eigs)
        np.testing.assert_allclose(lam[0], grid_lo, rtol=1e-3)
        np.testing.assert_allclose(lam[1], grid_hi, rtol=1e-3)
        # vertex solves can never be inside the grid range
        assert np.all(lam[0] <= grid_lo + 1e-9)
        assert np.all(lam[1] >= grid_hi - 1e-9)

    @pytest.mark.parametrize("kind", ["bundled", "crossing"])
    def test_interior_points_lie_within_sorted_vertex_eigenvalues(self, kind):
        # Courant-Fischer: each sorted eigenvalue is monotone in each
        # stiffness, so the vertices bound it over the box, also where
        # modes cross (the 2-mass model's boxes straddle k0 = k1)
        if kind == "bundled":
            model, lo, hi = scenarios.five_dof_model(), scenarios.THETA_MIN, scenarios.THETA_MAX
        else:
            model, lo, hi = two_mass_model(), np.full(2, 0.5), np.full(2, 2.5)
        rng = np.random.default_rng(71)
        for _ in range(20):
            a, b = rng.uniform(lo, hi, (2, lo.size))
            lower, upper = np.minimum(a, b), np.maximum(a, b)
            interior = lower + rng.uniform(size=(200, lo.size)) * (upper - lower)
            lam = model.eigenvalues_batch(interior)
            bounds = model.eigenvalues_batch(np.stack([lower, upper]))
            slack = 1e-12 * bounds[1].max()
            assert np.all(bounds[0] - slack <= lam)
            assert np.all(lam <= bounds[1] + slack)


class TestModalScaleFactor:
    # the least-squares scale that aligns a predicted shape with a measured
    # one, as ``_shape_errors`` computes it inline
    def test_identical_unit_vectors(self):
        v = np.array([[0.6], [0.8]])
        assert _shape_errors(v, v)[0] == pytest.approx(0.0, abs=1e-15)

    def test_pure_scaling(self):
        v = np.array([[0.6], [0.8]])
        assert _shape_errors(2.0 * v, v)[0] == pytest.approx(0.0, abs=1e-15)

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
        oracle = errs.min() / np.linalg.norm(phi_m)
        value = _shape_errors(phi_m[:, None], phi[:, None])[0]
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value <= oracle  # the scale is the exact minimizer

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            _shape_errors(np.ones((3, 1)), np.zeros((3, 1)))


class TestErrorVectors:
    # residual_vector with identity weights is the error vector pair
    # [e_lo, e_hi], each n eigenvalue errors followed by n shape errors
    def test_exact_match_gives_zeros(self):
        model = scenarios.five_dof_model()
        params = IntervalParameters(0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        measured = measured_from_params(model, params)
        r = residual_vector(model, params, measured, WeightingConfig.identity(5))
        # eigenvalue entries are bitwise zero; shape entries only pick up
        # the last-ulp renormalization of the stored measured vectors
        np.testing.assert_array_equal(r[:5], np.zeros(5))
        np.testing.assert_array_equal(r[10:15], np.zeros(5))
        np.testing.assert_allclose(r, np.zeros(20), atol=1e-15)

    def test_lower_eigenvalue_error_hand_value(self):
        phi = np.array([[1.0]])
        measured = MeasuredModalIntervals([100.0], [100.0], phi, phi)
        params = IntervalParameters([90.0], [100.0])
        r = residual_vector(one_dof_model(), params, measured, WeightingConfig.identity(1))
        np.testing.assert_allclose(r, [0.1, 0.0, 0.0, 0.0], atol=1e-15)

    def test_upper_eigenvalue_error_hand_value(self):
        phi = np.array([[1.0]])
        measured = MeasuredModalIntervals([100.0], [100.0], phi, phi)
        params = IntervalParameters([100.0], [110.0])
        r = residual_vector(one_dof_model(), params, measured, WeightingConfig.identity(1))
        assert r[2] == pytest.approx(0.1, rel=1e-12)

    def test_invariant_to_predicted_vector_scaling(self):
        rng = np.random.default_rng(23)
        n = 4
        vecs = np.linalg.qr(rng.standard_normal((n, n)))[0]
        pred = vecs + 0.05 * rng.standard_normal((n, n))
        np.testing.assert_allclose(
            _shape_errors(vecs, -7.3 * pred), _shape_errors(vecs, pred), atol=1e-12
        )

    def test_widening_beyond_measured_increases_error(self):
        model = one_dof_model()
        phi = np.array([[1.0]])
        measured = MeasuredModalIntervals([4.0], [9.0], phi, phi)
        widths = []
        for lo in (4.0, 3.5, 3.0):
            params = IntervalParameters([lo], [9.0])
            r = residual_vector(model, params, measured, WeightingConfig.identity(1))
            widths.append(abs(r[0]))
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


def reference_project(region, x):
    """Projection as two clips plus a crossed-bound repair on every region.

    The reference for ``FeasibleRegion.project``: the lower half clipped to
    [theta_min, prev_lower], the upper half to [prev_upper, theta_max]
    (the global box without anchors), then crossed components collapsed
    to their midpoint clamped into both ranges.
    """
    x = np.asarray(x, dtype=float)
    d = region.theta_min.size
    lo_hi = region.theta_max if region.prev_lower is None else region.prev_lower
    hi_lo = region.theta_min if region.prev_upper is None else region.prev_upper
    lower = np.clip(x[..., :d], region.theta_min, lo_hi)
    upper = np.clip(x[..., d:], hi_lo, region.theta_max)
    crossed = lower > upper
    if np.any(crossed):
        mid = 0.5 * (lower + upper)
        lower = np.where(crossed, np.clip(mid, region.theta_min, lo_hi), lower)
        upper = np.where(crossed, np.clip(mid, hi_lo, region.theta_max), upper)
    return np.concatenate([lower, upper], axis=-1)


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_two_clip_reference(self, seed):
        rng = np.random.default_rng(seed)
        tmin = rng.uniform(100.0, 200.0, 3)
        tmax = tmin + rng.uniform(50.0, 400.0, 3)
        prev_lower = rng.uniform(tmin, tmax)
        prev_upper = rng.uniform(prev_lower, tmax)
        anchored = FeasibleRegion(tmin, tmax, prev_lower, prev_upper)
        pinched = FeasibleRegion(tmin, tmax, prev_lower, prev_lower)  # zero-width anchor
        free = FeasibleRegion(tmin, tmax)
        rows = rng.uniform(tmin.min() - 100.0, tmax.max() + 100.0, (500, 6))
        rows[::7, 3:] = rows[::7, :3] - 1.0  # crossed on purpose
        crossed = 0
        for region in (anchored, pinched, free):
            expected = reference_project(region, rows)
            got = region.project(rows)
            assert got.tobytes() == expected.tobytes()
            assert region.project(rows[5]).tobytes() == expected[5].tobytes()
            crossed += int(np.sum(np.clip(rows[:, :3], tmin, tmax) > np.clip(rows[:, 3:], tmin, tmax)))
        assert crossed > 0  # the unanchored region took the repair

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

    @pytest.mark.parametrize("eigenvector_weight", [0.0, 1.0])
    def test_in_place_buffer_equals_scaled_concatenation(self, eigenvector_weight):
        # reference layout: two zeroed (m, 2n) error blocks, each scaled by
        # sqrt(weights) as a whole row, then concatenated
        model = scenarios.five_dof_model()
        measured = measured_from_params(
            model, IntervalParameters(0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        )
        weights = WeightingConfig.from_scalars(5, 0.7, eigenvector_weight)
        lower, upper = self.population(61)
        m, n = len(lower), 5
        e_lo, e_hi = np.zeros((m, 2 * n)), np.zeros((m, 2 * n))
        if eigenvector_weight:
            lam, vec = vertex_modes(model, lower, upper)
            e_lo[:, n:] = _shape_errors(measured.vec_lo, vec[:m])
            e_hi[:, n:] = _shape_errors(measured.vec_hi, vec[m:])
        else:
            lam = model.eigenvalues_batch(np.concatenate([lower, upper]))
        e_lo[:, :n] = (measured.eig_lo - lam[:m]) / measured.eig_lo
        e_hi[:, :n] = (lam[m:] - measured.eig_hi) / measured.eig_hi
        expected = np.concatenate(
            [np.sqrt(weights.lower) * e_lo, np.sqrt(weights.upper) * e_hi], axis=1
        )
        got = residual_batch(model, lower, upper, measured, weights)
        assert got.tobytes() == expected.tobytes()

    def test_crossing_modes_take_the_pairing_fallback(self):
        # the upper vertex has k0 > k1 while the centre has k0 < k1: sorted
        # order swaps the two localized modes, so its MAC diagonal does not
        # dominate and pairing must reorder the shapes
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
        # the upper eigenvalues stay sorted on the crossing row; only the
        # shapes are paired
        e_hi = batch[0, 4:6] / np.sqrt(weights.upper[:2])
        lam_hi = e_hi * measured.eig_hi + measured.eig_hi
        assert lam_hi[0] < lam_hi[1]

    def test_eigenvalue_rows_are_sorted_vertex_bounds_on_a_wide_box(self):
        # the bundled box with every half-width tripled about its centre,
        # clipped below at 200 N/m: modes cross inside some of its boxes,
        # and there the MAC-paired vertex eigenvalues are not the bounds
        model = scenarios.five_dof_model()
        mid = 0.5 * (scenarios.THETA_MIN + scenarios.THETA_MAX)
        half = 1.5 * (scenarios.THETA_MAX - scenarios.THETA_MIN)
        lo, hi = np.maximum(mid - half, 200.0), mid + half
        rng = np.random.default_rng(73)
        a, b = rng.uniform(lo, hi, (2, 400, 5))
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        measured = measured_from_params(model, IntervalParameters(0.9 * mid, 1.1 * mid))
        batch = residual_batch(model, lower, upper, measured, WeightingConfig.from_scalars(5, 1.0, 0.0))
        sorted_lo = np.array([model.modal(x).eigenvalues for x in lower])
        sorted_hi = np.array([model.modal(x).eigenvalues for x in upper])
        np.testing.assert_allclose(
            batch[:, :5], (measured.eig_lo - sorted_lo) / measured.eig_lo, rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            batch[:, 10:15], (sorted_hi - measured.eig_hi) / measured.eig_hi, rtol=0, atol=1e-13
        )
        paired = [paired_vertex_modes(model, x, y) for x, y in zip(lower, upper)]
        paired_lo = np.array([p[0].eigenvalues for p in paired])
        paired_hi = np.array([p[1].eigenvalues for p in paired])
        crossed = np.any(paired_lo != sorted_lo, axis=1) | np.any(paired_hi != sorted_hi, axis=1)
        assert crossed.sum() >= 3

    def test_eigenvalue_only_rows_never_solve_mode_shapes(self, monkeypatch):
        model = scenarios.five_dof_model()
        measured = measured_from_params(
            model, IntervalParameters(0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        )
        lower, upper = self.population(67)

        def modal_batch(self, thetas):
            raise AssertionError("eigenvalue-only residuals solved for mode shapes")

        monkeypatch.setattr(StructuralModel, "modal_batch", modal_batch)
        weights = WeightingConfig.from_scalars(5, 1.0, 0.0)
        assert residual_batch(model, lower, upper, measured, weights).shape == (30, 20)

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
