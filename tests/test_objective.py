"""Tests for the interval modal objective, its mode bookkeeping (MAC and
mode pairing) and the level search box's projection."""

import itertools
import json

import numpy as np
import pytest

from reference import generalized_eig
from test_reference import random_spd

from ffemu import scenarios
from ffemu.errors import ConfigurationError, DegenerateVectorError, DomainError, ShapeError
from ffemu.model import GROUND, SpringElement, StructuralModel, resolve_model
from ffemu.objective import (
    MeasuredFuzzyModalData,
    _shape_errors,
    load_measured,
    mac_matrix,
    pair_modes,
    residual_batch,
    save_measured,
    unit_columns,
    vertex_modes,
)
from ffemu.optim import Box


def one_dof_model():
    return StructuralModel(
        masses=np.array([1.0]),
        springs=(SpringElement("k", GROUND, 0, param_index=0),),
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
    )


def rows(lower, upper):
    """(m, 2d) box rows [lower | upper] from (m, d) lower and upper vertices."""
    return np.hstack([lower, upper])


def measured_from_box(model, lower, upper):
    """Self-consistent measured cuts: regenerate from the box (lower, upper) itself."""
    (lam,), (vec,) = vertex_modes(model, rows([lower], [upper]))
    return lam[0], lam[1], unit_columns(vec[0]), unit_columns(vec[1])


def crisp_shapes(shapes):
    """The degenerate (n_dof, n, 3) shape triangles (u, u, u) of (n_dof, n) shapes."""
    return np.stack([np.asarray(shapes, dtype=float)] * 3, axis=-1)


def cuts_of(eig_lo, eig_hi, vec_lo, vec_hi):
    """Measured cuts from lists: (n,) eigenvalue bounds, (n_dof, n) unit shapes."""
    return tuple(np.asarray(v, dtype=float) for v in (eig_lo, eig_hi, vec_lo, vec_hi))


def modal_row(model, theta):
    """Eigenvalues (n,) and mode shapes (n, n) at one parameter vector: a
    one-row ``modal_batch``."""
    lam, phi = model.modal_batch(np.asarray(theta, dtype=float)[None, :])
    return lam[0], phi[0]


def paired_vertex_modes(model, lower, upper):
    """Per-candidate MAC-paired vertex solutions ``(lam, vec)`` of one box,
    the reference for ``vertex_modes``' shapes.

    The centre and both vertices are solved one at a time; each vertex
    solution is reordered by ``pair_modes`` against the centre, eigenvalues
    included, and its shapes are sign-aligned with the centre's.
    """
    center_lam, center_vec = modal_row(model, 0.5 * (lower + upper))
    paired = []
    for theta in (lower, upper):
        lam, vec = modal_row(model, theta)
        perm = pair_modes(mac_matrix(center_vec, vec), center_lam, lam)
        vec = vec[:, perm]
        flip = np.sum(vec * center_vec, axis=0) < 0.0
        vec[:, flip] = -vec[:, flip]
        paired.append((lam[perm], vec))
    return paired


def reference_shape_errors(measured_cols, predicted_cols):
    """Least-squares-scaled shape residual norms, one mode at a time."""
    errors = []
    for phi_m, phi in zip(measured_cols.T, predicted_cols.T):
        beta = (phi_m @ phi) / (phi @ phi)
        errors.append(np.linalg.norm(phi_m - beta * phi) / np.linalg.norm(phi_m))
    return np.array(errors)


def reference_residual(model, lower, upper, cuts, weights):
    """Per-candidate reference row: sorted vertex eigenvalues, paired vertex shapes.

    Without a shape weight the eigenvalues come from the eigenvalue-only
    solve, as in ``residual_batch``; it differs from ``modal_batch`` in the
    last bits.
    """
    eig_lo, eig_hi, vec_lo, vec_hi = cuts
    root = np.repeat(np.sqrt(weights), eig_lo.size)
    (_, shape_lo), (_, shape_hi) = paired_vertex_modes(model, lower, upper)
    lam_lo, lam_hi = model.eigenvalues_batch(np.stack([lower, upper]))
    if weights[1]:
        lam_lo, lam_hi = model.modal_batch(np.stack([lower, upper]))[0]
    e_lo = np.concatenate([
        (eig_lo - lam_lo) / eig_lo,
        reference_shape_errors(vec_lo, shape_lo),
    ])
    e_hi = np.concatenate([
        (lam_hi - eig_hi) / eig_hi,
        reference_shape_errors(vec_hi, shape_hi),
    ])
    return np.concatenate([root * e_lo, root * e_hi])


class TestIntervalModal:
    def test_degenerate_parameters_give_identical_solutions(self):
        model = resolve_model("bundled")
        theta = scenarios.THETA_TRUE[None, :]
        (lam,), (vec,) = vertex_modes(model, rows(theta, theta))
        np.testing.assert_array_equal(lam[0], lam[1])
        np.testing.assert_array_equal(vec[0], vec[1])

    def test_one_dof_scalar_monotone(self):
        (lam,), _ = vertex_modes(one_dof_model(), rows([[4.0]], [[9.0]]))
        assert lam[0, 0] == pytest.approx(4.0, rel=1e-12)
        assert lam[1, 0] == pytest.approx(9.0, rel=1e-12)

    def test_bounds_bracket_center(self):
        model = resolve_model("bundled")
        lower, upper = scenarios.THETA_MIN, scenarios.THETA_MAX
        (lam,), _ = vertex_modes(model, rows([lower], [upper]))
        center, _ = modal_row(model, 0.5 * (lower + upper))
        assert np.all(lam[0] <= center + 1e-12)
        assert np.all(center <= lam[1] + 1e-12)

    def test_vertex_bounds_match_grid_brute_force(self):
        # Oracle: coarse exhaustive grid over all five axes; endpoints are
        # grid points, so under stiffness monotonicity the grid extremes
        # must coincide with the vertex solves.
        model = resolve_model("bundled")
        lower, upper = scenarios.THETA_MIN, scenarios.THETA_MAX
        (lam,), _ = vertex_modes(model, rows([lower], [upper]))
        axes = [np.linspace(lo, hi, 3) for lo, hi in zip(lower, upper)]
        grid_lo = np.full(model.n_dof, np.inf)
        grid_hi = np.full(model.n_dof, -np.inf)
        for theta in itertools.product(*axes):
            eigs, _ = modal_row(model, theta)
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
            model, lo, hi = resolve_model("bundled"), scenarios.THETA_MIN, scenarios.THETA_MAX
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
    # a one-row residual_batch with unit weights is the error vector
    # pair [e_lo, e_hi], each n eigenvalue errors followed by n shape errors
    def test_exact_match_gives_zeros(self):
        model = resolve_model("bundled")
        lower, upper = 0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE
        measured = measured_from_box(model, lower, upper)
        r = residual_batch(model, rows([lower], [upper]), measured, (1.0, 1.0))[0]
        # eigenvalue entries are bitwise zero; shape entries only pick up
        # the last-ulp renormalization of the stored measured vectors
        np.testing.assert_array_equal(r[:5], np.zeros(5))
        np.testing.assert_array_equal(r[10:15], np.zeros(5))
        np.testing.assert_allclose(r, np.zeros(20), atol=1e-15)

    def test_lower_eigenvalue_error_hand_value(self):
        phi = np.array([[1.0]])
        measured = cuts_of([100.0], [100.0], phi, phi)
        r = residual_batch(one_dof_model(), rows([[90.0]], [[100.0]]), measured, (1.0, 1.0))[0]
        np.testing.assert_allclose(r, [0.1, 0.0, 0.0, 0.0], atol=1e-15)

    def test_upper_eigenvalue_error_hand_value(self):
        phi = np.array([[1.0]])
        measured = cuts_of([100.0], [100.0], phi, phi)
        r = residual_batch(one_dof_model(), rows([[100.0]], [[110.0]]), measured, (1.0, 1.0))[0]
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
        measured = cuts_of([4.0], [9.0], phi, phi)
        widths = []
        for lo in (4.0, 3.5, 3.0):
            r = residual_batch(model, rows([[lo]], [[9.0]]), measured, (1.0, 1.0))[0]
            widths.append(abs(r[0]))
        assert widths[0] < widths[1] < widths[2]


class TestObjective:
    def test_self_consistency_is_exactly_zero(self):
        model = resolve_model("bundled")
        lower, upper = 0.96 * scenarios.THETA_TRUE, 1.02 * scenarios.THETA_TRUE
        measured = measured_from_box(model, lower, upper)
        r = residual_batch(model, rows([lower], [upper]), measured, (1.0, 1.0))[0]
        assert 0.0 <= r @ r <= 1e-16

    def test_one_dof_hand_sum(self):
        # both branches off by 10% -> 0.1^2 + 0.1^2
        model = one_dof_model()
        phi = np.array([[1.0]])
        measured = cuts_of([100.0], [100.0], phi, phi)
        r = residual_batch(model, rows([[90.0]], [[110.0]]), measured, (1.0, 1.0))[0]
        assert r @ r == pytest.approx(0.02, rel=1e-12)

    def test_doubling_eigenvalue_weight_doubles_the_objective(self):
        model = one_dof_model()
        measured = cuts_of([100.0], [100.0], [[1.0]], [[1.0]])
        lower, upper = [[90.0]], [[100.0]]  # only the lower branch errs
        r1 = residual_batch(model, rows(lower, upper), measured, (1.0, 1.0))[0]
        r2 = residual_batch(model, rows(lower, upper), measured, (2.0, 1.0))[0]
        assert r2 @ r2 == pytest.approx(2.0 * (r1 @ r1), rel=1e-15)

    def test_nonnegative_on_random_candidates(self):
        model = resolve_model("bundled")
        measured = measured_from_box(model, 0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        rng = np.random.default_rng(31)
        weights = (1.0, 1.0)
        for _ in range(25):
            a = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX)
            b = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX)
            r = residual_batch(model, rows([np.minimum(a, b)], [np.maximum(a, b)]), measured, weights)[0]
            assert r @ r >= 0.0


def mac(phi_a, phi_b) -> float:
    """MAC of two single shapes, through ``mac_matrix``."""
    return mac_matrix(np.asarray(phi_a, float)[:, None], np.asarray(phi_b, float)[:, None])[0, 0]


class TestMac:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, -3.0])
        assert mac(v, v) == 1.0

    def test_orthogonal_vectors(self):
        assert mac([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_and_sign_invariance(self):
        v = np.array([0.3, -1.2, 2.0])
        assert mac(v, -3.0 * v) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_invariance_random(self):
        # every column of either stack scaled by its own nonzero factor
        rng = np.random.default_rng(21)
        a = rng.standard_normal((100, 5, 5))
        b = rng.standard_normal((100, 5, 5))
        s = rng.uniform(0.1, 10.0, (100, 1, 5)) * rng.choice([-1.0, 1.0], (100, 1, 5))
        table = mac_matrix(a, b)
        np.testing.assert_allclose(mac_matrix(s * a, b), table, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mac_matrix(a, s * b), table, rtol=0, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            mac([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mac([1.0, 0.0], [1.0, 0.0, 0.0])


class TestPairModes:
    def test_identity_on_self(self):
        lam, phi = generalized_eig(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        np.testing.assert_array_equal(pair_modes(mac_matrix(phi, phi), lam, lam), [0, 1, 2])

    def test_constructed_swap(self):
        lam, phi = generalized_eig(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        swap = [1, 0, 2]
        np.testing.assert_array_equal(pair_modes(mac_matrix(phi, phi[:, swap]), lam, lam[swap]), [1, 0, 2])

    def test_small_perturbation_keeps_identity(self):
        # Oracle: exhaustive MAC-table inspection; for a 1% SPD perturbation
        # the diagonal dominates every row, so greedy must return identity.
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = random_spd(rng, 5)
            m = random_spd(rng, 5)
            ref = generalized_eig(k, m)
            bump = random_spd(rng, 5, shift=0.0)
            cand = generalized_eig(k + 0.01 * np.abs(k).max() / np.abs(bump).max() * bump, m)
            table = mac_matrix(ref[1], cand[1])
            assert np.all(np.argmax(table, axis=1) == np.arange(5))
            np.testing.assert_array_equal(pair_modes(table, ref[0], cand[0]), np.arange(5))

    def test_mismatched_mode_counts_rejected(self):
        a = generalized_eig(np.eye(2), np.eye(2))
        b = generalized_eig(np.eye(3), np.eye(3))
        with pytest.raises(ShapeError):
            pair_modes(np.ones((2, 3)), a[0], b[0])


def level_box(theta_min, theta_max, prev_lower, prev_upper):
    """The search box of an alpha level below 1, as ``run_ffemu`` builds it:
    lower in [theta_min, prev_lower], upper in [prev_upper, theta_max]."""
    return Box(np.concatenate([theta_min, prev_upper]), np.concatenate([prev_lower, theta_max]))


def reference_project(theta_min, theta_max, prev_lower, prev_upper, x):
    """Projection as two clips: the reference for the level box's ``project``.

    The lower half is clipped to [theta_min, prev_lower], the upper half to
    [prev_upper, theta_max].
    """
    x = np.asarray(x, dtype=float)
    d = theta_min.size
    lower = np.clip(x[..., :d], theta_min, prev_lower)
    upper = np.clip(x[..., d:], prev_upper, theta_max)
    return np.concatenate([lower, upper], axis=-1)


class TestProjection:
    THETA_MIN = np.array([0.0, 0.0])
    THETA_MAX = np.array([10.0, 10.0])
    PREV_LOWER = np.array([4.0, 5.0])
    PREV_UPPER = np.array([6.0, 7.0])

    def region(self):
        return level_box(self.THETA_MIN, self.THETA_MAX, self.PREV_LOWER, self.PREV_UPPER)

    def test_feasible_candidate_unchanged(self):
        x = np.array([3.0, 4.0, 7.0, 8.0])
        np.testing.assert_array_equal(self.region().project(x), x)

    def test_upper_snapped_to_previous_upper(self):
        out = self.region().project(np.array([3.0, 4.0, 5.0, 6.5]))
        np.testing.assert_array_equal(out[2:], [6.0, 7.0])

    def test_lower_snapped_into_range(self):
        out = self.region().project(np.array([5.0, 6.0, 7.0, 8.0]))
        np.testing.assert_array_equal(out[:2], [4.0, 5.0])

    def test_row_stack_matches_row_by_row(self):
        region = self.region()
        rows = np.random.default_rng(47).uniform(-5.0, 15.0, (50, 4))
        expected = np.array([region.project(x) for x in rows])
        np.testing.assert_array_equal(region.project(rows), expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_two_clip_reference(self, seed):
        rng = np.random.default_rng(seed)
        tmin = rng.uniform(100.0, 200.0, 3)
        tmax = tmin + rng.uniform(50.0, 400.0, 3)
        prev_lower = rng.uniform(tmin, tmax)
        prev_upper = rng.uniform(prev_lower, tmax)
        rows = rng.uniform(tmin.min() - 100.0, tmax.max() + 100.0, (500, 6))
        rows[::7, 3:] = rows[::7, :3] - 1.0  # crossed on purpose
        # anchored, then pinched to a zero-width anchor
        for anchors in ((prev_lower, prev_upper), (prev_lower, prev_lower)):
            region = level_box(tmin, tmax, *anchors)
            expected = reference_project(tmin, tmax, *anchors, rows)
            got = region.project(rows)
            assert got.tobytes() == expected.tobytes()
            assert region.project(rows[5]).tobytes() == expected[5].tobytes()

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
            assert np.all(self.THETA_MIN <= lower)
            assert np.all(lower <= self.PREV_LOWER)
            assert np.all(self.PREV_UPPER <= upper)
            assert np.all(upper <= self.THETA_MAX)

    @pytest.mark.parametrize(
        "lo, hi, name",
        [
            ([np.nan, 0.0], [1.0, 1.0], "lower"),
            ([0.0, 0.0], [1.0, np.inf], "upper"),
            ([-np.inf, 0.0], [1.0, 1.0], "lower"),
        ],
        ids=["nan-lower", "inf-upper", "minus-inf-lower"],
    )
    def test_non_finite_bound_rejected(self, lo, hi, name):
        # NaN compares false, so the order check alone lets it through
        with pytest.raises(DomainError, match=f"box {name} bound must be finite"):
            Box(np.array(lo), np.array(hi))

    def test_infeasible_region_rejected(self):
        with pytest.raises(DomainError):
            level_box(
                theta_min=np.array([0.0]),
                theta_max=np.array([1.0]),
                prev_lower=np.array([2.0]),
                prev_upper=np.array([3.0]),
            )


class TestResidualBatch:
    def population(self, seed, m=30):
        rng = np.random.default_rng(seed)
        a = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX, (m, 5))
        b = rng.uniform(scenarios.THETA_MIN, scenarios.THETA_MAX, (m, 5))
        return np.minimum(a, b), np.maximum(a, b)

    @pytest.mark.parametrize("eigenvector_weight", [0.0, 1.0])
    def test_rows_match_per_candidate_reference(self, eigenvector_weight):
        model = resolve_model("bundled")
        measured = measured_from_box(model, 0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        weights = (1.0, eigenvector_weight)
        lower, upper = self.population(53)
        batch = residual_batch(model, rows(lower, upper), measured, weights)
        assert batch.shape == (30, 20)
        for row, lo, hi in zip(batch, lower, upper):
            ref = reference_residual(model, lo, hi, measured, weights)
            assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()
            one_row = residual_batch(model, rows([lo], [hi]), measured, weights)[0]
            np.testing.assert_array_equal(one_row, row)

    def test_eigenvalue_columns_agree_across_the_two_eigensolves(self):
        # weight 0 solves the vertices by eigvalsh and weight 1 by eigh: each
        # predicted eigenvalue, 1 - e_lo or 1 + e_hi times its measured bound,
        # agrees to a relative 1e-12 (plus the error's own rounding)
        model = resolve_model("bundled")
        theta = scenarios.THETA_TRUE
        measured = measured_from_box(model, 0.97 * theta, 1.03 * theta)
        rng = np.random.default_rng(7)
        a, b = rng.uniform(0.95 * theta, 1.05 * theta, (2, 40, 5))
        boxes = rows(np.minimum(a, b), np.maximum(a, b))
        value_only, with_shapes = (residual_batch(model, boxes, measured, (1.0, w)) for w in (0.0, 1.0))
        for block in (slice(0, 5), slice(10, 15)):
            got, expected = value_only[:, block], with_shapes[:, block]
            scale = 1.0 + np.abs(expected)  # the predicted eigenvalue over its measured bound
            assert np.all(np.abs(got - expected) <= 1e-12 * scale + 4 * np.finfo(float).eps)

    @pytest.mark.parametrize("eigenvector_weight", [0.0, 1.0])
    def test_in_place_buffer_equals_scaled_concatenation(self, eigenvector_weight):
        # reference layout: two zeroed (m, 2n) error blocks, each scaled by
        # sqrt(weights) as a whole row, then concatenated
        model = resolve_model("bundled")
        measured = measured_from_box(model, 0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        weights = (0.7, eigenvector_weight)
        eig_lo, eig_hi, vec_lo, vec_hi = measured
        lower, upper = self.population(61)
        m, n = len(lower), 5
        e_lo, e_hi = np.zeros((m, 2 * n)), np.zeros((m, 2 * n))
        if eigenvector_weight:
            lam, vec = vertex_modes(model, rows(lower, upper))
            (lam_lo, lam_hi), (shape_lo, shape_hi) = lam.swapaxes(0, 1), vec.swapaxes(0, 1)
            e_lo[:, n:] = _shape_errors(vec_lo, shape_lo)
            e_hi[:, n:] = _shape_errors(vec_hi, shape_hi)
        else:
            lam_lo, lam_hi = np.split(model.eigenvalues_batch(np.concatenate([lower, upper])), 2)
        e_lo[:, :n] = (eig_lo - lam_lo) / eig_lo
        e_hi[:, :n] = (lam_hi - eig_hi) / eig_hi
        root = np.repeat(np.sqrt(weights), n)
        expected = np.concatenate([root * e_lo, root * e_hi], axis=1)
        got = residual_batch(model, rows(lower, upper), measured, weights)
        assert got.tobytes() == expected.tobytes()

    def test_crossing_modes_take_the_pairing_fallback(self):
        # the upper vertex has k0 > k1 while the centre has k0 < k1: sorted
        # order swaps the two localized modes, so its MAC diagonal does not
        # dominate and pairing must reorder the shapes
        model = two_mass_model()
        lower = np.array([[1.0, 1.9], [1.0, 1.9]])
        upper = np.array([[2.2, 2.0], [1.2, 2.0]])  # row 1 does not cross
        center = modal_row(model, 0.5 * (lower[0] + upper[0]))
        lam, vec = modal_row(model, upper[0])
        assert pair_modes(mac_matrix(center[1], vec), center[0], lam).tolist() == [1, 0]
        measured = cuts_of([0.9, 1.8], [2.1, 2.3], np.eye(2), np.eye(2))
        weights = (1.0, 1.0)
        batch = residual_batch(model, rows(lower, upper), measured, weights)
        for row, lo, hi in zip(batch, lower, upper):
            ref = reference_residual(model, lo, hi, measured, weights)
            assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()
        # the upper eigenvalues stay sorted on the crossing row; only the
        # shapes are paired
        e_hi = batch[0, 4:6] / np.sqrt(weights[0])
        lam_hi = e_hi * measured[1] + measured[1]
        assert lam_hi[0] < lam_hi[1]

    def test_eigenvalue_rows_are_sorted_vertex_bounds_on_a_wide_box(self):
        # the bundled box with every half-width tripled about its centre,
        # clipped below at 200 N/m: modes cross inside some of its boxes,
        # and there the MAC-paired vertex eigenvalues are not the bounds
        model = resolve_model("bundled")
        mid = 0.5 * (scenarios.THETA_MIN + scenarios.THETA_MAX)
        half = 1.5 * (scenarios.THETA_MAX - scenarios.THETA_MIN)
        lo, hi = np.maximum(mid - half, 200.0), mid + half
        rng = np.random.default_rng(73)
        a, b = rng.uniform(lo, hi, (2, 400, 5))
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        measured = measured_from_box(model, 0.9 * mid, 1.1 * mid)
        batch = residual_batch(model, rows(lower, upper), measured, (1.0, 0.0))
        sorted_lo = np.array([modal_row(model, x)[0] for x in lower])
        sorted_hi = np.array([modal_row(model, x)[0] for x in upper])
        eig_lo, eig_hi = measured[:2]
        np.testing.assert_allclose(batch[:, :5], (eig_lo - sorted_lo) / eig_lo, rtol=0, atol=1e-13)
        np.testing.assert_allclose(batch[:, 10:15], (sorted_hi - eig_hi) / eig_hi, rtol=0, atol=1e-13)
        paired = [paired_vertex_modes(model, x, y) for x, y in zip(lower, upper)]
        paired_lo = np.array([p[0][0] for p in paired])
        paired_hi = np.array([p[1][0] for p in paired])
        crossed = np.any(paired_lo != sorted_lo, axis=1) | np.any(paired_hi != sorted_hi, axis=1)
        assert crossed.sum() >= 3

    def test_eigenvalue_only_rows_never_solve_mode_shapes(self, monkeypatch):
        model = resolve_model("bundled")
        measured = measured_from_box(model, 0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        lower, upper = self.population(67)

        def modal_batch(self, thetas):
            raise AssertionError("eigenvalue-only residuals solved for mode shapes")

        monkeypatch.setattr(StructuralModel, "modal_batch", modal_batch)
        weights = (1.0, 0.0)
        assert residual_batch(model, rows(lower, upper), measured, weights).shape == (30, 20)

    def test_point_boxes_solve_two_rows_each_and_match_their_pinched_boxes(self, monkeypatch):
        # a point box solves its centre and its one vertex; the same point
        # given as the box [x | x] solves its centre and both vertices, and
        # its residual row has the same bits
        model = resolve_model("bundled")
        measured = measured_from_box(model, 0.97 * scenarios.THETA_TRUE, 1.03 * scenarios.THETA_TRUE)
        points = self.population(71, m=6)[0]
        solved = []
        original = StructuralModel.modal_batch

        def modal_batch(self, thetas):
            solved.append(len(thetas))
            return original(self, thetas)

        monkeypatch.setattr(StructuralModel, "modal_batch", modal_batch)
        lam, vec = vertex_modes(model, points)
        assert (lam.shape, vec.shape, solved) == ((6, 1, 5), (6, 1, 5, 5), [12])
        lam, vec = vertex_modes(model, rows(points, points))
        assert (lam.shape, vec.shape, solved) == ((6, 2, 5), (6, 2, 5, 5), [12, 18])
        weights = (1.0, 0.3)
        point_rows = residual_batch(model, points, measured, weights)
        assert point_rows.tobytes() == residual_batch(model, rows(points, points), measured, weights).tobytes()

    def test_nonpositive_row_rejected(self):
        model = resolve_model("bundled")
        measured = measured_from_box(model, scenarios.THETA_TRUE, scenarios.THETA_TRUE)
        lower, upper = self.population(59, m=4)
        lower[2, 1] = 0.0
        with pytest.raises(DomainError):
            residual_batch(model, rows(lower, upper), measured, (1.0, 1.0))

    def test_crossed_row_rejected(self):
        model = resolve_model("bundled")
        measured = measured_from_box(model, scenarios.THETA_TRUE, scenarios.THETA_TRUE)
        lower, upper = self.population(61, m=4)
        with pytest.raises(DomainError, match="crossed"):
            residual_batch(model, rows(upper, lower), measured, (1.0, 1.0))


class TestMeasuredData:
    def make_data(self, crisp=False):
        spread = 0.0 if crisp else 0.1
        tfns = [
            [100.0 * (1 - spread), 100.0, 100.0 * (1 + spread)],
            [200.0 * (1 - spread), 200.0, 200.0 * (1 + spread)],
        ]
        vecs = np.array([[0.8, -0.6], [0.6, 0.8]]).T
        return MeasuredFuzzyModalData(tfns, crisp_shapes(vecs))

    def test_cuts_at_peak_are_degenerate(self):
        eig_lo, eig_hi, _, _ = self.make_data().cuts_at(1.0)
        np.testing.assert_array_equal(eig_lo, eig_hi)

    def test_crisp_detection(self):
        assert self.make_data(crisp=True).is_crisp
        assert not self.make_data().is_crisp

    def test_save_load_round_trip_hz(self, tmp_path):
        data = self.make_data()
        path = tmp_path / "measured.json"
        save_measured(data, path)
        loaded = load_measured(path)
        for a, b in zip(data.eigenvalue_tfns, loaded.eigenvalue_tfns):
            assert b[0] == pytest.approx(a[0], rel=1e-14)
            assert b[1] == pytest.approx(a[1], rel=1e-14)
            assert b[2] == pytest.approx(a[2], rel=1e-14)
        np.testing.assert_allclose(loaded.mode_shapes, data.mode_shapes, atol=1e-15)

    def test_crisp_data_are_saved_without_a_crisp_key_which_is_an_unknown_key(self, tmp_path):
        data = self.make_data(crisp=True)
        path = tmp_path / "measured.json"
        save_measured(data, path)
        raw = json.loads(path.read_text())
        assert all(set(mode) == {"eigenvalue", "mode_shape"} for mode in raw["modes"])
        loaded = load_measured(path)
        assert loaded.is_crisp
        np.testing.assert_allclose(loaded.eigenvalue_tfns, data.eigenvalue_tfns, rtol=1e-14)
        # nothing reads a per-mode crisp flag: the triangles say it
        raw["modes"][0]["crisp"] = True
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigurationError) as info:
            load_measured(path)
        assert str(info.value) == (
            f"{path}: unknown key 'modes[0].crisp'; valid keys: eigenvalue, mode_shape, mode_shape_tfns"
        )

    def test_hand_written_eigenvalue_units_load_as_written(self, tmp_path):
        # files from outside may give rad^2/s^2; save_measured writes Hz only
        data = self.make_data()
        path = tmp_path / "measured.json"
        modes = [
            {"eigenvalue": tfn, "mode_shape": shape}
            for tfn, shape in zip(data.eigenvalue_tfns.tolist(), data.mode_shapes.T.tolist())
        ]
        path.write_text(json.dumps({"units": "eigenvalue", "modes": modes}))
        loaded = load_measured(path)
        assert loaded.eigenvalue_tfns.tobytes() == data.eigenvalue_tfns.tobytes()

    def test_shape_tfns_round_trip_and_cuts(self, tmp_path):
        tfns = [[90.0, 100.0, 115.0]]
        shape = [[[0.9, 1.0, 1.05]]]
        data = MeasuredFuzzyModalData(tfns, shape)
        path = tmp_path / "measured.json"
        save_measured(data, path)
        loaded = load_measured(path)
        _, _, vec_lo, _ = loaded.cuts_at(0.0)
        assert vec_lo[0, 0] == pytest.approx(0.9 / 0.9)  # normalized columns
        raw = loaded.shape_tfns[0, 0]
        assert tuple(raw) == (0.9, 1.0, 1.05)

    @pytest.mark.parametrize(
        "scale, shift, loads",
        [(1.0, 0.0, True), (3.0, 0.0, True), (1.0, 5e-13, True), (1.0, 5e-12, False), (-1.0, 0.0, False)],
    )
    def test_mode_shape_must_be_the_unit_peak_of_its_triangles(self, scale, shift, loads, tmp_path):
        # the peaks (0.6, 0.8) and (0.8, -0.6) are unit vectors already
        shapes = np.array([[0.6, 0.8], [0.8, -0.6]]).T
        data = MeasuredFuzzyModalData([[90.0, 100.0, 110.0], [190.0, 200.0, 210.0]], shapes[..., None] + [-0.1, 0.0, 0.1])
        path = tmp_path / "measured.json"
        save_measured(data, path)
        raw = json.loads(path.read_text())
        raw["modes"][1]["mode_shape"] = [scale * v + shift for v in raw["modes"][1]["mode_shape"]]
        path.write_text(json.dumps(raw))
        if loads:
            assert load_measured(path).shape_tfns.tobytes() == data.shape_tfns.tobytes()
        else:
            with pytest.raises(ConfigurationError, match=r": 'modes\[1\]\.mode_shape' must equal its 'mode_shape_tfns' peak"):
                load_measured(path)

    def test_crisp_file_shape_is_its_unit_mode_shape(self, tmp_path):
        # (u, u, u) of the file's mode_shape scaled to unit length; each cut
        # scales u once more, as every run has cut a crisp file's shapes
        path = tmp_path / "measured.json"
        modes = [{"eigenvalue": [100.0] * 3, "mode_shape": [1.0, 2.0, 3.0]}]
        path.write_text(json.dumps({"units": "eigenvalue", "modes": modes}))
        loaded = load_measured(path)
        unit = unit_columns(np.array([[1.0], [2.0], [3.0]]))
        assert loaded.shape_tfns.tobytes() == np.stack([unit] * 3, axis=-1).tobytes()
        assert loaded.cuts_at(0.5)[2].tobytes() == unit_columns(unit).tobytes()

    def test_degenerate_shape_triangles_are_saved_as_mode_shapes_only(self, tmp_path):
        path = tmp_path / "measured.json"
        save_measured(self.make_data(), path)
        assert all(set(mode) == {"eigenvalue", "mode_shape"} for mode in json.loads(path.read_text())["modes"])

    def test_malformed_shape_tfn_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "measured.json"
        save_measured(self.make_data(), path)
        data = json.loads(path.read_text())
        data["modes"][0]["mode_shape_tfns"] = [[1.0, 2.0], [0.5, 0.6, 0.7]]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=r"'modes\[0\]\.mode_shape_tfns' must be a list of rows of 3 finite numbers"):
            load_measured(path)

    @pytest.mark.parametrize(
        "tfns",
        [
            [[190.0, 200.0, 210.0], [90.0, 100.0, 110.0]],  # peaks descend
            [[90.0, 100.0, 130.0], [80.0, 101.0, 102.0]],  # support midpoints descend
        ],
    )
    def test_modes_out_of_ascending_order_rejected(self, tfns):
        with pytest.raises(ConfigurationError, match=r"modes\[1\] is below modes\[0\]"):
            MeasuredFuzzyModalData(tfns, crisp_shapes(np.eye(2)))

    def test_every_level_centre_ascends_when_both_ends_do(self):
        # peaks and support midpoints ascend, so the centre of every cut in
        # between does too
        data = MeasuredFuzzyModalData([[90.0, 100.0, 130.0], [70.0, 101.0, 160.0]], crisp_shapes(np.eye(2)))
        eig_lo, eig_hi, _, _ = data.cuts_at(np.linspace(0.0, 1.0, 101))
        assert (np.diff(eig_lo + eig_hi, axis=1) >= 0.0).all()

    def test_nonpositive_eigenvalue_support_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^'modes\[0\]\.eigenvalue' must be above 0, got \[-1\.0, 1\.0, 2\.0\]$"):
            MeasuredFuzzyModalData([[-1.0, 1.0, 2.0]], crisp_shapes([[1.0]]))
