"""Tests for triangular fuzzy numbers, alpha levels and alpha-cut stacks."""

import re

import numpy as np
import pytest

from reference import alpha_cut, membership

from ffemu.errors import ConfigurationError, DomainError, ShapeError
from ffemu.fuzzy import (
    AlphaCutStack,
    alpha_cuts,
    check_levels,
    default_levels,
    triangles,
)


def stack_of(tfn, levels) -> AlphaCutStack:
    """The (L, 1) alpha-cut stack of one triangle at ``levels``."""
    levels = np.asarray(levels, dtype=float)
    return AlphaCutStack(levels, *alpha_cuts([tfn], levels))


class TestMembership:
    def test_peak(self):
        assert membership((0, 1, 3), 1.0) == 1.0

    def test_outside_support(self):
        assert membership((0, 1, 3), -0.5) == 0.0
        assert membership((0, 1, 3), 3.0) == 0.0

    def test_right_branch_hand_value(self):
        # (c - x) / (c - b) = (3 - 2) / (3 - 1)
        assert membership((0, 1, 3), 2.0) == 0.5

    def test_left_branch_hand_value(self):
        assert membership((0, 1, 3), 0.25) == 0.25

    def test_degenerate_spike(self):
        t = (2, 2, 2)
        assert membership(t, 2.0) == 1.0
        assert membership(t, 2.0001) == 0.0

    def test_vertices_must_be_ordered(self):
        with pytest.raises(DomainError):
            triangles([1, 0, 3])

    def test_first_triangle_out_of_order_is_named(self):
        tfns = np.array([[[0, 1, 3], [0, 0, 0]], [[1, 2, 2], [2, 1, 0]]])
        with pytest.raises(DomainError, match=r"out of order: \(2.0, 1.0, 0.0\)$"):
            triangles(tfns)
        with pytest.raises(DomainError, match=r"out of order: \(nan, 1.0, 2.0\)"):
            triangles([np.nan, 1.0, 2.0])

    def test_last_axis_must_hold_three_vertices(self):
        with pytest.raises(ShapeError):
            triangles([[0, 1], [1, 2]])


class TestAlphaCut:
    def test_peak_collapse(self):
        assert alpha_cuts([0, 1, 3], 1.0) == (1.0, 1.0)

    def test_full_support(self):
        assert alpha_cuts([0, 1, 3], 0.0) == (0.0, 3.0)

    def test_half_level(self):
        assert alpha_cuts([0, 1, 3], 0.5) == (0.5, 2.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            alpha_cuts([0, 1, 3], 1.5)
        with pytest.raises(DomainError):
            alpha_cuts([0, 1, 3], -0.1)

    def test_antitone_in_alpha(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = np.sort(rng.uniform(-5, 5, 3))
            t = (a, b, c)
            a1, a2 = np.sort(rng.uniform(0, 1, 2))
            (wide_lo, wide_hi), (narrow_lo, narrow_hi) = alpha_cuts(t, a1), alpha_cuts(t, a2)
            assert wide_lo <= narrow_lo and narrow_hi <= wide_hi

    def test_array_cuts_match_the_per_triangle_formula(self):
        # (n_dof, n, 3) triangles at L levels give (L, n_dof, n) bounds, each
        # the scalar formula's bits; the last triangle is a point
        rng = np.random.default_rng(5)
        tfns = np.sort(rng.uniform(-5, 5, (4, 3, 3)), axis=-1)
        tfns[-1, -1] = 2.0
        levels = np.array([1.0, 0.7, 0.3, 0.1, 0.0])
        lo, hi = alpha_cuts(tfns, levels)
        assert lo.shape == hi.shape == (5, 4, 3)
        for k, alpha in enumerate(levels):
            one_lo, one_hi = alpha_cuts(tfns, alpha)
            np.testing.assert_array_equal(one_lo, lo[k])
            np.testing.assert_array_equal(one_hi, hi[k])
            for i, j in np.ndindex(4, 3):
                assert (lo[k, i, j], hi[k, i, j]) == alpha_cut(tfns[i, j], alpha)


class TestStack:
    def test_from_tfn_three_levels(self):
        stack = stack_of((0, 1, 3), [1.0, 0.5, 0.0])
        assert stack.lo.shape == stack.hi.shape == (3, 1)
        assert list(zip(stack.lo[:, 0], stack.hi[:, 0])) == [(1, 1), (0.5, 2), (0, 3)]

    def test_degenerate_tfn(self):
        stack = stack_of((2, 2, 2), default_levels(10))
        assert all((lo, hi) == (2.0, 2.0) for lo, hi in zip(stack.lo[:, 0], stack.hi[:, 0]))

    def test_symmetric_tfn_symmetric_cuts(self):
        stack = stack_of((-1, 0, 1), default_levels(10))
        np.testing.assert_array_equal(stack.lo, -stack.hi)

    def test_nesting_enforced(self):
        with pytest.raises(ConfigurationError, match="nesting"):
            AlphaCutStack([1.0, 0.5], [[0], [0.5]], [[2], [1.5]])

    def test_levels_must_start_at_one(self):
        with pytest.raises(ConfigurationError):
            AlphaCutStack([0.9, 0.5], [[0], [0]], [[1], [1]])

    def test_levels_must_descend(self):
        with pytest.raises(ConfigurationError):
            AlphaCutStack([1.0, 1.0], [[0], [0]], [[1], [1]])

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match=r"out of order at level 0.5: \[2.0, 1.0\] in column 0$"):
            AlphaCutStack([1.0, 0.5], [[0.0], [2.0]], [[1.0], [1.0]])

    def test_one_stack_holds_many_quantities(self):
        levels = [1.0, 0.5, 0.0]
        tfns = [(0, 1, 3), (2, 2, 2), (-1, 0, 1)]
        stack = AlphaCutStack(levels, *alpha_cuts(tfns, levels))
        assert stack.lo.shape == stack.hi.shape == (3, 3)
        for j, tfn in enumerate(tfns):
            one = stack_of(tfn, levels)
            np.testing.assert_array_equal(stack.lo[:, [j]], one.lo)
            np.testing.assert_array_equal(stack.hi[:, [j]], one.hi)
            np.testing.assert_array_equal(stack.to_membership(j), one.to_membership(0))

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (
                [[0, 1], [0, 2]],
                [[1, 1], [1, 0.5]],
                r"bounds out of order at level 0.5: \[2.0, 0.5\] in column 1",
            ),
            (
                [[0, 1], [0, 1.5]],
                [[1, 2], [1, 2]],
                r"nesting violated between levels 1.0 and 0.5: \[1.0, 2.0\] not inside \[1.5, 2.0\] in column 1",
            ),
            ([[0, 1]], [[1, 2]], r"lo and hi must be \(L, q\) arrays"),
            ([0, 0], [[1], [1]], r"lo and hi must be \(L, q\) arrays"),
            ([0, 0], [1, 1], r"lo and hi must be \(L, q\) arrays"),
            ([[[0]], [[0]]], [[[1]], [[1]]], r"lo and hi must be \(L, q\) arrays"),
        ],
    )
    def test_many_quantity_errors_name_level_and_column(self, lo, hi, message):
        with pytest.raises(ConfigurationError, match=message):
            AlphaCutStack([1.0, 0.5], lo, hi)

    @pytest.mark.parametrize(
        "levels, message",
        [
            ([], "'alpha_levels' must not be empty"),
            ([[1.0, 0.5]], "'alpha_levels' must be a list of finite numbers, got [[1.0, 0.5]]"),
            ([0.5, 0.0], "'alpha_levels' must start at 1, got 0.5"),
            ([1.0, 0.5, 0.5], "'alpha_levels' must descend strictly, got 0.5 after 0.5"),
            ([1.0, np.nan], "'alpha_levels' must be a list of finite numbers, got [1.0, nan]"),
            ([1.0, 0.5, -0.5], "'alpha_levels' must be at least 0, got [1.0, 0.5, -0.5]"),
        ],
    )
    def test_one_rule_for_levels(self, levels, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            check_levels(levels)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            AlphaCutStack(levels, np.zeros(np.shape(levels)), np.zeros(np.shape(levels)))

    @pytest.mark.parametrize("count", [0, -1])
    def test_default_levels_need_one_level(self, count):
        with pytest.raises(ConfigurationError, match=f"'alpha_levels' must be at least 1, got {count}"):
            default_levels(count)

    def test_default_levels(self):
        levels = default_levels(10)
        assert levels[0] == 1.0 and levels[-1] == 0.0 and levels.size == 10
        np.testing.assert_allclose(np.diff(levels), -1.0 / 9.0, rtol=1e-12)


class TestMembershipPolyline:
    def test_round_trip_recovers_corners(self):
        stack = stack_of((0, 1, 3), [1.0, 0.5, 0.0])
        verts = stack.to_membership(0)
        rows = [tuple(r) for r in verts]
        assert (0.0, 0.0) in rows and (1.0, 1.0) in rows and (3.0, 0.0) in rows
        # membership recovered exactly at every vertex of this stack
        for x, mu in rows:
            assert membership((0, 1, 3), x) == mu

    def test_all_degenerate_stack_single_spike(self):
        stack = stack_of((2, 2, 2), [1.0, 0.5, 0.0])
        verts = stack.to_membership(0)
        assert np.all(verts[:, 0] == 2.0)
        assert verts[:, 1].max() == 1.0

    def test_ten_level_round_trip_zero_deviation(self):
        # Oracle: the polyline x-vertices must equal the alpha_cut bounds exactly.
        t = (2, 4, 5)
        levels = default_levels(10)
        stack = stack_of(t, levels)
        verts = stack.to_membership(0)
        left = verts[: levels.size]
        right = verts[levels.size - 1 :]
        for (x, mu) in left:
            assert x == alpha_cuts(t, mu)[0]
        for (x, mu) in right:
            assert x == alpha_cuts(t, mu)[1]

    def test_mu_monotone_up_then_down(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(-10, 10, 3))
            stack = stack_of((a, b, c), default_levels(10))
            mu = stack.to_membership(0)[:, 1]
            peak = int(np.argmax(mu))
            assert np.all(np.diff(mu[: peak + 1]) >= 0)
            assert np.all(np.diff(mu[peak:]) <= 0)

    def test_nesting_preserved_under_monotone_transform(self):
        stack = stack_of((1, 2, 4), default_levels(10))
        transformed = AlphaCutStack(stack.levels, np.sqrt(stack.lo), np.sqrt(stack.hi))
        assert transformed.levels.size == stack.levels.size  # constructor re-validates nesting
