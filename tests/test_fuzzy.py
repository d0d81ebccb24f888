"""Tests for triangular fuzzy numbers and alpha-cut stacks."""

import csv

import numpy as np
import pytest

from ffemu.errors import ConfigurationError, DomainError
from ffemu.fuzzy import (
    AlphaCutStack,
    TriangularFuzzyNumber,
    default_levels,
    write_cuts_csv,
    write_membership_csv,
)

TFN = TriangularFuzzyNumber


class TestMembership:
    def test_peak(self):
        assert TFN(0, 1, 3).membership(1.0) == 1.0

    def test_outside_support(self):
        assert TFN(0, 1, 3).membership(-0.5) == 0.0
        assert TFN(0, 1, 3).membership(3.0) == 0.0

    def test_right_branch_hand_value(self):
        # (c - x) / (c - b) = (3 - 2) / (3 - 1)
        assert TFN(0, 1, 3).membership(2.0) == 0.5

    def test_left_branch_hand_value(self):
        assert TFN(0, 1, 3).membership(0.25) == 0.25

    def test_degenerate_spike(self):
        t = TFN(2, 2, 2)
        assert t.membership(2.0) == 1.0
        assert t.membership(2.0001) == 0.0

    def test_vertices_must_be_ordered(self):
        with pytest.raises(DomainError):
            TFN(1, 0, 3)


class TestAlphaCut:
    def test_peak_collapse(self):
        assert TFN(0, 1, 3).alpha_cut(1.0) == (1.0, 1.0)

    def test_full_support(self):
        assert TFN(0, 1, 3).alpha_cut(0.0) == (0.0, 3.0)

    def test_half_level(self):
        assert TFN(0, 1, 3).alpha_cut(0.5) == (0.5, 2.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            TFN(0, 1, 3).alpha_cut(1.5)
        with pytest.raises(DomainError):
            TFN(0, 1, 3).alpha_cut(-0.1)

    def test_antitone_in_alpha(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = np.sort(rng.uniform(-5, 5, 3))
            t = TFN(a, b, c)
            a1, a2 = np.sort(rng.uniform(0, 1, 2))
            (wide_lo, wide_hi), (narrow_lo, narrow_hi) = t.alpha_cut(a1), t.alpha_cut(a2)
            assert wide_lo <= narrow_lo and narrow_hi <= wide_hi


class TestStack:
    def test_from_tfn_three_levels(self):
        stack = AlphaCutStack.from_tfn(TFN(0, 1, 3), [1.0, 0.5, 0.0])
        assert list(zip(stack.lo, stack.hi)) == [(1, 1), (0.5, 2), (0, 3)]

    def test_degenerate_tfn(self):
        stack = AlphaCutStack.from_tfn(TFN(2, 2, 2), default_levels())
        assert all((lo, hi) == (2.0, 2.0) for lo, hi in zip(stack.lo, stack.hi))

    def test_symmetric_tfn_symmetric_cuts(self):
        stack = AlphaCutStack.from_tfn(TFN(-1, 0, 1), default_levels())
        for lo, hi in zip(stack.lo, stack.hi):
            assert lo == -hi

    def test_nesting_enforced(self):
        with pytest.raises(ConfigurationError, match="nesting"):
            AlphaCutStack([1.0, 0.5], [0, 0.5], [2, 1.5])

    def test_levels_must_start_at_one(self):
        with pytest.raises(ConfigurationError):
            AlphaCutStack([0.9, 0.5], [0, 0], [1, 1])

    def test_levels_must_descend(self):
        with pytest.raises(ConfigurationError):
            AlphaCutStack([1.0, 1.0], [0, 0], [1, 1])

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ConfigurationError, match="out of order at level 0.5"):
            AlphaCutStack([1.0, 0.5], [0.0, 2.0], [1.0, 1.0])

    def test_default_levels(self):
        levels = default_levels()
        assert levels[0] == 1.0 and levels[-1] == 0.0 and levels.size == 10
        np.testing.assert_allclose(np.diff(levels), -1.0 / 9.0, rtol=1e-12)


class TestMembershipPolyline:
    def test_round_trip_recovers_corners(self):
        stack = AlphaCutStack.from_tfn(TFN(0, 1, 3), [1.0, 0.5, 0.0])
        verts = stack.to_membership()
        rows = [tuple(r) for r in verts]
        assert (0.0, 0.0) in rows and (1.0, 1.0) in rows and (3.0, 0.0) in rows
        # membership recovered exactly at every vertex of this stack
        t = TFN(0, 1, 3)
        for x, mu in rows:
            assert t.membership(x) == mu

    def test_all_degenerate_stack_single_spike(self):
        stack = AlphaCutStack.from_tfn(TFN(2, 2, 2), [1.0, 0.5, 0.0])
        verts = stack.to_membership()
        assert np.all(verts[:, 0] == 2.0)
        assert verts[:, 1].max() == 1.0

    def test_ten_level_round_trip_zero_deviation(self):
        # Oracle: the polyline x-vertices must equal the alpha_cut bounds exactly.
        t = TFN(2, 4, 5)
        levels = default_levels()
        stack = AlphaCutStack.from_tfn(t, levels)
        verts = stack.to_membership()
        left = verts[: levels.size]
        right = verts[levels.size - 1 :]
        for (x, mu) in left:
            assert x == t.alpha_cut(mu)[0]
        for (x, mu) in right:
            assert x == t.alpha_cut(mu)[1]

    def test_mu_monotone_up_then_down(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(-10, 10, 3))
            stack = AlphaCutStack.from_tfn(TFN(a, b, c), default_levels())
            mu = stack.to_membership()[:, 1]
            peak = int(np.argmax(mu))
            assert np.all(np.diff(mu[: peak + 1]) >= 0)
            assert np.all(np.diff(mu[peak:]) <= 0)

    def test_nesting_preserved_under_monotone_transform(self):
        stack = AlphaCutStack.from_tfn(TFN(1, 2, 4), default_levels())
        transformed = AlphaCutStack(stack.levels, np.sqrt(stack.lo), np.sqrt(stack.hi))
        assert transformed.levels.size == stack.levels.size  # constructor re-validates nesting


class TestCsvExport:
    def test_cuts_csv_round_trip(self, tmp_path):
        stack = AlphaCutStack.from_tfn(TFN(0, 1, 3), [1.0, 0.5, 0.0])
        path = tmp_path / "cuts.csv"
        write_cuts_csv({"q1": stack}, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[1]["quantity_id"] == "q1"
        assert float(rows[1]["alpha"]) == 0.5
        assert float(rows[1]["lo"]) == 0.5
        assert float(rows[1]["hi"]) == 2.0

    def test_membership_csv(self, tmp_path):
        stack = AlphaCutStack.from_tfn(TFN(0, 1, 3), [1.0, 0.5, 0.0])
        path = tmp_path / "mem.csv"
        write_membership_csv({"q1": stack}, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        xs = [float(r["x"]) for r in rows]
        mus = [float(r["mu"]) for r in rows]
        assert xs == [0.0, 0.5, 1.0, 2.0, 3.0]
        assert mus == [0.0, 0.5, 1.0, 0.5, 0.0]
