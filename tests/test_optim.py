"""Tests for the continuous ACO and PSO optimizers."""

import math

import mpmath as mp
import numpy as np
import pytest

from ffemu.errors import DomainError, EvaluationError, ShapeError
from ffemu.objective import FeasibleRegion
from ffemu.optim import (
    POLISH_ITERATIONS,
    AcoConfig,
    Box,
    PsoConfig,
    SolutionArchive,
    aco_construct,
    aco_minimize,
    aco_weights,
    least_squares_polish,
    pso_minimize,
    selection_probabilities,
)

mp.mp.dps = 50


def hp_weights(archive_size, q):
    """Arbitrary-precision weight oracle."""
    out = []
    for rank in range(1, archive_size + 1):
        norm = 1 / (q * archive_size * mp.sqrt(2 * mp.pi))
        out.append(norm * mp.e ** (-mp.mpf(rank - 1) ** 2 / (2 * q**2 * archive_size**2)))
    return out


class TestWeights:
    def test_rank_one_value_q10(self):
        w = aco_weights(10, 0.5)
        oracle = float(hp_weights(10, mp.mpf("0.5"))[0])
        assert oracle == pytest.approx(0.0797885, abs=5e-8)
        assert w[0] == pytest.approx(oracle, rel=1e-12)

    def test_all_ranks_match_high_precision(self):
        w = aco_weights(10, 0.5)
        oracle = hp_weights(10, mp.mpf("0.5"))
        assert w.size == 10  # ranks limited to 1..Q
        for got, want in zip(w, oracle):
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_strictly_decreasing_and_positive(self):
        w = aco_weights(10, 0.5)
        assert np.all(w > 0.0)
        assert np.all(np.diff(w) < 0.0)

    def test_single_row_collapse(self):
        for q in (0.1, 0.5, 2.0):
            assert aco_weights(1, q)[0] == pytest.approx(1.0 / (q * math.sqrt(2 * math.pi)), rel=1e-15)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            aco_weights(0, 0.5)
        with pytest.raises(DomainError):
            aco_weights(10, 0.0)


class TestSelectionProbabilities:
    def test_uniform(self):
        p = selection_probabilities(np.ones(7))
        np.testing.assert_allclose(p, 1.0 / 7.0, rtol=1e-15)

    def test_three_to_one(self):
        np.testing.assert_allclose(selection_probabilities([3.0, 1.0]), [0.75, 0.25])

    def test_matches_high_precision_normalization(self):
        w = aco_weights(10, 0.5)
        p = selection_probabilities(w)
        oracle = hp_weights(10, mp.mpf("0.5"))
        total = sum(oracle)
        for got, want in zip(p, oracle):
            assert got == pytest.approx(float(want / total), rel=1e-12)

    def test_sums_to_one_within_1e15(self):
        p = selection_probabilities(aco_weights(10, 0.5))
        assert abs(p.sum() - 1.0) <= 1e-15

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            selection_probabilities(np.zeros(3))


class TestArchiveUpdate:
    def archive(self):
        return SolutionArchive(np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 1.0, 2.0]))

    def test_no_entrant_leaves_archive_untouched(self):
        archive = self.archive()
        x, f = archive.x, archive.f
        # a tie with the worst row keeps the archive row (stable merge)
        assert archive.update(np.array([[9.0], [8.0]]), np.array([2.0, 3.0])) is False
        assert archive.x is x and archive.f is f

    def test_entrant_merges_like_a_stable_sort(self):
        archive = self.archive()
        points, values = np.array([[9.0], [8.0], [7.0]]), np.array([1.0, 0.1, 2.0])
        assert archive.update(points, values) is True
        np.testing.assert_array_equal(archive.f, [0.1, 0.5, 1.0])
        np.testing.assert_array_equal(archive.x[:, 0], [8.0, 0.0, 1.0])


class TestSigma:
    def make_archive(self, column):
        pts = np.array([[v] for v in column])
        return SolutionArchive(pts, np.arange(float(len(column))))

    def test_identical_column_gives_zero(self):
        archive = self.make_archive([1.5, 1.5, 1.5])
        assert archive.sigma_matrix(1.0)[0, 0] == 0.0

    def test_two_rows_hand_sum(self):
        archive = self.make_archive([0.0, 2.0])
        np.testing.assert_array_equal(archive.sigma_matrix(1.0), [[2.0], [2.0]])

    def test_linear_in_xi(self):
        archive = self.make_archive([0.0, 1.0, 3.0])
        assert archive.sigma_matrix(2.0)[1, 0] == 2.0 * archive.sigma_matrix(1.0)[1, 0]

    def test_single_row_archive_rejected(self):
        with pytest.raises(DomainError):
            SolutionArchive(np.array([[0.0]]), np.array([0.0]))


def reference_construct(archive, config, region, rng, probs):
    """``aco_construct`` as ``Generator.choice`` plus ``Generator.normal``.

    The reference for the written-out draws: roulette rows by ``choice``
    with ``p``, then one ``normal`` draw per component centred on the
    guide row with its archive spread.
    """
    dim = archive.x.shape[1]
    sig = archive.sigma_matrix(config.xi)
    rows = rng.choice(len(archive), size=(config.n_ants, dim), p=probs)
    cols = np.arange(dim)[None, :]
    return region.project(rng.normal(archive.x[rows, cols], sig[rows, cols]))


class TestConstruct:
    @pytest.mark.parametrize("archive_size", [2, 10])
    @pytest.mark.parametrize("n_ants", [1, 20])
    def test_bitwise_equal_to_choice_and_normal(self, archive_size, n_ants):
        region = Box(np.full(4, -3.0), np.full(4, 3.0))
        config = AcoConfig(archive_size=archive_size, n_ants=n_ants, q=0.3, xi=0.8)
        probs = selection_probabilities(aco_weights(archive_size, config.q))
        for seed in range(6):
            pts = np.random.default_rng(100 + seed).uniform(-4.0, 4.0, (archive_size, 4))
            pts[:, 2] = 0.25  # a zero-spread column
            archive = SolutionArchive(pts, np.arange(float(archive_size)))
            assert np.all(archive.sigma_matrix(config.xi)[:, 2] == 0.0)
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):  # the streams stay in step across calls
                got = aco_construct(archive, config, region, rng_new, probs)
                expected = reference_construct(archive, config, region, rng_ref, probs)
                assert got.shape == (n_ants, 4)
                assert got.tobytes() == expected.tobytes()
            assert rng_new.random() == rng_ref.random()

    def test_probabilities_must_match_archive_rows(self):
        archive = SolutionArchive(np.array([[0.0], [1.0], [2.0]]), np.arange(3.0))
        config = AcoConfig(archive_size=3, n_ants=4)
        region = Box(np.array([-5.0]), np.array([5.0]))
        with pytest.raises(ShapeError):
            aco_construct(archive, config, region, np.random.default_rng(0), np.full(4, 0.25))

    def test_collapsed_archive_reproduces_point(self):
        pts = np.tile([1.0, -2.0], (4, 1))
        archive = SolutionArchive(pts, np.zeros(4))
        region = Box(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
        config = AcoConfig(archive_size=4, n_ants=50, rng_seed=0)
        probs = selection_probabilities(aco_weights(4, config.q))
        cands = aco_construct(archive, config, region, np.random.default_rng(0), probs)
        np.testing.assert_array_equal(cands, np.tile([1.0, -2.0], (50, 1)))

    def test_empirical_sd_matches_mixture_oracle(self):
        # Closed-form oracle: two-component Gaussian mixture with shared
        # sigma = 2 (mean distance), means 0 and 2, rank weights Q=2/q=0.5.
        w = hp_weights(2, mp.mpf("0.5"))
        p2 = float(w[1] / (w[0] + w[1]))
        mean = 2.0 * p2
        var = 4.0 + p2 * 4.0 - mean**2
        oracle_sd = math.sqrt(var)
        archive = SolutionArchive(np.array([[0.0], [2.0]]), np.array([0.0, 1.0]))
        region = Box(np.array([-100.0]), np.array([100.0]))
        config = AcoConfig(archive_size=2, n_ants=100000, q=0.5, xi=1.0)
        probs = selection_probabilities(aco_weights(2, config.q))
        cands = aco_construct(archive, config, region, np.random.default_rng(99), probs)
        assert cands.std() == pytest.approx(oracle_sd, rel=0.05)

    def test_candidates_inside_box(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (5, 3))
        archive = SolutionArchive(pts, rng.uniform(size=5))
        region = Box(np.array([-0.5, -0.5, -0.5]), np.array([0.5, 0.5, 0.5]))
        config = AcoConfig(archive_size=5, n_ants=200)
        probs = selection_probabilities(aco_weights(5, config.q))
        cands = aco_construct(archive, config, region, rng, probs)
        assert np.all(cands >= region.lo) and np.all(cands <= region.hi)


def sphere_offset(center):
    center = np.asarray(center, dtype=float)

    def f(x):
        return np.sum((x - center) ** 2, axis=1)

    return f


class TestAcoMinimize:
    def box5(self):
        return Box(-5.0 * np.ones(5), 5.0 * np.ones(5))

    def test_sphere_converges_over_ten_seeds(self):
        center = np.array([1.0, -2.0, 0.5, 3.0, -4.0])
        finals = []
        for seed in range(10):
            config = AcoConfig(max_iterations=500, rng_seed=seed)
            res = aco_minimize(sphere_offset(center), self.box5(), config)
            finals.append(res.best_f)
        assert np.mean(finals) <= 1e-6

    def test_constant_objective_flat_history(self):
        config = AcoConfig(max_iterations=60, stagnation_window=100, rng_seed=2)
        res = aco_minimize(lambda x: np.ones(len(x)), self.box5(), config)
        assert np.all(res.history_best == 1.0)
        lo, hi = self.box5().lo, self.box5().hi
        assert np.all(res.best_x >= lo) and np.all(res.best_x <= hi)

    def test_corner_optimum(self):
        corner = 5.0 * np.ones(5)  # on the box boundary
        config = AcoConfig(max_iterations=500, rng_seed=3)
        res = aco_minimize(sphere_offset(corner), self.box5(), config)
        np.testing.assert_allclose(res.best_x, corner, atol=1e-4)

    def test_archive_holds_best_ever_offered(self):
        log = []

        def f(x):
            v = np.sum(x**2, axis=1)
            log.extend(zip(x.copy(), v))
            return v

        config = AcoConfig(archive_size=5, n_ants=7, max_iterations=20, rng_seed=5)
        res = aco_minimize(f, Box(-2.0 * np.ones(2), 2.0 * np.ones(2)), config)
        values = np.array([v for _, v in log])
        expected = np.sort(values)[:5]
        np.testing.assert_array_equal(res.population_f, expected)
        evaluated = {x.tobytes() for x, _ in log}
        for row in res.population_x:
            assert row.tobytes() in evaluated
        assert res.n_evaluations == len(log)

    def test_history_monotone_nonincreasing(self):
        config = AcoConfig(max_iterations=120, rng_seed=7)
        res = aco_minimize(sphere_offset(np.zeros(5)), self.box5(), config)
        assert np.all(np.diff(res.history_best) <= 0.0)

    def test_bit_identical_reruns(self):
        config = AcoConfig(max_iterations=80, rng_seed=11)
        a = aco_minimize(sphere_offset(np.ones(5)), self.box5(), config)
        b = aco_minimize(sphere_offset(np.ones(5)), self.box5(), config)
        np.testing.assert_array_equal(a.history_best, b.history_best)
        np.testing.assert_array_equal(a.best_x, b.best_x)

    def test_every_candidate_feasible(self):
        region = FeasibleRegion(
            theta_min=np.array([0.0, 0.0]),
            theta_max=np.array([10.0, 10.0]),
            prev_lower=np.array([4.0, 5.0]),
            prev_upper=np.array([6.0, 7.0]),
        )

        def f(x):
            assert np.all(x >= region.lo) and np.all(x <= region.hi)  # every row
            return np.sum((x - 5.0) ** 2, axis=1)

        config = AcoConfig(max_iterations=40, rng_seed=13)
        res = aco_minimize(f, region, config)
        assert np.all(res.best_x >= region.lo) and np.all(res.best_x <= region.hi)

    def test_warm_start_seed_is_used(self):
        seed_point = np.array([1.0, -2.0, 0.5, 3.0, -4.0])
        config = AcoConfig(max_iterations=0, rng_seed=17)
        res = aco_minimize(sphere_offset(seed_point), self.box5(), config, initial=[seed_point])
        assert res.best_f == 0.0
        np.testing.assert_array_equal(res.best_x, seed_point)

    def test_nan_objective_raises_with_point(self):
        def f(x):
            return np.full(len(x), np.nan)

        with pytest.raises(EvaluationError) as info:
            aco_minimize(f, self.box5(), AcoConfig(rng_seed=19))
        assert info.value.point is not None

    def test_non_finite_row_is_named(self):
        # the first non-finite row of a population is reported, with its point
        def f(x):
            v = np.sum(x**2, axis=1)
            v[[3, 5]] = [np.inf, np.nan]
            return v

        with pytest.raises(EvaluationError, match="at row 3") as info:
            aco_minimize(f, self.box5(), AcoConfig(rng_seed=19))
        assert info.value.value == np.inf
        assert info.value.point.shape == (5,)

    def test_objective_must_return_one_value_per_row(self):
        with pytest.raises(ShapeError):
            aco_minimize(lambda x: 0.0, self.box5(), AcoConfig(rng_seed=19))

    def test_stagnation_stops_early(self):
        config = AcoConfig(max_iterations=5000, stagnation_window=30, rng_seed=23)
        res = aco_minimize(sphere_offset(np.zeros(5)), self.box5(), config)
        assert res.n_iterations < 5000
        assert res.stop_reason == "stagnation"


class TestStopReason:
    BOX = Box(-np.ones(3), np.ones(3))

    @pytest.mark.parametrize("minimize, config_type", [(aco_minimize, AcoConfig), (pso_minimize, PsoConfig)])
    def test_flat_objective_stagnates(self, minimize, config_type):
        config = config_type(max_iterations=100, stagnation_window=5, rng_seed=1)
        res = minimize(lambda x: np.ones(len(x)), self.BOX, config)
        assert (res.stop_reason, res.n_iterations) == ("stagnation", 5)

    @pytest.mark.parametrize("minimize, config_type", [(aco_minimize, AcoConfig), (pso_minimize, PsoConfig)])
    def test_full_budget_is_max_iterations(self, minimize, config_type):
        for iterations in (0, 12):
            config = config_type(max_iterations=iterations, stagnation_window=50, rng_seed=1)
            res = minimize(sphere_offset(np.zeros(3)), self.BOX, config)
            assert (res.stop_reason, res.n_iterations) == ("max_iterations", iterations)


class TestConfigCounts:
    @pytest.mark.parametrize("field", ["archive_size", "n_ants", "max_iterations", "stagnation_window"])
    @pytest.mark.parametrize("value", [2.5, 20.0, True, "20"])
    def test_aco_counts_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            AcoConfig(**{field: value})

    @pytest.mark.parametrize("field", ["swarm_size", "max_iterations", "stagnation_window"])
    def test_pso_counts_must_be_integers(self, field):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            PsoConfig(**{field: 7.5})

    def test_numpy_integers_accepted(self):
        assert AcoConfig(n_ants=np.int64(3)).n_ants == 3


class TestPsoMinimize:
    def box5(self):
        return Box(-5.0 * np.ones(5), 5.0 * np.ones(5))

    def test_sphere_ten_seed_median(self):
        center = np.array([1.0, -2.0, 0.5, 3.0, -4.0])
        finals = []
        for seed in range(10):
            config = PsoConfig(swarm_size=40, max_iterations=500, rng_seed=seed)
            res = pso_minimize(sphere_offset(center), self.box5(), config)
            finals.append(res.best_f)
        assert np.median(finals) <= 1e-6

    def test_frozen_swarm(self):
        config = PsoConfig(
            swarm_size=10, inertia=0.0, cognitive=0.0, social=0.0,
            max_iterations=30, stagnation_window=100, rng_seed=1,
        )
        res = pso_minimize(sphere_offset(np.zeros(5)), self.box5(), config)
        assert np.all(res.history_best == res.history_best[0])

    def test_history_monotone_and_deterministic(self):
        config = PsoConfig(swarm_size=15, max_iterations=100, rng_seed=3)
        a = pso_minimize(sphere_offset(np.ones(5)), self.box5(), config)
        b = pso_minimize(sphere_offset(np.ones(5)), self.box5(), config)
        assert np.all(np.diff(a.history_best) <= 0.0)
        np.testing.assert_array_equal(a.history_best, b.history_best)

    def test_every_candidate_feasible(self):
        box = self.box5()

        def f(x):
            assert np.all(x >= box.lo) and np.all(x <= box.hi)  # every row
            return np.sum(x**2, axis=1)

        pso_minimize(f, box, PsoConfig(swarm_size=12, max_iterations=50, rng_seed=5))

    def test_evaluation_count_bookkeeping(self):
        calls = 0

        def f(x):
            nonlocal calls
            calls += len(x)
            return np.sum(x**2, axis=1)

        config = PsoConfig(swarm_size=13, max_iterations=21, stagnation_window=100, rng_seed=7)
        res = pso_minimize(f, self.box5(), config)
        assert calls == res.n_evaluations == 13 * 22


class TestLeastSquaresPolish:
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0], [1.0, 0.0, 1.0]])
    X_STAR = np.array([1.0, -2.0, 0.5])  # zero-residual solution of A x = A X_STAR

    def linear_residual(self, x):
        return (x - self.X_STAR) @ self.A.T

    def test_linear_problem_reaches_exact_solution(self):
        box = Box(np.full(3, -5.0), np.full(3, 5.0))
        x, f, calls = least_squares_polish(self.linear_residual, box, np.array([4.0, 4.0, -4.0]))
        np.testing.assert_allclose(x, self.X_STAR, rtol=0.0, atol=1e-10)
        assert f <= 1e-20
        assert calls <= 1 + POLISH_ITERATIONS * (3 + 1)

    def test_stops_on_active_bound(self):
        # the unconstrained solution has x0 = 1, outside the box; the
        # constrained one holds x0 at its bound and fits the rest
        box = Box(np.array([-5.0, -5.0, -5.0]), np.array([0.5, 5.0, 5.0]))
        rest = np.linalg.lstsq(
            self.A[:, 1:], self.A @ self.X_STAR - 0.5 * self.A[:, 0], rcond=None
        )[0]
        x, f, _ = least_squares_polish(self.linear_residual, box, np.zeros(3))
        assert x[0] == 0.5
        np.testing.assert_allclose(x[1:], rest, rtol=0.0, atol=1e-10)
        r = self.linear_residual(np.concatenate([[0.5], rest]))
        assert f == pytest.approx(float(r @ r), rel=1e-10)

    def test_jacobian_is_one_call_over_the_perturbed_points(self):
        # one call for the start, one for the n forward differences, one per
        # trial step; the residual-call count is still one per point
        batches = []

        def residual(x):
            batches.append(len(x))
            return self.linear_residual(x)

        box = Box(np.full(3, -5.0), np.full(3, 5.0))
        _, _, calls = least_squares_polish(residual, box, np.array([4.0, 4.0, -4.0]))
        assert batches[:3] == [1, 3, 1]
        assert set(batches) == {1, 3}
        assert calls == sum(batches)

    @pytest.mark.parametrize("start", ["lo", "hi", 0, 1, 2])
    def test_stays_feasible_and_never_worsens(self, start):
        # lower coordinate 0 is pinned (theta_min == prev_lower), so the
        # region has a zero-width coordinate; corner starts put every other
        # coordinate on a bound, where finite differences must step inward
        region = FeasibleRegion(
            theta_min=[0.0, 0.0], theta_max=[4.0, 4.0], prev_lower=[0.0, 1.0], prev_upper=[2.0, 3.0]
        )

        def residual(x):
            assert np.all(x >= region.lo) and np.all(x <= region.hi)  # every row
            l0, l1, u0, u1 = x.T
            parts = [10.0 * (l1 - l0**2 - 0.5), 9.0 - u0 * u1, u0 - 2.5 + 0.1 * l1, l0 + u1 - 3.5]
            return np.stack(parts, axis=1)

        if isinstance(start, str):
            x0 = getattr(region, start)
        else:
            x0 = np.random.default_rng(start).uniform(region.lo, region.hi)
        r0 = residual(x0[None, :])[0]
        x, f, calls = least_squares_polish(residual, region, x0)
        assert np.all(x >= region.lo) and np.all(x <= region.hi)
        assert x[0] == 0.0
        assert f <= float(r0 @ r0)
        r = residual(x[None, :])[0]
        assert f == float(r @ r)
        assert 1 <= calls <= 1 + POLISH_ITERATIONS * (3 + 1)


class TestConfigValidation:
    def test_aco_bounds(self):
        with pytest.raises(DomainError):
            AcoConfig(archive_size=1)
        with pytest.raises(DomainError):
            AcoConfig(q=-1.0)
        with pytest.raises(DomainError):
            AcoConfig(xi=0.0)

    def test_pso_bounds(self):
        with pytest.raises(DomainError):
            PsoConfig(swarm_size=1)
        with pytest.raises(DomainError):
            PsoConfig(v_max_fraction=0.0)
        with pytest.raises(DomainError):
            PsoConfig(v_max_fraction=1.5)
