"""Tests for the continuous ACO and PSO optimizers."""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from ffemu.errors import ConfigurationError, EvaluationError, ShapeError
from ffemu.optim import (
    ACO_Q,
    ACO_XI,
    POLISH_ITERATIONS,
    PSO_COGNITIVE,
    PSO_INERTIA,
    PSO_SOCIAL,
    PSO_V_MAX_FRACTION,
    STAGNATION_TOLERANCE,
    STEP_SCALE,
    AcoConfig,
    Box,
    PsoConfig,
    _Aco,
    _roulette_table,
    aco_minimize,
    least_squares_polish,
    pso_minimize,
)

mp.mp.dps = 50

WIDE = Box(np.array([-10.0]), np.array([10.0]))


def hp_weights(archive_size, q):
    """Arbitrary-precision weight oracle."""
    out = []
    for rank in range(1, archive_size + 1):
        norm = 1 / (q * archive_size * mp.sqrt(2 * mp.pi))
        out.append(norm * mp.e ** (-mp.mpf(rank - 1) ** 2 / (2 * q**2 * archive_size**2)))
    return out


def table_probabilities(archive_size):
    """The selection probabilities that the rank roulette table sums."""
    return np.diff(_roulette_table(archive_size), prepend=0.0)


class TestWeights:
    def test_rank_one_value_q10(self):
        p = table_probabilities(10)
        oracle = hp_weights(10, mp.mpf("0.5"))
        assert float(oracle[0]) == pytest.approx(0.0797885, abs=5e-8)
        assert p[0] == pytest.approx(float(oracle[0] / sum(oracle)), rel=1e-12)

    def test_all_ranks_match_high_precision(self):
        p = table_probabilities(10)
        oracle = hp_weights(10, mp.mpf("0.5"))
        assert p.size == 10  # ranks limited to 1..Q
        for got, want in zip(p, oracle):
            assert got == pytest.approx(float(want / sum(oracle)), rel=1e-12)

    def test_strictly_decreasing_and_positive(self):
        p = table_probabilities(10)
        assert np.all(p > 0.0)
        assert np.all(np.diff(p) < 0.0)

    def test_single_row_collapse(self):
        assert _roulette_table(1).tolist() == [1.0]


def roulette_probabilities(archive_size):
    """The textbook rank weights, a Gaussian in rank - 1 with spread
    q * archive_size at q = ``ACO_Q``, normalised into the selection
    probabilities, the ``p`` that ``Generator.choice`` takes."""
    q = ACO_Q
    ranks = np.arange(1, archive_size + 1, dtype=float)
    norm = 1.0 / (q * archive_size * math.sqrt(2.0 * math.pi))
    w = norm * np.exp(-((ranks - 1.0) ** 2) / (2.0 * q**2 * archive_size**2))
    return w / w.sum()


@pytest.mark.parametrize(
    "constant, value",
    [
        (ACO_Q, 0.5),
        (ACO_XI, 1.0),
        (PSO_INERTIA, 0.729),
        (PSO_COGNITIVE, 1.494),
        (PSO_SOCIAL, 1.494),
        (PSO_V_MAX_FRACTION, 0.5),
        (STAGNATION_TOLERANCE, 1e-10),
        # PSO's velocity bound per unit of span, above ACO's xi
        (STEP_SCALE, 0.729 * 0.5 + 1.494 + 1.494),
    ],
    ids=[
        "aco-q", "aco-xi", "pso-inertia", "pso-cognitive", "pso-social", "pso-v-max-fraction",
        "stagnation-tolerance", "step-scale",
    ],
)
def test_search_constant_keeps_the_value_every_run_was_made_with(constant, value):
    # a changed coefficient changes the cuts, counts and histories of every
    # run made before it
    assert constant == value


class TestRouletteTable:
    def test_matches_high_precision_normalization(self):
        cdf = _roulette_table(10)
        oracle = hp_weights(10, mp.mpf("0.5"))
        total = sum(oracle)
        for k, got in enumerate(cdf):
            assert got == pytest.approx(float(sum(oracle[: k + 1]) / total), rel=1e-12)

    def test_ends_at_one_and_ascends(self):
        cdf = _roulette_table(10)
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) > 0.0)

    @pytest.mark.parametrize("archive_size", [2, 3, 7, 10, 50, 100, 1000])
    def test_is_the_choice_table(self, archive_size):
        # the table is the one Generator.choice forms from p, bit for bit
        cdf = np.cumsum(roulette_probabilities(archive_size))
        cdf /= cdf[-1]
        assert _roulette_table(archive_size).tobytes() == cdf.tobytes()

    @pytest.mark.parametrize("archive_size", [2, 10, 10**6])
    def test_every_rank_weighs_at_least_e_to_the_minus_2_of_the_first(self, archive_size):
        # at q = 0.5 the last rank's exponent -(Q - 1)^2 / (2 q^2 Q^2) is
        # above -2, so the table is finite at any archive size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = table_probabilities(archive_size)
        assert np.isfinite(p).all() and p[-1] >= math.exp(-2.0) * p[0] > 0.0


class TestArchiveUpdate:
    def archive(self):
        return _Aco(AcoConfig(archive_size=3), WIDE, np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 1.0, 2.0]))

    def test_no_entrant_leaves_archive_untouched(self):
        archive = self.archive()
        x, f = archive.x.copy(), archive.f.copy()
        # a tie with the worst row keeps the archive row (stable merge)
        archive.tell(np.array([[9.0], [8.0]]), np.array([2.0, 3.0]))
        assert archive.x.tobytes() == x.tobytes() and archive.f.tobytes() == f.tobytes()

    def test_entrant_merges_like_a_stable_sort(self):
        archive = self.archive()
        points, values = np.array([[9.0], [8.0], [7.0]]), np.array([1.0, 0.1, 2.0])
        archive.tell(points, values)
        np.testing.assert_array_equal(archive.f, [0.1, 0.5, 1.0])
        np.testing.assert_array_equal(archive.x[:, 0], [8.0, 0.0, 1.0])


class TestSigma:
    def make_archive(self, column):
        pts = np.array([[v] for v in column])
        return _Aco(AcoConfig(archive_size=len(column)), WIDE, pts, np.arange(float(len(column))))

    def test_identical_column_gives_zero(self):
        archive = self.make_archive([1.5, 1.5, 1.5])
        assert archive.spreads()[0, 0] == 0.0

    def test_two_rows_hand_sum(self):
        archive = self.make_archive([0.0, 2.0])
        np.testing.assert_array_equal(archive.spreads(), [[2.0], [2.0]])


def reference_construct(x, config, region, rng, probs):
    """``_Aco.propose`` as ``Generator.choice`` plus ``Generator.normal``.

    The reference for the written-out draws: roulette rows by ``choice``
    with ``p``, then one ``normal`` draw per component centred on the
    guide row with its spread, ``ACO_XI`` times the row's summed distance to
    the archive rows over Q - 1, clipped into the box.
    """
    archive_size, dim = x.shape
    sig = ACO_XI * np.abs(x[:, None, :] - x[None, :, :]).sum(axis=1) / (archive_size - 1)
    rows = rng.choice(archive_size, size=(config.n_ants, dim), p=probs)
    cols = np.arange(dim)[None, :]
    return np.clip(rng.normal(x[rows, cols], sig[rows, cols]), region.lo, region.hi)


def reference_aco(f, region, config, seed, initial=None):
    """``aco_minimize`` as the textbook loop: per iteration one
    ``reference_construct``, a stable merge of the archive rows and then
    the candidates that keeps the best Q, the archive mean by
    ``ndarray.mean`` and the stagnation rule, with nothing kept between
    iterations but the archive and the histories."""
    rng = np.random.default_rng(seed)
    size, dim = config.archive_size, region.lo.size
    seeds = np.empty((0, dim))
    if initial is not None:
        seeds = np.clip(np.reshape(initial, (-1, dim))[:size], region.lo, region.hi)
    drawn = np.clip(rng.uniform(region.lo, region.hi, size=(size - len(seeds), dim)), region.lo, region.hi)
    x = np.vstack([seeds, drawn])
    fx = f(x)
    order = np.argsort(fx, kind="stable")
    x, fx = x[order], fx[order]
    probs = roulette_probabilities(size)
    history_best, history_mean = [float(fx[0])], [float(fx.mean())]
    evaluations, stop_reason = size, "max_iterations"
    for _ in range(config.max_iterations):
        candidates = reference_construct(x, config, region, rng, probs)
        all_x, all_f = np.vstack([x, candidates]), np.concatenate([fx, f(candidates)])
        keep = np.argsort(all_f, kind="stable")[:size]
        x, fx = all_x[keep], all_f[keep]
        evaluations += len(candidates)
        history_best.append(float(fx[0]))
        history_mean.append(float(fx.mean()))
        window = config.stagnation_window
        if len(history_best) > window and (
            history_best[-1 - window] - history_best[-1] < STAGNATION_TOLERANCE
        ):
            stop_reason = "stagnation"
            break
    return x, fx, np.array(history_best), np.array(history_mean), evaluations, stop_reason


class TestConstruct:
    @pytest.mark.parametrize("archive_size", [2, 10])
    @pytest.mark.parametrize("n_ants", [1, 20])
    def test_bitwise_equal_to_choice_and_normal(self, archive_size, n_ants):
        region = Box(np.full(4, -3.0), np.full(4, 3.0))
        config = AcoConfig(archive_size=archive_size, n_ants=n_ants)
        probs = roulette_probabilities(archive_size)
        for seed in range(6):
            pts = np.random.default_rng(100 + seed).uniform(-4.0, 4.0, (archive_size, 4))
            pts[:, 2] = 0.25  # a zero-spread column
            archive = _Aco(config, region, pts, np.arange(float(archive_size)))
            assert np.all(archive.spreads()[:, 2] == 0.0)
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):  # the streams stay in step across calls
                got = archive.propose(rng_new)
                expected = reference_construct(archive.x, config, region, rng_ref, probs)
                assert got.shape == (n_ants, 4)
                assert got.tobytes() == expected.tobytes()
            assert rng_new.random() == rng_ref.random()

    def test_collapsed_archive_reproduces_point(self):
        pts = np.tile([1.0, -2.0], (4, 1))
        region = Box(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
        config = AcoConfig(archive_size=4, n_ants=50)
        cands = _Aco(config, region, pts, np.zeros(4)).propose(np.random.default_rng(0))
        np.testing.assert_array_equal(cands, np.tile([1.0, -2.0], (50, 1)))

    def test_empirical_sd_matches_mixture_oracle(self):
        # Closed-form oracle: two-component Gaussian mixture with shared
        # sigma = 2 (mean distance), means 0 and 2, rank weights Q=2/q=0.5.
        w = hp_weights(2, mp.mpf("0.5"))
        p2 = float(w[1] / (w[0] + w[1]))
        mean = 2.0 * p2
        var = 4.0 + p2 * 4.0 - mean**2
        oracle_sd = math.sqrt(var)
        region = Box(np.array([-100.0]), np.array([100.0]))
        config = AcoConfig(archive_size=2, n_ants=100000)
        archive = _Aco(config, region, np.array([[0.0], [2.0]]), np.array([0.0, 1.0]))
        cands = archive.propose(np.random.default_rng(99))
        assert cands.std() == pytest.approx(oracle_sd, rel=0.05)

    def test_candidates_inside_box(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (5, 3))
        values = rng.uniform(size=5)
        region = Box(np.array([-0.5, -0.5, -0.5]), np.array([0.5, 0.5, 0.5]))
        config = AcoConfig(archive_size=5, n_ants=200)
        cands = _Aco(config, region, pts, values).propose(rng)
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
            config = AcoConfig(max_iterations=500)
            res = aco_minimize(sphere_offset(center), self.box5(), config, seed)
            finals.append(res.best_f)
        assert np.mean(finals) <= 1e-6

    def test_constant_objective_flat_history(self):
        config = AcoConfig(max_iterations=60, stagnation_window=100)
        res = aco_minimize(lambda x: np.ones(len(x)), self.box5(), config, 2)
        assert np.all(res.history_best == 1.0)
        lo, hi = self.box5().lo, self.box5().hi
        assert np.all(res.best_x >= lo) and np.all(res.best_x <= hi)

    def test_corner_optimum(self):
        corner = 5.0 * np.ones(5)  # on the box boundary
        config = AcoConfig(max_iterations=500)
        res = aco_minimize(sphere_offset(corner), self.box5(), config, 3)
        np.testing.assert_allclose(res.best_x, corner, atol=1e-4)

    def test_archive_holds_best_ever_offered(self):
        log = []

        def f(x):
            v = np.sum(x**2, axis=1)
            log.extend(zip(x.copy(), v))
            return v

        config = AcoConfig(archive_size=5, n_ants=7, max_iterations=20)
        res = aco_minimize(f, Box(-2.0 * np.ones(2), 2.0 * np.ones(2)), config, 5)
        values = np.array([v for _, v in log])
        # after the start and after each iteration the archive mean is the
        # mean of the 5 best values offered so far, summed in sorted order
        for k, mean in enumerate(res.history_mean):
            assert mean == float(np.add.reduce(np.sort(values[: 5 + 7 * k])[:5])) / 5
        assert res.best_f == values.min()
        assert res.best_x.tobytes() in {x.tobytes() for x, _ in log}
        assert res.n_evaluations == len(log)

    def test_history_monotone_nonincreasing(self):
        config = AcoConfig(max_iterations=120)
        res = aco_minimize(sphere_offset(np.zeros(5)), self.box5(), config, 7)
        assert np.all(np.diff(res.history_best) <= 0.0)

    def test_bit_identical_reruns(self):
        config = AcoConfig(max_iterations=80)
        a = aco_minimize(sphere_offset(np.ones(5)), self.box5(), config, 11)
        b = aco_minimize(sphere_offset(np.ones(5)), self.box5(), config, 11)
        np.testing.assert_array_equal(a.history_best, b.history_best)
        np.testing.assert_array_equal(a.best_x, b.best_x)

    def test_every_candidate_feasible(self):
        # an alpha level's box: lower in [0, (4, 5)], upper in [(6, 7), 10]
        region = Box(np.array([0.0, 0.0, 6.0, 7.0]), np.array([4.0, 5.0, 10.0, 10.0]))

        def f(x):
            assert np.all(x >= region.lo) and np.all(x <= region.hi)  # every row
            return np.sum((x - 5.0) ** 2, axis=1)

        config = AcoConfig(max_iterations=40)
        res = aco_minimize(f, region, config, 13)
        assert np.all(res.best_x >= region.lo) and np.all(res.best_x <= region.hi)

    def test_warm_start_seed_is_used(self):
        seed_point = np.array([1.0, -2.0, 0.5, 3.0, -4.0])
        config = AcoConfig(max_iterations=0)
        res = aco_minimize(sphere_offset(seed_point), self.box5(), config, 17, initial=[seed_point])
        assert res.best_f == 0.0
        np.testing.assert_array_equal(res.best_x, seed_point)

    def test_nan_objective_raises_with_point(self):
        def f(x):
            return np.full(len(x), np.nan)

        with pytest.raises(EvaluationError) as info:
            aco_minimize(f, self.box5(), AcoConfig(), 19)
        assert info.value.point is not None

    def test_non_finite_row_is_named(self):
        # the first non-finite row of a population is reported, with its point
        def f(x):
            v = np.sum(x**2, axis=1)
            v[[3, 5]] = [np.inf, np.nan]
            return v

        with pytest.raises(EvaluationError, match="at row 3") as info:
            aco_minimize(f, self.box5(), AcoConfig(), 19)
        assert info.value.value == np.inf
        assert info.value.point.shape == (5,)

    def test_objective_must_return_one_value_per_row(self):
        with pytest.raises(ShapeError):
            aco_minimize(lambda x: 0.0, self.box5(), AcoConfig(), 19)

    @pytest.mark.parametrize("archive_size", [2, 10])
    @pytest.mark.parametrize("n_ants", [1, 20])
    @pytest.mark.parametrize("case", ["plain", "warm start", "stagnation", "pinched", "ties"])
    def test_bitwise_equal_to_textbook_loop(self, archive_size, n_ants, case):
        lo, hi = np.array([-2.0, -1.0, 0.5, -3.0]), np.array([2.0, 3.0, 4.0, -0.5])
        if case == "pinched":
            lo[1] = hi[1] = 0.25  # a zero-width coordinate
        region = Box(lo, hi)
        settings = dict(archive_size=archive_size, n_ants=n_ants, max_iterations=60)
        if case == "stagnation":  # a flat objective: the stop comes after exactly the window
            settings.update(max_iterations=400, stagnation_window=6)
        if case == "ties":  # the floor stalls the best value; run the whole budget
            settings.update(stagnation_window=100)
        config = AcoConfig(**settings)
        initial = None
        if case == "warm start":  # three starts, one outside the box: truncated to the archive and clipped
            initial = [[0.5, 0.5, 1.0, -1.0], [9.0, -9.0, 2.0, -2.0], [0.1, 0.2, 0.3, -0.6]]
        center = np.array([0.7, 1.3, 3.9, -2.2])

        def f(x):
            v = np.sum((x - center) ** 2, axis=1) + 0.1 * np.sin(7.0 * x).sum(axis=1)
            if case == "stagnation":
                return np.full(len(x), 0.5)
            return np.maximum(v, 0.5) if case == "ties" else v  # ties: flat near the centre, so ants tie with rows

        for seed in (3, 4):
            res = aco_minimize(f, region, config, seed, initial=initial)
            x, _, history_best, history_mean, evaluations, stop_reason = reference_aco(
                f, region, config, seed, initial
            )
            assert res.stop_reason == stop_reason == ("stagnation" if case == "stagnation" else "max_iterations")
            assert res.n_evaluations == evaluations
            assert res.n_iterations == history_best.size - 1 == (6 if case == "stagnation" else 60)
            assert res.history_best.tobytes() == history_best.tobytes()
            assert res.history_mean.tobytes() == history_mean.tobytes()
            assert res.best_x.tobytes() == x[0].tobytes()

    def test_stagnation_stops_early(self):
        config = AcoConfig(max_iterations=5000, stagnation_window=30)
        res = aco_minimize(sphere_offset(np.zeros(5)), self.box5(), config, 23)
        assert res.n_iterations < 5000
        assert res.stop_reason == "stagnation"


class TestStopReason:
    BOX = Box(-np.ones(3), np.ones(3))

    @pytest.mark.parametrize("minimize, config_type", [(aco_minimize, AcoConfig), (pso_minimize, PsoConfig)])
    def test_flat_objective_stagnates(self, minimize, config_type):
        config = config_type(max_iterations=100, stagnation_window=5)
        res = minimize(lambda x: np.ones(len(x)), self.BOX, config, 1)
        assert (res.stop_reason, res.n_iterations) == ("stagnation", 5)

    @pytest.mark.parametrize("window", [1, 2, 17, 60])
    @pytest.mark.parametrize("minimize, config_type", [(aco_minimize, AcoConfig), (pso_minimize, PsoConfig)])
    def test_flat_objective_stops_after_exactly_the_window(self, minimize, config_type, window):
        config = config_type(max_iterations=100, stagnation_window=window)
        res = minimize(lambda x: np.full(len(x), 0.5), self.BOX, config, 2)
        assert (res.stop_reason, res.n_iterations, res.history_best.size) == ("stagnation", window, window + 1)

    @pytest.mark.parametrize("factor, stop_reason", [(0.5, "stagnation"), (2.0, "max_iterations")])
    @pytest.mark.parametrize("window", [1, 4, 9])
    @pytest.mark.parametrize("minimize, config_type", [(aco_minimize, AcoConfig), (pso_minimize, PsoConfig)])
    def test_a_fall_over_the_window_below_the_tolerance_is_stagnation(
        self, minimize, config_type, window, factor, stop_reason
    ):
        # every call of f returns one value, lower by a fixed fall than the
        # call before, so the best value falls by window * fall over a window
        fall = factor * STAGNATION_TOLERANCE / window
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return np.full(len(x), 1.0 - calls * fall)

        config = config_type(max_iterations=30, stagnation_window=window)
        res = minimize(f, self.BOX, config, 1)
        assert res.stop_reason == stop_reason
        assert res.n_iterations == (window if stop_reason == "stagnation" else 30)
        assert np.all(np.diff(res.history_best) < 0.0)

    @pytest.mark.parametrize("minimize, config_type", [(aco_minimize, AcoConfig), (pso_minimize, PsoConfig)])
    def test_full_budget_is_max_iterations(self, minimize, config_type):
        # the loop's objective time covers every call of f, and no more than the whole run
        sphere = sphere_offset(np.zeros(3))
        for iterations in (0, 12):
            inside = 0.0

            def f(x):
                nonlocal inside
                start = time.perf_counter()
                values = sphere(x)
                inside += time.perf_counter() - start
                return values

            config = config_type(max_iterations=iterations, stagnation_window=50)
            start = time.perf_counter()
            res = minimize(f, self.BOX, config, 1)
            elapsed = time.perf_counter() - start
            assert (res.stop_reason, res.n_iterations) == ("max_iterations", iterations)
            assert 0.0 < inside <= res.objective_seconds <= elapsed


class TestRngArgument:
    BOX = Box(-np.ones(3), np.ones(3))

    @pytest.mark.parametrize(
        "minimize, config",
        [(aco_minimize, AcoConfig(max_iterations=15)), (pso_minimize, PsoConfig(max_iterations=15))],
    )
    @pytest.mark.parametrize("seed", [0, 29])
    def test_int_seed_and_its_generator_give_the_same_run(self, minimize, config, seed):
        a = minimize(sphere_offset(np.full(3, 0.25)), self.BOX, config, seed)
        b = minimize(sphere_offset(np.full(3, 0.25)), self.BOX, config, np.random.default_rng(seed))
        assert a.history_best.tobytes() == b.history_best.tobytes()
        assert a.history_mean.tobytes() == b.history_mean.tobytes()
        assert a.best_x.tobytes() == b.best_x.tobytes()

    def test_generator_is_used_as_given(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        aco_minimize(sphere_offset(np.zeros(3)), self.BOX, AcoConfig(max_iterations=2), rng)
        assert rng.bit_generator.state != state


class TestConfigCounts:
    @pytest.mark.parametrize("field", ["archive_size", "n_ants", "max_iterations", "stagnation_window"])
    @pytest.mark.parametrize("value", [2.5, 20.0, True, "20"])
    def test_aco_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"'aco.{field}' must be an integer"):
            AcoConfig(**{field: value})

    @pytest.mark.parametrize("field", ["swarm_size", "max_iterations", "stagnation_window"])
    def test_pso_counts_must_be_integers(self, field):
        with pytest.raises(ConfigurationError, match=f"'pso.{field}' must be an integer, got 7.5"):
            PsoConfig(**{field: 7.5})

    def test_numpy_integers_accepted(self):
        assert AcoConfig(n_ants=np.int64(3)).n_ants == 3


def reference_pso(f, region, config, seed, initial=None):
    """``pso_minimize`` as the textbook loop: per iteration uniform r1 and
    r2, the inertia-weight velocity update, ``np.clip`` of the velocity and
    the position, strict personal- and global-best updates particle by
    particle, and the stagnation rule."""
    rng = np.random.default_rng(seed)
    size, dim = config.swarm_size, region.lo.size
    seeds = np.empty((0, dim))
    if initial is not None:
        seeds = np.clip(np.reshape(initial, (-1, dim))[:size], region.lo, region.hi)
    drawn = np.clip(rng.uniform(region.lo, region.hi, size=(size - len(seeds), dim)), region.lo, region.hi)
    x = np.vstack([seeds, drawn])
    fx = f(x)
    v_max = PSO_V_MAX_FRACTION * (region.hi - region.lo)
    v = np.zeros_like(x)
    pbest_x, pbest_f = x.copy(), fx.copy()
    g = int(np.argmin(pbest_f))
    gbest_x, gbest_f = pbest_x[g].copy(), pbest_f[g]
    history_best, history_mean = [gbest_f], [fx.mean()]
    evaluations, stop_reason = size, "max_iterations"
    for _ in range(config.max_iterations):
        r1 = rng.uniform(size=(size, dim))
        r2 = rng.uniform(size=(size, dim))
        v = PSO_INERTIA * v + PSO_COGNITIVE * r1 * (pbest_x - x) + PSO_SOCIAL * r2 * (gbest_x - x)
        v = np.clip(v, -v_max, v_max)
        x = np.clip(x + v, region.lo, region.hi)
        fx = f(x)
        evaluations += size
        for i in range(size):
            if fx[i] < pbest_f[i]:
                pbest_x[i], pbest_f[i] = x[i], fx[i]
        g = int(np.argmin(pbest_f))
        if pbest_f[g] < gbest_f:
            gbest_x, gbest_f = pbest_x[g].copy(), pbest_f[g]
        history_best.append(gbest_f)
        history_mean.append(fx.mean())
        window = config.stagnation_window
        if len(history_best) > window and (
            history_best[-1 - window] - history_best[-1] < STAGNATION_TOLERANCE
        ):
            stop_reason = "stagnation"
            break
    return pbest_x, pbest_f, gbest_x, np.array(history_best), np.array(history_mean), evaluations, stop_reason


class TestPsoMinimize:
    def box5(self):
        return Box(-5.0 * np.ones(5), 5.0 * np.ones(5))

    @pytest.mark.parametrize("swarm_size", [2, 15])
    @pytest.mark.parametrize("case", ["plain", "warm start", "stagnation", "pinched"])
    def test_bitwise_equal_to_textbook_loop(self, swarm_size, case):
        lo, hi = np.array([-2.0, -1.0, 0.5, -3.0]), np.array([2.0, 3.0, 4.0, -0.5])
        if case == "pinched":
            lo[1] = hi[1] = 0.25  # a zero-width coordinate
        region = Box(lo, hi)
        settings = dict(swarm_size=swarm_size, max_iterations=60, stagnation_window=100)
        if case == "stagnation":  # a flat objective: the stop comes after exactly the window
            settings.update(max_iterations=400, stagnation_window=6)
        config = PsoConfig(**settings)
        initial = None
        if case == "warm start":  # two starts, one outside the box: clipped
            initial = [[0.5, 0.5, 1.0, -1.0], [9.0, -9.0, 2.0, -2.0]]
        center = np.array([0.7, 1.3, 3.9, -2.2])

        def f(x):  # flat near the centre, so new points tie with personal bests
            if case == "stagnation":
                return np.full(len(x), 0.5)
            return np.maximum(np.sum((x - center) ** 2, axis=1) + 0.1 * np.sin(7.0 * x).sum(axis=1), 0.5)

        for seed in (3, 4):
            res = pso_minimize(f, region, config, seed, initial=initial)
            _, _, best_x, history_best, history_mean, evaluations, stop_reason = reference_pso(
                f, region, config, seed, initial
            )
            assert res.stop_reason == stop_reason == ("stagnation" if case == "stagnation" else "max_iterations")
            assert res.n_evaluations == evaluations
            assert res.n_iterations == history_best.size - 1 == (6 if case == "stagnation" else 60)
            assert res.history_best.tobytes() == history_best.tobytes()
            assert res.history_mean.tobytes() == history_mean.tobytes()
            assert res.best_x.tobytes() == best_x.tobytes()

    def test_sphere_ten_seed_median(self):
        center = np.array([1.0, -2.0, 0.5, 3.0, -4.0])
        finals = []
        for seed in range(10):
            config = PsoConfig(swarm_size=40, max_iterations=500)
            res = pso_minimize(sphere_offset(center), self.box5(), config, seed)
            finals.append(res.best_f)
        assert np.median(finals) <= 1e-6

    def test_swarm_started_on_one_point_stays_there(self):
        # every particle is its own best and the swarm's best, at rest: each
        # pull and the inertia term are zero, so no particle ever moves
        start = np.array([1.0, -2.0, 0.5, 3.0, -4.0])
        visited = []

        def f(x):
            visited.append(x.copy())
            return np.sum(x**2, axis=1)

        config = PsoConfig(swarm_size=10, max_iterations=30, stagnation_window=100)
        res = pso_minimize(f, self.box5(), config, 1, initial=np.tile(start, (10, 1)))
        assert len(visited) == 31 and all((x == start).all() for x in visited)
        assert np.all(res.history_best == start @ start)
        assert res.best_x.tobytes() == start.tobytes()

    def test_history_monotone_and_deterministic(self):
        config = PsoConfig(swarm_size=15, max_iterations=100)
        a = pso_minimize(sphere_offset(np.ones(5)), self.box5(), config, 3)
        b = pso_minimize(sphere_offset(np.ones(5)), self.box5(), config, 3)
        assert np.all(np.diff(a.history_best) <= 0.0)
        np.testing.assert_array_equal(a.history_best, b.history_best)

    def test_every_candidate_feasible(self):
        box = self.box5()

        def f(x):
            assert np.all(x >= box.lo) and np.all(x <= box.hi)  # every row
            return np.sum(x**2, axis=1)

        pso_minimize(f, box, PsoConfig(swarm_size=12, max_iterations=50), 5)

    def test_evaluation_count_bookkeeping(self):
        calls = 0

        def f(x):
            nonlocal calls
            calls += len(x)
            return np.sum(x**2, axis=1)

        config = PsoConfig(swarm_size=13, max_iterations=21, stagnation_window=100)
        res = pso_minimize(f, self.box5(), config, 7)
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
        # an alpha level's box, lower in [0, (0, 1)] and upper in [(2, 3), 4]:
        # lower coordinate 0 is pinned (theta_min == prev_lower), so the
        # region has a zero-width coordinate; corner starts put every other
        # coordinate on a bound, where finite differences must step inward
        region = Box([0.0, 0.0, 2.0, 3.0], [0.0, 1.0, 4.0, 4.0])

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
        with pytest.raises(ConfigurationError, match=r"^'aco.archive_size' must be at least 2, got 1$"):
            AcoConfig(archive_size=1)
        with pytest.raises(ConfigurationError, match=r"^'aco.n_ants' must be at least 1, got 0$"):
            AcoConfig(n_ants=0)

    def test_pso_bounds(self):
        with pytest.raises(ConfigurationError, match=r"^'pso.swarm_size' must be at least 2, got 1$"):
            PsoConfig(swarm_size=1)
        with pytest.raises(ConfigurationError, match=r"^'pso.max_iterations' must be at least 0, got -1$"):
            PsoConfig(max_iterations=-1)

    def test_bounds_are_inclusive_where_stated(self):
        AcoConfig(archive_size=2, n_ants=1, max_iterations=0, stagnation_window=1)
        PsoConfig(swarm_size=2, max_iterations=0, stagnation_window=1)
