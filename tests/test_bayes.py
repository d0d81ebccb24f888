"""Tests for the Metropolis-Hastings baseline."""

import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ffemu import scenarios
from ffemu import bayes
from ffemu.bayes import (
    CHECK_EVERY,
    CSV_CHUNK,
    FIRST_FIT,
    FIT_ROWS,
    PATH_CAP,
    SURROGATE_WINDOW_COST,
    WINDOW_COST,
    Chain,
    McmcConfig,
    log_posterior_batch,
    mh_sample,
    summarize,
    _path_lengths,
    write_chain_csv,
)
from ffemu.errors import (
    ConfigurationError,
    ConvergenceError,
    DiagnosticsError,
    DomainError,
    ShapeError,
)
from ffemu.model import GROUND, SpringElement, StructuralModel
from ffemu.pipeline import load_run_config


def one_dof_model():
    return StructuralModel(
        masses=np.array([1.0]),
        springs=(SpringElement("k", GROUND, 0, param_index=0),),
        parameter_count=1,
    )


def one_dof_config(**overrides):
    defaults = dict(
        n_samples=1000,
        burn_in=100,
        proposal_sd=np.array([0.25]),
        likelihood_sd=0.02,
        theta_min=np.array([1.0]),
        theta_max=np.array([9.0]),
        rng_seed=0,
    )
    defaults.update(overrides)
    return McmcConfig(**defaults)


def log_posterior_row(theta, measured, model, config) -> float:
    """Log posterior at one parameter vector: a one-row ``log_posterior_batch``."""
    row = np.asarray(theta, dtype=float)[None, :]
    return log_posterior_batch(row, measured, model, config).item()


def center_eigenvalues(model, theta):
    """Eigenvalues at one parameter vector, from a one-row ``modal_batch``."""
    (lam,), _ = model.modal_batch(np.asarray(theta, dtype=float)[None, :])
    return lam


def sequential_chain(config, model, measured, solved=None, decisions=None, trajectory=None):
    """The one-step-at-a-time definition of the chain: each step draws d
    normals from the first child stream of ``SeedSequence(rng_seed)`` and
    one uniform from the second. ``solved`` collects every state it
    evaluates, ``decisions`` each step's accept (True) or reject (False)
    and ``trajectory`` the start state, then the state after each step."""
    normals, uniforms = map(np.random.default_rng, np.random.SeedSequence(config.rng_seed).spawn(2))
    theta = (
        config.initial.copy()
        if config.initial is not None
        else 0.5 * (config.theta_min + config.theta_max)
    )
    lp = log_posterior_row(theta, measured, model, config)
    states = [theta]
    if trajectory is not None:
        trajectory.append(theta)
    kept = np.empty((config.n_samples - config.burn_in, theta.size))
    accepted = 0
    for i in range(config.n_samples):
        proposal = theta + normals.normal(0.0, config.proposal_sd)
        lp_prop = log_posterior_row(proposal, measured, model, config)
        states.append(proposal)
        accept = bool(np.log(uniforms.uniform()) < lp_prop - lp)
        if accept:
            theta = proposal
            lp = lp_prop
            accepted += 1
        if decisions is not None:
            decisions.append(accept)
        if trajectory is not None:
            trajectory.append(theta)
        if i >= config.burn_in:
            kept[i - config.burn_in] = theta
    if solved is not None:
        solved.update(row.tobytes() for row in states)
    return kept, accepted / config.n_samples


def five_dof_chain_config(proposal_fraction, **overrides):
    settings = dict(
        n_samples=600, burn_in=50, proposal_fraction=proposal_fraction,
        likelihood_sd=0.005, initial=scenarios.THETA_INITIAL, rng_seed=3,
    )
    settings.update(overrides)
    return McmcConfig.from_box(scenarios.THETA_MIN, scenarios.THETA_MAX, **settings)


def bundled_chain(tmp_path, seed, n_samples=2000):
    """The bundled run config's sampler settings at ``seed``, cut to
    ``n_samples`` steps, with its model and measured centre eigenvalues."""
    config = scenarios.bundled_run_config(seed=seed)
    config["bayes"]["n_samples"] = n_samples
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    run_config = load_run_config(path)
    return run_config.bayes, run_config.run.model, run_config.run.measured.center_eigenvalues()


def assert_equals_sequential(config, model, measured):
    chain = mh_sample(config, model, measured)
    samples, rate = sequential_chain(config, model, measured)
    assert np.array_equal(chain.samples, samples)
    assert chain.acceptance_rate == rate
    return chain


def step_draws(config):
    """Every step's increment and log uniform, drawn in bulk from the two
    child streams of ``SeedSequence(rng_seed)``."""
    normals, uniforms = map(np.random.default_rng, np.random.SeedSequence(config.rng_seed).spawn(2))
    steps = normals.standard_normal((config.n_samples, config.theta_min.size))
    steps *= config.proposal_sd
    return steps, np.log(uniforms.random(config.n_samples))


def replayed_windows(decisions, log_u, fits, changes, guesses):
    """The windows the walk should make, replayed from the sequential chain's
    decisions and the path rule: one dict per window with its first step
    ``start``, its length ``a``, its predictions ``guess``, ``missed`` (the
    last decided step broke its prediction), ``cut`` (the chain's end
    shortened it) and ``follow`` (the predictions are the surrogate's).
    The predictor's outputs come in as the walk produced them, in call
    order: ``fits`` from ``_quadratic_fit``, ``changes`` (the surrogate's
    changes along the majority path) from ``_surrogate_change`` and
    ``guesses`` from ``_surrogate_guess``; the replay decides when each is
    used."""
    lengths = _path_lengths()
    grid = len(lengths) - 1
    fits, changes, guesses = iter(fits), iter(changes), iter(guesses)
    n = len(decisions)
    windows = []
    i = accepted = missed = 0
    fit, next_fit = None, FIRST_FIT
    surrogate_missed = majority_missed = 0
    while i < n:
        if i >= next_fit:
            fit, next_fit = next(fits), 2 * i
            surrogate_missed = majority_missed = 0
        full = lengths[math.floor(grid * (i - missed + 1) / (i + 2) + 0.5)]
        a = min(full, n - i)
        majority = 2 * accepted >= i
        follow = fit is not None and SURROGATE_WINDOW_COST * surrogate_missed <= majority_missed
        checking = fit is not None and (follow or len(windows) % CHECK_EVERY == 0)
        # the surrogate's predictions along the majority path, or along its own
        hunch = (log_u[i : i + a] < next(changes)).tolist() if checking else None
        guess = [majority] * a
        if follow:
            guess = hunch = next(guesses)
        j = next((k + 1 for k in range(a) if decisions[i + k] != guess[k]), a)
        decided = decisions[i : i + j]
        broke = decided[-1] != guess[j - 1]
        missed += broke
        if checking:
            majority_missed += sum(d != majority for d in decided)
            surrogate_missed += sum(d != h for d, h in zip(decided, hunch))
        windows.append(dict(start=i, a=a, guess=guess, missed=broke, cut=a < full, follow=follow))
        accepted += sum(decided)
        i += j
    assert next(fits, None) is None and next(changes, None) is None and next(guesses, None) is None
    return windows


def walk_with_windows(config, model, measured, monkeypatch):
    """Run the walk; check it against the sequential chain bit for bit, its
    eigensolve calls against the replayed path rule, and every solved row
    against the predicted path: the sequential chain's state at the
    window's start, advanced by each predicted accept in turn, plus the
    step's increment; and every fit's input against the ring of the
    ``FIT_ROWS`` most recent solved rows, in their slots, with their log
    posteriors bit for bit. Every row must be inside the prior box, so that
    each window is one solve of all its rows. Also returns, for each fit,
    how many rows the walk had solved before it."""
    batches, fits, changes, guesses, rings = [], [], [], [], []
    original_solve = StructuralModel.eigenvalues_batch
    original_fit = bayes._quadratic_fit

    def recording_solve(self, thetas):
        batches.append(np.array(thetas))
        return original_solve(self, thetas)

    def record(name, out, keep=lambda result: result):
        original = getattr(bayes, name)

        def recording(*args):
            result = original(*args)
            out.append(keep(result))
            return result

        monkeypatch.setattr(bayes, name, recording)

    def recording_fit(points, values):
        rings.append((len(batches), points.copy(), values.copy()))
        fits.append(original_fit(points, values))
        return fits[-1]

    monkeypatch.setattr(StructuralModel, "eigenvalues_batch", recording_solve)
    monkeypatch.setattr(bayes, "_quadratic_fit", recording_fit)
    record("_surrogate_change", changes, keep=lambda result: result[0].copy())
    record("_surrogate_guess", guesses)
    chain = mh_sample(config, model, measured)
    monkeypatch.undo()
    decisions, trajectory = [], []
    samples, rate = sequential_chain(config, model, measured, decisions=decisions, trajectory=trajectory)
    assert np.array_equal(chain.samples, samples)
    assert chain.acceptance_rate == rate
    steps, log_u = step_draws(config)
    windows = replayed_windows(decisions, log_u, fits, changes, guesses)
    assert [len(b) for b in batches] == [1] + [w["a"] for w in windows]
    assert (chain.windows, chain.solved_rows) == (len(windows), sum(map(len, batches)))
    n = config.n_samples
    assert chain.prediction_rate == (n - sum(w["missed"] for w in windows)) / n
    for w, batch in zip(windows, batches[1:]):
        state = trajectory[w["start"]]
        for k, (row, accept) in enumerate(zip(batch, w["guess"])):
            proposal = state + steps[w["start"] + k]
            assert row.tobytes() == proposal.tobytes()
            if accept:
                state = proposal
    seen = []
    for count, points, values in rings:
        rows = np.vstack(batches[1:count])
        recent = np.arange(max(len(rows) - FIT_ROWS, 0), len(rows))
        ring_rows, ring_lps = np.zeros((FIT_ROWS, rows.shape[1])), np.full(FIT_ROWS, -np.inf)
        ring_rows[recent % FIT_ROWS] = rows[recent]
        ring_lps[recent % FIT_ROWS] = log_posterior_batch(rows[recent], measured, model, config)
        assert points.tobytes() == ring_rows.tobytes() and values.tobytes() == ring_lps.tobytes()
        seen.append(len(rows))
    return chain, windows, seen


class TestLogPosterior:
    def test_truth_is_maximal_on_grid_probe(self):
        # coarse grid scan oracle around the truth on noise-free data
        model = scenarios.five_dof_model()
        truth = scenarios.THETA_TRUE
        measured = center_eigenvalues(model, truth)
        config = McmcConfig.from_box(scenarios.THETA_MIN, scenarios.THETA_MAX)
        lp_truth = log_posterior_row(truth, measured, model, config)
        rng = np.random.default_rng(2)
        for _ in range(60):
            probe = truth + rng.uniform(-100.0, 100.0, truth.size)
            probe = np.clip(probe, scenarios.THETA_MIN, scenarios.THETA_MAX)
            assert log_posterior_row(probe, measured, model, config) <= lp_truth + 1e-12

    def test_outside_box_is_minus_inf(self):
        model = one_dof_model()
        config = one_dof_config()
        assert log_posterior_row([0.5], [5.0], model, config) == -np.inf
        assert log_posterior_row([9.5], [5.0], model, config) == -np.inf

    def test_doubling_sd_quarters_quadratic_term_exactly(self):
        model = one_dof_model()
        # power-of-two scales keep the quartering bitwise exact
        cfg1 = one_dof_config(likelihood_sd=0.015625)
        cfg2 = one_dof_config(likelihood_sd=0.03125)
        lp1 = log_posterior_row([4.5], [5.0], model, cfg1)
        lp2 = log_posterior_row([4.5], [5.0], model, cfg2)
        assert 4.0 * lp2 == lp1


class TestMhSample:
    def test_tiny_proposal_accepts_everything(self):
        model = one_dof_model()
        config = one_dof_config(proposal_sd=np.array([1e-12]), initial=np.array([5.0]))
        chain = mh_sample(config, model, np.array([5.0]))
        assert chain.acceptance_rate > 0.999
        assert np.ptp(chain.samples) < 1e-9

    def test_one_dim_gaussian_variance_and_ks(self):
        # lambda(theta) = theta here, so the posterior is Gaussian with
        # mean 5 and sd = 5 * likelihood_sd, far from the box edges
        model = one_dof_model()
        config = one_dof_config(n_samples=100000, burn_in=1000, rng_seed=7)
        chain = mh_sample(config, model, np.array([5.0]))
        sd_target = 5.0 * config.likelihood_sd
        assert chain.samples.var(ddof=1) == pytest.approx(sd_target**2, rel=0.10)
        ks = stats.kstest(chain.samples[:, 0], stats.norm(5.0, sd_target).cdf).statistic
        assert ks <= 0.02

    def test_samples_stay_inside_prior_box(self):
        model = one_dof_model()
        config = one_dof_config(proposal_sd=np.array([3.0]), rng_seed=3)
        chain = mh_sample(config, model, np.array([5.0]))
        assert np.all(chain.samples >= 1.0) and np.all(chain.samples <= 9.0)
        assert 0.0 < chain.acceptance_rate < 1.0

    def test_seed_determinism(self):
        model = one_dof_model()
        a = mh_sample(one_dof_config(rng_seed=11), model, np.array([5.0]))
        b = mh_sample(one_dof_config(rng_seed=11), model, np.array([5.0]))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_zero_acceptance_raises_diagnostics(self):
        model = one_dof_model()
        config = one_dof_config(
            n_samples=200, burn_in=0, proposal_sd=np.array([1e9]), rng_seed=1,
            initial=np.array([5.0]),
        )
        with pytest.raises(DiagnosticsError, match="proposal_sd"):
            mh_sample(config, model, np.array([5.0]))

    def test_five_dof_desk_run_recovers_truth(self):
        model = scenarios.five_dof_model()
        truth = scenarios.THETA_TRUE
        measured = center_eigenvalues(model, truth)
        config = McmcConfig.from_box(
            scenarios.THETA_MIN, scenarios.THETA_MAX,
            n_samples=10000, burn_in=1000, likelihood_sd=0.005,
            initial=scenarios.THETA_INITIAL, rng_seed=0,
        )
        chain = mh_sample(config, model, measured)
        summary = summarize(chain)
        np.testing.assert_allclose(summary.mean, truth, rtol=0.02)
        assert np.all(summary.cov_percent < 5.0)  # the probabilistic spread stays small


class TestWindowedWalk:
    """The prefetching walk must reproduce the sequential chain bit for bit."""

    @pytest.mark.parametrize(
        "fraction, low, high", [(0.007, 0.7, 0.9), (0.03, 0.3, 0.55), (0.1, 0.01, 0.1)]
    )
    def test_five_dof_equals_sequential_at_high_mid_low_acceptance(self, fraction, low, high):
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        chain = assert_equals_sequential(five_dof_chain_config(fraction), model, measured)
        assert low < chain.acceptance_rate < high

    def test_box_edge_windows_mix_outside_and_solved_rows(self, monkeypatch):
        # the posterior peak at 1.1 sits by the lower box edge at 1.0, so
        # many proposals leave the box and are not solved
        model = one_dof_model()
        config = one_dof_config(proposal_sd=np.array([0.5]), initial=np.array([1.5]), rng_seed=4)
        measured = np.array([1.1])
        solved_rows = []  # rows per eigensolve
        batches = []  # (rows, rows inside the box): the start state, then each window
        original_solve = StructuralModel.eigenvalues_batch
        original_rows = bayes._log_posterior_rows

        def counting(self, thetas):
            solved_rows.append(len(thetas))
            return original_solve(self, thetas)

        def recording(th, inside, *args):
            batches.append((len(th), int(inside.sum())))
            return original_rows(th, inside, *args)

        monkeypatch.setattr(StructuralModel, "eigenvalues_batch", counting)
        monkeypatch.setattr(bayes, "_log_posterior_rows", recording)
        chain = mh_sample(config, model, measured)
        monkeypatch.undo()
        assert any(0 < solved < rows for rows, solved in batches[1:])
        # only the rows inside the box reach the eigensolver
        assert solved_rows == [solved for _, solved in batches if solved]
        assert (chain.windows, chain.solved_rows) == (len(batches) - 1, sum(solved_rows))
        samples, rate = sequential_chain(config, model, measured)
        assert np.array_equal(chain.samples, samples)
        assert chain.acceptance_rate == rate

    @pytest.mark.parametrize(
        "fraction, overrides, low, high",
        [(0.0005, dict(likelihood_sd=0.005), 0.9, 1.0), (0.05, dict(likelihood_sd=0.001, n_samples=1000), 0.0, 0.02)],
        ids=["path-capped", "fan-capped"],
    )
    def test_capped_shapes_equal_sequential(self, fraction, overrides, low, high, monkeypatch):
        # almost every step goes one way, so the predictions hold for more
        # than 63/64 of the steps and the path grows to its cap
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        config = five_dof_chain_config(fraction, **overrides)
        chain, windows, _ = walk_with_windows(config, model, measured, monkeypatch)
        assert low <= chain.acceptance_rate <= high
        assert PATH_CAP in {w["a"] for w in windows}

    @pytest.mark.parametrize(
        "overrides, accept_branch, window_rows",
        [
            # every prediction holds, so h = (held + 1) / (decided + 2) rises
            # from 0.5 and the path grows until the chain's end cuts it
            (dict(n_samples=86, proposal_sd=np.array([1e-12])), True, [5, 12, 23, 35, 11]),
            (dict(n_samples=301, likelihood_sd=0.0005), False, None),
        ],
        ids=["accept-path", "reject-fan"],
    )
    def test_chain_ending_mid_window_equals_sequential(
        self, overrides, accept_branch, window_rows, monkeypatch
    ):
        model = one_dof_model()
        config = one_dof_config(burn_in=0, initial=np.array([5.0]), **overrides)
        _, windows, _ = walk_with_windows(config, model, np.array([5.0]), monkeypatch)
        assert windows[-1]["cut"] and set(windows[-1]["guess"]) == {accept_branch}
        assert window_rows in (None, [w["a"] for w in windows])

    def test_burn_in_zero(self):
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        chain = assert_equals_sequential(five_dof_chain_config(0.03, burn_in=0), model, measured)
        assert chain.samples.shape == (600, 5)

    def test_sample_count_not_a_multiple_of_depth(self, monkeypatch):
        # the chain's end cuts its last window short
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        n = 301
        chain, windows, _ = walk_with_windows(
            five_dof_chain_config(0.03, n_samples=n, burn_in=7), model, measured, monkeypatch
        )
        assert windows[-1]["cut"]
        assert chain.samples.shape == (n - 7, 5)

    def test_unreached_row_that_fails_to_converge_does_not_raise(self, monkeypatch):
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        config = five_dof_chain_config(0.03, n_samples=300)
        reached = set()
        samples, rate = sequential_chain(config, model, measured, solved=reached)
        original = StructuralModel.eigenvalues_batch
        passed = []

        def fails_off_the_chain(self, thetas):
            passed.append(len(thetas))
            if any(row.tobytes() not in reached for row in np.asarray(thetas)):
                raise ConvergenceError("eigensolver did not converge")
            return original(self, thetas)

        monkeypatch.setattr(StructuralModel, "eigenvalues_batch", fails_off_the_chain)
        chain = mh_sample(config, model, measured)
        assert np.array_equal(chain.samples, samples)
        assert chain.acceptance_rate == rate
        # solved_rows counts the failed batches and the one-row re-solves
        assert 1 in passed[1:]
        assert chain.solved_rows == sum(passed)

    def test_reached_row_that_fails_to_converge_raises(self, monkeypatch):
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        original = StructuralModel.eigenvalues_batch
        calls = []

        def fails_after_start(self, thetas):
            calls.append(len(thetas))
            if len(calls) > 1:
                raise ConvergenceError("eigensolver did not converge")
            return original(self, thetas)

        monkeypatch.setattr(StructuralModel, "eigenvalues_batch", fails_after_start)
        with pytest.raises(ConvergenceError):
            mh_sample(five_dof_chain_config(0.03), model, measured)
        # the first window's batch (its path at the starting hold rate 0.5),
        # then the first row of the one-row re-solve
        lengths = _path_lengths()
        assert calls == [1, lengths[len(lengths) // 2], 1]


    @pytest.mark.parametrize(
        "wrong_fit",
        [
            lambda points, values: (scenarios.THETA_MAX.copy(), 1e6 * np.eye(5)),  # far mean, tiny covariance
            lambda points, values: (points[0].copy(), -np.eye(5) / 100.0),  # not positive definite
            lambda points, values: (points[0].copy(), np.zeros((5, 5))),  # flat: predicts every accept
        ],
        ids=["far-and-narrow", "indefinite", "flat"],
    )
    def test_wrong_surrogate_still_equals_sequential(self, wrong_fit, monkeypatch):
        # the predictions steer only which rows are solved ahead, so even a
        # surrogate that predicts badly leaves the chain as it is; the
        # majority takes over once it has held more often
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        monkeypatch.setattr(bayes, "_quadratic_fit", wrong_fit)
        _, windows, _ = walk_with_windows(five_dof_chain_config(0.03), model, measured, monkeypatch)
        fitted = [w for w in windows if w["start"] >= FIRST_FIT]
        assert any(w["follow"] for w in fitted) and not all(w["follow"] for w in fitted)


class TestPredictor:
    """The surrogate's predictions, against a step-by-step reference."""

    @staticmethod
    def surrogate(x, mean, precision):
        r = x - mean
        return -0.5 * r @ precision @ r

    def test_predictions_follow_the_predicted_path(self):
        # each log u sits 0.5 above or below the reference change at the
        # reference path's state, far outside rounding, so the predictions
        # are fixed; both majority baselines must give them
        rng = np.random.default_rng(4)
        a, d = 40, 5
        z = 3.0 * rng.standard_normal((a, d))
        theta = np.full(d, 100.0)
        mean = theta + rng.standard_normal(d)
        root = rng.standard_normal((d, d))
        precision = root @ root.T / d + 0.1 * np.eye(d)
        state, expected, log_u = theta, [], []
        for k in range(a):
            change = self.surrogate(state + z[k], mean, precision) - self.surrogate(state, mean, precision)
            accept = bool(rng.random() < 0.6)
            log_u.append(change - 0.5 if accept else change + 0.5)
            expected.append(accept)
            if accept:
                state = state + z[k]
        assert 0 < sum(expected) < a
        for majority in (True, False):
            path = theta + np.vstack([np.zeros(d), np.cumsum(z[:-1], axis=0)]) if majority else np.tile(theta, (a, 1))
            delta, w = bayes._surrogate_change(path, z, mean, precision)
            reference = [
                self.surrogate(s + step, mean, precision) - self.surrogate(s, mean, precision)
                for s, step in zip(path, z)
            ]
            np.testing.assert_allclose(delta, reference, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(w, z @ precision, rtol=1e-12)
            assert bayes._surrogate_guess(log_u, delta, z, w, majority) == expected

    @staticmethod
    def scattered_quadratic(rng, m, mean, precision, offset=-40.0):
        """``m`` points scattered about ``mean`` (correlated, two widths), and
        the exact log density offset - 1/2 (x - mean)^T precision (x - mean) at each."""
        d = mean.size
        points = mean + 2.0 * rng.standard_normal((m, d)) @ rng.standard_normal((d, d)) * 30.0
        r = points - mean
        return points, offset - 0.5 * np.einsum("ki,ij,kj->k", r, precision, r)

    @staticmethod
    def bundled_like_precision(rng, d=5):
        """A precision whose covariance is strongly correlated, as the bundled
        posterior's is (for ``default_rng(6)``: correlations down to -0.98,
        condition number about 330)."""
        root = rng.standard_normal((d, d))
        covariance = root @ root.T + 0.05 * np.eye(d)
        return np.linalg.inv(100.0 * covariance)

    def test_fit_recovers_an_exact_quadratic(self):
        # the values are an exact quadratic, so the fit is exact up to the
        # rounding of the normal equations: the errors are below 1e-11, and
        # 1e-7 is far above that and far below any error that would matter
        # to a prediction; rows at -inf (outside the box) are dropped
        rng = np.random.default_rng(6)
        mean = np.array([4000.0, 2500.0, 2000.0, 1800.0, 3000.0])
        precision = self.bundled_like_precision(rng)
        points, values = self.scattered_quadratic(rng, 700, mean, precision)
        values[::7] = -np.inf
        fit_mean, fit_precision = bayes._quadratic_fit(points, values)
        sd = np.sqrt(np.diag(np.linalg.inv(precision)))
        np.testing.assert_allclose((fit_mean - mean) / sd, 0.0, atol=1e-7)
        np.testing.assert_allclose(fit_precision, precision, rtol=1e-7, atol=1e-7 * np.abs(precision).max())

    def test_fit_uses_only_finite_rows(self):
        # garbage at the -inf rows, as in an unwritten ring slot, changes nothing
        rng = np.random.default_rng(7)
        mean, precision = np.full(5, 3000.0), self.bundled_like_precision(rng)
        points, values = self.scattered_quadratic(rng, 400, mean, precision)
        values[300:] = -np.inf
        expected = bayes._quadratic_fit(points[:300], values[:300])
        points[300:] = np.nan
        for got, want in zip(bayes._quadratic_fit(points, values), expected):
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def broken(case):
        rng = np.random.default_rng(8)
        mean, precision = np.full(5, 3000.0), TestPredictor.bundled_like_precision(rng)
        points, values = TestPredictor.scattered_quadratic(rng, 500, mean, precision)
        if case == "indefinite":  # a saddle: one direction curves up
            axis = np.linalg.eigh(precision)[1][:, 0]
            values += ((points - mean) @ axis) ** 2 * 2.0 * np.linalg.eigvalsh(precision)[-1]
        elif case == "flat-linear":
            values = -10.0 + (points - mean) @ rng.standard_normal(5)
        elif case == "flat-constant":
            values = np.full(len(points), -7.25)
        elif case == "flat-to-rounding":  # curves down by less than sqrt(eps) of the values
            values = -40.0 + 1e-8 * (values + 40.0)
        elif case == "too-few-finite":  # 21 coefficients need more than 21 rows
            values[21:] = -np.inf
        elif case == "constant-coordinate":
            points[:, 2] = 2000.0
        elif case == "rank-one":  # every point on one line: the normal equations are singular
            points = mean + np.outer(points[:, 0] - mean[0], np.arange(1.0, 6.0))
        return points, values

    @pytest.mark.parametrize(
        "case",
        [
            "indefinite", "flat-linear", "flat-constant", "flat-to-rounding",
            "too-few-finite", "constant-coordinate", "rank-one",
        ],
    )
    def test_failed_fit_is_none(self, case):
        assert bayes._quadratic_fit(*self.broken(case)) is None

    @pytest.mark.parametrize("case", ["one-more-finite-row", "curving-above-rounding"])
    def test_fit_just_past_the_limits(self, case):
        # the too-few-finite and flat-to-rounding cases fail for their row
        # count and their curvature alone
        points, values = self.broken("none")
        if case == "one-more-finite-row":
            values[22:] = -np.inf
        else:
            values = -40.0 + 1e-6 * (values + 40.0)
        assert bayes._quadratic_fit(points, values) is not None


class TestBundledPredictions:
    """The surrogate fitted to the solved log posteriors, on the bundled
    run config's chains cut to 2,000 steps."""

    # seeds 0-4 measured prediction rates 0.950-0.971 and 142-183 windows
    # (0.776-0.845 and 378-490 with a Gaussian fitted to the chain's own
    # states); the floor is 0.02 below the lowest rate, the ceiling 15%
    # above the most windows
    RATE_FLOOR = 0.93
    WINDOW_CEILING = 210

    @pytest.mark.parametrize("seed", range(5))
    def test_predictions_hold_and_windows_are_few(self, seed, tmp_path):
        chain = mh_sample(*bundled_chain(tmp_path, seed))
        assert chain.prediction_rate >= self.RATE_FLOOR
        assert chain.windows <= self.WINDOW_CEILING

    def test_wrapped_ring_fits_only_its_most_recent_rows(self, tmp_path, monkeypatch):
        # walk_with_windows checks every fit's input against the most recent
        # rows; by the fit at step 1,024 the walk has solved more rows than
        # the ring holds
        _, _, seen = walk_with_windows(*bundled_chain(tmp_path, 1), monkeypatch)
        assert seen[0] < FIT_ROWS < seen[-1]


class TestAgainstStridWindows:
    """The predicted path against Strid's (2010) accept-path-plus-reject-fan
    windows, kept here as a reference: from the same decisions, the modelled
    cost ``WINDOW_COST`` x windows + solved rows."""

    @staticmethod
    def strid_shapes():
        """(A, F) for each running acceptance rate g / 32: the A-step accept
        path and (F - 1)-row reject fan, each 1..24, that minimise
        (WINDOW_COST + A + F - 1) / S(A, F), S = (1 - p^A) / (1 - p) + (q - q^F) / p."""
        p = np.linspace(0.0, 1.0, 33)[:, None]
        k = np.arange(24)
        path_steps = (p**k).cumsum(axis=1)
        fan_steps = ((1.0 - p) ** k).cumsum(axis=1) - 1.0
        rows = k[:, None] + k[None, :] + 1
        best = [((WINDOW_COST + rows) / (a[:, None] + f)).argmin() for a, f in zip(path_steps, fan_steps)]
        return [(int(a) + 1, int(f) + 1) for a, f in zip(*np.divmod(best, k.size))]

    def strid_cost(self, decisions):
        """Strid's walk over ``decisions``: the path up to and including the
        first reject, or the fan up to and including the first accept."""
        shapes = self.strid_shapes()
        n = len(decisions)
        i = accepted = windows = 0
        rows = 1  # the start state
        while i < n:
            path, fan = shapes[math.floor(32 * (accepted / i if i else 0.5) + 0.5)]
            a, f = min(path, n - i), min(fan, n - i)
            branch = decisions[i]
            limit = a if branch else f
            j = next((k for k in range(1, limit) if decisions[i + k] != branch), limit - 1) + 1
            windows += 1
            rows += a + f - 1
            accepted += sum(decisions[i : i + j])
            i += j
        return WINDOW_COST * windows + rows

    @pytest.mark.parametrize("fraction, lower", [(0.003, False), (0.007, True), (0.03, True), (0.1, False)])
    def test_predicted_path_costs_no_more(self, fraction, lower):
        # the benchmark's chain length: the fits need the chain to have
        # settled (at 0.003 a chain of 10,000 steps still costs up to 2% more)
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        config = five_dof_chain_config(fraction, n_samples=40000, burn_in=0, rng_seed=1)
        chain = mh_sample(config, model, measured)
        before = np.vstack([config.initial, chain.samples[:-1]])
        decisions = (chain.samples != before).any(axis=1).tolist()  # an accept always moves
        assert sum(decisions) == round(chain.acceptance_rate * config.n_samples)
        cost, strid = WINDOW_COST * chain.windows + chain.solved_rows, self.strid_cost(decisions)
        assert cost < strid if lower else cost <= strid


class TestRandomStreams:
    """Increments come from the first child stream of ``SeedSequence(rng_seed)``,
    uniforms from the second, one row and one uniform per step."""

    def test_shorter_chain_is_a_prefix_of_a_longer_one(self):
        model = scenarios.five_dof_model()
        measured = center_eigenvalues(model, scenarios.THETA_TRUE)
        short = mh_sample(five_dof_chain_config(0.03, n_samples=3000, burn_in=0), model, measured)
        long = mh_sample(five_dof_chain_config(0.03, n_samples=5000, burn_in=0), model, measured)
        assert np.array_equal(short.samples, long.samples[:3000])

    def test_accepted_states_are_the_running_sum_of_the_first_stream(self):
        # a step of 1e-12 changes the log posterior by about 1e-21, less than
        # the largest log uniform, -2^-53: every proposal is accepted
        model = one_dof_model()
        config = one_dof_config(proposal_sd=np.array([1e-12]), initial=np.array([5.0]), rng_seed=9)
        chain = mh_sample(config, model, np.array([5.0]))
        first, _ = np.random.SeedSequence(9).spawn(2)
        z = np.random.default_rng(first).standard_normal((config.n_samples, 1))
        states = np.cumsum(np.vstack([config.initial, z * config.proposal_sd]), axis=0)
        assert chain.acceptance_rate == 1.0
        assert chain.samples.tobytes() == states[1 + config.burn_in :].tobytes()


class TestPathLengths:
    def test_each_length_minimises_the_modelled_cost(self):
        # brute force over every length up to the cap, in exact arithmetic,
        # with S = (1 - h^a) / (1 - h) steps decided per window
        lengths = _path_lengths()
        grid = len(lengths) - 1
        assert grid == 32
        for g, chosen in enumerate(lengths):
            h = Fraction(g, grid)

            def cost(a):
                steps = a if h == 1 else (1 - h**a) / (1 - h)
                return (WINDOW_COST + a) / steps

            best = min(cost(a) for a in range(1, PATH_CAP + 1))
            assert 1 <= chosen <= PATH_CAP
            assert cost(chosen) <= best * (1 + Fraction(1, 10**12)), (h, chosen)

    def test_path_never_shortens_as_the_hold_rate_rises(self):
        lengths = _path_lengths()
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))
        assert (lengths[0], lengths[-1]) == (1, PATH_CAP)

    def test_bundled_hold_rate_takes_a_23_step_path(self):
        # the bundled M-H run's predictions hold for about 0.93 of its steps
        assert _path_lengths()[round(0.93 * 32)] == 23


class TestSummarize:
    def test_constant_chain(self):
        chain = Chain(samples=np.full((50, 2), 3.0), acceptance_rate=1.0)
        summary = summarize(chain)
        np.testing.assert_array_equal(summary.sd, [0.0, 0.0])
        np.testing.assert_array_equal(summary.cov_percent, [0.0, 0.0])

    def test_two_sample_hand_values(self):
        chain = Chain(samples=np.array([[1.0], [3.0]]), acceptance_rate=0.5)
        summary = summarize(chain)
        assert summary.mean[0] == 2.0
        assert summary.sd[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert summary.cov_percent[0] == pytest.approx(70.71067811865476, rel=1e-12)

    def test_empty_chain_rejected(self):
        with pytest.raises(DomainError):
            summarize(Chain(samples=np.empty((0, 2)), acceptance_rate=0.0))

    def test_sd_agrees_with_numpy_on_a_long_chain(self):
        rng = np.random.default_rng(5)
        mean, sd = [4000.0, 2100.0, 2100.0, 2500.0, 2400.0], [90.0, 40.0, 40.0, 50.0, 45.0]
        samples = rng.normal(mean, sd, (40000, 5))
        summary = summarize(Chain(samples=samples, acceptance_rate=0.8))
        np.testing.assert_allclose(summary.sd, samples.std(axis=0, ddof=1), rtol=1e-12, atol=0.0)


def csv_writer_chain_file(chain, path):
    """The chain file as ``csv.writer`` writes it: the byte-for-byte reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        d = chain.samples.shape[1]
        writer.writerow(["sample_index"] + [f"theta_{i}" for i in range(d)])
        for i, row in enumerate(chain.samples):
            writer.writerow([i] + [repr(float(v)) for v in row])


def extreme_chain(n=1337, d=5, seed=8):
    """n rows of magnitudes 1e-300..1e300, most rows repeating the one before
    (as rejected steps do), including repeats across chunk boundaries and a
    0.0 row followed by a -0.0 row, which compare equal but differ in text."""
    rng = np.random.default_rng(seed)
    samples = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-300.0, 300.0, (n, d))
    samples[3, 0], samples[4, 0] = 1e-300, 1e300
    repeat = rng.random(n) < 0.6
    repeat[[CSV_CHUNK, 2 * CSV_CHUNK]] = True
    repeat[[11, 12]] = False
    for i in np.flatnonzero(repeat[1:]) + 1:
        samples[i] = samples[i - 1]
    samples[11], samples[12] = 0.0, -0.0
    return Chain(samples=samples, acceptance_rate=0.4)


class TestChainCsv:
    @pytest.mark.parametrize(
        "samples",
        [extreme_chain().samples, np.array([[2.5], [2.5], [1e-5]]), np.empty((0, 2)), np.empty((4, 0))],
        ids=["extreme", "one-parameter", "no-rows", "no-parameters"],
    )
    def test_bytes_equal_csv_writer_output(self, samples, tmp_path):
        chain = Chain(samples=samples, acceptance_rate=0.5)
        write_chain_csv(chain, tmp_path / "chain.csv")
        csv_writer_chain_file(chain, tmp_path / "reference.csv")
        assert (tmp_path / "chain.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_reading_back_gives_samples_bitwise(self, tmp_path):
        chain = extreme_chain()
        write_chain_csv(chain, tmp_path / "chain.csv")
        with open(tmp_path / "chain.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_index"] + [f"theta_{i}" for i in range(5)]
        assert [int(r[0]) for r in rows[1:]] == list(range(1337))
        back = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert back.tobytes() == chain.samples.tobytes()


class TestConfigValidation:
    def test_samples_must_exceed_burn_in(self):
        with pytest.raises(ConfigurationError):
            one_dof_config(n_samples=100, burn_in=100)

    def test_positive_proposal_sd(self):
        with pytest.raises(ConfigurationError):
            one_dof_config(proposal_sd=np.array([0.0]))

    def test_positive_likelihood_sd(self):
        with pytest.raises(ConfigurationError):
            one_dof_config(likelihood_sd=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "0.02", True])
    def test_likelihood_sd_must_be_a_finite_number(self, value):
        with pytest.raises(ConfigurationError, match="likelihood_sd"):
            one_dof_config(likelihood_sd=value)

    @pytest.mark.parametrize("field", ["proposal_sd", "theta_min", "theta_max", "initial"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_vectors_must_be_finite(self, field, value):
        with pytest.raises(ConfigurationError, match="must be finite"):
            one_dof_config(**{field: np.array([value])})

    @pytest.mark.parametrize(
        "field, value",
        [("n_samples", 2500.9), ("n_samples", "2000"), ("burn_in", True)],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            one_dof_config(**{field: value})

    def test_start_outside_box_rejected(self):
        with pytest.raises(ConfigurationError, match="chain start lies outside the prior box"):
            one_dof_config(initial=np.array([100.0]))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("proposal_sd", np.array([0.25, 0.25, 0.25])),
            ("theta_min", np.array([[1.0]])),
            ("initial", np.array([5.0, 5.0])),
        ],
    )
    def test_vector_shapes_must_agree(self, field, value):
        with pytest.raises(ConfigurationError, match="one length"):
            one_dof_config(**{field: value})

    def test_theta_min_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="theta_min"):
            one_dof_config(theta_min=np.array([0.0]))

    def test_config_length_must_match_model(self):
        config = McmcConfig.from_box(np.array([1.0, 1.0]), np.array([9.0, 9.0]))
        with pytest.raises(ShapeError):
            mh_sample(config, one_dof_model(), np.array([5.0]))
