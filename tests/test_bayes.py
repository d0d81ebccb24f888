"""Tests for the Metropolis-Hastings baseline."""

import csv
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ffemu import bayes, scenarios
from ffemu.bayes import (
    CHAINS,
    ESS_FLOOR,
    RHAT_LIMIT,
    effective_sample_size,
    laplace_fit,
    log_posterior_batch,
    mh_sample,
    split_rhat,
    summarize,
)
from ffemu.errors import ConfigurationError, ConvergenceError, DiagnosticsError, DomainError
from ffemu.model import GROUND, SpringElement, StructuralModel, resolve_model
from ffemu.objective import MeasuredFuzzyModalData
from ffemu.pipeline import FfemuRun, McmcConfig, load_run_config, simulate_measurements
from ffemu.report import CSV_CHUNK, write_chain_csv

WIDTH = 8.0  # of the 1-DOF prior box [1, 9]


def one_dof_model():
    return StructuralModel(
        masses=np.array([1.0]),
        springs=(SpringElement("k", GROUND, 0, param_index=0),),
        parameter_count=1,
    )


def one_dof_run(measured=5.0, **overrides):
    """The 1-DOF spring (eigenvalue = stiffness) on the prior box [1, 9],
    measured crisply at eigenvalue ``measured``, sampled with
    ``one_dof_config()`` unless ``bayes`` is given. Its posterior is
    Gaussian with sd ``measured`` * ``likelihood_sd`` inside the box, so
    the default proposal step is about 2.38 * 0.1."""
    settings = dict(theta_min=[1.0], theta_max=[9.0], seed=0, bayes=one_dof_config())
    settings.update(overrides)
    return FfemuRun(
        model=one_dof_model(), measured=MeasuredFuzzyModalData([[measured] * 3], [[[1.0] * 3]]), **settings
    )


def one_dof_config(**overrides):
    settings = dict(n_samples=1000, burn_in=100, likelihood_sd=0.02)
    settings.update(overrides)
    return McmcConfig(**settings)


@pytest.fixture
def factor(monkeypatch):
    """Sets ``bayes.PROPOSAL_FACTOR``, the proposal's scale in units of
    chol(Sigma) / sqrt(d), for one test: the acceptance-rate knob."""
    return lambda value: monkeypatch.setattr(bayes, "PROPOSAL_FACTOR", value)


def five_dof_run(seed=3, bayes=McmcConfig()):
    """The bundled five-DOF structure on its prior box, measured crisply at
    the truth, its Laplace fit starting from the bundled initial guess."""
    model = resolve_model("bundled")
    return FfemuRun(
        model=model,
        measured=simulate_measurements(model, scenarios.THETA_TRUE, np.zeros(5)),
        theta_min=scenarios.THETA_MIN,
        theta_max=scenarios.THETA_MAX,
        seed=seed,
        theta_initial=scenarios.THETA_INITIAL,
        bayes=bayes,
    )


def log_posterior_row(theta, run) -> float:
    """Log posterior at one parameter vector: a one-row ``log_posterior_batch``."""
    row = np.asarray(theta, dtype=float)[None, :]
    return log_posterior_batch(row, run).item()


def proposal_steps(run, laplace):
    """The scaled factor each increment is formed from, as ``mh_sample`` forms it."""
    return (bayes.PROPOSAL_FACTOR / math.sqrt(run.theta_min.size)) * laplace.factor


def row_times(z, steps):
    """One row's increment, sum_j z[j] * steps[:, j] with j ascending."""
    increment = z[0] * steps[:, 0]
    for j in range(1, z.size):
        increment = increment + z[j] * steps[:, j]
    return increment


def dispersed_start(run, laplace, c):
    """Chain c's start: mode + 2 chol(Sigma) z_c, clipped into the box, z_c
    row c of the standard normals of child ``CHAINS`` of
    ``SeedSequence(run.seed).spawn(CHAINS + 1)``."""
    start_seed = np.random.SeedSequence(run.seed).spawn(CHAINS + 1)[CHAINS]
    z = np.random.default_rng(start_seed).standard_normal((CHAINS, run.theta_min.size))
    return np.clip(laplace.mode + row_times(z[c], 2.0 * laplace.factor), run.theta_min, run.theta_max)


def kept_steps(config):
    """Steps every chain makes after its burn-in: s = ceil((n_samples - burn_in) / 16)."""
    return math.ceil((config.n_samples - config.burn_in) / CHAINS)


def chain_blocks(chain, config):
    """``chain.samples`` split into the chains' published blocks, chain-major:
    s rows each, but fewer for the last chain or chains."""
    s = kept_steps(config)
    assert len(chain.samples) == config.n_samples - config.burn_in > CHAINS * (s - 1)
    return [chain.samples[c * s : (c + 1) * s] for c in range(CHAINS)]


def sequential_chain(run, c):
    """The one-step-at-a-time definition of chain c: it starts at its
    dispersed start, and each step draws d normals from the first child
    stream of ``SeedSequence(run.seed).spawn(CHAINS + 1)[c]``, whose
    increment is formed column by column, and one uniform from the second,
    for ``burn_in`` + s steps. Returns the s kept states and the number of
    accepted steps."""
    config, laplace = run.bayes, laplace_fit(run)
    seed = np.random.SeedSequence(run.seed).spawn(CHAINS + 1)[c]
    normals, uniforms = map(np.random.default_rng, seed.spawn(2))
    steps = proposal_steps(run, laplace)
    theta = dispersed_start(run, laplace, c)
    lp = log_posterior_row(theta, run)
    kept = np.empty((kept_steps(config), theta.size))
    accepted = 0
    for i in range(config.burn_in + kept_steps(config)):
        proposal = theta + row_times(normals.standard_normal(theta.size), steps)
        lp_prop = log_posterior_row(proposal, run)
        if np.log(uniforms.uniform()) < lp_prop - lp:
            theta = proposal
            lp = lp_prop
            accepted += 1
        if i >= config.burn_in:
            kept[i - config.burn_in] = theta
    return kept, accepted


def five_dof_chain_config(**overrides):
    settings = dict(n_samples=600, burn_in=50, likelihood_sd=0.005)
    settings.update(overrides)
    return McmcConfig(**settings)


def assert_equals_sequential(run):
    """Each chain's published block of ``mh_sample`` is a prefix, bit for bit,
    of its one-row sequential reference's kept states, and the acceptance
    rate counts every step of every chain, published or not."""
    chain, config = mh_sample(run), run.bayes
    accepted = 0
    for c, block in enumerate(chain_blocks(chain, config)):
        samples, chain_accepted = sequential_chain(run, c)
        assert block.tobytes() == samples[: len(block)].tobytes(), c
        accepted += chain_accepted
    assert chain.acceptance_rate == accepted / (CHAINS * (config.burn_in + kept_steps(config)))
    return chain


def count_solves(monkeypatch, failing_call=None):
    """Records the rows of every ``eigenvalues_batch`` call and, in
    ``marks["fit"]``, how many calls the Laplace fit made; the call
    ``failing_call`` after the fit (1 = the starts) raises ``ConvergenceError``."""
    original, fitted = StructuralModel.eigenvalues_batch, bayes.laplace_fit
    calls, marks = [], {"fit": None}

    def counting(self, thetas):
        calls.append(len(thetas))
        if marks["fit"] is not None and len(calls) - marks["fit"] == failing_call:
            raise ConvergenceError("eigensolver did not converge")
        return original(self, thetas)

    def marking(*args):
        laplace = fitted(*args)
        marks["fit"] = len(calls)
        return laplace

    monkeypatch.setattr(StructuralModel, "eigenvalues_batch", counting)
    monkeypatch.setattr(bayes, "laplace_fit", marking)
    return calls, marks


class TestLogPosterior:
    def test_truth_is_maximal_on_grid_probe(self):
        # coarse grid scan oracle around the truth on noise-free data
        run = five_dof_run()
        truth = scenarios.THETA_TRUE
        lp_truth = log_posterior_row(truth, run)
        rng = np.random.default_rng(2)
        for _ in range(60):
            probe = truth + rng.uniform(-100.0, 100.0, truth.size)
            probe = np.clip(probe, scenarios.THETA_MIN, scenarios.THETA_MAX)
            assert log_posterior_row(probe, run) <= lp_truth + 1e-12

    def test_outside_box_is_minus_inf(self):
        run = one_dof_run()
        assert log_posterior_row([0.5], run) == -np.inf
        assert log_posterior_row([9.5], run) == -np.inf

    def test_doubling_sd_quarters_quadratic_term_exactly(self):
        # power-of-two scales keep the quartering bitwise exact
        lp1 = log_posterior_row([4.5], one_dof_run(bayes=one_dof_config(likelihood_sd=0.015625)))
        lp2 = log_posterior_row([4.5], one_dof_run(bayes=one_dof_config(likelihood_sd=0.03125)))
        assert 4.0 * lp2 == lp1

    @pytest.mark.parametrize("rows", [1, 3, 16, 17, 64])
    @pytest.mark.parametrize("spread", [0.5, 1.5], ids=["inside", "straddling"])
    def test_each_row_equals_its_one_row_value(self, rows, spread):
        # the lockstep chains rest on this: a row's log posterior does not
        # depend on the other rows of its stack, whether every row is inside
        # the box or some are outside
        run = five_dof_run(bayes=McmcConfig(likelihood_sd=0.005))
        centre = 0.5 * (run.theta_min + run.theta_max)
        half = 0.5 * (run.theta_max - run.theta_min)
        thetas = centre + spread * half * np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 5))
        if spread > 1.0:
            thetas[0] = centre
            thetas[-1] = run.theta_max + 1.0
        inside = ((thetas >= run.theta_min) & (thetas <= run.theta_max)).all(axis=1)
        assert inside.all() if spread < 1.0 else (inside.any() == (rows > 1) and not inside.all())
        batch = log_posterior_batch(thetas, run)
        each = np.array([log_posterior_row(theta, run) for theta in thetas])
        assert batch.tobytes() == each.tobytes()
        assert np.isfinite(batch).tolist() == inside.tolist()

    def test_matches_the_closed_form_of_the_triangle_peaks(self):
        # -0.5 sum(((b - lam) / b / sd)^2), b the measured triangles' peaks,
        # on fuzzy data, so the peaks differ from the supports' ends
        model = resolve_model("bundled")
        run = FfemuRun(
            model=model,
            measured=simulate_measurements(model, scenarios.THETA_TRUE, 0.05 * scenarios.THETA_TRUE),
            theta_min=scenarios.THETA_MIN,
            theta_max=scenarios.THETA_MAX,
            bayes=McmcConfig(likelihood_sd=0.005),
        )
        assert not run.measured.is_crisp
        rng = np.random.default_rng(4)
        thetas = rng.uniform(run.theta_min, run.theta_max, (8, 5))
        thetas[0] = scenarios.THETA_TRUE
        thetas[-1] = run.theta_min - 1.0
        b = run.measured.eigenvalue_tfns[:, 1]
        lam = model.eigenvalues_batch(thetas[:-1])
        expected = -0.5 * np.sum(((b - lam) / b / 0.005) ** 2, axis=1)
        batch = log_posterior_batch(thetas, run)
        np.testing.assert_allclose(batch[:-1], expected, rtol=1e-12, atol=0.0)
        assert batch[-1] == -np.inf


class TestMhSample:
    def test_tiny_proposal_accepts_everything(self, factor):
        factor(1e-11)  # steps of about 1e-12
        config = one_dof_config()
        chain = mh_sample(one_dof_run(theta_initial=[5.0], bayes=config))
        assert chain.acceptance_rate > 0.999
        # every chain stays at its own dispersed start
        assert all(np.ptp(block) < 1e-9 for block in chain_blocks(chain, config))
        assert np.ptp(chain.samples) > 0.01

    def test_one_dim_gaussian_variance_and_ks(self):
        # lambda(theta) = theta here, so the posterior is Gaussian with
        # mean 5 and sd = 5 * likelihood_sd, far from the box edges
        run = one_dof_run(seed=7, bayes=one_dof_config(n_samples=100000, burn_in=1000))
        chain = mh_sample(run)
        sd_target = 5.0 * run.bayes.likelihood_sd
        assert chain.samples.var(ddof=1) == pytest.approx(sd_target**2, rel=0.10)
        ks = stats.kstest(chain.samples[:, 0], stats.norm(5.0, sd_target).cdf).statistic
        assert ks <= 0.02

    def test_ignores_the_runs_weights_and_shape_triangles(self, tmp_path):
        # the likelihood is the eigenvalue residual at its own weights, and
        # fuzzy shapes leave the eigenvalue triangles as they are
        runs = []
        for eigenvector, shape_tfns in [(0.0, False), (0.3, True)]:
            config = scenarios.bundled_run_config()
            config["weights"]["eigenvector"] = eigenvector
            config["truth"]["shape_tfns"] = shape_tfns
            path = tmp_path / f"run_{eigenvector}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            runs.append(load_run_config(path))
        plain, shaped = runs
        crisp = [np.ptp(run.measured.shape_tfns, axis=-1).max() == 0.0 for run in runs]
        assert crisp == [True, False]
        assert plain.measured.eigenvalue_tfns.tobytes() == shaped.measured.eigenvalue_tfns.tobytes()
        a, b = mh_sample(plain), mh_sample(shaped)
        for field in ("samples", "ess", "rhat"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert a.acceptance_rate == b.acceptance_rate

    def test_samples_stay_inside_prior_box(self, factor):
        factor(30.0)  # steps of about 3
        chain = mh_sample(one_dof_run(seed=3))
        assert np.all(chain.samples >= 1.0) and np.all(chain.samples <= 9.0)
        assert 0.0 < chain.acceptance_rate < 1.0

    def test_seed_determinism(self):
        a = mh_sample(one_dof_run(seed=11))
        b = mh_sample(one_dof_run(seed=11))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_zero_acceptance_raises_diagnostics(self, factor):
        factor(1e10)  # every proposal leaves the box
        run = one_dof_run(seed=1, theta_initial=[5.0], bayes=one_dof_config(n_samples=200, burn_in=0))
        with pytest.raises(DiagnosticsError, match="no proposal was ever accepted.*likelihood_sd"):
            mh_sample(run)

    def test_five_dof_desk_run_recovers_truth(self):
        config = McmcConfig(n_samples=10000, burn_in=1000, likelihood_sd=0.005)
        chain = mh_sample(five_dof_run(seed=0, bayes=config))
        np.testing.assert_allclose(chain.mean, scenarios.THETA_TRUE, rtol=0.02)
        assert np.all(100.0 * chain.sd / chain.mean < 5.0)  # the probabilistic spread stays small


class TestLockstepChains:
    """Every lockstep chain must equal its one-row sequential chain bit for bit."""

    @pytest.mark.parametrize(
        "proposal_factor, low, high", [(0.3, 0.7, 0.9), (2.38, 0.2, 0.45), (8.0, 0.01, 0.1)]
    )
    def test_five_dof_equals_sequential_at_high_mid_low_acceptance(self, proposal_factor, low, high, factor):
        factor(proposal_factor)
        chain = assert_equals_sequential(five_dof_run(bayes=five_dof_chain_config()))
        assert low < chain.acceptance_rate < high

    def test_box_edge_steps_mix_outside_and_inside_rows(self, factor, monkeypatch):
        # the posterior peak at 1.1 sits by the lower box edge at 1.0, so
        # with steps of about 0.5 many proposals leave the box and are not solved
        factor(23.0)
        run = one_dof_run(measured=1.1, seed=4, theta_initial=[1.5])
        solves, marks = count_solves(monkeypatch)
        inside = StructuralModel.eigenvalues_batch

        def checking(self, thetas):
            # only the rows inside the box reach the eigensolver
            assert ((thetas >= run.theta_min) & (thetas <= run.theta_max)).all()
            return inside(self, thetas)

        monkeypatch.setattr(StructuralModel, "eigenvalues_batch", checking)
        mh_sample(run)
        monkeypatch.undo()
        # after the fit, the starts, then each step with a row inside;
        # 900 kept states: s = 57 steps after the burn-in, 157 steps in all
        steps, lockstep = run.bayes.burn_in + 57, solves[marks["fit"] :]
        assert lockstep[0] == CHAINS and len(lockstep) <= 1 + steps
        assert sum(0 < rows < CHAINS for rows in lockstep[1:]) > steps // 2
        factor(23.0)
        assert_equals_sequential(run)

    def test_burn_in_zero(self):
        chain = assert_equals_sequential(five_dof_run(bayes=five_dof_chain_config(burn_in=0)))
        assert chain.samples.shape == (600, 5)

    def test_reached_row_that_fails_to_converge_raises(self, monkeypatch):
        run = five_dof_run(bayes=five_dof_chain_config())
        calls, marks = count_solves(monkeypatch, failing_call=2)
        with pytest.raises(ConvergenceError):
            mh_sample(run)
        # the starts, then the first step of every chain
        assert calls[marks["fit"] :] == [CHAINS, CHAINS]

    def test_failure_in_the_laplace_fit_propagates(self, monkeypatch):
        run = five_dof_run(bayes=five_dof_chain_config())
        original, calls = StructuralModel.eigenvalues_batch, []

        def fails_at_third(self, thetas):
            calls.append(len(thetas))
            if len(calls) == 3:
                raise ConvergenceError("eigensolver did not converge")
            return original(self, thetas)

        monkeypatch.setattr(StructuralModel, "eigenvalues_batch", fails_at_third)
        with pytest.raises(ConvergenceError):
            mh_sample(run)
        # the polish's start, its Jacobian and its first trial step
        assert calls == [1, 5, 1]

    @pytest.mark.parametrize(
        "failing_call", [1, 2, 7, 8, 11],
        ids=["starts", "first-burn-in", "last-burn-in", "first-kept", "last"],
    )
    def test_failure_at_any_step_propagates(self, failing_call, factor, monkeypatch):
        # 58 - 6 = 52 kept: the starts, then 6 burn-in and s = 4 kept steps,
        # each of every chain
        factor(0.5)
        run = one_dof_run(bayes=one_dof_config(n_samples=58, burn_in=6))
        calls, marks = count_solves(monkeypatch, failing_call)
        with pytest.raises(ConvergenceError):
            mh_sample(run)
        assert calls[marks["fit"] :] == [CHAINS] * failing_call

    @pytest.mark.parametrize(
        "kept, burn_in",
        [
            *((kept, burn_in) for kept in (1, 5, 15, 16, 17, 40) for burn_in in (0, 10)),
            (1000, 100),
            (9000, 1000),
            (39000, 1000),
        ],
    )
    def test_every_chain_makes_the_same_steps(self, kept, burn_in, factor, monkeypatch):
        # s = ceil(kept / 16) steps after every chain's burn-in: fewer kept
        # states than chains, one or one more than one per chain, whole and
        # partial rounds, the bundled run's 9,000 and the benchmark's 39,000
        # at seed 1 the one-step runs accept a step; a run that accepts nothing raises
        factor(0.5)
        run = one_dof_run(seed=1, bayes=one_dof_config(n_samples=burn_in + kept, burn_in=burn_in))
        steps = burn_in + math.ceil(kept / CHAINS)
        calls, failing_call = [], None

        def counting(thetas, *args):
            calls.append(len(thetas))
            if len(calls) == failing_call:
                raise ConvergenceError("eigensolver did not converge")
            return log_posterior_batch(thetas, *args)

        monkeypatch.setattr(bayes, "log_posterior_batch", counting)
        chain = assert_equals_sequential(run)
        # the starts, then one CHAINS-row call per step
        assert calls == [CHAINS] * (1 + steps)
        assert chain.samples.shape == (kept, 1) and chain.samples.flags.c_contiguous
        calls.clear()
        failing_call = 1 + steps  # the last step
        with pytest.raises(ConvergenceError):
            mh_sample(run)
        assert calls == [CHAINS] * (1 + steps)

    def test_chains_draw_distinct_streams(self):
        # every chain has its own start and streams; another seed changes
        # every chain
        config = one_dof_config(n_samples=420, burn_in=100)
        blocks = chain_blocks(mh_sample(one_dof_run(seed=2, bayes=config)), config)
        assert len({block.tobytes() for block in blocks}) == CHAINS
        others = chain_blocks(mh_sample(one_dof_run(seed=3, bayes=config)), config)
        assert not any(np.array_equal(a, b) for a, b in zip(blocks, others))

    def test_start_vector_is_left_unchanged(self, factor):
        # the chains' states are updated in place; none of them may be the
        # run's own start vector, where the polish starts
        factor(0.5)
        initial = np.array([5.0])
        run = one_dof_run(theta_initial=initial)
        chain = mh_sample(run)
        assert chain.acceptance_rate > 0.5
        assert run.theta_initial is initial and initial.tolist() == [5.0]


class TestRandomStreams:
    """Chain c draws its increments from the first child stream of
    ``SeedSequence(run.seed).spawn(CHAINS + 1)[c]`` and its uniforms from the
    second, one row and one uniform per step; child ``CHAINS`` gives the
    starts."""

    def test_each_chain_is_a_prefix_of_itself_in_a_longer_run(self):
        short_config = five_dof_chain_config(n_samples=3000, burn_in=0)
        long_config = five_dof_chain_config(n_samples=5000, burn_in=0)
        short = chain_blocks(mh_sample(five_dof_run(bayes=short_config)), short_config)
        long = chain_blocks(mh_sample(five_dof_run(bayes=long_config)), long_config)
        for c, (a, b) in enumerate(zip(short, long)):
            assert len(a) < len(b) and np.array_equal(a, b[: len(a)]), c

    def test_each_chains_accepted_states_are_the_running_sum_of_its_first_stream(self, factor):
        # a step of about 1e-12 changes the log posterior by about 1e-21,
        # less than the largest log uniform, -2^-53: every proposal is accepted
        factor(1e-11)
        run = one_dof_run(seed=9, theta_initial=[5.0])
        config, laplace = run.bayes, laplace_fit(run)
        chain = mh_sample(run)
        assert chain.acceptance_rate == 1.0
        seeds = np.random.SeedSequence(9).spawn(CHAINS + 1)
        for c, (block, seed) in enumerate(zip(chain_blocks(chain, config), seeds)):
            first, _ = seed.spawn(2)
            z = np.random.default_rng(first).standard_normal((config.burn_in + kept_steps(config), 1))
            start = dispersed_start(run, laplace, c)
            states = np.cumsum(np.vstack([start, z * proposal_steps(run, laplace)]), axis=0)
            assert block.tobytes() == states[1 + config.burn_in :][: len(block)].tobytes(), c

    def test_the_first_children_are_those_of_a_spawn_of_one_fewer(self):
        # adding the start stream as the last child leaves every chain's
        # streams as they were under spawn(CHAINS)
        for seed in (0, 1, 2**40):
            ours, fewer = (np.random.SeedSequence(seed).spawn(n) for n in (CHAINS + 1, CHAINS))
            assert [s.generate_state(4).tolist() for s in ours[:CHAINS]] == [
                s.generate_state(4).tolist() for s in fewer
            ]

    def test_the_start_stream_differs_from_every_chain_stream(self):
        seeds = np.random.SeedSequence(5).spawn(CHAINS + 1)
        starts = np.random.default_rng(seeds[CHAINS]).standard_normal(64)
        for c in range(CHAINS):
            for stream in seeds[c].spawn(2):
                drawn = np.random.default_rng(stream).standard_normal(64)
                assert not np.isin(starts, drawn).any(), c
        # and the starts are those draws: chain c at mode + 2 chol(Sigma) z_c
        run = one_dof_run(seed=5, bayes=one_dof_config(n_samples=116, burn_in=0))
        laplace = laplace_fit(run)
        expected = np.clip(laplace.mode + 2.0 * laplace.factor[0, 0] * starts[:CHAINS], 1.0, 9.0)
        for c in range(CHAINS):
            assert dispersed_start(run, laplace, c).tolist() == [expected[c]]

    def test_each_chain_is_a_prefix_of_itself_with_the_same_burn_in(self):
        short_config = one_dof_config(n_samples=900, burn_in=100)
        long_config = one_dof_config(n_samples=1700, burn_in=100)
        short = chain_blocks(mh_sample(one_dof_run(seed=6, bayes=short_config)), short_config)
        long = chain_blocks(mh_sample(one_dof_run(seed=6, bayes=long_config)), long_config)
        for c, (a, b) in enumerate(zip(short, long)):
            assert len(a) == 50 and len(b) == 100 and np.array_equal(a, b[:50]), c


def over_parameterized_run(seed=0):
    """Two masses and three updating springs (ground-0, 0-1, ground-1): two
    eigenvalues for three parameters, so J^T J is singular everywhere."""
    model = StructuralModel(
        masses=np.array([1.0, 2.0]),
        springs=(
            SpringElement("a", GROUND, 0, param_index=0),
            SpringElement("b", 0, 1, param_index=1),
            SpringElement("c", GROUND, 1, param_index=2),
        ),
        parameter_count=3,
    )
    truth = np.array([100.0, 50.0, 80.0])
    return FfemuRun(
        model=model,
        measured=simulate_measurements(model, truth, np.zeros(3)),
        theta_min=[60.0, 30.0, 50.0],
        theta_max=[140.0, 70.0, 110.0],
        seed=seed,
        bayes=McmcConfig(n_samples=2000, burn_in=200, likelihood_sd=0.01),
    )


class TestLaplaceFit:
    @pytest.mark.parametrize("measured, likelihood_sd", [(5.0, 0.02), (4.0, 0.02), (7.5, 0.05)])
    def test_one_dof_covariance_is_the_likelihood_variance(self, measured, likelihood_sd):
        # lambda = theta, so J = -1 / (lambda_m sd) and Sigma = (lambda_m sd)^2,
        # below the uniform prior's variance 8^2 / 12
        run = one_dof_run(measured=measured, bayes=one_dof_config(likelihood_sd=likelihood_sd))
        laplace = laplace_fit(run)
        assert laplace.mode.tolist() == pytest.approx([measured], rel=1e-12)
        expected = 1.0 / (1.0 / (measured * likelihood_sd) ** 2)
        assert laplace.covariance[0, 0] == pytest.approx(expected, rel=1e-7)
        assert laplace.factor[0, 0] == pytest.approx(math.sqrt(expected), rel=1e-7)

    def test_one_dof_variance_is_capped_at_the_uniform_priors(self):
        # a likelihood wider than the box: (5 * 0.5)^2 = 6.25 > 8^2 / 12
        run = one_dof_run(bayes=one_dof_config(likelihood_sd=0.5))
        assert laplace_fit(run).covariance[0, 0] == pytest.approx(WIDTH**2 / 12.0, rel=1e-12)

    def test_five_dof_covariance_is_the_inverse_gauss_newton_hessian(self):
        # every eigenvalue of J^T J in prior-sd units is above 1 here, so
        # the cap leaves Sigma = (J^T J)^-1
        run = five_dof_run(bayes=McmcConfig(likelihood_sd=0.005))
        laplace = laplace_fit(run)
        np.testing.assert_allclose(laplace.mode, scenarios.THETA_TRUE, rtol=1e-9)
        residual_jac = np.empty((5, 5))
        lam_m = run.measured.eigenvalue_tfns[:, 1]
        for i in range(5):  # central differences of the scaled residuals
            h = 1e-3 * laplace.mode[i]
            up, down = laplace.mode.copy(), laplace.mode.copy()
            up[i] += h
            down[i] -= h
            lam = run.model.eigenvalues_batch(np.array([up, down]))
            residual_jac[:, i] = -(lam[0] - lam[1]) / (2 * h) / lam_m / 0.005
        reference = np.linalg.inv(residual_jac.T @ residual_jac)
        np.testing.assert_allclose(laplace.covariance, reference, rtol=1e-4, atol=1e-6 * np.abs(reference).max())
        np.testing.assert_allclose(laplace.factor @ laplace.factor.T, laplace.covariance, rtol=1e-12, atol=1e-9)

    def test_more_parameters_than_modes_give_a_finite_positive_definite_covariance(self):
        run = over_parameterized_run()
        laplace = laplace_fit(run)
        assert np.isfinite(laplace.covariance).all()
        assert np.linalg.eigvalsh(laplace.covariance).min() > 0.0
        # no direction is wider than the uniform prior's sd
        prior_sd = (run.theta_max - run.theta_min) / math.sqrt(12.0)
        assert np.linalg.eigvalsh(laplace.covariance / np.outer(prior_sd, prior_sd)).max() <= 1.0 + 1e-12
        chain = mh_sample(run)
        assert np.all(chain.samples >= run.theta_min) and np.all(chain.samples <= run.theta_max)
        assert 0.0 < chain.acceptance_rate < 1.0

    @pytest.mark.parametrize("theta_initial", [[5.0], [8.0]], ids=["at-the-mode", "away"])
    def test_non_finite_covariance_names_likelihood_sd(self, theta_initial):
        # the weight 0.5 / sd^2 overflows at this scale, at the mode and away from it
        run = one_dof_run(theta_initial=theta_initial, bayes=one_dof_config(likelihood_sd=1e-300))
        with pytest.raises(DiagnosticsError, match="likelihood_sd = 1e-300"):
            laplace_fit(run)
        with np.errstate(all="raise"), pytest.raises(DiagnosticsError, match="not finite and positive definite"):
            mh_sample(run)


def ar1_chains(phi, chains, n, seed):
    """``chains`` stationary AR(1) series x_t = phi x_(t-1) + e_t, as (chains, n, 1)."""
    e = np.random.default_rng(seed).standard_normal((chains, n))
    x = np.empty((chains, n))
    x[:, 0] = e[:, 0] / math.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + e[:, t]
    return x[:, :, None]


class TestDiagnostics:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ess_of_ar1_chains_is_n_times_one_minus_phi_over_one_plus_phi(self, seed):
        x = ar1_chains(0.5, CHAINS, 20000, seed)
        expected = x.size * (1.0 - 0.5) / (1.0 + 0.5)
        assert effective_sample_size(x)[0] == pytest.approx(expected, rel=0.05)

    def test_ess_of_iid_draws_is_about_their_count_and_sums_over_chains(self):
        x = np.random.default_rng(3).standard_normal((4, 5000, 2))
        ess = effective_sample_size(x)
        assert ess == pytest.approx([20000.0, 20000.0], rel=0.05)
        assert ess.tolist() == sum(effective_sample_size(x[c : c + 1]) for c in range(4)).tolist()

    def test_ess_of_constant_or_one_state_chains_is_zero(self):
        x = np.random.default_rng(4).standard_normal((3, 50, 2))
        x[:, :, 1] = 7.0
        assert effective_sample_size(x)[1] == 0.0 < effective_sample_size(x)[0]
        assert effective_sample_size(x[:, :1]).tolist() == [0.0, 0.0]

    def test_split_rhat_of_iid_chains_is_at_most_the_limit(self):
        x = np.random.default_rng(0).standard_normal((CHAINS, 2000, 3))
        assert split_rhat(x).max() <= RHAT_LIMIT

    def test_split_rhat_of_chains_with_shifted_means_is_above_1_1(self):
        x = np.random.default_rng(0).standard_normal((CHAINS, 2000, 3))
        x += 0.5 * np.arange(CHAINS)[:, None, None]
        assert split_rhat(x).min() > 1.1

    def test_split_rhat_sees_a_drift_within_each_chain(self):
        # equal chains whose first and last halves differ: only the split sees it
        x = np.random.default_rng(1).standard_normal((CHAINS, 2000, 1))
        x[:, 1000:] += 1.0
        assert split_rhat(x)[0] > 1.1

    def test_split_rhat_hand_value(self):
        # two chains of 4: halves [0, 2], [4, 6], [1, 3], [5, 7]; h = 2,
        # W = 2, B / h = var([1, 5, 2, 6]) = 17 / 3, so
        # R-hat = sqrt(((h - 1) / h W + B / h) / W) = sqrt((1 + 17 / 3) / 2)
        x = np.array([[0.0, 2.0, 4.0, 6.0], [1.0, 3.0, 5.0, 7.0]])[:, :, None]
        assert split_rhat(x)[0] == pytest.approx(math.sqrt((1.0 + 17.0 / 3.0) / 2.0), rel=1e-14)

    def test_split_rhat_is_nan_when_undefined(self):
        x = np.random.default_rng(2).standard_normal((CHAINS, 3, 2))
        assert np.isnan(split_rhat(x)).all()  # halves of 1 state
        x = np.random.default_rng(2).standard_normal((CHAINS, 8, 2))
        x[:, :, 0] = 1.0
        rhat = split_rhat(x)
        assert math.isnan(rhat[0]) and math.isfinite(rhat[1])

    def test_chain_reports_the_diagnostics_of_every_kept_state(self):
        run = five_dof_run(bayes=five_dof_chain_config())
        chain = mh_sample(run)
        kept = np.array([sequential_chain(run, c)[0] for c in range(CHAINS)])
        assert chain.ess.tolist() == effective_sample_size(kept).tolist()
        assert chain.rhat.tolist() == split_rhat(kept).tolist()

    def test_a_short_run_warns_once_through_the_ffemu_logger(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ffemu"):
            chain = mh_sample(one_dof_run(bayes=one_dof_config(n_samples=120, burn_in=20)))
        records = [r for r in caplog.records if r.name.startswith("ffemu")]
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        assert chain.ess.min() < ESS_FLOOR
        assert f"min ESS {chain.ess.min():.0f} is below {ESS_FLOOR}" in records[0].getMessage()

    @pytest.mark.parametrize(
        "ess, rhat, message",
        [
            ([500.0, 399.0], [1.0, 1.0], "min ESS 399 is below 400"),
            ([500.0, 500.0], [1.0, 1.02], "max split-R-hat 1.020 is above 1.01"),
            ([500.0, 500.0], [math.nan, 1.0], "split-R-hat is undefined (too few kept states per chain, or a constant chain)"),
            ([10.0, 500.0], [1.0, 1.5], "min ESS 10 is below 400; max split-R-hat 1.500 is above 1.01"),
            ([400.0, 500.0], [1.01, 0.99], None),
        ],
    )
    def test_warning_names_each_failed_check(self, ess, rhat, message, caplog):
        with caplog.at_level(logging.WARNING, logger="ffemu"):
            bayes._warn_unless_mixed(np.array(ess), np.array(rhat))
        assert [r.getMessage() for r in caplog.records] == (
            [] if message is None else [f"the M-H chains may not have mixed: {message}; raise n_samples"]
        )


class TestSummarize:
    def test_constant_chain(self):
        mean, sd = summarize(np.full((50, 2), 3.0))
        np.testing.assert_array_equal(mean, [3.0, 3.0])
        np.testing.assert_array_equal(sd, [0.0, 0.0])

    def test_two_sample_hand_values(self):
        mean, sd = summarize(np.array([[1.0], [3.0]]))
        assert mean[0] == 2.0
        assert sd[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_chain_holds_the_summary_of_its_published_samples(self):
        chain = mh_sample(five_dof_run(bayes=five_dof_chain_config()))
        mean, sd = summarize(chain.samples)
        assert (chain.mean.tobytes(), chain.sd.tobytes()) == (mean.tobytes(), sd.tobytes())
        assert chain.chains == CHAINS

    def test_empty_chain_rejected(self):
        with pytest.raises(DomainError):
            summarize(np.empty((0, 2)))

    def test_sd_agrees_with_numpy_on_a_long_chain(self):
        rng = np.random.default_rng(5)
        mean, sd = [4000.0, 2100.0, 2100.0, 2500.0, 2400.0], [90.0, 40.0, 40.0, 50.0, 45.0]
        samples = rng.normal(mean, sd, (40000, 5))
        _, sd = summarize(samples)
        np.testing.assert_allclose(sd, samples.std(axis=0, ddof=1), rtol=1e-12, atol=0.0)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a long dot product across its threads, which
        # changes the rounding; the summary of an 11,000-row chain (a
        # 12,000-sample run's kept rows) must not see the thread count
        src = str(Path(bayes.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        bits = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", SUMMARIZE_SCRIPT], env=env, capture_output=True, text=True, timeout=60
            )
            assert done.returncode == 0, done.stderr
            bits.append(done.stdout)
        assert bits[0] == bits[1]


SUMMARIZE_SCRIPT = """
import numpy as np
from ffemu.bayes import summarize
rng = np.random.default_rng(5)
samples = rng.normal([4000.0, 2100.0, 2100.0, 2500.0, 2400.0], [90.0, 40.0, 40.0, 50.0, 45.0], (11000, 5))
print(np.concatenate(summarize(samples)).tobytes().hex())
"""


def csv_writer_chain_file(samples, path):
    """The chain file as ``csv.writer`` writes it: the byte-for-byte reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        d = samples.shape[1]
        writer.writerow(["sample_index"] + [f"theta_{i}" for i in range(d)])
        for i, row in enumerate(samples):
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
    return samples


class TestChainCsv:
    @pytest.mark.parametrize(
        "samples",
        [extreme_chain(), np.array([[2.5], [2.5], [1e-5]]), np.empty((0, 2)), np.empty((4, 0))],
        ids=["extreme", "one-parameter", "no-rows", "no-parameters"],
    )
    def test_bytes_equal_csv_writer_output(self, samples, tmp_path):
        write_chain_csv(samples, tmp_path / "chain.csv")
        csv_writer_chain_file(samples, tmp_path / "reference.csv")
        assert (tmp_path / "chain.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_reading_back_gives_samples_bitwise(self, tmp_path):
        samples = extreme_chain()
        write_chain_csv(samples, tmp_path / "chain.csv")
        with open(tmp_path / "chain.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_index"] + [f"theta_{i}" for i in range(5)]
        assert [int(r[0]) for r in rows[1:]] == list(range(1337))
        back = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert back.tobytes() == samples.tobytes()

    def test_sampler_rows_are_chain_major_with_one_running_index(self, tmp_path):
        run = one_dof_run(seed=8, bayes=one_dof_config(n_samples=150, burn_in=20))
        write_chain_csv(mh_sample(run).samples, tmp_path / "chain.csv")
        with open(tmp_path / "chain.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(r[0]) for r in rows] == list(range(130))
        back = np.array([[float(v) for v in r[1:]] for r in rows])
        # 130 kept states: every chain keeps s = 9, chains 0-13 publish 9,
        # chain 14 publishes 4 and chain 15 none
        for c in range(CHAINS):
            states, _ = sequential_chain(run, c)
            published = back[9 * c : 9 * (c + 1)]
            assert len(states) == 9 and len(published) == (9 if c < 14 else 4 if c == 14 else 0)
            assert published.tobytes() == states[: len(published)].tobytes(), c


class TestConfigValidation:
    """The sampler's own three settings; the prior box and the polish's
    start are the run's, checked by ``FfemuRun`` (see ``test_pipeline``)."""

    def test_defaults(self):
        config = McmcConfig()
        assert (config.n_samples, config.burn_in, config.likelihood_sd) == (10000, 1000, 0.01)

    def test_there_is_no_proposal_setting(self):
        # the Laplace fit sets the proposal
        assert [f.name for f in fields(McmcConfig)] == ["n_samples", "burn_in", "likelihood_sd"]

    def test_samples_must_exceed_burn_in(self):
        with pytest.raises(ConfigurationError):
            one_dof_config(n_samples=100, burn_in=100)

    def test_positive_likelihood_sd(self):
        with pytest.raises(ConfigurationError):
            one_dof_config(likelihood_sd=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "0.02", True])
    def test_likelihood_sd_must_be_a_finite_number(self, value):
        with pytest.raises(ConfigurationError, match="likelihood_sd"):
            one_dof_config(likelihood_sd=value)

    @pytest.mark.parametrize(
        "field, value",
        [("n_samples", 2500.9), ("n_samples", "2000"), ("burn_in", True)],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field}' must be an integer"):
            one_dof_config(**{field: value})
