"""Tests for the Metropolis-Hastings baseline."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ffemu import bayes, scenarios
from ffemu.bayes import (
    CHAINS,
    Chain,
    log_posterior_batch,
    mh_sample,
    summarize,
)
from ffemu.errors import ConfigurationError, ConvergenceError, DiagnosticsError, DomainError
from ffemu.model import GROUND, SpringElement, StructuralModel
from ffemu.objective import MeasuredFuzzyModalData
from ffemu.pipeline import FfemuRun, McmcConfig, simulate_measurements
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
    ``one_dof_config()`` unless ``bayes`` is given."""
    settings = dict(theta_min=[1.0], theta_max=[9.0], seed=0, bayes=one_dof_config())
    settings.update(overrides)
    return FfemuRun(
        model=one_dof_model(), measured=MeasuredFuzzyModalData([[measured] * 3], [[1.0]]), **settings
    )


def one_dof_config(step=0.25, **overrides):
    """Sampler settings whose proposal step on the 1-DOF box is ``step``,
    exactly: the box width is a power of two."""
    settings = dict(n_samples=1000, burn_in=100, proposal_fraction=step / WIDTH, likelihood_sd=0.02)
    settings.update(overrides)
    return McmcConfig(**settings)


def five_dof_run(seed=3, bayes=McmcConfig()):
    """The bundled five-DOF structure on its prior box, measured crisply at
    the truth, its chains starting at the bundled initial guess."""
    model = scenarios.five_dof_model()
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
    return log_posterior_batch(row, run.measured.center_eigenvalues(), run).item()


def proposal_steps(run):
    """Per-parameter proposal steps, formed as ``mh_sample`` forms them."""
    return run.bayes.proposal_fraction * (run.theta_max - run.theta_min)


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
    """The one-step-at-a-time definition of chain c: each step draws d
    normals from the first child stream of
    ``SeedSequence(run.seed).spawn(CHAINS)[c]`` and one uniform from the
    second, for ``burn_in`` + s steps. Returns the s kept states and the
    number of accepted steps."""
    config = run.bayes
    seed = np.random.SeedSequence(run.seed).spawn(CHAINS)[c]
    normals, uniforms = map(np.random.default_rng, seed.spawn(2))
    theta = 0.5 * (run.theta_min + run.theta_max) if run.theta_initial is None else run.theta_initial
    lp = log_posterior_row(theta, run)
    kept = np.empty((kept_steps(config), theta.size))
    accepted = 0
    for i in range(config.burn_in + kept_steps(config)):
        proposal = theta + normals.normal(0.0, proposal_steps(run))
        lp_prop = log_posterior_row(proposal, run)
        if np.log(uniforms.uniform()) < lp_prop - lp:
            theta = proposal
            lp = lp_prop
            accepted += 1
        if i >= config.burn_in:
            kept[i - config.burn_in] = theta
    return kept, accepted


def five_dof_chain_config(proposal_fraction, **overrides):
    settings = dict(n_samples=600, burn_in=50, proposal_fraction=proposal_fraction, likelihood_sd=0.005)
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
        # depend on the other rows of its stack, solved whole when every row
        # is inside the box, else gathered and scattered
        run = five_dof_run(bayes=McmcConfig(likelihood_sd=0.005))
        centre = 0.5 * (run.theta_min + run.theta_max)
        half = 0.5 * (run.theta_max - run.theta_min)
        thetas = centre + spread * half * np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 5))
        if spread > 1.0:
            thetas[0] = centre
            thetas[-1] = run.theta_max + 1.0
        inside = ((thetas >= run.theta_min) & (thetas <= run.theta_max)).all(axis=1)
        assert inside.all() if spread < 1.0 else (inside.any() == (rows > 1) and not inside.all())
        batch = log_posterior_batch(thetas, run.measured.center_eigenvalues(), run)
        each = np.array([log_posterior_row(theta, run) for theta in thetas])
        assert batch.tobytes() == each.tobytes()
        assert np.isfinite(batch).tolist() == inside.tolist()


class TestMhSample:
    def test_tiny_proposal_accepts_everything(self):
        chain = mh_sample(one_dof_run(theta_initial=[5.0], bayes=one_dof_config(step=1e-12)))
        assert chain.acceptance_rate > 0.999
        assert np.ptp(chain.samples) < 1e-9

    def test_one_dim_gaussian_variance_and_ks(self):
        # lambda(theta) = theta here, so the posterior is Gaussian with
        # mean 5 and sd = 5 * likelihood_sd, far from the box edges
        run = one_dof_run(seed=7, bayes=one_dof_config(n_samples=100000, burn_in=1000))
        chain = mh_sample(run)
        sd_target = 5.0 * run.bayes.likelihood_sd
        assert chain.samples.var(ddof=1) == pytest.approx(sd_target**2, rel=0.10)
        ks = stats.kstest(chain.samples[:, 0], stats.norm(5.0, sd_target).cdf).statistic
        assert ks <= 0.02

    def test_samples_stay_inside_prior_box(self):
        chain = mh_sample(one_dof_run(seed=3, bayes=one_dof_config(step=3.0)))
        assert np.all(chain.samples >= 1.0) and np.all(chain.samples <= 9.0)
        assert 0.0 < chain.acceptance_rate < 1.0

    def test_seed_determinism(self):
        a = mh_sample(one_dof_run(seed=11))
        b = mh_sample(one_dof_run(seed=11))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_zero_acceptance_raises_diagnostics(self):
        config = one_dof_config(n_samples=200, burn_in=0, step=1e9)
        run = one_dof_run(seed=1, theta_initial=[5.0], bayes=config)
        with pytest.raises(DiagnosticsError, match="proposal_fraction"):
            mh_sample(run)

    def test_five_dof_desk_run_recovers_truth(self):
        config = McmcConfig(n_samples=10000, burn_in=1000, likelihood_sd=0.005)
        chain = mh_sample(five_dof_run(seed=0, bayes=config))
        summary = summarize(chain)
        np.testing.assert_allclose(summary.mean, scenarios.THETA_TRUE, rtol=0.02)
        assert np.all(summary.cov_percent < 5.0)  # the probabilistic spread stays small


class TestLockstepChains:
    """Every lockstep chain must equal its one-row sequential chain bit for bit."""

    @pytest.mark.parametrize(
        "fraction, low, high", [(0.007, 0.7, 0.9), (0.03, 0.3, 0.55), (0.1, 0.01, 0.1)]
    )
    def test_five_dof_equals_sequential_at_high_mid_low_acceptance(self, fraction, low, high):
        chain = assert_equals_sequential(five_dof_run(bayes=five_dof_chain_config(fraction)))
        assert low < chain.acceptance_rate < high

    def test_box_edge_steps_mix_outside_and_inside_rows(self, monkeypatch):
        # the posterior peak at 1.1 sits by the lower box edge at 1.0, so
        # many proposals leave the box and are not solved
        run = one_dof_run(measured=1.1, seed=4, theta_initial=[1.5], bayes=one_dof_config(step=0.5))
        solves = []  # rows per eigensolve: the start state, then each step with a row inside
        original = StructuralModel.eigenvalues_batch

        def counting(self, thetas):
            # only the rows inside the box reach the eigensolver
            assert ((thetas >= run.theta_min) & (thetas <= run.theta_max)).all()
            solves.append(len(thetas))
            return original(self, thetas)

        monkeypatch.setattr(StructuralModel, "eigenvalues_batch", counting)
        mh_sample(run)
        monkeypatch.undo()
        # 900 kept states: s = 57 steps after the burn-in, 157 steps in all
        steps = run.bayes.burn_in + 57
        assert solves[0] == 1 and len(solves) <= 1 + steps
        assert sum(0 < rows < CHAINS for rows in solves[1 : 1 + steps]) > steps // 2
        assert_equals_sequential(run)

    def test_burn_in_zero(self):
        chain = assert_equals_sequential(five_dof_run(bayes=five_dof_chain_config(0.03, burn_in=0)))
        assert chain.samples.shape == (600, 5)

    def test_reached_row_that_fails_to_converge_raises(self, monkeypatch):
        run = five_dof_run(bayes=five_dof_chain_config(0.03))
        original = StructuralModel.eigenvalues_batch
        calls = []

        def fails_after_start(self, thetas):
            calls.append(len(thetas))
            if len(calls) > 1:
                raise ConvergenceError("eigensolver did not converge")
            return original(self, thetas)

        monkeypatch.setattr(StructuralModel, "eigenvalues_batch", fails_after_start)
        with pytest.raises(ConvergenceError):
            mh_sample(run)
        # the start state, then the first step of every chain
        assert calls == [1, CHAINS]

    @pytest.mark.parametrize(
        "failing_call", [1, 2, 7, 8, 11],
        ids=["start", "first-burn-in", "last-burn-in", "first-kept", "last"],
    )
    def test_failure_at_any_step_propagates(self, failing_call, monkeypatch):
        # 58 - 6 = 52 kept: the start, then 6 burn-in and s = 4 kept steps,
        # each of every chain
        run = one_dof_run(bayes=one_dof_config(n_samples=58, burn_in=6, step=0.05))
        original = StructuralModel.eigenvalues_batch
        calls = []

        def fails_at(self, thetas):
            calls.append(len(thetas))
            if len(calls) == failing_call:
                raise ConvergenceError("eigensolver did not converge")
            return original(self, thetas)

        monkeypatch.setattr(StructuralModel, "eigenvalues_batch", fails_at)
        with pytest.raises(ConvergenceError):
            mh_sample(run)
        assert calls == ([1] + [CHAINS] * 10)[:failing_call]

    @pytest.mark.parametrize(
        "kept, burn_in",
        [
            *((kept, burn_in) for kept in (1, 5, 15, 16, 17, 40) for burn_in in (0, 10)),
            (1000, 100),
            (9000, 1000),
            (39000, 1000),
        ],
    )
    def test_every_chain_makes_the_same_steps(self, kept, burn_in, monkeypatch):
        # s = ceil(kept / 16) steps after every chain's burn-in: fewer kept
        # states than chains, one or one more than one per chain, whole and
        # partial rounds, the bundled run's 9,000 and the benchmark's 39,000
        # at seed 1 the one-step runs accept a step; a run that accepts nothing raises
        run = one_dof_run(seed=1, bayes=one_dof_config(n_samples=burn_in + kept, burn_in=burn_in, step=0.05))
        steps = burn_in + math.ceil(kept / CHAINS)
        calls, failing_call = [], None

        def counting(thetas, *args):
            calls.append(len(thetas))
            if len(calls) == failing_call:
                raise ConvergenceError("eigensolver did not converge")
            return log_posterior_batch(thetas, *args)

        monkeypatch.setattr(bayes, "log_posterior_batch", counting)
        chain = assert_equals_sequential(run)
        # the start state, then one CHAINS-row call per step
        assert calls == [1] + [CHAINS] * steps
        assert chain.samples.shape == (kept, 1) and chain.samples.flags.c_contiguous
        calls.clear()
        failing_call = 1 + steps  # the last step
        with pytest.raises(ConvergenceError):
            mh_sample(run)
        assert calls == [1] + [CHAINS] * steps

    def test_chains_draw_distinct_streams(self):
        # every chain starts at the box centre, so only its streams tell it
        # apart; another seed changes every chain
        config = one_dof_config(n_samples=420, burn_in=100)
        blocks = chain_blocks(mh_sample(one_dof_run(seed=2, bayes=config)), config)
        assert len({block.tobytes() for block in blocks}) == CHAINS
        others = chain_blocks(mh_sample(one_dof_run(seed=3, bayes=config)), config)
        assert not any(np.array_equal(a, b) for a, b in zip(blocks, others))

    def test_start_vector_is_left_unchanged(self):
        # the chains' states are updated in place; none of them may be the
        # run's own start vector
        initial = np.array([5.0])
        run = one_dof_run(theta_initial=initial, bayes=one_dof_config(step=0.05))
        chain = mh_sample(run)
        assert chain.acceptance_rate > 0.5
        assert run.theta_initial is initial and initial.tolist() == [5.0]


class TestRandomStreams:
    """Chain c draws its increments from the first child stream of
    ``SeedSequence(run.seed).spawn(CHAINS)[c]`` and its uniforms from the
    second, one row and one uniform per step."""

    def test_each_chain_is_a_prefix_of_itself_in_a_longer_run(self):
        short_config = five_dof_chain_config(0.03, n_samples=3000, burn_in=0)
        long_config = five_dof_chain_config(0.03, n_samples=5000, burn_in=0)
        short = chain_blocks(mh_sample(five_dof_run(bayes=short_config)), short_config)
        long = chain_blocks(mh_sample(five_dof_run(bayes=long_config)), long_config)
        for c, (a, b) in enumerate(zip(short, long)):
            assert len(a) < len(b) and np.array_equal(a, b[: len(a)]), c

    def test_each_chains_accepted_states_are_the_running_sum_of_its_first_stream(self):
        # a step of 1e-12 changes the log posterior by about 1e-21, less than
        # the largest log uniform, -2^-53: every proposal is accepted
        run = one_dof_run(seed=9, theta_initial=[5.0], bayes=one_dof_config(step=1e-12))
        config = run.bayes
        chain = mh_sample(run)
        assert chain.acceptance_rate == 1.0
        seeds = np.random.SeedSequence(9).spawn(CHAINS)
        for c, (block, seed) in enumerate(zip(chain_blocks(chain, config), seeds)):
            first, _ = seed.spawn(2)
            z = np.random.default_rng(first).standard_normal((config.burn_in + kept_steps(config), 1))
            states = np.cumsum(np.vstack([run.theta_initial, z * proposal_steps(run)]), axis=0)
            assert block.tobytes() == states[1 + config.burn_in :][: len(block)].tobytes(), c

    def test_each_chain_is_a_prefix_of_itself_with_the_same_burn_in(self):
        short_config = one_dof_config(n_samples=900, burn_in=100)
        long_config = one_dof_config(n_samples=1700, burn_in=100)
        short = chain_blocks(mh_sample(one_dof_run(seed=6, bayes=short_config)), short_config)
        long = chain_blocks(mh_sample(one_dof_run(seed=6, bayes=long_config)), long_config)
        for c, (a, b) in enumerate(zip(short, long)):
            assert len(a) == 50 and len(b) == 100 and np.array_equal(a, b[:50]), c


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
from ffemu.bayes import Chain, summarize
rng = np.random.default_rng(5)
samples = rng.normal([4000.0, 2100.0, 2100.0, 2500.0, 2400.0], [90.0, 40.0, 40.0, 50.0, 45.0], (11000, 5))
summary = summarize(Chain(samples=samples, acceptance_rate=0.8))
print(np.concatenate([summary.mean, summary.sd, summary.cov_percent]).tobytes().hex())
"""


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

    def test_sampler_rows_are_chain_major_with_one_running_index(self, tmp_path):
        run = one_dof_run(seed=8, bayes=one_dof_config(n_samples=150, burn_in=20))
        write_chain_csv(mh_sample(run), tmp_path / "chain.csv")
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
    """The sampler's own four settings; the prior box and the chain start
    are the run's, checked by ``FfemuRun`` (see ``test_pipeline``)."""

    def test_defaults(self):
        config = McmcConfig()
        assert (config.n_samples, config.burn_in) == (10000, 1000)
        assert (config.proposal_fraction, config.likelihood_sd) == (0.01, 0.01)

    def test_samples_must_exceed_burn_in(self):
        with pytest.raises(ConfigurationError):
            one_dof_config(n_samples=100, burn_in=100)

    def test_positive_proposal_fraction(self):
        with pytest.raises(ConfigurationError, match="proposal_fraction"):
            one_dof_config(step=0.0)

    def test_positive_likelihood_sd(self):
        with pytest.raises(ConfigurationError):
            one_dof_config(likelihood_sd=-0.1)

    @pytest.mark.parametrize("field", ["proposal_fraction", "likelihood_sd"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "0.02", True])
    def test_scales_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            one_dof_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("n_samples", 2500.9), ("n_samples", "2000"), ("burn_in", True)],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field}' must be an integer"):
            one_dof_config(**{field: value})
