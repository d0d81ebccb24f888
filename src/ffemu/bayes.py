"""Random-walk Metropolis-Hastings baseline for the updating parameters.

The likelihood is Gaussian on relative eigenvalue residuals against the
run's crisp (center) measured eigenvalues, with a uniform prior on its box
[theta_min, theta_max]. This gives the probabilistic comparison column
(posterior means and coefficients of variation) next to the fuzzy interval
results of the same ``FfemuRun``. Its settings are the run's ``bayes``
(``McmcConfig``, the defaults when a run config has no ``bayes`` section),
defined in ``ffemu.pipeline`` so that only ``ffemu bayes`` loads this module.

``mh_sample`` runs ``CHAINS`` random-walk chains in lockstep. Their states
are one (``CHAINS``, d) array, and each step is one ``CHAINS``-row
``log_posterior_batch`` call (one stacked ``eigenvalues_batch`` solve of
the rows inside the prior box) and one vectorised accept,
log u < lp_new - lp, applied with ``np.copyto(..., where=)``.

Chain c draws from child c of ``SeedSequence(run.seed).spawn(CHAINS)``,
which is split again by ``.spawn(2)``: the first child gives the chain's
standard-normal increment rows, scaled by the proposal steps
``bayes.proposal_fraction * (theta_max - theta_min)``, the second its uniforms,
each drawn in bulk. Step i of the chain takes its i-th increment and its
i-th uniform, so a chain run with a larger ``n_samples`` (and the same
``burn_in``) extends its run with a smaller one. Each step's log
posterior does not depend on the other rows of its batch (every operation
from increment to log posterior is elementwise or a per-matrix
eigensolve), so every chain equals, bit for bit, the one-row sequential
chain on its own streams.

Every chain starts at the run's ``theta_initial`` (or the box centre),
drops its first ``burn_in`` states and keeps the next s, with s =
ceil((``n_samples`` - ``burn_in``) / ``CHAINS``), so every chain makes the
same ``burn_in`` + s steps. The kept states are stored chain-major: chain
0's s, then chain 1's, and so on. The run publishes the first ``n_samples
- burn_in`` of them, so the last chain or chains publish fewer than s, and
fewer than ``CHAINS`` kept states go unpublished.

Why 16 chains, each with its own full burn-in: on the bundled run config
at 40,000 samples (burn-in 1,000, proposal fraction 0.01), on one pinned
CPU of a shared 2-CPU machine (Python 3.11, numpy 2.4), three alternating
rounds over seeds 0-4 gave median process times per ``mh_sample`` of
0.36-0.43 s for 16 chains, 0.39-0.42 s for the single chain walked in
predicted-path prefetch windows (Angelino et al. 2014) that they replace,
0.44-0.52 s for 8 chains and 0.33-0.39 s for 32, which burn in twice as
many steps. With each chain burning in fully, the worst posterior-mean
error against the truth over seeds 0-39 is 1.37% (1.78% for the single
chain); splitting ``burn_in`` across the chains instead raises it to 2.07%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticsError, DomainError
from .pipeline import FfemuRun

__all__ = [
    "CHAINS",
    "Chain",
    "ChainSummary",
    "log_posterior_batch",
    "mh_sample",
    "summarize",
]

CHAINS = 16  # chains stepped in lockstep (see the module docstring)


@dataclass
class Chain:
    """Published post-burn-in samples (rows, chain-major) plus the acceptance
    rate over every proposal of every chain, burn-in included."""

    samples: np.ndarray
    acceptance_rate: float


@dataclass
class ChainSummary:
    """Per-parameter posterior statistics; c.o.v. in percent."""

    mean: np.ndarray
    sd: np.ndarray
    cov_percent: np.ndarray


def log_posterior_batch(thetas, measured_eigenvalues, run: FfemuRun) -> np.ndarray:
    """Unnormalized log posterior of each row of ``thetas`` (m, d); -inf outside the run's prior box.

    ``measured_eigenvalues`` are ``run.measured.center_eigenvalues()``, formed
    once per run of the chains. Inside the box this is the Gaussian log
    likelihood of the relative eigenvalue residuals (constant terms
    dropped, noise scale ``run.bayes.likelihood_sd``), since the uniform
    prior contributes nothing that varies. Rows
    outside the box are not solved; the rest go to one
    ``run.model.eigenvalues_batch`` call, which solves for eigenvalues only.
    When every row is inside, the stack is solved as it is, without
    gathering the rows and scattering their results.
    """
    th = np.asarray(thetas, dtype=float)
    inside = ((th >= run.theta_min) & (th <= run.theta_max)).all(axis=1)
    lam_m = np.asarray(measured_eigenvalues, dtype=float)
    if inside.all():
        return _log_likelihood(run.model.eigenvalues_batch(th), lam_m, run.bayes.likelihood_sd)
    out = np.full(th.shape[0], -np.inf)
    if inside.any():
        out[inside] = _log_likelihood(run.model.eigenvalues_batch(th[inside]), lam_m, run.bayes.likelihood_sd)
    return out


def _log_likelihood(lam, lam_m, likelihood_sd: float) -> np.ndarray:
    """Row sums of -0.5 ((lam_m - lam) / lam_m / sd)^2, overwriting ``lam``."""
    resid = np.subtract(lam_m, lam, out=lam)
    resid /= lam_m
    resid /= likelihood_sd
    np.square(resid, out=resid)
    total = resid.sum(axis=1)
    total *= -0.5
    return total


def mh_sample(run: FfemuRun) -> Chain:
    """Random-walk Metropolis-Hastings with Gaussian proposals, as ``CHAINS``
    chains in lockstep from the run's ``theta_initial`` or box centre, with
    the settings ``run.bayes`` (see the module docstring).

    Deterministic for a fixed ``run.seed``; chain c equals bit for bit the
    sequential chain that, at each step, draws d standard normals from the
    first child stream of ``SeedSequence(run.seed).spawn(CHAINS)[c].spawn(2)``
    (scaled by the proposal steps) and one uniform from the second. Raises
    ``DiagnosticsError`` when the start state's log posterior is not finite
    (its squared residuals overflow at a tiny ``likelihood_sd``), or when
    nothing was ever accepted, which almost always means the proposal steps
    are far too large; a ``ConvergenceError`` of any step propagates.
    """
    lam_m = run.measured.center_eigenvalues()
    start = 0.5 * (run.theta_min + run.theta_max) if run.theta_initial is None else run.theta_initial
    with np.errstate(over="ignore"):  # a squared residual that overflows gives a log posterior of -inf
        lp = log_posterior_batch(start[None, :], lam_m, run).item()
        if not math.isfinite(lp):
            raise DiagnosticsError(
                f"the log posterior at the chain start is {lp}; likelihood_sd = "
                f"{run.bayes.likelihood_sd!r} is too small for its eigenvalue residuals"
            )
        return _lockstep(run, lam_m, start, lp)


def _lockstep(run: FfemuRun, lam_m, start, lp) -> Chain:
    """The chains of ``mh_sample``, all from ``start``, whose log posterior is ``lp``."""
    burn, d = run.bayes.burn_in, start.size
    s = -(-(run.bayes.n_samples - burn) // CHAINS)  # steps each chain makes after its burn-in
    # step t's increments are drawn into burned[:, t] (kept[:, t - burn]
    # after the burn-in), and the states they lead to overwrite them
    burned, kept = np.empty((CHAINS, burn, d)), np.empty((CHAINS, s, d))
    log_u = np.empty((CHAINS, burn + s))
    for c, seed in enumerate(np.random.SeedSequence(run.seed).spawn(CHAINS)):
        normals, uniforms = map(np.random.default_rng, seed.spawn(2))
        normals.standard_normal(out=burned[c])
        normals.standard_normal(out=kept[c])
        uniforms.random(out=log_u[c])
    steps = run.bayes.proposal_fraction * (run.theta_max - run.theta_min)
    burned *= steps
    kept *= steps
    np.log(log_u, out=log_u)

    states = np.tile(start, (CHAINS, 1))
    lps = np.full(CHAINS, lp)
    accepted = 0
    for t in range(burn + s):
        row = burned[:, t] if t < burn else kept[:, t - burn]
        proposals = states + row
        lp_new = log_posterior_batch(proposals, lam_m, run)
        accept = log_u[:, t] < lp_new - lps
        np.copyto(states, proposals, where=accept[:, None])
        np.copyto(lps, lp_new, where=accept)
        accepted += int(np.count_nonzero(accept))
        row[...] = states
    if accepted == 0:
        raise DiagnosticsError(
            "no proposal was ever accepted; decrease proposal_fraction (or check the likelihood)"
        )
    samples = kept.reshape(-1, d)[: run.bayes.n_samples - burn]
    return Chain(samples=samples, acceptance_rate=accepted / log_u.size)


def summarize(chain: Chain) -> ChainSummary:
    """Sample mean, standard deviation (N-1 divisor), and c.o.v. in percent.

    The deviations are formed one column at a time (two passes: the mean,
    then the sum of the squared deviations), so the only temporary is one
    column, not a copy of the whole chain. That sum is numpy's own pairwise
    reduction, not a BLAS dot product, whose threaded split of a long vector
    would make the bits depend on the BLAS thread count.
    """
    samples = chain.samples
    if samples.size == 0:
        raise DomainError("cannot summarize an empty chain")
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    sd = np.zeros_like(mean)
    if n > 1:
        for j, column in enumerate(samples.T):
            dev = column - mean[j]
            sd[j] = math.sqrt(np.add.reduce(np.square(dev, out=dev)) / (n - 1))
    return ChainSummary(mean=mean, sd=sd, cov_percent=100.0 * sd / mean)
