"""Random-walk Metropolis-Hastings baseline for the updating parameters.

The likelihood is Gaussian on the alpha = 1 level residual, the one the
fuzzy search minimizes: ``objective.residual_batch`` of the parameter
points against ``run.cuts[0]`` (the triangles' peaks), weighted (0.5 /
sd^2, 0) for sd = ``run.bayes.likelihood_sd``. A point's lower and upper
blocks both hold its relative eigenvalue errors (lam_m - lam) / lam_m, so
its row's squared norm is exactly sum(((lam_m - lam) / lam_m / sd)^2);
the shape errors, at weight 0, are never solved, and the run's own
``weights`` play no part. The prior is uniform on the box [theta_min,
theta_max]. This gives the probabilistic comparison column (posterior
means and coefficients of variation) next to the fuzzy interval results
of the same ``FfemuRun``. Its settings are the run's ``bayes``
(``McmcConfig``, the defaults when a run config has no ``bayes`` section),
defined in ``ffemu.pipeline`` so that only ``ffemu bayes`` loads this module.

The proposal is fixed before the chains start (``laplace_fit``). The
posterior mode is found with the package's one polish,
``optim.least_squares_polish``, on that weighted residual inside the prior
box, from the run's
``theta_initial`` (or the box centre). At the mode, with J the polish's own
forward-difference Jacobian, the Laplace covariance Sigma is (J^T J)^-1
with its variance capped at the uniform prior's, width^2 / 12, in every
eigendirection: in prior-sd units, Sigma = V diag(1 / max(lambda, 1)) V^T
for the eigenpairs (lambda, V) of J^T J. So Sigma stays finite where J^T J
is singular (fewer modes than parameters), and every direction the data
determine keeps its likelihood variance. Adding the prior's precision
instead, Sigma = (J^T J + diag(12 / width^2))^-1, cut the variance of the
benchmark's weakest direction (lambda = 2.3) by 30%: its chains accepted
0.31 of their steps and reached a summed min ESS of 1,756-1,940 and a
split-R-hat of 1.009-1.012 at seeds 1-3, against 2,021-2,149 and
1.007-1.009 under the cap. Every chain proposes ``PROPOSAL_FACTOR`` /
sqrt(d) * chol(Sigma) z (Roberts, Gelman & Gilks 1997) for the whole run,
with no adaptation and no pooling.

``mh_sample`` runs ``CHAINS`` such chains in lockstep. Their states are one
(``CHAINS``, d) array, and each step is one ``CHAINS``-row
``log_posterior_batch`` call (one stacked eigensolve of the rows inside
the prior box) and one vectorised accept, log u < lp_new - lp, applied
with ``np.copyto(..., where=)``.

The streams are the children of ``SeedSequence(run.seed).spawn(CHAINS +
1)``. Chain c draws from child c (the same child as ``spawn(CHAINS)``
gives), split again by ``.spawn(2)``: the first gives its standard-normal
rows z, the second its uniforms, drawn ``BLOCK`` steps at a time. Step i
of the chain takes its i-th row and its i-th uniform, so a chain run with a
larger ``n_samples`` (and the same ``burn_in``) extends its run with a
smaller one. A row's increment is formed elementwise over the d columns of
the factor, sum_j z_j * F[:, j] with j ascending (``_combine``), never by a
BLAS product, whose rounding may depend on the number of rows. Child
``CHAINS`` gives the dispersed starts: chain c starts at mode + 2 chol(Sigma)
z_c, clipped into the box, as R-hat needs. Each step's log posterior does
not depend on the other rows of its batch (every operation from increment
to log posterior is elementwise or a per-matrix eigensolve), so every
chain equals, bit for bit, the one-row sequential chain on its own streams.

Every chain drops its first ``burn_in`` states and keeps the next s, with s
= ceil((``n_samples`` - ``burn_in``) / ``CHAINS``), so every chain makes
the same ``burn_in`` + s steps. The kept states are stored chain-major:
chain 0's s, then chain 1's, and so on. The run publishes the first
``n_samples - burn_in`` of them, so the last chain or chains publish fewer
than s, and fewer than ``CHAINS`` kept states go unpublished.

The diagnostics are computed over every chain's s kept states: each
parameter's ESS (Geyer's 1992 initial positive sequence, per chain, summed
over the chains) and the classic split-R-hat over the 2 ``CHAINS``
half-chains (Gelman et al., Bayesian Data Analysis, 3rd ed.). A run whose
ESS falls below ``ESS_FLOOR`` or whose R-hat exceeds ``RHAT_LIMIT`` (or is
undefined) is warned about once through the ``ffemu`` logger; its results
are still written. The rank-normalised R-hat with its folded variant
(Vehtari et al. 2021) is not computed: a plain numpy version (one argsort
per parameter over the 32 half-chains, and scipy's inverse normal CDF,
which the package does not depend on) cost 37-41 ms on the benchmark's
39,000 states at seeds 1-3, most of what the Laplace proposal saves, and
read 1.0065-1.0090 against the classic 1.0065-1.0092.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DiagnosticsError, DomainError
from .objective import residual_batch
from .optim import Box, forward_jacobian, least_squares_polish
from .pipeline import FfemuRun

__all__ = [
    "CHAINS", "PROPOSAL_FACTOR", "ESS_FLOOR", "RHAT_LIMIT", "Laplace", "Chain", "log_posterior_batch",
    "laplace_fit", "mh_sample", "effective_sample_size", "split_rhat", "summarize",
]

CHAINS = 16  # chains stepped in lockstep (see the module docstring)
PROPOSAL_FACTOR = 2.38  # proposal scale / sqrt(d), in units of chol(Sigma)
START_SPREAD = 2.0  # chain starts: mode + START_SPREAD * chol(Sigma) z
BLOCK = 64  # steps whose random numbers are drawn at once
FFT_CHAINS = 2  # chains whose autocovariances one FFT call forms
ESS_FLOOR = 400  # fewest effective samples per parameter without a warning (Vehtari et al. 2021)
RHAT_LIMIT = 1.01  # largest split-R-hat without a warning

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Laplace:
    """The Laplace approximation that fixes the proposal: the posterior mode,
    the covariance Sigma there, and Sigma's lower Cholesky factor."""

    mode: np.ndarray
    covariance: np.ndarray
    factor: np.ndarray


@dataclass
class Chain:
    """One finished M-H run: the published post-burn-in samples (rows,
    chain-major) and their per-parameter mean and sd (``summarize``), the
    acceptance rate over every proposal, burn-in included, the number of
    chains, the Laplace fit they proposed from, and each parameter's ESS
    (summed over the chains) and split-R-hat (NaN where undefined) over
    every kept state."""

    samples: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    acceptance_rate: float
    chains: int
    laplace: Laplace
    ess: np.ndarray
    rhat: np.ndarray


def log_posterior_batch(thetas, run: FfemuRun) -> np.ndarray:
    """Unnormalized log posterior of each row of ``thetas`` (m, d); -inf outside the run's prior box.

    Inside the box this is the Gaussian log likelihood, -0.5 times the
    squared norm of the point's row of the alpha = 1 level residual at the
    weights (0.5 / sd^2, 0), sd = ``run.bayes.likelihood_sd``: that norm is
    sum(((lam_m - lam) / lam_m / sd)^2) for the triangles' peaks lam_m (see
    the module docstring). The uniform prior contributes nothing that
    varies. Rows outside the box are not solved; the rest go to one
    ``residual_batch`` call, which solves for eigenvalues only.
    """
    th = np.asarray(thetas, dtype=float)
    inside = ((th >= run.theta_min) & (th <= run.theta_max)).all(axis=1)
    out = np.full(th.shape[0], -np.inf)
    if inside.any():
        rows = _level_residual(run, th[inside])
        out[inside] = -0.5 * np.square(rows, out=rows).sum(axis=1)
    return out


def _level_residual(run: FfemuRun, thetas) -> np.ndarray:
    """The alpha = 1 level residual of the (m, d) points ``thetas`` at the
    weights (0.5 / ``likelihood_sd``^2, 0), one row of length 4n per point."""
    sd = run.bayes.likelihood_sd
    return residual_batch(run.model, thetas, run.cuts[0], (0.5 / sd / sd, 0.0))


def laplace_fit(run: FfemuRun) -> Laplace:
    """The posterior mode and the Laplace covariance there (see the module docstring).

    The log posterior is -0.5 |r|^2 for r the point's row of the alpha = 1
    level residual at the weights (0.5 / sd^2, 0), so the polish that
    minimizes |r|^2 inside the box finds the mode, and J^T J is the
    Gauss-Newton Hessian there. In units of the uniform prior's sd,
    width / sqrt(12), each eigenvalue of J^T J is raised to at least 1
    before it is inverted, so no direction gets a larger variance than the
    prior's, which keeps Sigma finite where J^T J is singular (fewer modes
    than parameters), and a direction the data determine keeps its (J^T
    J)^-1 variance. Raises ``DiagnosticsError`` naming
    ``likelihood_sd`` when the residuals at the mode, or Sigma, are not
    finite, or Sigma is not positive definite: at a tiny ``likelihood_sd``
    the weight or the squared residuals overflow.
    """
    residual = partial(_level_residual, run)
    region = Box(run.theta_min, run.theta_max)
    start = 0.5 * (run.theta_min + run.theta_max) if run.theta_initial is None else run.theta_initial
    prior_sd = (run.theta_max - run.theta_min) / math.sqrt(12.0)  # the uniform prior's
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mode, _, _ = least_squares_polish(residual, region, start)
        r = residual(mode[None, :])[0]
        scaled = forward_jacobian(residual, region, mode, r, region.lo < region.hi) * prior_sd
        precision = scaled.T @ scaled  # J^T J in units of the prior's sd
    try:
        if not (np.isfinite(r).all() and np.isfinite(precision).all()):
            raise np.linalg.LinAlgError
        eigenvalues, vectors = np.linalg.eigh(precision)
        covariance = prior_sd[:, None] * ((vectors / np.maximum(eigenvalues, 1.0)) @ vectors.T) * prior_sd
        factor = np.linalg.cholesky(covariance)
        if not np.isfinite(factor).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise DiagnosticsError(
            f"the Laplace covariance at the posterior mode is not finite and positive definite; "
            f"likelihood_sd = {run.bayes.likelihood_sd!r} is too small for its eigenvalue residuals"
        ) from None
    return Laplace(mode=mode, covariance=covariance, factor=factor)


def _combine(z, factor) -> np.ndarray:
    """Each row of ``z`` (..., d) times ``factor`` (d, d), as sum_j z[..., j] *
    factor[:, j] with j ascending: elementwise, so one row gives the same
    bits alone as in any stack."""
    out = z[..., 0, None] * factor[:, 0]
    for j in range(1, z.shape[-1]):
        out += z[..., j, None] * factor[:, j]
    return out


def mh_sample(run: FfemuRun) -> Chain:
    """Random-walk Metropolis-Hastings with the fixed Laplace proposal, as
    ``CHAINS`` chains in lockstep from dispersed starts around the mode,
    with the settings ``run.bayes`` (see the module docstring).

    Deterministic for a fixed ``run.seed``; chain c equals bit for bit the
    sequential chain that starts at its dispersed start and, at each step,
    draws d standard normals from the first child stream of
    ``SeedSequence(run.seed).spawn(CHAINS + 1)[c].spawn(2)`` (combined with
    the scaled factor by ``_combine``) and one uniform from the second.
    Raises ``DiagnosticsError`` when the Laplace fit fails (at a tiny
    ``likelihood_sd``) or nothing was ever accepted; a
    ``ConvergenceError`` of any eigensolve propagates. A chain that has not
    mixed by its diagnostics is warned about, not refused.
    """
    d = run.theta_min.size
    seeds = np.random.SeedSequence(run.seed).spawn(CHAINS + 1)
    laplace = laplace_fit(run)
    z = np.random.default_rng(seeds[CHAINS]).standard_normal((CHAINS, d))
    starts = Box(run.theta_min, run.theta_max).project(laplace.mode + _combine(z, START_SPREAD * laplace.factor))
    with np.errstate(over="ignore"):  # a squared residual that overflows gives a log posterior of -inf
        lps = log_posterior_batch(starts, run)
        kept, accepted = _lockstep(run, starts, lps, (PROPOSAL_FACTOR / math.sqrt(d)) * laplace.factor, seeds)
    if accepted == 0:
        raise DiagnosticsError("no proposal was ever accepted; check the likelihood and its likelihood_sd")
    ess, rhat = effective_sample_size(kept), split_rhat(kept)
    _warn_unless_mixed(ess, rhat)
    samples = kept.reshape(-1, d)[: run.bayes.n_samples - run.bayes.burn_in]
    rate = accepted / (CHAINS * (run.bayes.burn_in + kept.shape[1]))
    return Chain(samples, *summarize(samples), rate, CHAINS, laplace, ess, rhat)


def _lockstep(run: FfemuRun, states, lps, factor, seeds) -> tuple[np.ndarray, int]:
    """The chains of ``mh_sample`` from ``states``, whose log posteriors are
    ``lps`` (both updated in place), proposing ``_combine(z, factor)``;
    returns every chain's kept states, (``CHAINS``, s, d), and the number
    of accepted steps."""
    burn, d = run.bayes.burn_in, states.shape[1]
    steps = burn + -(-(run.bayes.n_samples - burn) // CHAINS)  # each chain's burn-in and kept steps
    streams = [tuple(map(np.random.default_rng, seed.spawn(2))) for seed in seeds[:CHAINS]]
    kept = np.empty((CHAINS, steps - burn, d))
    z, log_u = np.empty((CHAINS, BLOCK, d)), np.empty((CHAINS, BLOCK))
    accepted = 0
    for first in range(0, steps, BLOCK):
        n = min(BLOCK, steps - first)
        for c, (normals, uniforms) in enumerate(streams):
            normals.standard_normal(out=z[c, :n])
            uniforms.random(out=log_u[c, :n])
        increments = _combine(z[:, :n], factor)
        np.log(log_u[:, :n], out=log_u[:, :n])
        for k in range(n):
            proposals = states + increments[:, k]
            lp_new = log_posterior_batch(proposals, run)
            accept = log_u[:, k] < lp_new - lps
            np.copyto(states, proposals, where=accept[:, None])
            np.copyto(lps, lp_new, where=accept)
            accepted += int(np.count_nonzero(accept))
            if first + k >= burn:
                kept[:, first + k - burn] = states
    return kept, accepted


def effective_sample_size(states) -> np.ndarray:
    """Each parameter's effective sample size, summed over the chains.

    ``states`` is (chains, n, d). A chain's ESS is n / tau, tau = -1 + 2 *
    the sum of Geyer's paired autocorrelations rho(2m) + rho(2m + 1), summed
    while they stay positive (Geyer 1992, initial positive sequence), with
    tau at least 1 / n. The autocovariances come from zero-padded FFTs of
    ``FFT_CHAINS`` chains at a time, so every temporary stays near 100 kB
    on the benchmark's chains: one FFT over all 16 chains raised the
    ``bayes`` run's peak memory by about 3.5 MB more. A chain of fewer than 2 states, or
    whose column is constant, adds 0.
    """
    states = np.asarray(states, dtype=float)
    chains, n, d = states.shape
    ess = np.zeros(d)
    if n < 2:
        return ess
    # no circular overlap at any lag below n, at a length numpy's FFT does
    # fast: the smallest 2^k, 3 * 2^k or 5 * 2^k of at least 2n - 1
    size = min(m << (-(-(2 * n - 1) // m) - 1).bit_length() for m in (1, 3, 5))
    for first in range(0, chains, FFT_CHAINS):
        for j in range(d):
            column = states[first : first + FFT_CHAINS, :, j]
            spectrum = np.fft.rfft(column - column.mean(axis=1, keepdims=True), size)
            acov = np.fft.irfft(np.square(spectrum.real) + np.square(spectrum.imag), size)
            pairs = acov[:, 0 : n - 1 : 2] + acov[:, 1:n:2]  # (chains, n // 2)
            positive = np.logical_and.accumulate(pairs > 0.0, axis=1)
            varying = acov[:, 0] > 0.0
            tau = -1.0 + 2.0 * np.where(positive, pairs, 0.0).sum(axis=1) / np.where(varying, acov[:, 0], 1.0)
            ess[j] += np.where(varying, n / np.maximum(tau, 1.0 / n), 0.0).sum()
    return ess


def split_rhat(states) -> np.ndarray:
    """Each parameter's classic split-R-hat over the 2 x chains half-chains.

    ``states`` is (chains, n, d); each chain's first and last n // 2 states
    are its halves (the middle state of an odd n is left out). With B the
    variance of the half-chain means times their length h, and W the mean
    of their variances, R-hat = sqrt(((h - 1) / h W + B / h) / W). It is NaN
    where it is undefined: halves shorter than 2 states, or W = 0.
    """
    states = np.asarray(states, dtype=float)
    chains, n, d = states.shape
    h = n // 2
    if h < 2:
        return np.full(d, np.nan)
    means, variances = np.empty((2 * chains, d)), np.empty((2 * chains, d))
    for i, half in enumerate(part for chain in states for part in (chain[:h], chain[n - h :])):
        means[i] = half.mean(axis=0)
        variances[i] = half.var(axis=0, ddof=1)
    within = variances.mean(axis=0)
    between = h * means.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(((h - 1) / h * within + between / h) / within)
    return np.where(within > 0.0, rhat, np.nan)


def _warn_unless_mixed(ess, rhat) -> None:
    """One warning through the ``ffemu`` logger when any ESS is below
    ``ESS_FLOOR`` or any split-R-hat is above ``RHAT_LIMIT`` or undefined."""
    problems = []
    if ess.min() < ESS_FLOOR:
        problems.append(f"min ESS {ess.min():.0f} is below {ESS_FLOOR}")
    if np.isnan(rhat).any():
        problems.append("split-R-hat is undefined (too few kept states per chain, or a constant chain)")
    elif rhat.max() > RHAT_LIMIT:
        problems.append(f"max split-R-hat {rhat.max():.3f} is above {RHAT_LIMIT}")
    if problems:
        _log.warning("the M-H chains may not have mixed: %s; raise n_samples", "; ".join(problems))


def summarize(samples) -> tuple[np.ndarray, np.ndarray]:
    """Each column's mean and standard deviation (N-1 divisor) over the (n,
    d) ``samples``.

    The deviations are formed one column at a time (two passes: the mean,
    then the sum of the squared deviations), so the only temporary is one
    column, not a copy of the whole chain. That sum is numpy's own pairwise
    reduction, not a BLAS dot product, whose threaded split of a long vector
    would make the bits depend on the BLAS thread count.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("cannot summarize an empty chain")
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    sd = np.zeros_like(mean)
    if n > 1:
        for j, column in enumerate(samples.T):
            dev = column - mean[j]
            sd[j] = math.sqrt(np.add.reduce(np.square(dev, out=dev)) / (n - 1))
    return mean, sd
