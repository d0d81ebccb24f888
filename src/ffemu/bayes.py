"""Random-walk Metropolis-Hastings baseline for the updating parameters.

The likelihood is Gaussian on relative eigenvalue residuals against crisp
(center) measured eigenvalues, with a uniform box prior. This gives the
probabilistic comparison column (posterior means and coefficients of
variation) next to the fuzzy interval results.

The chain is the plain sequential random walk, but it is evaluated in
windows of ``DEPTH`` steps by prefetching (Brockwell 2006, "Parallel Markov
chain Monte Carlo simulation by pre-fetching"). A step's proposal increment
and uniform draw do not depend on the accept/reject decisions, so they are
all drawn up front, in the order the sequential chain draws them. From a
state theta at step i, the states the next ``DEPTH`` steps can reach while
their decisions all go one way are then known:

- the accept path theta + z_i, theta + z_i + z_i+1, ... (every step accepted);
- the reject fan theta + z_i+k (every step rejected so far).

Both share their first row, so one stacked eigensolve of 2 DEPTH - 1 rows
covers the window; the likelihood needs eigenvalues only, so that solve is
``StructuralModel.eigenvalues_batch``, which skips the mode shapes. The
walk follows the accept path up to and including the first rejection, or
the reject fan up to and including the first acceptance, and the next
window starts from the state it lands on. The chain equals the sequential
definition bit for bit: every proposal is formed by the same floating-point
additions in the same order (the accept path is a running sum over [theta,
z_i, z_i+1, ...]), each row's log posterior does not depend on the other
rows of its batch, and every decision compares the same numbers. Rows the
walk never reaches are solved but their results are discarded; if a batch
fails to converge, the window is re-solved one row at a time in walk order,
so an error surfaces only for a state the sequential chain would also have
solved.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError, DiagnosticsError, DomainError, ShapeError
from .model import StructuralModel

__all__ = [
    "McmcConfig",
    "Chain",
    "ChainSummary",
    "log_posterior",
    "log_posterior_batch",
    "mh_sample",
    "summarize",
]

DEPTH = 8  # steps per prefetch window; each window solves 2 * DEPTH - 1 states


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; ``proposal_sd`` is per-parameter in N/m.

    ``likelihood_sd`` is the relative eigenvalue noise scale (dimensionless).
    The prior is uniform on [theta_min, theta_max], with theta_min > 0 since
    the parameters are stiffnesses. The chain starts at ``initial`` when
    given, else at the box center. All vectors are 1-D and of one length.
    """

    n_samples: int
    burn_in: int
    proposal_sd: np.ndarray
    likelihood_sd: float
    theta_min: np.ndarray
    theta_max: np.ndarray
    rng_seed: int = 0
    initial: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "proposal_sd", np.asarray(self.proposal_sd, dtype=float))
        object.__setattr__(self, "theta_min", np.asarray(self.theta_min, dtype=float))
        object.__setattr__(self, "theta_max", np.asarray(self.theta_max, dtype=float))
        if self.initial is not None:
            object.__setattr__(self, "initial", np.asarray(self.initial, dtype=float))
        vectors = [self.proposal_sd, self.theta_min, self.theta_max]
        if self.initial is not None:
            vectors.append(self.initial)
        if any(v.ndim != 1 for v in vectors) or len({v.size for v in vectors}) != 1:
            raise ConfigurationError(
                "proposal_sd, theta_min, theta_max and initial must be 1-D and of one length"
            )
        if not self.n_samples > self.burn_in >= 0:
            raise ConfigurationError("need n_samples > burn_in >= 0")
        if np.any(self.proposal_sd <= 0.0):
            raise ConfigurationError("proposal_sd entries must be positive")
        if self.likelihood_sd <= 0.0:
            raise ConfigurationError("likelihood_sd must be positive")
        if np.any(self.theta_min <= 0.0):
            raise ConfigurationError("theta_min entries must be positive (stiffnesses)")
        if np.any(self.theta_min >= self.theta_max):
            raise ConfigurationError("prior box must have positive widths")

    @classmethod
    def from_box(
        cls,
        theta_min,
        theta_max,
        n_samples: int = 10000,
        burn_in: int = 1000,
        proposal_fraction: float = 0.01,
        likelihood_sd: float = 0.01,
        rng_seed: int = 0,
        initial=None,
    ) -> "McmcConfig":
        """Convenience constructor: proposal steps as a fraction of box width."""
        tmin = np.asarray(theta_min, dtype=float)
        tmax = np.asarray(theta_max, dtype=float)
        return cls(
            n_samples=n_samples,
            burn_in=burn_in,
            proposal_sd=proposal_fraction * (tmax - tmin),
            likelihood_sd=likelihood_sd,
            theta_min=tmin,
            theta_max=tmax,
            rng_seed=rng_seed,
            initial=initial,
        )


@dataclass
class Chain:
    """Post-burn-in samples (rows) plus the whole-run acceptance rate."""

    samples: np.ndarray
    acceptance_rate: float


@dataclass
class ChainSummary:
    """Per-parameter posterior statistics; c.o.v. in percent."""

    mean: np.ndarray
    sd: np.ndarray
    cov_percent: np.ndarray


def log_posterior_batch(thetas, measured_eigenvalues, model: StructuralModel, config: McmcConfig) -> np.ndarray:
    """Unnormalized log posterior of each row of ``thetas`` (m, d); -inf outside the prior box.

    Inside the box this is the Gaussian log likelihood of the relative
    eigenvalue residuals (constant terms dropped), since the uniform prior
    contributes nothing that varies. Rows outside the box are not solved;
    the rest go to one ``model.eigenvalues_batch`` call, which solves for
    eigenvalues only.
    """
    th = np.asarray(thetas, dtype=float)
    lam_m = np.asarray(measured_eigenvalues, dtype=float)
    inside = np.all((th >= config.theta_min) & (th <= config.theta_max), axis=1)
    out = np.full(th.shape[0], -np.inf)
    if inside.any():
        lam = model.eigenvalues_batch(th[inside])
        resid = (lam_m - lam) / lam_m
        out[inside] = -0.5 * np.sum((resid / config.likelihood_sd) ** 2, axis=1)
    return out


def log_posterior(theta, measured_eigenvalues, model: StructuralModel, config: McmcConfig) -> float:
    """Log posterior at one parameter vector: the one-row case of ``log_posterior_batch``."""
    row = np.asarray(theta, dtype=float).reshape(1, -1)
    return float(log_posterior_batch(row, measured_eigenvalues, model, config)[0])


def mh_sample(config: McmcConfig, model: StructuralModel, measured_eigenvalues) -> Chain:
    """Random-walk Metropolis-Hastings with Gaussian proposals.

    Deterministic for a fixed seed, and equal bit for bit to the sequential
    chain that draws ``rng.normal(0, proposal_sd)`` then ``rng.uniform()``
    at each step (see the module docstring for the windowed walk). Raises
    when nothing was ever accepted, which almost always means the proposal
    steps are far too large.
    """
    d = config.theta_min.size
    if d != model.parameter_count:
        raise ShapeError(
            f"sampler config has {d} parameters, the model has {model.parameter_count}"
        )
    theta = (
        config.initial.copy()
        if config.initial is not None
        else 0.5 * (config.theta_min + config.theta_max)
    )
    if np.any(theta < config.theta_min) or np.any(theta > config.theta_max):
        raise ConfigurationError("chain start lies outside the prior box")
    n = config.n_samples
    rng = np.random.default_rng(config.rng_seed)
    steps = np.empty((n, d))
    uniforms = np.empty(n)
    for i in range(n):
        steps[i] = rng.standard_normal(d)
        uniforms[i] = rng.random()
    steps *= config.proposal_sd
    log_u = np.log(uniforms, out=uniforms)

    lp = log_posterior(theta, measured_eigenvalues, model, config)
    trace = np.empty((n, d))
    accepted = 0
    i = 0
    while i < n:
        k = min(DEPTH, n - i)
        # rows 0..k-1: accept path; rows k..2k-2: reject fan after row 0
        path = np.cumsum(np.vstack((theta, steps[i : i + k])), axis=0)[1:]
        rows = np.concatenate((path, theta + steps[i + 1 : i + k]))
        try:
            lps = log_posterior_batch(rows, measured_eigenvalues, model, config).tolist()
            row_lp = lps.__getitem__
        except ConvergenceError:  # re-solve only the rows the walk reaches
            def row_lp(r, rows=rows):
                return log_posterior(rows[r], measured_eigenvalues, model, config)
        u = log_u[i : i + k].tolist()
        lp_next = row_lp(0)
        if u[0] < lp_next - lp:
            j, lp = 1, lp_next
            while j < k:
                lp_next = row_lp(j)
                if not u[j] < lp_next - lp:
                    break
                j, lp = j + 1, lp_next
            trace[i : i + j] = path[:j]
            theta = path[j - 1]
            accepted += j
        else:
            j = 1
            while j < k:
                lp_next = row_lp(k - 1 + j)
                if u[j] < lp_next - lp:
                    break
                j += 1
            trace[i : i + j] = theta
            if j < k:
                theta, lp = rows[k - 1 + j], lp_next
                accepted += 1
        if j < k:  # the step that ended the run is consumed too
            trace[i + j] = theta
            j += 1
        i += j
    if accepted == 0:
        raise DiagnosticsError(
            "no proposal was ever accepted; decrease proposal_sd (or check the likelihood)"
        )
    return Chain(samples=trace[config.burn_in :], acceptance_rate=accepted / n)


def summarize(chain: Chain) -> ChainSummary:
    """Sample mean, standard deviation (N-1 divisor), and c.o.v. in percent."""
    if chain.samples.size == 0:
        raise DomainError("cannot summarize an empty chain")
    mean = chain.samples.mean(axis=0)
    sd = chain.samples.std(axis=0, ddof=1) if chain.samples.shape[0] > 1 else np.zeros_like(mean)
    return ChainSummary(mean=mean, sd=sd, cov_percent=100.0 * sd / mean)


def write_chain_csv(chain: Chain, path) -> None:
    """Dump samples as (sample_index, theta_0, ..., theta_d-1) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        d = chain.samples.shape[1]
        writer.writerow(["sample_index"] + [f"theta_{i}" for i in range(d)])
        for i, row in enumerate(chain.samples):
            writer.writerow([i] + [repr(float(v)) for v in row])
