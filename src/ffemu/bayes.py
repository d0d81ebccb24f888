"""Random-walk Metropolis-Hastings baseline for the updating parameters.

The likelihood is Gaussian on relative eigenvalue residuals against crisp
(center) measured eigenvalues, with a uniform box prior. This gives the
probabilistic comparison column (posterior means and coefficients of
variation) next to the fuzzy interval results.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DiagnosticsError, DomainError
from .model import StructuralModel

__all__ = ["McmcConfig", "Chain", "ChainSummary", "log_posterior", "mh_sample", "summarize"]


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; ``proposal_sd`` is per-parameter in N/m.

    ``likelihood_sd`` is the relative eigenvalue noise scale (dimensionless).
    The prior is uniform on [theta_min, theta_max]. The chain starts at
    ``initial`` when given, else at the box center.
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
        if not self.n_samples > self.burn_in >= 0:
            raise ConfigurationError("need n_samples > burn_in >= 0")
        if np.any(self.proposal_sd <= 0.0):
            raise ConfigurationError("proposal_sd entries must be positive")
        if self.likelihood_sd <= 0.0:
            raise ConfigurationError("likelihood_sd must be positive")
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


def log_posterior(theta, measured_eigenvalues, model: StructuralModel, config: McmcConfig) -> float:
    """Unnormalized log posterior; -inf outside the prior box.

    Inside the box this is the Gaussian log likelihood of the relative
    eigenvalue residuals (constant terms dropped), since the uniform prior
    contributes nothing that varies.
    """
    th = np.asarray(theta, dtype=float)
    lam_m = np.asarray(measured_eigenvalues, dtype=float)
    if np.any(th < config.theta_min) or np.any(th > config.theta_max):
        return -np.inf
    lam = model.modal(th).eigenvalues
    resid = (lam_m - lam) / lam_m
    return float(-0.5 * np.sum((resid / config.likelihood_sd) ** 2))


def mh_sample(config: McmcConfig, model: StructuralModel, measured_eigenvalues) -> Chain:
    """Random-walk Metropolis-Hastings with Gaussian proposals.

    Deterministic for a fixed seed. Raises when nothing was ever accepted,
    which almost always means the proposal steps are far too large.
    """
    rng = np.random.default_rng(config.rng_seed)
    theta = (
        config.initial.copy()
        if config.initial is not None
        else 0.5 * (config.theta_min + config.theta_max)
    )
    if np.any(theta < config.theta_min) or np.any(theta > config.theta_max):
        raise ConfigurationError("chain start lies outside the prior box")
    lp = log_posterior(theta, measured_eigenvalues, model, config)
    kept = np.empty((config.n_samples - config.burn_in, theta.size))
    accepted = 0
    for i in range(config.n_samples):
        proposal = theta + rng.normal(0.0, config.proposal_sd)
        lp_prop = log_posterior(proposal, measured_eigenvalues, model, config)
        if np.log(rng.uniform()) < lp_prop - lp:
            theta = proposal
            lp = lp_prop
            accepted += 1
        if i >= config.burn_in:
            kept[i - config.burn_in] = theta
    rate = accepted / config.n_samples
    if accepted == 0:
        raise DiagnosticsError(
            "no proposal was ever accepted; decrease proposal_sd (or check the likelihood)"
        )
    return Chain(samples=kept, acceptance_rate=rate)


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
