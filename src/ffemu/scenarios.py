"""Bundled five-DOF benchmark scenario: data only.

Ten springs connect five masses (five spring stiffnesses uncertain), with
search bounds, an initial guess, the true parameter vector used to
simulate measurements, its truth specs and the run configuration built on
them. The topology itself is configuration data: it ships as a JSON model
file, which ``model.resolve_model`` reads for the token ``"bundled"``, and
anything structured the same way works in its place. Reading a truth spec
and simulating from it is ``pipeline``'s.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "THETA_MIN",
    "THETA_MAX",
    "THETA_INITIAL",
    "THETA_TRUE",
    "bundled_truth_spec",
]

THETA_MIN = np.array([3400.0, 1900.0, 1700.0, 1900.0, 2150.0])
THETA_MAX = np.array([4600.0, 2500.0, 2370.0, 3300.0, 2650.0])
THETA_INITIAL = np.array([4150.0, 2150.0, 2160.0, 2500.0, 2460.0])
THETA_TRUE = np.array([4000.0, 2200.0, 2120.0, 2600.0, 2400.0])


def bundled_truth_spec(kind: str = "fuzzy") -> dict:
    """Bundled truth specification at ``THETA_TRUE``, ``kind`` one of 'fuzzy'
    (a 5% spread) or 'crisp' (none)."""
    fractions = {"fuzzy": 0.05, "crisp": 0.0}
    if kind not in fractions:
        raise ConfigurationError(f"unknown bundled truth {kind!r}; use 'fuzzy' or 'crisp'")
    return {"theta_true": THETA_TRUE.tolist(), "spread_fraction": fractions[kind]}


def bundled_run_config(optimizer: str = "aco", seed: int = 0) -> dict:
    """Run-configuration dictionary for the bundled fuzzy scenario.

    The config embeds the fuzzy truth spec, so the measurements are
    simulated inline. It weights only the eigenvalue errors: crisp
    measured mode shapes cannot match the vertex shapes of a genuinely
    widened interval, so shape terms would bias the recovered bounds
    inward.
    """
    return {
        "model": "bundled",
        "theta_min": THETA_MIN.tolist(),
        "theta_max": THETA_MAX.tolist(),
        "theta_initial": THETA_INITIAL.tolist(),
        "alpha_levels": 10,
        "optimizer": optimizer,
        "seed": seed,
        "aco": {"archive_size": 10, "n_ants": 20, "max_iterations": 300},
        "pso": {"swarm_size": 80, "max_iterations": 300},
        "bayes": {
            "n_samples": 10000,
            "burn_in": 1000,
            "likelihood_sd": 0.005,
        },
        "weights": {"eigenvalue": 1.0, "eigenvector": 0.0},
        "truth": bundled_truth_spec("fuzzy"),
    }
