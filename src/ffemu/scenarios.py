"""Bundled five-DOF benchmark scenario.

Ten springs connect five masses (five spring stiffnesses uncertain), with
search bounds, an initial guess, and the true parameter vector used to
simulate measurements. The topology itself is configuration data: it ships
as a JSON model file and anything structured the same way works in its
place.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, check_keys, check_value
from .model import StructuralModel, load_model, model_from_dict
from .pipeline import simulate_measurements

__all__ = [
    "THETA_MIN",
    "THETA_MAX",
    "THETA_INITIAL",
    "THETA_TRUE",
    "five_dof_model",
    "resolve_model",
    "bundled_truth_spec",
    "simulate_from_truth_spec",
]

THETA_MIN = np.array([3400.0, 1900.0, 1700.0, 1900.0, 2150.0])
THETA_MAX = np.array([4600.0, 2500.0, 2370.0, 3300.0, 2650.0])
THETA_INITIAL = np.array([4150.0, 2150.0, 2160.0, 2500.0, 2460.0])
THETA_TRUE = np.array([4000.0, 2200.0, 2120.0, 2600.0, 2400.0])
TRUTH_KEYS = ("theta_true", "spreads", "spread_fraction", "shape_tfns")


def five_dof_model() -> StructuralModel:
    """The packaged 5-mass / 10-spring structure with 5 uncertain stiffnesses."""
    text = resources.files("ffemu.data").joinpath("model_5dof.json").read_text(encoding="utf-8")
    return model_from_dict(json.loads(text), source="bundled model_5dof.json")


def resolve_model(ref: str, base: Path = Path()) -> StructuralModel:
    """The packaged model for the token ``"bundled"``, else the model file
    at ``ref`` (a relative path resolves against ``base``)."""
    if ref == "bundled":
        return five_dof_model()
    return load_model(base / ref)


def bundled_truth_spec(kind: str = "fuzzy") -> dict:
    """Bundled truth specification at ``THETA_TRUE``, ``kind`` one of 'fuzzy'
    (a 5% spread) or 'crisp' (none)."""
    fractions = {"fuzzy": 0.05, "crisp": 0.0}
    if kind not in fractions:
        raise ConfigurationError(f"unknown bundled truth {kind!r}; use 'fuzzy' or 'crisp'")
    return {"theta_true": THETA_TRUE.tolist(), "spread_fraction": fractions[kind]}


def simulate_from_truth_spec(model: StructuralModel, spec: dict, levels=None, label: str = ""):
    """Simulate measured data from a truth-spec JSON object.

    The spec carries ``theta_true`` plus either absolute ``spreads`` or a
    single non-negative ``spread_fraction``, one entry per updating
    parameter; ``shape_tfns``, a JSON boolean, optionally fuzzifies the
    mode-shape components too. A spec with any other key, or any value that
    fails ``errors.check_value``, is a ``ConfigurationError`` naming the key
    as ``label`` + key (``label`` is ``"truth."`` in a run config); the
    caller names the file the spec came from.
    """
    check_keys(spec, TRUTH_KEYS, label)
    d = model.parameter_count
    theta_true = np.asarray(check_value(spec, "theta_true", shape=(d,), label=f"{label}theta_true"), dtype=float)
    spreads = check_value(spec, "spreads", shape=(d,), label=f"{label}spreads", default=None)
    fraction = check_value(spec, "spread_fraction", label=f"{label}spread_fraction", default=0.0, at_least=0)
    shape_tfns = check_value(spec, "shape_tfns", "boolean", label=f"{label}shape_tfns", default=False)
    if spreads is not None and "spread_fraction" in spec:
        raise ConfigurationError(f"give either '{label}spreads' or '{label}spread_fraction', not both")
    if spreads is None:
        spreads = float(fraction) * theta_true
    return simulate_measurements(model, theta_true, spreads, levels=levels, shape_tfns=shape_tfns)


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
        "aco": {"archive_size": 10, "n_ants": 20, "q": 0.5, "xi": 1.0, "max_iterations": 300},
        "pso": {"swarm_size": 80, "max_iterations": 300},
        "bayes": {
            "n_samples": 10000,
            "burn_in": 1000,
            "likelihood_sd": 0.005,
            "proposal_fraction": 0.01,
        },
        "weights": {"eigenvalue": 1.0, "eigenvector": 0.0},
        "truth": bundled_truth_spec("fuzzy"),
    }
