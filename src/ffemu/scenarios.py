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

from .errors import ConfigurationError, DomainError, check_keys, is_finite_number
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
    """Packaged truth specification, ``kind`` one of 'fuzzy' or 'crisp'."""
    if kind not in ("fuzzy", "crisp"):
        raise ConfigurationError(f"unknown bundled truth {kind!r}; use 'fuzzy' or 'crisp'")
    text = resources.files("ffemu.data").joinpath(f"truth_{kind}.json").read_text(encoding="utf-8")
    return json.loads(text)


def simulate_from_truth_spec(model: StructuralModel, spec: dict, levels=None, source: str = "truth spec"):
    """Simulate measured data from a truth-spec dictionary.

    The spec carries ``theta_true`` plus either absolute ``spreads`` or a
    single ``spread_fraction``; ``shape_tfns``, a JSON boolean, optionally
    fuzzifies the mode-shape components too. A spec with any other key, or
    a spec or levels that cannot be simulated, is a ``ConfigurationError``
    prefixed with ``source``, the file (and key) the spec came from.
    """
    try:
        return _simulate(model, spec, levels)
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"{source}: {exc}") from exc


def _simulate(model: StructuralModel, spec: dict, levels):
    if not isinstance(spec, dict) or "theta_true" not in spec:
        raise ConfigurationError("truth spec must be an object with a 'theta_true' array")
    check_keys(spec, TRUTH_KEYS)
    shape_tfns = spec.get("shape_tfns", False)
    if not isinstance(shape_tfns, bool):
        raise ConfigurationError(f"'shape_tfns' must be true or false, got {shape_tfns!r}")
    vectors = [spec[key] for key in ("theta_true", "spreads") if key in spec]
    fraction = spec.get("spread_fraction", 0.0)
    if not is_finite_number(fraction) or not all(
        isinstance(v, list) and all(is_finite_number(x) for x in v) for v in vectors
    ):
        raise ConfigurationError("truth spec values must be numbers, all finite")
    theta_true = np.asarray(spec["theta_true"], dtype=float)
    spreads = np.asarray(spec["spreads"], dtype=float) if "spreads" in spec else None
    for key, vector in (("theta_true", theta_true), ("spreads", spreads)):
        if vector is not None and vector.shape != (model.parameter_count,):
            raise ConfigurationError(f"{key} must have length {model.parameter_count}, got {vector.size}")
    if spreads is not None and "spread_fraction" in spec:
        raise ConfigurationError("give either 'spreads' or 'spread_fraction', not both")
    if spreads is None:
        if fraction < 0.0:
            raise DomainError("spread_fraction must be non-negative")
        spreads = float(fraction) * theta_true
    return simulate_measurements(
        model,
        theta_true,
        spreads,
        levels=levels,
        shape_tfns=shape_tfns,
    )


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
