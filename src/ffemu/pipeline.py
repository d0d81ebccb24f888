"""End-to-end fuzzy model updating runs.

A run simulates (or loads) fuzzy measured modal data, solves the crisp
alpha = 1 problem for the membership centers, then walks the alpha levels
downward, solving one interval optimization per level inside a feasible
region anchored to the previous level. Each level is a global search (ACO
or PSO) followed by a bounded Gauss-Newton polish of the weighted
residuals inside the same region, so the level ends at a minimizer rather
than wherever the iteration cap left the search. Parameter and output
membership functions come out as nested alpha-cut stacks.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bayes import McmcConfig
from .errors import ConfigurationError, DomainError, ShapeError
from .fuzzy import AlphaCutStack, Interval, TriangularFuzzyNumber, default_levels
from .model import StructuralModel, read_json
from .objective import (
    FeasibleRegion,
    IntervalParameters,
    MeasuredFuzzyModalData,
    WeightingConfig,
    load_measured,
    residual_batch,
    vertex_modes,
)
from .optim import (
    AcoConfig,
    Box,
    OptimizationResult,
    PsoConfig,
    aco_minimize,
    least_squares_polish,
    pso_minimize,
)

__all__ = [
    "FfemuRun",
    "FfemuResult",
    "RunConfig",
    "simulate_measurements",
    "run_ffemu",
    "propagate_outputs",
    "load_run_config",
]

OPTIMIZERS = ("aco", "pso")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FfemuRun:
    """Everything one fuzzy updating run needs.

    Per-level optimizer seeds are derived from ``seed`` plus the level
    index, so levels draw independent random streams but the whole run is
    reproducible.
    """

    model: StructuralModel
    measured: MeasuredFuzzyModalData
    theta_min: np.ndarray
    theta_max: np.ndarray
    optimizer: str = "aco"
    aco: AcoConfig = field(default_factory=AcoConfig)
    pso: PsoConfig = field(default_factory=PsoConfig)
    levels: np.ndarray | None = None
    weights: WeightingConfig | None = None
    seed: int = 0
    theta_initial: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta_min", np.asarray(self.theta_min, dtype=float))
        object.__setattr__(self, "theta_max", np.asarray(self.theta_max, dtype=float))
        if self.levels is None:
            object.__setattr__(self, "levels", default_levels())
        else:
            object.__setattr__(self, "levels", np.asarray(self.levels, dtype=float))
        if self.weights is None:
            object.__setattr__(self, "weights", WeightingConfig.identity(self.measured.n_modes))
        if self.theta_initial is not None:
            object.__setattr__(self, "theta_initial", np.asarray(self.theta_initial, dtype=float))
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(
                f"unknown optimizer {self.optimizer!r}; valid choices: {', '.join(OPTIMIZERS)}"
            )
        d = self.model.parameter_count
        if self.theta_min.shape != (d,) or self.theta_max.shape != (d,):
            raise ConfigurationError(f"bounds must have length {d}")
        if np.any(self.theta_min >= self.theta_max):
            raise ConfigurationError("theta_min must be strictly below theta_max")
        if self.levels[0] != 1.0 or np.any(np.diff(self.levels) >= 0.0):
            raise ConfigurationError("alpha levels must descend strictly from 1")
        if self.measured.n_modes != self.model.n_dof:
            raise ConfigurationError(
                f"measured data has {self.measured.n_modes} modes, model has {self.model.n_dof}"
            )


@dataclass
class FfemuResult:
    """Membership stacks plus per-level bookkeeping for one run.

    Per level: ``objective_values`` is the final (polished) objective,
    ``evaluation_counts`` the optimizer's objective evaluations (population
    rows), ``polish_evaluations`` the polish's residual evaluations, and
    ``elapsed_seconds`` the time of search plus polish. Of that time,
    ``objective_seconds`` was spent inside the optimizer's population
    objective and ``polish_seconds`` in the polish; the rest is optimizer
    overhead. ``histories`` hold the optimizer results before the polish,
    each with its ``stop_reason``.
    """

    levels: np.ndarray
    center: np.ndarray
    parameter_stacks: list
    output_stacks: list
    objective_values: np.ndarray
    evaluation_counts: np.ndarray
    polish_evaluations: np.ndarray
    elapsed_seconds: np.ndarray
    objective_seconds: np.ndarray
    polish_seconds: np.ndarray
    histories: list


def _fit_tfn(center: float, alphas: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> TriangularFuzzyNumber:
    """Least-squares triangular fit through the peak to per-level bounds.

    The model is lo(alpha) = b - (1 - alpha) * s_left (and mirrored for the
    upper branch); exact whenever propagation is linear in alpha.
    """
    w = 1.0 - alphas
    ssq = float(w @ w)
    if ssq == 0.0:
        return TriangularFuzzyNumber(center, center, center)
    s_left = max(0.0, float(w @ (center - lows)) / ssq)
    s_right = max(0.0, float(w @ (highs - center)) / ssq)
    return TriangularFuzzyNumber(center - s_left, center, center + s_right)


def simulate_measurements(
    model: StructuralModel,
    theta_true,
    spreads,
    levels=None,
    shape_tfns: bool = False,
) -> MeasuredFuzzyModalData:
    """Simulate fuzzy measured modal data from true triangular parameters.

    Each parameter i is fuzzified as the symmetric triangle
    (theta_true[i] - spreads[i], theta_true[i], theta_true[i] + spreads[i]).
    The parameter alpha-cuts of every level are solved at their vertices
    by one ``vertex_modes`` call; the sorted vertex eigenvalues are the
    per-level eigenvalue intervals, which are then fitted to one triangle
    per mode. With ``shape_tfns`` the mode-shape components get
    component-wise triangles fitted from the paired vertex shapes.
    """
    theta_true = np.asarray(theta_true, dtype=float)
    spreads = np.asarray(spreads, dtype=float)
    if spreads.shape != theta_true.shape:
        raise ShapeError("spreads must match theta_true in length")
    if np.any(spreads < 0.0):
        raise DomainError("spreads must be non-negative")
    if np.any(theta_true - spreads <= 0.0):
        raise DomainError("fuzzy support reaches non-positive stiffness")
    levels = default_levels() if levels is None else np.asarray(levels, dtype=float)

    center = model.modal(theta_true)
    n = model.n_dof
    halves = (1.0 - levels)[:, None] * spreads
    lam, vec = vertex_modes(model, theta_true - halves, theta_true + halves)
    lam_lo, lam_hi = np.split(lam, 2)
    tfns = [
        _fit_tfn(center.eigenvalues[j], levels, lam_lo[:, j], lam_hi[:, j]) for j in range(n)
    ]
    component_tfns = None
    if shape_tfns:
        vec_lo, vec_hi = np.split(vec, 2)
        component_tfns = []
        for j in range(n):
            col = []
            for i in range(n):
                values = np.stack([vec_lo[:, i, j], vec_hi[:, i, j]])
                col.append(
                    _fit_tfn(
                        center.eigenvectors[i, j],
                        levels,
                        values.min(axis=0),
                        values.max(axis=0),
                    )
                )
            component_tfns.append(col)
    return MeasuredFuzzyModalData(tfns, center.eigenvectors, component_tfns)


def _minimize(run: FfemuRun, objective, region, level_index: int, initial):
    if run.optimizer == "aco":
        config = replace(run.aco, rng_seed=run.seed + level_index)
        return aco_minimize(objective, region, config, initial=initial)
    config = replace(run.pso, rng_seed=run.seed + level_index)
    return pso_minimize(objective, region, config, initial=initial)


def run_ffemu(run: FfemuRun) -> FfemuResult:
    """Solve the full stack of alpha-level problems.

    Level 1 (alpha = 1) searches the d-dimensional box for the membership
    centers; every deeper level searches the 2d-dimensional region anchored
    to the previous solution, warm-started from it. The optimizer hands
    each population to ``residual_batch`` whole. Each level's best point
    is then polished by ``least_squares_polish`` inside the same region;
    the polish moves only on a strictly lower objective, so no level ends
    worse than its search. Nesting of the resulting stacks is guaranteed
    by the region, not repaired after the fact. Each finished level is
    logged at INFO on the ``ffemu`` logger.
    """
    model = run.model
    d = model.parameter_count
    n_levels = run.levels.size
    objective_values = np.empty(n_levels)
    eval_counts = np.empty(n_levels, dtype=int)
    polish_counts = np.empty(n_levels, dtype=int)
    elapsed = np.empty(n_levels)
    objective_seconds = np.empty(n_levels)
    polish_seconds = np.empty(n_levels)
    histories: list[OptimizationResult] = []
    solutions: list[IntervalParameters] = []

    for k, alpha in enumerate(run.levels):
        measured_k = run.measured.cuts_at(alpha)
        t0 = time.perf_counter()
        if k == 0:
            to_params = IntervalParameters.from_point
            region = Box(run.theta_min, run.theta_max)
            seeds = None if run.theta_initial is None else [run.theta_initial]
        else:
            prev = solutions[-1]
            to_params = IntervalParameters.from_flat
            region = FeasibleRegion(run.theta_min, run.theta_max, prev.lower, prev.upper)
            seeds = [prev.flatten()]

        calls = 0
        objective_time = 0.0

        def residuals(x):
            lower, upper = (x, x) if k == 0 else (x[:, :d], x[:, d:])
            return residual_batch(model, lower, upper, measured_k, run.weights)

        def objective(x):
            nonlocal calls, objective_time
            start = time.perf_counter()
            calls += len(x)
            r = residuals(x)
            # row-wise r @ r: the same sum as objective_value and the polish
            values = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
            objective_time += time.perf_counter() - start
            return values

        result = _minimize(run, objective, region, k, seeds)
        if calls != result.n_evaluations:
            raise RuntimeError(
                f"evaluation bookkeeping broken at level {k + 1}: "
                f"{calls} calls vs {result.n_evaluations} recorded"
            )
        t_polish = time.perf_counter()
        x, f, polish_counts[k] = least_squares_polish(residuals, region, result.best_x)
        done = time.perf_counter()
        elapsed[k] = done - t0
        objective_seconds[k] = objective_time
        polish_seconds[k] = done - t_polish
        objective_values[k] = f
        eval_counts[k] = result.n_evaluations
        histories.append(result)
        solutions.append(to_params(x))
        _log.info(
            "level %d (alpha=%.3f): objective %.3e, %d evaluations + %d polish, stopped on %s",
            k + 1, alpha, f, eval_counts[k], polish_counts[k], result.stop_reason,
        )

    parameter_stacks = [
        AlphaCutStack(
            run.levels,
            tuple(Interval(sol.lower[i], sol.upper[i]) for sol in solutions),
        )
        for i in range(d)
    ]
    output_stacks = propagate_outputs(model, parameter_stacks)
    return FfemuResult(
        levels=run.levels.copy(),
        center=solutions[0].center.copy(),
        parameter_stacks=parameter_stacks,
        output_stacks=output_stacks,
        objective_values=objective_values,
        evaluation_counts=eval_counts,
        polish_evaluations=polish_counts,
        elapsed_seconds=elapsed,
        objective_seconds=objective_seconds,
        polish_seconds=polish_seconds,
        histories=histories,
    )


def propagate_outputs(model: StructuralModel, parameter_stacks: list) -> list:
    """Eigenvalue stacks implied by nested parameter stacks.

    Every level's parameter box is solved at its two vertices, all levels
    in one ``eigenvalues_batch`` call. Its eigenvalues are sorted, so
    output nesting follows exactly from stiffness monotonicity and no mode
    pairing is needed for the bounds.
    """
    if not parameter_stacks:
        raise DomainError("need at least one parameter stack")
    levels = parameter_stacks[0].levels
    lower = np.array([[iv.lo for iv in stack.intervals] for stack in parameter_stacks]).T
    upper = np.array([[iv.hi for iv in stack.intervals] for stack in parameter_stacks]).T
    lows, highs = np.split(model.eigenvalues_batch(np.concatenate([lower, upper])), 2)
    # monotonicity puts highs above lows; the max() only absorbs last-ulp
    # eigensolver noise when a box is pinched to near-zero width
    highs = np.maximum(lows, highs)
    return [
        AlphaCutStack(levels, tuple(Interval(lows[k, j], highs[k, j]) for k in range(levels.size)))
        for j in range(model.n_dof)
    ]


@dataclass
class RunConfig:
    """Parsed run-configuration file plus the bits the CLI layers on."""

    run: FfemuRun
    bayes: McmcConfig | None
    raw: dict


def _number_list(raw: dict, key: str, path) -> np.ndarray:
    """``raw[key]`` as a 1-D float array; anything else is a ``ConfigurationError``."""
    try:
        values = np.asarray(raw[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {key!r} must be a list of numbers: {exc}") from exc
    if values.ndim != 1:
        raise ConfigurationError(f"{path}: {key!r} must be a list of numbers, got {raw[key]!r}")
    return values


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, key: str, path) -> float:
    """A finite JSON number as a float; anything else is a ``ConfigurationError``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigurationError(f"{path}: {key!r} must be a finite number, got {value!r}")


def _section(raw: dict, key: str, path) -> dict:
    """The JSON object ``raw[key]`` (empty when absent) as a fresh dict."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: {key!r} must be an object, got {type(value).__name__}")
    return dict(value)


def load_run_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse a run-configuration JSON file.

    Relative paths resolve against the config file's directory. The
    ``model`` entry may be the token ``"bundled"`` for the packaged
    five-DOF structure. Measured data come either from a ``measured`` file
    path or inline via a ``truth`` section (simulated on the spot).
    """
    path = Path(path)
    raw = read_json(path)
    base = path.parent

    from . import scenarios  # local import; scenarios builds on this module's simulate

    try:
        model_ref = raw["model"]
        theta_min = _number_list(raw, "theta_min", path)
        theta_max = _number_list(raw, "theta_max", path)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing required key {exc.args[0]!r}") from exc

    model = scenarios.resolve_model(model_ref, base)

    level_spec = raw.get("alpha_levels", 10)
    if isinstance(level_spec, list):
        levels = _number_list(raw, "alpha_levels", path)
    elif _is_int(level_spec) and level_spec >= 1:
        levels = default_levels(level_spec)
    else:
        raise ConfigurationError(
            f"{path}: 'alpha_levels' must be a level count of at least 1 or a list of levels, "
            f"got {level_spec!r}"
        )

    if ("measured" in raw) == ("truth" in raw):
        raise ConfigurationError(f"{path}: give exactly one of 'measured' or 'truth'")
    if "measured" in raw:
        measured = load_measured(base / raw["measured"])
    else:
        try:
            measured = scenarios.simulate_from_truth_spec(model, raw["truth"], levels)
        except (ConfigurationError, DomainError) as exc:  # the spec's values are out of range
            raise ConfigurationError(f"{path}: 'truth': {exc}") from exc

    seed = raw.get("seed", 0) if seed_override is None else seed_override
    if not _is_int(seed) or seed < 0:
        raise ConfigurationError(f"{path}: 'seed' must be a non-negative integer, got {seed!r}")
    aco_spec = _section(raw, "aco", path)
    pso_spec = _section(raw, "pso", path)
    aco_spec.pop("rng_seed", None)  # per-level seeds derive from the run seed
    pso_spec.pop("rng_seed", None)
    try:
        aco = AcoConfig(rng_seed=0, **aco_spec)
        pso = PsoConfig(rng_seed=0, **pso_spec)
    except (TypeError, DomainError) as exc:
        raise ConfigurationError(f"{path}: bad optimizer section: {exc}") from exc

    weights_spec = _section(raw, "weights", path)
    weights = WeightingConfig.from_scalars(
        model.n_dof,
        eigenvalue=_number(weights_spec.get("eigenvalue", 1.0), "weights.eigenvalue", path),
        eigenvector=_number(weights_spec.get("eigenvector", 1.0), "weights.eigenvector", path),
    )
    theta_initial = raw.get("theta_initial")
    if theta_initial is not None:
        theta_initial = _number_list(raw, "theta_initial", path)

    try:
        run = FfemuRun(
            model=model,
            measured=measured,
            theta_min=theta_min,
            theta_max=theta_max,
            optimizer=raw.get("optimizer", "aco"),
            aco=aco,
            pso=pso,
            levels=levels,
            weights=weights,
            seed=seed,
            theta_initial=theta_initial,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    bayes_cfg = None
    if "bayes" in raw:
        b = _section(raw, "bayes", path)
        try:
            bayes_cfg = McmcConfig.from_box(
                theta_min,
                theta_max,
                n_samples=int(b.get("n_samples", 10000)),
                burn_in=int(b.get("burn_in", 1000)),
                proposal_fraction=float(b.get("proposal_fraction", 0.01)),
                likelihood_sd=float(b.get("likelihood_sd", 0.01)),
                rng_seed=seed,
                initial=theta_initial,
            )
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise ConfigurationError(f"{path}: bad bayes section: {exc}") from exc
    return RunConfig(run=run, bayes=bayes_cfg, raw=raw)
