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
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bayes import McmcConfig
from .errors import ConfigurationError, DomainError, ShapeError
from .fuzzy import AlphaCutStack, Interval, TriangularFuzzyNumber, default_levels
from .model import StructuralModel, load_model, read_json
from .objective import (
    FeasibleRegion,
    IntervalParameters,
    MeasuredFuzzyModalData,
    WeightingConfig,
    interval_modal,
    load_measured,
    residual_batch,
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
    ``elapsed_seconds`` the time of search plus polish. ``histories`` hold
    the optimizer results before the polish.
    """

    levels: np.ndarray
    center: np.ndarray
    parameter_stacks: list
    output_stacks: list
    objective_values: np.ndarray
    evaluation_counts: np.ndarray
    polish_evaluations: np.ndarray
    elapsed_seconds: np.ndarray
    histories: list

    @property
    def parameter_intervals_at_support(self) -> list:
        return [stack.support for stack in self.parameter_stacks]


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
    (theta_true[i] - spreads[i], theta_true[i], theta_true[i] + spreads[i]);
    the per-level eigenvalue intervals come from vertex solves at the
    parameter alpha-cuts and are then fitted to one triangle per mode.
    With ``shape_tfns`` the mode-shape components get component-wise
    triangles fitted from the same vertex solves.
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
    lam_lo = np.empty((levels.size, n))
    lam_hi = np.empty((levels.size, n))
    vec_lo = np.empty((levels.size, n, n))
    vec_hi = np.empty((levels.size, n, n))
    for k, alpha in enumerate(levels):
        half = (1.0 - alpha) * spreads
        params = IntervalParameters(theta_true - half, theta_true + half)
        sol_lo, sol_hi = interval_modal(model, params)
        lam_lo[k] = sol_lo.eigenvalues
        lam_hi[k] = sol_hi.eigenvalues
        vec_lo[k] = sol_lo.eigenvectors
        vec_hi[k] = sol_hi.eigenvectors

    tfns = [
        _fit_tfn(center.eigenvalues[j], levels, lam_lo[:, j], lam_hi[:, j]) for j in range(n)
    ]
    component_tfns = None
    if shape_tfns:
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


def _minimize(run: FfemuRun, objective, region, level_index: int, initial, global_widths):
    if run.optimizer == "aco":
        config = replace(run.aco, rng_seed=run.seed + level_index)
        return aco_minimize(objective, region, config, initial=initial)
    config = replace(run.pso, rng_seed=run.seed + level_index)
    widths = None if config.rescale_velocity_per_level else global_widths
    return pso_minimize(objective, region, config, initial=initial, v_max_widths=widths)


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
    histories: list[OptimizationResult] = []
    solutions: list[IntervalParameters] = []

    for k, alpha in enumerate(run.levels):
        measured_k = run.measured.cuts_at(alpha)
        t0 = time.perf_counter()
        if k == 0:
            to_params = IntervalParameters.from_point
            region = Box(run.theta_min, run.theta_max)
            seeds = None if run.theta_initial is None else [run.theta_initial]
            global_widths = run.theta_max - run.theta_min
        else:
            prev = solutions[-1]
            to_params = IntervalParameters.from_flat
            region = FeasibleRegion(run.theta_min, run.theta_max, prev.lower, prev.upper)
            seeds = [prev.flatten()]
            global_widths = np.concatenate([run.theta_max - run.theta_min] * 2)

        calls = 0

        def residuals(x):
            lower, upper = (x, x) if k == 0 else (x[:, :d], x[:, d:])
            return residual_batch(model, lower, upper, measured_k, run.weights)

        def objective(x):
            nonlocal calls
            calls += len(x)
            r = residuals(x)
            # row-wise r @ r: the same sum as objective_value and the polish
            return (r[:, None, :] @ r[:, :, None])[:, 0, 0]

        result = _minimize(run, objective, region, k, seeds, global_widths)
        if calls != result.n_evaluations:
            raise RuntimeError(
                f"evaluation bookkeeping broken at level {k + 1}: "
                f"{calls} calls vs {result.n_evaluations} recorded"
            )
        x, f, polish_counts[k] = least_squares_polish(residuals, region, result.best_x)
        elapsed[k] = time.perf_counter() - t0
        objective_values[k] = f
        eval_counts[k] = result.n_evaluations
        histories.append(result)
        solutions.append(to_params(x))
        _log.info(
            "level %d (alpha=%.3f): objective %.3e, %d evaluations + %d polish",
            k + 1, alpha, f, eval_counts[k], polish_counts[k],
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
        histories=histories,
    )


def propagate_outputs(model: StructuralModel, parameter_stacks: list) -> list:
    """Eigenvalue stacks implied by nested parameter stacks.

    Per level the parameter box is solved at its two vertices; sorted
    eigenvalues are used so output nesting follows exactly from stiffness
    monotonicity (mode pairing is irrelevant for the ordered bounds).
    """
    if not parameter_stacks:
        raise DomainError("need at least one parameter stack")
    levels = parameter_stacks[0].levels
    n = model.n_dof
    lows = np.empty((levels.size, n))
    highs = np.empty((levels.size, n))
    for k in range(levels.size):
        lower = np.array([stack.intervals[k].lo for stack in parameter_stacks])
        upper = np.array([stack.intervals[k].hi for stack in parameter_stacks])
        lows[k] = model.modal(lower).eigenvalues
        # monotonicity puts highs above lows; the max() only absorbs last-ulp
        # eigensolver noise when a box is pinched to near-zero width
        highs[k] = np.maximum(lows[k], model.modal(upper).eigenvalues)
    return [
        AlphaCutStack(levels, tuple(Interval(lows[k, j], highs[k, j]) for k in range(levels.size)))
        for j in range(n)
    ]


@dataclass
class RunConfig:
    """Parsed run-configuration file plus the bits the CLI layers on."""

    run: FfemuRun
    bayes: McmcConfig | None
    raw: dict


def _resolve_path(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


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
        theta_min = np.asarray(raw["theta_min"], dtype=float)
        theta_max = np.asarray(raw["theta_max"], dtype=float)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing required key {exc.args[0]!r}") from exc

    if model_ref == "bundled":
        model = scenarios.five_dof_model()
    else:
        model = load_model(_resolve_path(base, model_ref))

    level_spec = raw.get("alpha_levels", 10)
    levels = (
        default_levels(int(level_spec))
        if isinstance(level_spec, int)
        else np.asarray(level_spec, dtype=float)
    )

    if ("measured" in raw) == ("truth" in raw):
        raise ConfigurationError(f"{path}: give exactly one of 'measured' or 'truth'")
    if "measured" in raw:
        measured = load_measured(_resolve_path(base, raw["measured"]))
    else:
        truth = raw["truth"]
        measured = scenarios.simulate_from_truth_spec(model, truth, levels)

    optimizer = raw.get("optimizer", "aco")
    if optimizer not in OPTIMIZERS:
        raise ConfigurationError(
            f"{path}: unknown optimizer {optimizer!r}; valid choices: {', '.join(OPTIMIZERS)}"
        )
    seed = int(raw.get("seed", 0)) if seed_override is None else int(seed_override)
    aco_spec = dict(raw.get("aco", {}))
    pso_spec = dict(raw.get("pso", {}))
    aco_spec.pop("rng_seed", None)  # per-level seeds derive from the run seed
    pso_spec.pop("rng_seed", None)
    try:
        aco = AcoConfig(rng_seed=0, **aco_spec)
        pso = PsoConfig(rng_seed=0, **pso_spec)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: bad optimizer section: {exc}") from exc

    weights_spec = raw.get("weights", {})
    weights = WeightingConfig.from_scalars(
        model.n_dof,
        eigenvalue=float(weights_spec.get("eigenvalue", 1.0)),
        eigenvector=float(weights_spec.get("eigenvector", 1.0)),
    )
    theta_initial = raw.get("theta_initial")

    run = FfemuRun(
        model=model,
        measured=measured,
        theta_min=theta_min,
        theta_max=theta_max,
        optimizer=optimizer,
        aco=aco,
        pso=pso,
        levels=levels,
        weights=weights,
        seed=seed,
        theta_initial=None if theta_initial is None else np.asarray(theta_initial, dtype=float),
    )

    bayes_cfg = None
    if "bayes" in raw:
        b = raw["bayes"]
        if not isinstance(b, dict):
            raise ConfigurationError(f"{path}: 'bayes' must be an object, got {type(b).__name__}")
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
