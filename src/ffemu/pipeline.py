"""End-to-end fuzzy model updating runs.

A run simulates (or loads) fuzzy measured modal data, solves the crisp
alpha = 1 problem for the membership centers, then walks the alpha levels
downward, solving one interval optimization per level inside a feasible
region anchored to the previous level. Feasibility (global box plus
nesting against the previous level) is handled by projection into that
region, so optimizers only ever evaluate feasible candidates. Each level
is a global search (ACO or PSO) followed by a bounded Gauss-Newton polish
of the weighted residuals inside the same region, so the level ends at a
minimizer rather than wherever the iteration cap left the search. A level
reads its measured bounds as the four arrays ``cuts_at`` returns, and the
run's two scalar weights scale every eigenvalue and every shape error.
The parameter and the output membership functions come out as two nested
alpha-cut stacks, (L, d) and (L, n).

``load_run_config`` parses a run-configuration file into one ``FfemuRun``,
whose M-H settings, ``McmcConfig``, come from the ``bayes`` section as the
optimizers' come from ``aco`` and ``pso``, an absent section giving the
defaults. ``McmcConfig`` is defined here so that parsing a config (and
``ffemu update``) never imports the sampler itself, ``ffemu.bayes``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    ShapeError,
    check_keys,
    check_settings,
    check_value,
    in_file,
    is_finite_number,
    is_integer,
)
from .fuzzy import AlphaCutStack, check_levels, default_levels
from .model import StructuralModel, read_json, resolve_model
from .objective import MeasuredFuzzyModalData, load_measured, residual_batch, vertex_modes
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
    "McmcConfig",
    "simulate_measurements",
    "simulate_from_truth_spec",
    "run_ffemu",
    "propagate_outputs",
    "load_run_config",
]

OPTIMIZERS = ("aco", "pso")
RUN_KEYS = (
    "model", "theta_min", "theta_max", "theta_initial", "alpha_levels", "measured", "truth",
    "optimizer", "seed", "aco", "pso", "weights", "bayes",
)
WEIGHT_KEYS = ("eigenvalue", "eigenvector")
TRUTH_KEYS = ("theta_true", "spreads", "spread_fraction", "shape_tfns")
STEP_MARGIN = 2.0**32

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class McmcConfig:
    """Settings of the M-H sampler (``bayes.mh_sample``), a run's ``bayes``:
    the ``bayes`` section of a run config, or the defaults when it is absent.

    The prior box, the chain start, the seed, the model and the measured
    data are the run's (``FfemuRun``). Each of the ``bayes.CHAINS`` chains
    drops its own first ``burn_in`` states and keeps the next s =
    ceil((``n_samples - burn_in``) / ``bayes.CHAINS``); the first
    ``n_samples - burn_in`` kept states, chain-major, are published.
    ``likelihood_sd`` is the relative eigenvalue noise scale
    (dimensionless). There is no proposal setting: the sampler fixes its
    proposal from the Laplace covariance at the posterior mode, which
    ``likelihood_sd`` scales. Bounds are stated on the fields, and
    ``errors.check_settings`` names a breach as ``'bayes.<field>'``;
    ``n_samples`` must also exceed ``burn_in``.
    """

    n_samples: int = 10000
    burn_in: int = field(default=1000, metadata={"at_least": 0})
    likelihood_sd: float = field(default=0.01, metadata={"above": 0})

    def __post_init__(self):
        check_settings(self, "bayes")
        if self.n_samples <= self.burn_in:
            raise ConfigurationError(
                f"'bayes.n_samples' must be above 'bayes.burn_in' ({self.burn_in!r}), got {self.n_samples!r}"
            )


@dataclass(frozen=True)
class FfemuRun:
    """Everything one fuzzy updating run needs.

    ``weights`` is the pair (eigenvalue, eigenvector): every eigenvalue
    error of a level's residual is weighted by the first, every mode-shape
    error by the second, and a zero second weight skips the shape solve.
    Both must be finite and non-negative, and at least one positive. The
    prior box [theta_min, theta_max] holds d finite stiffnesses, 0 <
    theta_min < theta_max, for both the fuzzy search and the M-H prior.
    ``theta_initial``, the optional start of the alpha = 1 search and of the
    M-H chains, must be d finite numbers inside the box, and ``seed`` a
    non-negative integer. No search step may overflow: the box's widest
    span, alone, times ``aco.xi`` and times the PSO velocity scale
    |inertia| * v_max_fraction + |cognitive| + |social|, each times
    ``STEP_MARGIN`` = 2**32 (room for an archive's sum of up to 2**32
    spreads and any Gaussian draw), must be finite, else the box, ``aco.xi``
    or the PSO key with the largest share is named. Level k's optimizer
    draws from ``seed + k``, so levels draw independent streams but the
    run is reproducible; ``seed`` and ``bayes`` drive the M-H chains. The
    measured data hold n modes of n shape components each, n the model's DOFs.
    ``cuts`` holds every level's ``measured.cuts_at``, cut once here, so a
    zero shape cut vector fails the run before either command starts.
    """

    model: StructuralModel
    measured: MeasuredFuzzyModalData
    theta_min: np.ndarray
    theta_max: np.ndarray
    optimizer: str = "aco"
    aco: AcoConfig = field(default_factory=AcoConfig)
    pso: PsoConfig = field(default_factory=PsoConfig)
    bayes: McmcConfig = field(default_factory=McmcConfig)
    levels: np.ndarray | None = None
    weights: tuple[float, float] = (1.0, 1.0)
    seed: int = 0
    theta_initial: np.ndarray | None = None
    cuts: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "theta_min", np.asarray(self.theta_min, dtype=float))
        object.__setattr__(self, "theta_max", np.asarray(self.theta_max, dtype=float))
        levels = default_levels() if self.levels is None else check_levels(self.levels)
        object.__setattr__(self, "levels", levels)
        if len(self.weights) != 2 or not all(map(is_finite_number, self.weights)):
            raise ConfigurationError(f"weights must be two finite numbers, got {self.weights!r}")
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        if min(self.weights) < 0.0:
            raise ConfigurationError(f"weights must be non-negative, got {self.weights!r}")
        if max(self.weights) == 0.0:
            raise ConfigurationError(f"at least one weight must be positive, got {self.weights!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigurationError(f"'seed' must be a non-negative integer, got {self.seed!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(
                f"unknown optimizer {self.optimizer!r}; valid choices: {', '.join(OPTIMIZERS)}"
            )
        d = self.model.parameter_count
        if self.theta_min.shape != (d,) or self.theta_max.shape != (d,):
            raise ConfigurationError(f"bounds must have length {d}")
        if not (np.isfinite(self.theta_min).all() and np.isfinite(self.theta_max).all()):
            raise ConfigurationError("theta_min and theta_max must be finite")
        if np.any(self.theta_min <= 0.0):
            raise ConfigurationError(
                f"theta_min entries must be positive (stiffnesses), got {self.theta_min.tolist()}"
            )
        if np.any(self.theta_min >= self.theta_max):
            raise ConfigurationError("theta_min must be strictly below theta_max")
        if self.theta_initial is not None:
            start = np.asarray(self.theta_initial, dtype=float)
            if start.shape != (d,) or not np.isfinite(start).all():
                raise ConfigurationError(f"theta_initial must be {d} finite numbers, got {start.tolist()}")
            if ((start < self.theta_min) | (start > self.theta_max)).any():
                raise ConfigurationError(f"theta_initial {start.tolist()} is outside [theta_min, theta_max]")
            object.__setattr__(self, "theta_initial", start)
        span = float((self.theta_max - self.theta_min).max())
        p = self.pso
        shares = {"inertia": abs(p.inertia) * p.v_max_fraction, "cognitive": abs(p.cognitive), "social": abs(p.social)}
        for key, scale in [
            ("the box [theta_min, theta_max]", 1.0),
            ("'aco.xi'", self.aco.xi),
            (f"'pso.{max(shares, key=shares.get)}'", sum(shares.values())),
        ]:
            if not math.isfinite(float(scale) * span * STEP_MARGIN):
                raise ConfigurationError(f"{key} makes a search step overflow on a box span of {span!r}")
        n, (k, m) = self.model.n_dof, self.measured.mode_shapes.shape
        if (k, m) != (n, n):
            raise ConfigurationError(
                f"measured data must have {n} modes of {n} components each (one per model degree of "
                f"freedom), got {m} modes of {k} components"
            )
        object.__setattr__(self, "cuts", [self.measured.cuts_at(alpha) for alpha in self.levels])


@dataclass
class FfemuResult:
    """Membership stacks plus per-level bookkeeping for one run.

    ``parameters`` is the (L, d) stack of the updated parameters at the
    run's levels; its alpha = 1 row, ``parameters.lo[0]``, is the centre.
    ``outputs`` is the (L, n) eigenvalue stack ``propagate_outputs`` gives
    for it. Per level: ``objective_values`` is the final (polished)
    objective, ``polish_evaluations`` the polish's residual evaluations, and
    ``elapsed_seconds`` the time of search plus polish. Of that time,
    ``polish_seconds`` was spent in the polish and each history's
    ``objective_seconds`` inside the search's objective; the rest is
    optimizer overhead. ``histories`` hold the optimizer results before the
    polish, each with its ``stop_reason``, ``n_evaluations`` (population
    rows) and ``objective_seconds``.
    """

    parameters: AlphaCutStack
    outputs: AlphaCutStack
    objective_values: np.ndarray
    polish_evaluations: np.ndarray
    elapsed_seconds: np.ndarray
    polish_seconds: np.ndarray
    histories: list


def _fit_triangles(center: np.ndarray, levels: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Least-squares triangles (..., 3) through the peaks ``center`` (...) to
    per-level bounds ``lows`` and ``highs`` (L, ...).

    The model is lo(alpha) = b - (1 - alpha) * s_left (and mirrored for the
    upper branch); exact whenever propagation is linear in alpha.
    """
    w = 1.0 - levels
    ssq = float(w @ w) or 1.0  # level 1 alone makes w, and so every slope, zero

    def slope(gaps):
        # one w @ gap dot product per triangle, each summed as the 1-D one is
        gaps = np.ascontiguousarray(np.moveaxis(gaps, 0, -1))
        return np.maximum((gaps[..., None, :] @ w[:, None])[..., 0, 0] / ssq, 0.0)

    return np.stack([center - slope(center - lows), center, center + slope(highs - center)], axis=-1)


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
    per mode. The cuts go in as (L, 2d) rows [lower | upper]; level 1's
    row is the point theta_true at both vertices, so its lower vertex is
    the centre: its eigenvalues are the peaks and its shapes the measured
    mode shapes. With ``shape_tfns`` the mode-shape components get
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
    levels = default_levels() if levels is None else check_levels(levels)

    offsets = (1.0 - levels)[:, None, None] * [-spreads, spreads]  # (L, 2, d): lower, upper vertex
    lam, vec = vertex_modes(model, (theta_true + offsets).reshape(levels.size, -1))
    lam_lo, lam_hi = lam.swapaxes(0, 1)
    vec_lo, vec_hi = vec.swapaxes(0, 1)
    shape_fit = None
    if shape_tfns:
        shape_fit = _fit_triangles(vec_lo[0], levels, np.minimum(vec_lo, vec_hi), np.maximum(vec_lo, vec_hi))
    return MeasuredFuzzyModalData(_fit_triangles(lam_lo[0], levels, lam_lo, lam_hi), vec_lo[0], shape_fit)


def run_ffemu(run: FfemuRun) -> FfemuResult:
    """Solve the full stack of alpha-level problems.

    Level 1 (alpha = 1) searches the d-dimensional box [theta_min,
    theta_max] for the membership centers. Every deeper level searches the
    2d-dimensional box of (lower, upper) vectors anchored to the previous
    level's solution: lower in [theta_min, previous lower], upper in
    [previous upper, theta_max], warm-started from that solution. Level k
    draws from ``default_rng(run.seed + k)``. The search is one
    ``aco_minimize`` or ``pso_minimize`` call, whose one loop counts the
    rows it evaluates and times the objective; the objective is the plain
    row-wise r @ r of ``residual_batch``, which takes the populations,
    (m, d) points at level 1 and (m, 2d) rows [lower | upper] below it,
    unchanged. Each level's best row is then polished
    by ``least_squares_polish`` inside the same box; the polish moves only
    on a strictly lower objective, so no level ends worse than its search.
    The solved boxes are kept as one (L, 2, d) array of lower and upper
    vertices, level 1's point filling both, from which every later region
    and seed is built. Nesting of the resulting stacks is guaranteed by the
    boxes, not repaired after the fact. Each finished level is logged at
    INFO on the ``ffemu`` logger.
    """
    model = run.model
    d = model.parameter_count
    n_levels = run.levels.size
    # looked up per run, not bound at import, so wrappers of the module
    # attributes see every call
    minimize, config = (aco_minimize, run.aco) if run.optimizer == "aco" else (pso_minimize, run.pso)
    bounds = np.empty((n_levels, 2, d))
    objective_values = np.empty(n_levels)
    polish_counts = np.empty(n_levels, dtype=int)
    elapsed = np.empty(n_levels)
    polish_seconds = np.empty(n_levels)
    histories: list[OptimizationResult] = []

    for k, (alpha, cuts) in enumerate(zip(run.levels, run.cuts)):
        rng = np.random.default_rng(run.seed + k)
        t0 = time.perf_counter()
        if k == 0:
            region = Box(run.theta_min, run.theta_max)
            seeds = None if run.theta_initial is None else [run.theta_initial]
        else:
            # Box rejects lo > hi: theta_min <= previous lower and
            # previous upper <= theta_max are checked here
            lower, upper = bounds[k - 1]
            region = Box(np.concatenate([run.theta_min, upper]), np.concatenate([lower, run.theta_max]))
            seeds = [bounds[k - 1].ravel()]

        def residuals(x):
            return residual_batch(model, x, cuts, run.weights)

        def objective(x):
            r = residuals(x)
            # row-wise r @ r: the same sum the polish takes of its residuals
            return (r[:, None, :] @ r[:, :, None])[:, 0, 0]

        result = minimize(objective, region, config, rng, initial=seeds)
        t_polish = time.perf_counter()
        x, f, polish_counts[k] = least_squares_polish(residuals, region, result.best_x)
        done = time.perf_counter()
        elapsed[k] = done - t0
        polish_seconds[k] = done - t_polish
        objective_values[k] = f
        histories.append(result)
        bounds[k] = x.reshape(-1, d)
        _log.info(
            "level %d (alpha=%.3f): objective %.3e, %d evaluations + %d polish, stopped on %s",
            k + 1, alpha, f, result.n_evaluations, polish_counts[k], result.stop_reason,
        )

    parameters = AlphaCutStack(run.levels, *bounds.swapaxes(0, 1))
    return FfemuResult(
        parameters=parameters,
        outputs=propagate_outputs(model, parameters),
        objective_values=objective_values,
        polish_evaluations=polish_counts,
        elapsed_seconds=elapsed,
        polish_seconds=polish_seconds,
        histories=histories,
    )


def propagate_outputs(model: StructuralModel, parameters: AlphaCutStack) -> AlphaCutStack:
    """The (L, n) eigenvalue stack implied by the (L, d) parameter stack.

    Every level's parameter box is solved at its two vertices, all levels
    in one ``eigenvalues_batch`` call, each level's two vertices as
    consecutive rows. Its eigenvalues are sorted, so output nesting follows
    exactly from stiffness monotonicity and no mode pairing is needed for
    the bounds.
    """
    lam = model.eigenvalues_batch(np.stack([parameters.lo, parameters.hi], axis=1).reshape(-1, model.parameter_count))
    lows, highs = lam[::2], lam[1::2]
    # monotonicity puts highs above lows; the max() only absorbs last-ulp
    # eigensolver noise when a box is pinched to near-zero width
    return AlphaCutStack(parameters.levels, lows, np.maximum(lows, highs))


def _settings(raw: dict, key: str, cls):
    """The settings dataclass ``cls`` from the JSON object ``raw[key]``
    (defaults when absent), whose keys must be ``cls``'s fields."""
    section = check_value(raw, key, "object", default={})
    check_keys(section, [f.name for f in fields(cls)], f"{key}.")
    return cls(**section)


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


def load_run_config(path) -> FfemuRun:
    """Parse a run-configuration JSON file into its ``FfemuRun``.

    Relative paths resolve against the config file's directory. The
    ``model`` entry may be the token ``"bundled"`` for the packaged
    five-DOF structure. Measured data come either from a ``measured`` file
    path or inline via a ``truth`` section (simulated on the spot). The
    ``aco``, ``pso`` and ``bayes`` sections are read by one reader, whose
    keys are the fields of ``AcoConfig``, ``PsoConfig`` and ``McmcConfig``;
    an absent section gives the defaults.
    Every value goes through ``errors.check_value`` or
    ``errors.check_settings``, so a key outside ``RUN_KEYS``, an unknown key
    in a section, or a value of the wrong kind, shape or range is a
    ``ConfigurationError`` naming the file and the key, as
    ``'aco.n_ants'``; an error in the model or measured-data file names
    that file.
    """
    path = Path(path)
    raw = read_json(path)
    base = path.parent
    with in_file(path):
        check_keys(raw, RUN_KEYS)
        model = resolve_model(check_value(raw, "model", "string"), base)
        theta_min = check_value(raw, "theta_min", shape=(-1,))
        theta_max = check_value(raw, "theta_max", shape=(-1,))

        levels = raw.get("alpha_levels", 10)
        if isinstance(levels, list):
            levels = check_value(raw, "alpha_levels", shape=(-1,))
        elif is_integer(levels) and levels >= 1:
            levels = default_levels(levels)
        else:
            raise ConfigurationError(
                f"'alpha_levels' must be a level count of at least 1 or a list of levels, got {levels!r}"
            )

        if ("measured" in raw) == ("truth" in raw):
            raise ConfigurationError("give exactly one of 'measured' or 'truth'")
        if "measured" in raw:
            measured = load_measured(base / check_value(raw, "measured", "string"))
        else:
            truth = check_value(raw, "truth", "object")
            measured = simulate_from_truth_spec(model, truth, levels, "truth.")

        weights = check_value(raw, "weights", "object", default={})
        check_keys(weights, WEIGHT_KEYS, "weights.")
        return FfemuRun(
            model=model,
            measured=measured,
            theta_min=theta_min,
            theta_max=theta_max,
            optimizer=check_value(raw, "optimizer", "string", default="aco"),
            aco=_settings(raw, "aco", AcoConfig),
            pso=_settings(raw, "pso", PsoConfig),
            bayes=_settings(raw, "bayes", McmcConfig),
            levels=levels,
            weights=tuple(
                check_value(weights, key, label=f"weights.{key}", default=1.0, at_least=0) for key in WEIGHT_KEYS
            ),
            seed=check_value(raw, "seed", "integer", default=0),
            theta_initial=check_value(raw, "theta_initial", shape=(-1,), default=None),
        )
