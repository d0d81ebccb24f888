"""Population metaheuristics for box-constrained continuous minimization.

Two optimizers share one calling convention: a continuous ant colony
optimizer built around a ranked solution archive with per-dimension
Gaussian kernel sampling, and a standard inertia-weight particle swarm.
Both evaluate a whole population per call, ``f(X)`` with X of shape
(m, dim) returning m values, so the objective can solve the population as
one stack. Both only ever evaluate candidates that the region has
projected into the feasible set, and both are bit-reproducible for a
fixed seed. A bounded Gauss-Newton polish refines their best point when
the objective is a sum of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError, ShapeError, check_settings

__all__ = [
    "Box",
    "SolutionArchive",
    "AcoConfig",
    "PsoConfig",
    "OptimizationResult",
    "aco_weights",
    "aco_cdf",
    "aco_construct",
    "aco_minimize",
    "pso_minimize",
    "POLISH_ITERATIONS",
    "least_squares_polish",
]

POLISH_ITERATIONS = 10
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class Box:
    """Plain axis-aligned box region; projection is componentwise clamping.

    Both bounds must be finite: a NaN bound would slip through the order
    check (every comparison with NaN is false), and the optimizers draw
    their starting points uniformly between the bounds.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ShapeError("box bounds must be 1-D and equal length")
        for name, bound in (("lower", lo), ("upper", hi)):
            if not np.isfinite(bound).all():
                raise DomainError(f"box {name} bound must be finite, got {bound.tolist()}")
        if np.any(lo > hi):
            raise DomainError("box bounds out of order")

    def project(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Clamp one point or a stack of rows into the box.

        The same bits as ``np.clip(x, lo, hi)``, without its wrapper; ``out``
        (say ``x`` itself, when the caller owns it) receives the result.
        """
        out = np.maximum(x, self.lo, out=out)
        return np.minimum(out, self.hi, out=out)


@dataclass(frozen=True)
class AcoConfig:
    """Archive-based continuous ACO settings.

    ``q`` spreads the rank weights (small q concentrates sampling on the
    best rows); ``xi`` scales the per-dimension sampling spread and plays
    the role pheromone evaporation plays in the discrete algorithm. Bounds
    are stated on the fields; ``errors.check_settings`` makes a breach a
    ``DomainError`` naming ``'aco.<field>'``. A ``q`` that makes the rank
    roulette table (``aco_cdf``) non-finite is a ``DomainError`` naming
    ``aco.q``.
    """

    archive_size: int = field(default=10, metadata={"at_least": 2})
    n_ants: int = field(default=20, metadata={"at_least": 1})
    q: float = field(default=0.5, metadata={"above": 0})
    xi: float = field(default=1.0, metadata={"above": 0})
    max_iterations: int = field(default=300, metadata={"at_least": 0})
    stagnation_window: int = field(default=50, metadata={"at_least": 1})
    stagnation_tolerance: float = 1e-10

    def __post_init__(self):
        check_settings(self, "aco", DomainError)
        try:
            with np.errstate(all="ignore"):
                finite = np.isfinite(aco_cdf(self.archive_size, self.q)).all()
        except OverflowError:  # q ** 2 beyond the float range
            finite = False
        if not finite:
            raise DomainError(f"aco.q = {self.q!r} makes the rank roulette table non-finite")


@dataclass(frozen=True)
class PsoConfig:
    """Inertia-weight PSO settings with per-dimension velocity clamping.

    ``v_max_fraction`` sets the velocity clamp as a fraction of each
    dimension's width in the current region. Bounds are stated on the
    fields; ``errors.check_settings`` makes a breach a ``DomainError``
    naming ``'pso.<field>'``.
    """

    swarm_size: int = field(default=80, metadata={"at_least": 2})
    inertia: float = 0.729
    cognitive: float = 1.494
    social: float = 1.494
    v_max_fraction: float = field(default=0.5, metadata={"above": 0, "at_most": 1})
    max_iterations: int = field(default=300, metadata={"at_least": 0})
    stagnation_window: int = field(default=50, metadata={"at_least": 1})
    stagnation_tolerance: float = 1e-10

    def __post_init__(self):
        check_settings(self, "pso", DomainError)


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run.

    ``history_best`` / ``history_mean`` carry one entry for the initial
    population plus one per iteration; ``population_x`` / ``population_f``
    are the final archive rows (ACO) or personal bests (PSO).
    ``stop_reason`` says why the search ended: ``"max_iterations"`` when
    it ran its whole budget, ``"stagnation"`` when the best value moved
    less than ``stagnation_tolerance`` over ``stagnation_window``
    iterations.
    """

    best_x: np.ndarray
    best_f: float
    history_best: np.ndarray
    history_mean: np.ndarray
    n_evaluations: int
    n_iterations: int
    population_x: np.ndarray
    population_f: np.ndarray
    stop_reason: str


class SolutionArchive:
    """Fixed-size archive of the best solutions seen, sorted by objective.

    Row 0 is the incumbent best. Updates merge new candidates and keep the
    lowest objective values; ties keep the earlier insertion (stable sort),
    so results are deterministic.
    """

    def __init__(self, points, values):
        self.x = np.array(points, dtype=float)
        self.f = np.array(values, dtype=float)
        if self.x.ndim != 2 or self.f.shape != (self.x.shape[0],):
            raise ShapeError("archive needs a (Q, d) point array and Q values")
        if self.x.shape[0] < 2:
            raise DomainError("archive needs at least 2 rows")
        order = np.argsort(self.f, kind="stable")
        self.x = self.x[order]
        self.f = self.f[order]

    def __len__(self) -> int:
        return self.f.size

    @property
    def best_x(self) -> np.ndarray:
        return self.x[0]

    @property
    def best_f(self) -> float:
        return float(self.f[0])

    def update(self, points, values) -> None:
        """Merge candidates, keep the best ``len(self)`` rows; the stable
        sort puts the archive rows first, so a tie keeps the archive row."""
        all_x = np.concatenate([self.x, np.asarray(points, dtype=float)])
        all_f = np.concatenate([self.f, np.asarray(values, dtype=float)])
        order = all_f.argsort(kind="stable")[: len(self)]
        self.x = all_x.take(order, axis=0)
        self.f = all_f.take(order)

    def sigma_matrix(self, xi: float) -> np.ndarray:
        """Per-row, per-dimension sampling spreads: xi times the mean
        absolute distance to the other rows (divisor Q - 1)."""
        diffs = np.subtract(self.x[:, None, :], self.x)
        return xi * np.add.reduce(np.abs(diffs, out=diffs), axis=1) / (len(self) - 1)


def aco_weights(archive_size: int, q: float) -> np.ndarray:
    """Rank weights: a Gaussian in (rank - 1) with spread q * archive_size,
    for an ``archive_size`` and ``q`` that ``AcoConfig`` has checked."""
    ranks = np.arange(1, archive_size + 1, dtype=float)
    norm = 1.0 / (q * archive_size * math.sqrt(2.0 * math.pi))
    return norm * np.exp(-((ranks - 1.0) ** 2) / (2.0 * q**2 * archive_size**2))


def aco_cdf(archive_size: int, q: float) -> np.ndarray:
    """The rank roulette's table: the normalised cumulative sum of the
    selection probabilities ``w / w.sum()`` of the rank weights
    ``w = aco_weights(archive_size, q)``, as ``Generator.choice`` forms it
    from ``p``. It depends on the settings only, so a run forms it once;
    ``AcoConfig`` checks that it is finite."""
    weights = aco_weights(archive_size, q)
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


def aco_construct(archive: SolutionArchive, config: AcoConfig, region, rng, cdf, offsets) -> np.ndarray:
    """Construct ``n_ants`` candidates by Gaussian-kernel sampling.

    Per dimension each ant picks a guide row by rank-weight roulette, with
    ``cdf`` the rank roulette's table (``aco_cdf(len(archive), config.q)``),
    then samples a Gaussian centered on that row's component with the
    archive dispersion as spread. Candidates are projected feasible before
    return. ``offsets`` is ``np.arange(dim)``, each column's offset within
    a row of the flattened archive; like ``cdf`` it is formed once per run.

    The random stream and every candidate bit are those of
    ``rows = rng.choice(len(archive), size=(n_ants, dim), p=probs)`` then
    ``rng.normal(archive.x[rows, cols], sigma[rows, cols])``, with ``probs``
    the selection probabilities ``cdf`` sums, without their per-call cost.
    ``choice`` with replacement inverts the normalised cumulative ``probs``
    at ``rng.random(size)`` uniforms with ``searchsorted(side="right")``,
    and ``normal`` returns ``loc + scale * z`` for standard normals ``z``
    drawn in C order; both steps are written out here, and the guide
    components are gathered by flat index.
    """
    if len(cdf) != len(archive):
        raise ShapeError(f"{len(cdf)} roulette entries for {len(archive)} archive rows")
    dim = archive.x.shape[1]
    flat = cdf.searchsorted(rng.random((config.n_ants, dim)), side="right")
    flat *= dim
    flat += offsets
    candidates = rng.standard_normal(flat.shape)
    candidates *= archive.sigma_matrix(config.xi).take(flat)
    candidates += archive.x.take(flat)
    return region.project(candidates, out=candidates)


def _evaluate(f, points) -> np.ndarray:
    """Objective values of a population; the first non-finite row raises."""
    values = np.asarray(f(points), dtype=float)
    if values.shape != (len(points),):
        raise ShapeError(f"objective returned shape {values.shape} for {len(points)} points")
    finite = np.isfinite(values)
    if finite.all():
        return values
    i = int(np.flatnonzero(~finite)[0])
    raise EvaluationError(
        f"objective returned {values[i]!r} at row {i}: {points[i]!r}",
        point=points[i],
        value=values[i],
    )


def _initial_points(region, count: int, rng, initial) -> np.ndarray:
    dim = region.lo.size
    seeds = np.empty((0, dim))
    if initial is not None:
        seeds = region.project(np.asarray(initial, dtype=float).reshape(-1, dim)[:count])
    random_pts = rng.uniform(region.lo, region.hi, size=(count - len(seeds), dim))
    return np.vstack([seeds, region.project(random_pts)])


def _stagnated(history: list, window: int, tolerance: float) -> bool:
    return len(history) > window and history[-1 - window] - history[-1] < tolerance


def aco_minimize(f, region, config: AcoConfig, rng, initial=None) -> OptimizationResult:
    """Minimize ``f`` over the region with archive-based continuous ACO.

    ``f`` maps an (m, dim) population to its m objective values; it is
    called once for the starting archive and once per iteration for the
    ants. ``rng`` is a seed or a ``numpy.random.Generator`` (used as is,
    and advanced); it goes through ``np.random.default_rng``, so an int
    seed and ``default_rng`` of it give the same run. ``initial`` points
    (projected) seed the starting archive; the rest is filled uniformly at
    random. Every candidate a row of the archive ever held was evaluated
    through ``f``; bookkeeping is exact.
    """
    rng = np.random.default_rng(rng)
    pts = _initial_points(region, config.archive_size, rng, initial)
    vals = _evaluate(f, pts)
    n_evals = len(pts)
    archive = SolutionArchive(pts, vals)
    cdf = aco_cdf(len(archive), config.q)
    offsets = np.arange(archive.x.shape[1])
    history_best = [archive.best_f]
    history_mean = [float(np.add.reduce(archive.f)) / len(archive)]
    iterations = 0
    stop_reason = "max_iterations"
    for _ in range(config.max_iterations):
        candidates = aco_construct(archive, config, region, rng, cdf, offsets)
        values = _evaluate(f, candidates)
        n_evals += len(candidates)
        archive.update(candidates, values)
        history_best.append(archive.best_f)
        history_mean.append(float(np.add.reduce(archive.f)) / len(archive))
        iterations += 1
        if _stagnated(history_best, config.stagnation_window, config.stagnation_tolerance):
            stop_reason = "stagnation"
            break
    return OptimizationResult(
        best_x=archive.best_x.copy(),
        best_f=archive.best_f,
        history_best=np.array(history_best),
        history_mean=np.array(history_mean),
        n_evaluations=n_evals,
        n_iterations=iterations,
        population_x=archive.x.copy(),
        population_f=archive.f.copy(),
        stop_reason=stop_reason,
    )


def pso_minimize(f, region, config: PsoConfig, rng, initial=None) -> OptimizationResult:
    """Minimize ``f`` over the region with a standard global-best PSO.

    ``f`` maps an (m, dim) population to its m objective values; it is
    called once per iteration for the whole swarm. ``rng`` is a seed or a
    ``numpy.random.Generator``, taken as in ``aco_minimize``. ``initial``
    points (projected) seed the swarm. Velocities are clamped to
    ``v_max_fraction`` of the region's per-dimension widths.
    """
    rng = np.random.default_rng(rng)
    v_max = config.v_max_fraction * (region.hi - region.lo)
    x = _initial_points(region, config.swarm_size, rng, initial)
    fx = _evaluate(f, x)
    n_evals = len(x)
    v = np.zeros_like(x)
    pbest_x = x.copy()
    pbest_f = fx.copy()
    g = int(np.argmin(pbest_f))
    gbest_x = pbest_x[g].copy()
    gbest_f = float(pbest_f[g])
    history_best = [gbest_f]
    history_mean = [float(fx.mean())]
    iterations = 0
    stop_reason = "max_iterations"
    for _ in range(config.max_iterations):
        r1 = rng.uniform(size=x.shape)
        r2 = rng.uniform(size=x.shape)
        v = (
            config.inertia * v
            + config.cognitive * r1 * (pbest_x - x)
            + config.social * r2 * (gbest_x[None, :] - x)
        )
        v = np.clip(v, -v_max, v_max)
        x = region.project(x + v)
        fx = _evaluate(f, x)
        n_evals += len(x)
        improved = fx < pbest_f
        pbest_x[improved] = x[improved]
        pbest_f[improved] = fx[improved]
        g = int(np.argmin(pbest_f))
        if float(pbest_f[g]) < gbest_f:
            gbest_f = float(pbest_f[g])
            gbest_x = pbest_x[g].copy()
        history_best.append(gbest_f)
        history_mean.append(float(fx.mean()))
        iterations += 1
        if _stagnated(history_best, config.stagnation_window, config.stagnation_tolerance):
            stop_reason = "stagnation"
            break
    return OptimizationResult(
        best_x=gbest_x,
        best_f=gbest_f,
        history_best=np.array(history_best),
        history_mean=np.array(history_mean),
        n_evaluations=n_evals,
        n_iterations=iterations,
        population_x=pbest_x,
        population_f=pbest_f,
        stop_reason=stop_reason,
    )


def least_squares_polish(residual, region, x0) -> tuple[np.ndarray, float, int]:
    """Bounded Gauss-Newton / Levenberg-Marquardt descent from ``x0``.

    ``residual(X)`` maps an (m, n) stack of points to an (m, k) stack of
    residual vectors, each of whose squared norm is the objective. The
    Jacobian comes from forward differences, all taken in one call and
    stepping into the region where a coordinate sits on its upper bound;
    coordinates whose bounds are equal stay where they are. Every point
    evaluated is projected into the region first, and a step is kept only
    if it lowers the squared norm, so the result is never worse than the
    (projected) start. It stops after a kept step shorter than 1e-8 of
    |x|, or after ``POLISH_ITERATIONS`` tried steps, which costs at most
    ``1 + POLISH_ITERATIONS * (n + 1)`` residual evaluations (rows) in n
    dimensions.

    Returns the best point, its squared residual norm and the number of
    residual evaluations (rows) made.
    """
    movable = region.lo < region.hi
    x = region.project(np.asarray(x0, dtype=float))
    r = _residual_at(residual, x)
    f = float(r @ r)
    calls = 1
    mu = 0.0  # Marquardt damping; plain Gauss-Newton until a step fails
    jac = None
    for _ in range(POLISH_ITERATIONS):
        if not 0.0 < f < math.inf or not movable.any():
            break
        if jac is None:
            jac = _forward_jacobian(residual, region, x, r, movable)
            calls += int(movable.sum())
        trial = region.project(x + _bounded_step(jac, r, x, region, movable, mu))
        if np.array_equal(trial, x):
            break
        r_trial = _residual_at(residual, trial)
        calls += 1
        f_trial = float(r_trial @ r_trial)
        if f_trial < f:
            step_norm = float(np.linalg.norm(trial - x))
            x, r, f, jac = trial, r_trial, f_trial, None
            mu *= 0.1
            if step_norm <= 1e-8 * float(np.linalg.norm(x)):
                break  # converged in x: a further step would be rounding noise
        else:
            mu = max(10.0 * mu, 1e-3)
    return x, f, calls


def _residual_at(residual, x) -> np.ndarray:
    return np.asarray(residual(x[None, :]), dtype=float)[0]


def _forward_jacobian(residual, region, x, r, movable) -> np.ndarray:
    """Forward-difference Jacobian at x; columns of fixed coordinates are zero."""
    cols = np.flatnonzero(movable)
    steps = np.empty(cols.size)
    points = np.repeat(x[None, :], cols.size, axis=0)
    for row, i in enumerate(cols):
        h = _SQRT_EPS * max(abs(x[i]), 1.0)
        up, down = region.hi[i] - x[i], x[i] - region.lo[i]
        if up < h:  # step the way with more room, no further than the bound
            h = -min(h, down) if down > up else up
        steps[row] = h
        points[row, i] += h
    values = np.asarray(residual(region.project(points)), dtype=float)
    jac = np.zeros((r.size, x.size))
    jac[:, cols] = ((values - r) / steps[:, None]).T
    return jac


def _bounded_step(jac, r, x, region, free, mu) -> np.ndarray:
    """Damped Gauss-Newton step on the linearized residual inside the box.

    Solves min |r + J s|^2 + mu |D s|^2 (D^2 = diag(J^T J)) over the free
    coordinates; a coordinate the step would carry past a bound is held at
    that bound and the rest are solved again.
    """
    step = np.zeros_like(x)
    free = free.copy()
    while free.any():
        step[free] = 0.0
        j = jac[:, free]
        rhs = -(r + jac @ step)
        if mu > 0.0:
            damping = np.sqrt(mu * np.einsum("ij,ij->j", j, j))
            j = np.vstack([j, np.diag(damping)])
            rhs = np.concatenate([rhs, np.zeros(damping.size)])
        step[free] = np.linalg.lstsq(j, rhs, rcond=None)[0]
        target = x + step
        out = free & ((target < region.lo) | (target > region.hi))
        if not out.any():
            break
        step[out] = np.clip(target[out], region.lo[out], region.hi[out]) - x[out]
        free &= ~out
    return step
