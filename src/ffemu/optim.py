"""Population metaheuristics for box-constrained continuous minimization.

A continuous ant colony optimizer (a ranked solution archive with
per-dimension Gaussian kernel sampling) and an inertia-weight particle
swarm share one search loop. Each is one state, ``_Aco`` or ``_Pso``,
that proposes a population and is told its values, ``f(X)`` for an
(m, dim) X giving m values, so the objective can solve the population as
one stack. The loop owns the starting points, the evaluation count and
time, the histories and the stop. Only projected (feasible) candidates
are evaluated, and a run is bit-reproducible for a fixed seed. A bounded
Gauss-Newton polish refines the best point when the objective is a sum
of squares.

The search's coefficients are constants; a run config sets only the
population sizes, the iteration budget and the stagnation window. ACO
uses ACO_R's ``ACO_Q`` = 0.5 and ``ACO_XI`` = 1.0 (Socha & Dorigo 2008),
PSO the constriction values ``PSO_INERTIA`` = 0.729 and ``PSO_COGNITIVE``
= ``PSO_SOCIAL`` = 1.494 (Clerc & Kennedy 2002) with a velocity clamp of
``PSO_V_MAX_FRACTION`` = 0.5, and both stop on ``STAGNATION_TOLERANCE``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError, ShapeError, check_settings

__all__ = [
    "ACO_Q", "ACO_XI", "PSO_INERTIA", "PSO_COGNITIVE", "PSO_SOCIAL", "PSO_V_MAX_FRACTION", "STAGNATION_TOLERANCE",
    "STEP_SCALE", "POLISH_ITERATIONS", "Box", "AcoConfig", "PsoConfig", "OptimizationResult", "aco_minimize",
    "pso_minimize", "least_squares_polish", "forward_jacobian",
]

# ACO_R's rank-weight spread (Socha & Dorigo 2008): of Q archive rows, rank k
# weighs exp(-(k - 1)^2 / (2 q^2 Q^2)), at least e^-2 of rank 1's weight.
ACO_Q = 0.5
# ACO_R's spread factor, its pheromone evaporation (Socha & Dorigo 2008): a
# guide row's Gaussian spread is xi times its mean distance to the other rows.
ACO_XI = 1.0
PSO_INERTIA = 0.729  # inertia weight: the constriction factor chi (Clerc & Kennedy 2002)
PSO_COGNITIVE = 1.494  # pull to a particle's own best: chi * 2.05 (Clerc & Kennedy 2002)
PSO_SOCIAL = 1.494  # pull to the swarm's best: chi * 2.05 (Clerc & Kennedy 2002)
PSO_V_MAX_FRACTION = 0.5  # velocity clamp per unit of the region's width (this package's choice)
STAGNATION_TOLERANCE = 1e-10  # least fall of the best value over a stagnation window (this package's choice)
# Most one step moves per unit of the region's widest span, before any
# Gaussian draw or archive sum: ACO's xi or PSO's velocity bound.
STEP_SCALE = max(ACO_XI, PSO_INERTIA * PSO_V_MAX_FRACTION + PSO_COGNITIVE + PSO_SOCIAL)
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
    """Archive-based continuous ACO settings: the archive size Q, the ants
    per iteration, the iteration budget and the stagnation window. Bounds
    are stated on the fields, and ``errors.check_settings`` names a breach
    as ``'aco.<field>'``.
    """

    archive_size: int = field(default=10, metadata={"at_least": 2})
    n_ants: int = field(default=20, metadata={"at_least": 1})
    max_iterations: int = field(default=300, metadata={"at_least": 0})
    stagnation_window: int = field(default=50, metadata={"at_least": 1})

    def __post_init__(self):
        check_settings(self, "aco")


@dataclass(frozen=True)
class PsoConfig:
    """Global-best PSO settings: the swarm size, the iteration budget and
    the stagnation window. Bounds are stated on the fields, and
    ``errors.check_settings`` names a breach as ``'pso.<field>'``.
    """

    swarm_size: int = field(default=80, metadata={"at_least": 2})
    max_iterations: int = field(default=300, metadata={"at_least": 0})
    stagnation_window: int = field(default=50, metadata={"at_least": 1})

    def __post_init__(self):
        check_settings(self, "pso")


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run, as the one search loop records it.

    ``history_best`` / ``history_mean`` hold the best value and the archive
    (ACO) or swarm (PSO) mean after the start and after each iteration.
    ``n_evaluations`` counts the rows passed to the objective and
    ``objective_seconds`` the time spent inside it.
    ``stop_reason`` is ``"max_iterations"`` after the whole budget, or
    ``"stagnation"`` when the best value moved less than
    ``STAGNATION_TOLERANCE`` over ``stagnation_window`` iterations.
    """

    best_x: np.ndarray
    best_f: float
    history_best: np.ndarray
    history_mean: np.ndarray
    n_evaluations: int
    n_iterations: int
    objective_seconds: float
    stop_reason: str


def _evaluate(f, points) -> tuple[np.ndarray, float]:
    """Objective values of a population and the seconds ``f`` took; the
    first non-finite row raises."""
    start = time.perf_counter()
    values = np.asarray(f(points), dtype=float)
    seconds = time.perf_counter() - start
    if values.shape != (len(points),):
        raise ShapeError(f"objective returned shape {values.shape} for {len(points)} points")
    finite = np.isfinite(values)
    if finite.all():
        return values, seconds
    i = int(np.flatnonzero(~finite)[0])
    raise EvaluationError(
        f"objective returned {values[i]!r} at row {i}: {points[i]!r}",
        point=points[i],
        value=values[i],
    )


def _search(f, region, config, rng, initial, size: int, start) -> OptimizationResult:
    """The one search loop: ``size`` starting points, the first rows of
    ``initial`` and then uniform draws, all projected, are evaluated and
    build the optimizer's state, ``start(config, region, x, fx)``, which
    proposes each population and is told its values. The state keeps its
    ``best_x``/``best_f`` and its history ``mean``; only this loop counts,
    times and stops.
    """
    rng = np.random.default_rng(rng)
    dim = region.lo.size
    seeds = np.empty((0, dim)) if initial is None else np.asarray(initial, dtype=float).reshape(-1, dim)[:size]
    drawn = rng.uniform(region.lo, region.hi, size=(size - len(seeds), dim))
    x = region.project(np.vstack([seeds, drawn]))
    fx, seconds = _evaluate(f, x)
    state = start(config, region, x, fx)
    n_evals = len(x)
    history_best, history_mean = [state.best_f], [state.mean]
    window, stop_reason = config.stagnation_window, "max_iterations"
    for _ in range(config.max_iterations):
        x = state.propose(rng)
        fx, spent = _evaluate(f, x)
        seconds += spent
        n_evals += len(x)
        state.tell(x, fx)
        history_best.append(state.best_f)
        history_mean.append(state.mean)
        if len(history_best) > window and history_best[-1 - window] - history_best[-1] < STAGNATION_TOLERANCE:
            stop_reason = "stagnation"
            break
    return OptimizationResult(
        best_x=state.best_x.copy(),
        best_f=state.best_f,
        history_best=np.array(history_best),
        history_mean=np.array(history_mean),
        n_evaluations=n_evals,
        n_iterations=len(history_best) - 1,
        objective_seconds=seconds,
        stop_reason=stop_reason,
    )


def _roulette_table(archive_size: int) -> np.ndarray:
    """The rank roulette's table: the normalised cumulative sum, as
    ``Generator.choice`` forms it from ``p``, of the selection probabilities
    ``w / w.sum()`` of the rank weights ``w``, a Gaussian in rank - 1 with
    spread ``ACO_Q`` * archive_size."""
    ranks = np.arange(1, archive_size + 1, dtype=float)
    norm = 1.0 / (ACO_Q * archive_size * math.sqrt(2.0 * math.pi))
    weights = norm * np.exp(-((ranks - 1.0) ** 2) / (2.0 * ACO_Q**2 * archive_size**2))
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


class _Aco:
    """ACO's state: the archive ``x``/``f``, sorted by value (row 0 is the
    best), with its rank roulette table and column offsets formed once.
    ``propose`` gives the stream and bits of ``rng.choice`` guide rows, ``p``
    the table's probabilities, then ``rng.normal`` about them, clipped:
    ``choice`` is the table's ``searchsorted(side="right")`` at ``rng.random``
    uniforms, and ``normal`` is ``loc + scale * z`` for C-order normals ``z``.
    """

    def __init__(self, config: AcoConfig, region, x, fx):
        self.config, self.region = config, region
        order = np.argsort(fx, kind="stable")
        self.x, self.f = x[order], fx[order]
        self.cdf = _roulette_table(len(fx))
        self.offsets = np.arange(x.shape[1])

    def spreads(self) -> np.ndarray:
        """Per-dimension spreads: ``ACO_XI`` times each row's mean distance to the other rows."""
        diffs = np.subtract(self.x[:, None, :], self.x)
        return ACO_XI * np.add.reduce(np.abs(diffs, out=diffs), axis=1) / (len(self.f) - 1)

    def propose(self, rng) -> np.ndarray:
        dim = self.x.shape[1]
        flat = self.cdf.searchsorted(rng.random((self.config.n_ants, dim)), side="right")
        flat *= dim
        flat += self.offsets
        ants = rng.standard_normal(flat.shape)
        ants *= self.spreads().take(flat)
        ants += self.x.take(flat)
        return self.region.project(ants, out=ants)

    def tell(self, x, f) -> None:
        """Keep the best Q rows of archive and ants; the stable sort puts the
        archive rows first, so a tie keeps the archive row."""
        all_x, all_f = np.concatenate([self.x, x]), np.concatenate([self.f, f])
        order = all_f.argsort(kind="stable")[: len(self.f)]
        self.x, self.f = all_x.take(order, axis=0), all_f.take(order)

    @property
    def best_x(self) -> np.ndarray:
        return self.x[0]

    @property
    def best_f(self) -> float:
        return float(self.f[0])

    @property
    def mean(self) -> float:
        return float(np.add.reduce(self.f)) / len(self.f)


class _Pso:
    """PSO's state: the swarm's positions and velocities, its personal bests
    ``x``/``f`` and its global best; its history mean is the swarm's."""

    def __init__(self, config: PsoConfig, region, x, fx):
        self.region = region
        self.v_max = PSO_V_MAX_FRACTION * (region.hi - region.lo)
        self.position, self.velocity = x, np.zeros_like(x)
        self.x, self.f = x.copy(), fx.copy()
        g = int(np.argmin(fx))
        self.best_x, self.best_f = x[g].copy(), float(fx[g])
        self.mean = float(fx.mean())

    def propose(self, rng) -> np.ndarray:
        position = self.position
        r1, r2 = rng.uniform(size=(2, *position.shape))  # the draws of two calls, r1's first
        v = PSO_INERTIA * self.velocity + PSO_COGNITIVE * r1 * (self.x - position)
        v += PSO_SOCIAL * r2 * (self.best_x - position)
        self.velocity = np.clip(v, -self.v_max, self.v_max)
        self.position = self.region.project(position + self.velocity)
        return self.position

    def tell(self, x, fx) -> None:
        improved = fx < self.f
        self.x[improved] = x[improved]
        self.f[improved] = fx[improved]
        g = int(np.argmin(self.f))
        if float(self.f[g]) < self.best_f:
            self.best_x, self.best_f = self.x[g].copy(), float(self.f[g])
        self.mean = float(fx.mean())


def aco_minimize(f, region, config: AcoConfig, rng, initial=None) -> OptimizationResult:
    """Minimize ``f`` over the region with archive-based continuous ACO.

    ``f`` is called once for the starting archive and once per iteration
    for the ants. ``rng`` goes through ``np.random.default_rng``: a
    ``Generator`` is used as is, and an int seed gives the same run as its
    ``default_rng``. ``initial`` points (projected) seed the starting
    archive; the rest is drawn uniformly.
    """
    return _search(f, region, config, rng, initial, config.archive_size, _Aco)


def pso_minimize(f, region, config: PsoConfig, rng, initial=None) -> OptimizationResult:
    """Minimize ``f`` over the region with a standard global-best PSO.

    ``f``, ``rng`` and ``initial`` are taken as in ``aco_minimize``.
    Velocities are clamped to ``PSO_V_MAX_FRACTION`` of the region's widths.
    """
    return _search(f, region, config, rng, initial, config.swarm_size, _Pso)


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
            jac = forward_jacobian(residual, region, x, r, movable)
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


def forward_jacobian(residual, region, x, r, movable) -> np.ndarray:
    """Forward-difference Jacobian of ``residual`` at x, whose residual is r,
    as ``least_squares_polish`` forms it: one call on the stepped points,
    each step into the region, and zero columns where ``movable`` is False."""
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
