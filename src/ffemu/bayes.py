"""Random-walk Metropolis-Hastings baseline for the updating parameters.

The likelihood is Gaussian on relative eigenvalue residuals against crisp
(center) measured eigenvalues, with a uniform box prior. This gives the
probabilistic comparison column (posterior means and coefficients of
variation) next to the fuzzy interval results.

The chain is the plain sequential random walk, but it is evaluated in
prefetch windows (Brockwell 2006, "Parallel Markov chain Monte Carlo
simulation by pre-fetching"). A step's proposal increment and uniform draw
do not depend on the accept/reject decisions, so they are all drawn up
front, from two child streams of ``SeedSequence(rng_seed).spawn(2)``: the
first gives the n standard-normal increment rows, ``standard_normal((n, d))``
scaled by ``proposal_sd``, and the second the n uniforms, ``random(n)``.
Step i takes the i-th row and the i-th uniform, so a shorter chain with the
same seed is a prefix of a longer one. From a state theta at step i, the
states the next steps can reach while their decisions all go one way are
then known:

- the A-step accept path theta + z_i, theta + z_i + z_i+1, ...,
  theta + z_i + ... + z_i+A-1 (every step accepted);
- the (F - 1)-row reject fan theta + z_i+1, ..., theta + z_i+F-1 (every
  step from step i on rejected so far).

Step i's proposal theta + z_i heads the path whichever way its decision
goes, so one stacked eigensolve of A + F - 1 rows covers the window (fewer
where the chain's end cuts it short); the likelihood needs eigenvalues
only, so that solve is ``StructuralModel.eigenvalues_batch``, which skips
the mode shapes. The walk follows the accept path up to and including the
first rejection, or the reject fan up to and including the first
acceptance, and the next window starts from the state it lands on.

The shape follows Strid (2010, "Efficient parallelisation of
Metropolis-Hastings algorithms using a prefetching approach"): at
acceptance rate p, with q = 1 - p, a window advances

    S(A, F) = (1 - p^A) / (1 - p) + (q - q^F) / p

steps on average, and costs ``WINDOW_COST`` + A + F - 1 solved rows. Each
window takes the (A, F), each at most 24, that minimises cost / S at the
running acceptance rate (accepted steps over steps so far, 0.5 before the
first window), rounded to a multiple of 1/32. A chain that accepts most
proposals gets a long path and a short fan, one that rejects most gets the
reverse; at the default acceptance of about 0.78 the shape is (8, 2).

The chain equals the sequential definition bit for bit, whatever the
shapes: the shape only decides which states are solved ahead, never which
states get a decision or how they are formed. Every proposal is formed by
the same floating-point additions in the same order (the accept path is a
running sum over [theta, z_i, z_i+1, ...]), each row's log posterior does
not depend on the other rows of its batch, and every decision compares the
same numbers. The window is built in one preallocated buffer (the running
sum written in place, the fan added into its rows), and solved as it
stands when every row is inside the prior box; every step from buffer to
log posterior is elementwise or a per-matrix eigensolve, so each row's
value is independent of its batch, which is what the exactness needs.
Rows the walk never reaches are solved but their results are discarded;
if a batch fails to converge, the window is re-solved one row at a time in
walk order, so an error surfaces only for a state the sequential chain
would also have solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DiagnosticsError,
    DomainError,
    ShapeError,
    is_finite_number,
    is_integer,
)
from .model import StructuralModel

__all__ = [
    "McmcConfig",
    "Chain",
    "ChainSummary",
    "log_posterior_batch",
    "mh_sample",
    "summarize",
]

# a prefetch window's fixed cost in solved rows: on one CPU a window's
# Python and numpy overhead is about 70 us, a solved 5x5 row about 3.5 us
WINDOW_COST = 20
CSV_CHUNK = 512  # chain.csv rows formatted per write


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; ``proposal_sd`` is per-parameter in N/m.

    ``likelihood_sd`` is the relative eigenvalue noise scale (dimensionless).
    The prior is uniform on [theta_min, theta_max], with theta_min > 0 since
    the parameters are stiffnesses. The chain starts at ``initial``, which
    must lie in the box, when given, else at the box center. All vectors
    are 1-D, of one length and finite. ``rng_seed`` seeds the
    ``SeedSequence`` whose two child streams give the proposal increments
    and the acceptance uniforms (see ``mh_sample``).
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
        if not all(np.isfinite(v).all() for v in vectors):
            raise ConfigurationError("proposal_sd, theta_min, theta_max and initial must be finite")
        for name in ("n_samples", "burn_in"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not self.n_samples > self.burn_in >= 0:
            raise ConfigurationError("need n_samples > burn_in >= 0")
        if np.any(self.proposal_sd <= 0.0):
            raise ConfigurationError("proposal_sd entries must be positive")
        sd = self.likelihood_sd
        if not is_finite_number(sd) or sd <= 0.0:
            raise ConfigurationError(f"likelihood_sd must be positive and finite, got {sd!r}")
        if np.any(self.theta_min <= 0.0):
            raise ConfigurationError("theta_min entries must be positive (stiffnesses)")
        if np.any(self.theta_min >= self.theta_max):
            raise ConfigurationError("prior box must have positive widths")
        if self.initial is not None and not _in_box(self.initial[None, :], self)[0]:
            raise ConfigurationError("chain start lies outside the prior box")

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
    """Post-burn-in samples (rows) plus the whole-run acceptance rate.

    ``windows`` counts the prefetch windows of the walk and ``solved_rows``
    the rows it passed to ``eigenvalues_batch``, the start state and any
    one-row re-solves included; both are 0 for a chain not built by
    ``mh_sample``.
    """

    samples: np.ndarray
    acceptance_rate: float
    windows: int = 0
    solved_rows: int = 0


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
    eigenvalues only. When every row is inside, the stack is solved as it
    is, without gathering the rows and scattering their results.
    """
    th = np.asarray(thetas, dtype=float)
    return _log_posterior_rows(th, _in_box(th, config), measured_eigenvalues, model, config)


def _in_box(th, config: McmcConfig) -> np.ndarray:
    """Which rows of ``th`` lie inside the prior box."""
    return ((th >= config.theta_min) & (th <= config.theta_max)).all(axis=1)


def _log_posterior_rows(th, inside, measured_eigenvalues, model, config) -> np.ndarray:
    """``log_posterior_batch`` with the rows' prior-box mask already known."""
    lam_m = np.asarray(measured_eigenvalues, dtype=float)
    if inside.all():
        return _log_likelihood(model.eigenvalues_batch(th), lam_m, config)
    out = np.full(th.shape[0], -np.inf)
    if inside.any():
        out[inside] = _log_likelihood(model.eigenvalues_batch(th[inside]), lam_m, config)
    return out


def _log_likelihood(lam, lam_m, config: McmcConfig) -> np.ndarray:
    """Row sums of -0.5 ((lam_m - lam) / lam_m / sd)^2, overwriting ``lam``."""
    resid = np.subtract(lam_m, lam, out=lam)
    resid /= lam_m
    resid /= config.likelihood_sd
    np.square(resid, out=resid)
    total = resid.sum(axis=1)
    total *= -0.5
    return total


def _window_shapes() -> list[tuple[int, int]]:
    """Window shape (A, F) for each running acceptance rate g / 32, g = 0..32.

    A is the accept path's length and F - 1 the reject fan's row count, each
    1..24; the pair minimises (WINDOW_COST + A + F - 1) / S(A, F) (see the
    module docstring). S is summed as powers, so p = 0 and p = 1 need no
    special case.
    """
    p = np.linspace(0.0, 1.0, 33)[:, None]
    k = np.arange(24)
    path_steps = (p**k).cumsum(axis=1)  # 1 + p + ... + p^(A-1), A = 1..24
    fan_steps = ((1.0 - p) ** k).cumsum(axis=1) - 1.0  # q + ... + q^(F-1), F = 1..24
    rows = k[:, None] + k[None, :] + 1  # A + F - 1
    # one rate at a time: every temporary stays small, which keeps the peak RSS down
    best = [((WINDOW_COST + rows) / (a[:, None] + f)).argmin() for a, f in zip(path_steps, fan_steps)]
    return [(int(a) + 1, int(f) + 1) for a, f in zip(*np.divmod(best, k.size))]


def mh_sample(config: McmcConfig, model: StructuralModel, measured_eigenvalues) -> Chain:
    """Random-walk Metropolis-Hastings with Gaussian proposals.

    Deterministic for a fixed seed, and equal bit for bit to the sequential
    chain that, at each step, draws d standard normals from the first child
    stream of ``SeedSequence(rng_seed).spawn(2)`` (scaled by ``proposal_sd``)
    and one uniform from the second (see the module docstring for the
    windowed walk). Raises when nothing was ever accepted, which almost
    always means the proposal steps are far too large.
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
    n = config.n_samples
    normals, uniforms = map(np.random.default_rng, np.random.SeedSequence(config.rng_seed).spawn(2))
    steps = normals.standard_normal((n, d))
    steps *= config.proposal_sd
    log_u = uniforms.random(n)
    np.log(log_u, out=log_u)

    shapes = _window_shapes()
    grid = len(shapes) - 1
    lp = log_posterior_batch(theta[None, :], measured_eigenvalues, model, config).item()
    # a window reads the increments of steps i.. before it writes the states
    # of steps i..i+j-1 and the next window starts at i+j, so the trace
    # overwrites the increments in place
    trace = steps
    # window buffer: row 0 is the current state, rows 1..a the accept path,
    # rows a+1..a+f-1 the reject fan after row 1
    a_max = max(a for a, _ in shapes)
    f_max = max(f for _, f in shapes)
    win = np.empty((a_max + f_max, d))
    win[0] = theta
    accepted = 0
    windows = 0
    solved = 1  # the start state
    i = 0
    while i < n:
        # running acceptance rate rounded to a multiple of 1 / grid; 0.5 at the start
        a, f = shapes[(2 * grid * accepted + i) // (2 * i) if i else grid // 2]
        a, f = min(a, n - i), min(f, n - i)
        win[1 : a + 1] = steps[i : i + a]
        win[: a + 1].cumsum(axis=0, out=win[: a + 1])
        np.add(win[0], steps[i + 1 : i + f], out=win[a + 1 : a + f])
        rows = win[1 : a + f]
        inside = _in_box(rows, config)
        solved += int(np.count_nonzero(inside))
        windows += 1
        try:
            lps = _log_posterior_rows(rows, inside, measured_eigenvalues, model, config).tolist()
            row_lp = lps.__getitem__
        except ConvergenceError:  # re-solve only the rows the walk reaches
            def row_lp(r, rows=rows, inside=inside):
                nonlocal solved
                solved += int(inside[r])
                one = slice(r, r + 1)
                return _log_posterior_rows(rows[one], inside[one], measured_eigenvalues, model, config).item()
        u = log_u[i : i + max(a, f)].tolist()
        lp_next = row_lp(0)
        if u[0] < lp_next - lp:
            j, lp = 1, lp_next
            while j < a:
                lp_next = row_lp(j)
                if not u[j] < lp_next - lp:
                    break
                j, lp = j + 1, lp_next
            trace[i : i + j] = win[1 : j + 1]
            win[0] = win[j]
            accepted += j
            span = a
        else:
            j = 1
            while j < f:
                lp_next = row_lp(a - 1 + j)
                if u[j] < lp_next - lp:
                    break
                j += 1
            trace[i : i + j] = win[0]
            if j < f:
                win[0], lp = win[a + j], lp_next
                accepted += 1
            span = f
        if j < span:  # the step that ended the run is consumed too
            trace[i + j] = win[0]
            j += 1
        i += j
    if accepted == 0:
        raise DiagnosticsError(
            "no proposal was ever accepted; decrease proposal_sd (or check the likelihood)"
        )
    return Chain(
        samples=trace[config.burn_in :],
        acceptance_rate=accepted / n,
        windows=windows,
        solved_rows=solved,
    )


def summarize(chain: Chain) -> ChainSummary:
    """Sample mean, standard deviation (N-1 divisor), and c.o.v. in percent.

    The deviations are formed one column at a time (two passes: the mean,
    then the deviations' dot product), so the only temporary is one column,
    not a copy of the whole chain.
    """
    samples = chain.samples
    if samples.size == 0:
        raise DomainError("cannot summarize an empty chain")
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    sd = np.zeros_like(mean)
    if n > 1:
        for j, column in enumerate(samples.T):
            dev = column - mean[j]
            sd[j] = math.sqrt(dev @ dev / (n - 1))
    return ChainSummary(mean=mean, sd=sd, cov_percent=100.0 * sd / mean)


def write_chain_csv(chain: Chain, path) -> None:
    r"""Dump samples as (sample_index, theta_0, ..., theta_d-1) rows.

    Fields are comma-separated, lines end in ``\r\n``, and every value is
    its shortest round-trip ``repr``, so reading the file back gives the
    samples bit for bit. Rows are formatted ``CSV_CHUNK`` at a time, and a
    row that repeats the previous one bit for bit (a rejected step) reuses
    its text.
    """
    samples = np.ascontiguousarray(chain.samples, dtype=float)
    bits = samples.view(np.uint64)
    repeats = np.zeros(len(samples), dtype=bool)
    repeats[1:] = (bits[1:] == bits[:-1]).all(axis=1)
    header = ["sample_index"] + [f"theta_{i}" for i in range(samples.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        text = ""
        for start in range(0, len(samples), CSV_CHUNK):
            chunk = slice(start, start + CSV_CHUNK)
            lines = []
            for i, row, repeat in zip(
                range(start, start + CSV_CHUNK), samples[chunk].tolist(), repeats[chunk].tolist()
            ):
                if not repeat:
                    text = ",".join(["", *map(repr, row)])  # each value with its leading comma
                lines.append(f"{i}{text}\r\n")
            fh.write("".join(lines))
