"""Random-walk Metropolis-Hastings baseline for the updating parameters.

The likelihood is Gaussian on relative eigenvalue residuals against crisp
(center) measured eigenvalues, with a uniform box prior. This gives the
probabilistic comparison column (posterior means and coefficients of
variation) next to the fuzzy interval results. The sampler's settings,
``McmcConfig``, are defined in ``ffemu.pipeline``, next to the
run-configuration parser that builds them, and re-exported here; so only
the ``bayes`` subcommand imports this module.

The chain is the plain sequential random walk, but it is evaluated in
prefetch windows (Brockwell 2006, "Parallel Markov chain Monte Carlo
simulation by pre-fetching"). A step's proposal increment and uniform draw
do not depend on the accept/reject decisions, so they are all drawn up
front, from two child streams of ``SeedSequence(rng_seed).spawn(2)``: the
first gives the n standard-normal increment rows, ``standard_normal((n, d))``
scaled by ``proposal_sd``, and the second the n uniforms, ``random(n)``.
Step i takes the i-th row z_i and the i-th uniform u_i, so a shorter chain
with the same seed is a prefix of a longer one.

Each window follows one predicted path (predictive prefetching, Angelino
et al. 2014, "Accelerating MCMC via parallel predictive prefetching"). From
the state theta at step i it predicts the next a decisions m_0..m_a-1 (1
for accept, 0 for reject), forms the states the chain passes through if
they all go as predicted,

    s_0 = theta,   s_k+1 = s_k + m_k z_i+k,

and solves the a proposals s_k + z_i+k in one stacked eigensolve (the
likelihood needs eigenvalues only, so that solve is
``StructuralModel.eigenvalues_batch``, which skips the mode shapes). The walk
then decides steps in order until the first decision that differs from its
prediction, which is still decided and consumed, or until all a are
decided; the next window starts from the state the walk lands on.

The predictions come from a Gaussian surrogate of the posterior,
-1/2 (x - mu)^T P (x - mu): step k is predicted accepted iff
log u_k < the surrogate's change from s_k to s_k + z_k. Along the predicted
path that change includes the cross terms -z_j^T P z_k of every earlier
predicted accept j: the changes are formed along the path on which every
step goes the majority way (below), then corrected by +-z_j^T P z_k for
each step j predicted the other way, from one (a, a) product of that
window's increments only. Each window's solved rows and their exact log
posteriors go into a ring of the ``FIT_ROWS`` most recent; the least-squares
quadratic through its finite entries gives P (minus its Hessian) and mu (its
maximiser), first after 256 steps, then each time the chain's length
doubles. Before the first fit, when a fit fails (``_quadratic_fit``), and
when the surrogate's predictions have missed more than
1 / ``SURROGATE_WINDOW_COST`` times as often as the majority's (accept iff
the running acceptance rate is at least 1/2) since the last fit, the window
predicts the majority way for every step instead: the surrogate must save
more windows than its own work costs. While the majority leads, the
surrogate is checked on every ``CHECK_EVERY``-th window; both miss counts
take only the steps of checked windows.

The path length a comes from h, the running share of decided steps whose
prediction held (counting one held and one missed prediction before the
first step, so h is 0.5 at the start). If each prediction holds with
probability h, a window decides S(a) = (1 - h^a) / (1 - h) steps on average
and costs ``WINDOW_COST`` + a solved rows; a is the length, at most
``PATH_CAP``, that minimises cost / S at h rounded to a multiple of 1/32.

The chain equals the sequential definition bit for bit, whatever the
predictions: they decide only which states are solved ahead, never which
states get a decision or how they are formed. The path is a running sum,
in place in one buffer, over [theta, m_0 z_i, m_1 z_i+1, ...]. A predicted
accept adds 1.0 z = z, exactly the addition the sequential chain makes on
an accept; a predicted reject adds 0.0 z = +-0.0, and adding a zero leaves
the (positive, in-box) state's bits unchanged, as a sequential reject
does. So each row on the path that the walk reaches is the sequential
chain's proposal bit for bit, each row's log posterior does not depend on
the other rows of its batch (every step from buffer to log posterior is
elementwise or a per-matrix eigensolve), and every decision compares the
same numbers. The rows are solved as they stand when all are inside the
prior box; rows outside it are not solved. Rows the walk never reaches are
solved and feed only the fit; if a batch fails to converge, the window is
re-solved one row at a time in walk order, so an error surfaces only for a
state the sequential chain would also have solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DiagnosticsError, DomainError, ShapeError
from .model import StructuralModel
from .pipeline import McmcConfig

__all__ = [
    "McmcConfig",
    "Chain",
    "ChainSummary",
    "log_posterior_batch",
    "mh_sample",
    "summarize",
]

# a prefetch window's fixed cost in solved rows, prediction included: timed
# inside bundled 40,000-step walks (proposal fractions 0.003-0.1) on one
# pinned CPU of a shared 2-CPU machine (Python 3.11, numpy 2.4), a window's
# solve call and walk cost 60-90 us, 95-125 us when it follows the
# surrogate, and a solved 5x5 row 3-4 us; over 90% of the bundled run's
# windows follow the surrogate
WINDOW_COST = 30
PATH_CAP = 48  # longest predicted path
FIRST_FIT = 256  # steps decided before the surrogate is first fitted
FIT_ROWS = 1024  # the surrogate is fitted to the log posteriors of the most recent solved rows
FIT_CHUNK = 128  # rows per term of the fit's normal equations
CHECK_EVERY = 4  # while the majority leads, one window in this many checks the surrogate
# a window that follows the surrogate costs about 1.5 times one that does not
# (see WINDOW_COST), and windows end at missed predictions, so the surrogate
# is followed only while it misses at most 1 / 1.5 as often as the majority
SURROGATE_WINDOW_COST = 1.5
CSV_CHUNK = 512  # chain.csv rows formatted per write


@dataclass
class Chain:
    """Post-burn-in samples (rows) plus the whole-run acceptance rate.

    ``windows`` counts the prefetch windows of the walk, ``solved_rows``
    the rows it passed to ``eigenvalues_batch``, the start state and any
    one-row re-solves included, and ``prediction_rate`` is the share of
    steps whose decision matched its prediction; all are 0 for a chain not
    built by ``mh_sample``.
    """

    samples: np.ndarray
    acceptance_rate: float
    windows: int = 0
    solved_rows: int = 0
    prediction_rate: float = 0.0


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
    return _log_posterior_rows(th, config.in_box(th), measured_eigenvalues, model, config)


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


def _path_lengths() -> list[int]:
    """Predicted-path length for each running hold rate g / 32, g = 0..32.

    The length a, 1..PATH_CAP, minimises (WINDOW_COST + a) / S(a), with
    S(a) = 1 + h + ... + h^(a-1) the steps a window decides on average
    when each prediction holds with probability h. S is summed as powers,
    so h = 0 and h = 1 need no special case.
    """
    h = np.linspace(0.0, 1.0, 33)[:, None]
    steps = (h ** np.arange(PATH_CAP)).cumsum(axis=1)
    return (((WINDOW_COST + np.arange(1, PATH_CAP + 1)) / steps).argmin(axis=1) + 1).tolist()


def _quadratic_fit(points, values) -> tuple[np.ndarray, np.ndarray] | None:
    """Mean and precision of the Gaussian whose log density is the least-squares
    quadratic c + g^T u + 1/2 u^T H u through the finite ``values`` at the rows
    of ``points``, u = (x - centre) / scale: the precision is -H, the mean the
    maximiser. None for too few finite rows, a constant coordinate, singular
    normal equations, or -H not positive definite beyond the values' rounding.

    The normal equations are summed ``FIT_CHUNK`` rows at a time by ``einsum``
    and solved by ``eigh``, so no temporary grows with the row count: ``lstsq``,
    a BLAS product over all rows or Cholesky raise the ``bayes`` run's peak memory.
    """
    finite = np.isfinite(values)
    m, d = np.count_nonzero(finite), points.shape[1]
    pairs = tuple(np.array([(a, b) for a in range(d) for b in range(a, d)]).T)  # np.triu_indices pages in more code
    p = 1 + d + pairs[0].size  # coefficients: 1, u, u_i u_j for i <= j
    if m <= p:
        return None
    centre = np.add.reduce(points, axis=0, where=finite[:, None]) / m
    gram, moments = np.zeros((p, p)), np.zeros(p)
    for start in range(0, len(values), FIT_CHUNK):
        keep = finite[start : start + FIT_CHUNK]
        u = points[start : start + FIT_CHUNK][keep] - centre
        basis = np.hstack([np.ones((len(u), 1)), u, u[:, pairs[0]] * u[:, pairs[1]]])
        gram += np.einsum("ki,kj->ij", basis, basis)
        moments += np.einsum("ki,k->i", basis, values[start : start + FIT_CHUNK][keep])
    scale = np.sqrt(gram.diagonal()[1 : 1 + d] / m)
    inverse = np.divide(1.0, scale, out=np.zeros(d), where=scale > 0.0)  # a constant coordinate: singular
    unit = np.concatenate([[1.0], inverse, inverse[pairs[0]] * inverse[pairs[1]]])
    gram *= np.outer(unit, unit)  # the sums in u = (x - centre) / scale
    spread, axes = np.linalg.eigh(gram)
    if not spread[0] > p * np.finfo(float).eps * spread[-1]:
        return None
    coefficients = np.dot(axes, np.dot(moments * unit, axes) / spread)
    precision = np.zeros((d, d))
    precision[pairs] = -coefficients[1 + d :]
    precision += precision.T  # u_i^2 carries H_ii / 2, u_i u_j (i < j) carries H_ij
    curvature, axes = np.linalg.eigh(precision)
    if not curvature[0] > math.sqrt(np.finfo(float).eps) * np.abs(values[finite]).max():
        return None
    peak = np.dot(axes, np.dot(coefficients[1 : 1 + d], axes) / curvature)
    return centre + scale * peak, precision / np.outer(scale, scale)


def _surrogate_change(states, z, mean, precision) -> tuple[np.ndarray, np.ndarray]:
    """The change of the surrogate -1/2 (x - mean)^T precision (x - mean)
    from each state to its proposal, the state plus its row of ``z``, which
    is (mean - state - z / 2)^T precision z; and ``z @ precision``."""
    w = np.dot(z, precision)  # np.dot: less call overhead than @ on these small arrays
    reach = mean - states
    reach -= 0.5 * z
    return np.einsum("ij,ij->i", reach, w), w


def _surrogate_guess(log_u, delta, z, w, majority: bool) -> list[bool]:
    """The surrogate's prediction for each step of a window, along the path
    on which every step goes as it predicts: accept step k iff log u_k is
    below the surrogate's change from the state before step k to its
    proposal.

    ``delta`` holds those changes along the path on which every step goes
    the ``majority`` way (it is corrected in place), and ``w`` is
    ``z @ precision``. A step predicted
    the other way moves every later state by -z_k (or +z_k), which changes
    each later step j's change by +z_k^T precision z_j (or its negative);
    the (a, a) product of those terms is formed only when some step goes
    the other way.
    """
    guess = []
    ahead = delta.tolist()
    gram = None
    for k, u in enumerate(log_u):
        accept = u < ahead[k]
        guess.append(accept)
        if accept != majority:
            if gram is None:
                gram = np.dot(w, z.T)
            if accept:
                delta -= gram[k]
            else:
                delta += gram[k]
            ahead = delta.tolist()
    return guess


def mh_sample(config: McmcConfig, model: StructuralModel, measured_eigenvalues) -> Chain:
    """Random-walk Metropolis-Hastings with Gaussian proposals.

    Deterministic for a fixed seed, and equal bit for bit to the sequential
    chain that, at each step, draws d standard normals from the first child
    stream of ``SeedSequence(rng_seed).spawn(2)`` (scaled by ``proposal_sd``)
    and one uniform from the second (see the module docstring for the
    windowed walk). Raises ``DiagnosticsError`` when the start state's log
    posterior is not finite (its squared residuals overflow at a tiny
    ``likelihood_sd``), or when nothing was ever accepted, which almost
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
    with np.errstate(over="ignore"):  # a squared residual that overflows gives a log posterior of -inf
        lp = log_posterior_batch(theta[None, :], measured_eigenvalues, model, config).item()
        if not math.isfinite(lp):
            raise DiagnosticsError(
                f"the log posterior at the chain start is {lp}; likelihood_sd = "
                f"{config.likelihood_sd!r} is too small for its eigenvalue residuals"
            )
        return _walk(config, model, measured_eigenvalues, theta, lp)


def _walk(config: McmcConfig, model, measured_eigenvalues, theta, lp) -> Chain:
    """The windowed walk of ``mh_sample`` from ``theta``, whose log posterior is ``lp``."""
    n, d = config.n_samples, theta.size
    normals, uniforms = map(np.random.default_rng, np.random.SeedSequence(config.rng_seed).spawn(2))
    steps = normals.standard_normal((n, d))
    steps *= config.proposal_sd
    log_u = uniforms.random(n)
    np.log(log_u, out=log_u)

    lengths = _path_lengths()
    grid = len(lengths) - 1
    # a window reads the increments of steps i.. before it writes the states
    # of steps i..i+k and the next window starts at i+k+1, so the trace
    # overwrites the increments in place
    trace = steps
    # the predicted path: row 0 is the current state, row k + 1 the state
    # after step k; proposal k is row k plus step k's increment
    path = np.empty((PATH_CAP + 1, d))
    proposals = np.empty((PATH_CAP, d))
    path[0] = theta
    # the fit's ring: an unwritten slot or a row outside the box holds -inf, which the fit drops
    ring_rows, ring_lps = np.zeros((FIT_ROWS, d)), np.full(FIT_ROWS, -np.inf)
    accepted = windows = missed = seen = 0
    solved = 1  # the start state
    fit, next_fit = None, FIRST_FIT
    surrogate_missed = majority_missed = 0  # predictions of each kind that missed since the last fit
    i = 0
    while i < n:
        if i >= next_fit:
            fit, next_fit = _quadratic_fit(ring_rows, ring_lps), 2 * i
            surrogate_missed = majority_missed = 0
        # share of held predictions, counting one held and one missed before the
        # first step (so 0.5 at the start), rounded to a multiple of 1 / grid
        a = min(lengths[(2 * grid * (i - missed + 1) + i + 2) // (2 * (i + 2))], n - i)
        z, u = steps[i : i + a], log_u[i : i + a]
        u_list = u.tolist()
        majority = 2 * accepted >= i
        follow_surrogate = fit is not None and SURROGATE_WINDOW_COST * surrogate_missed <= majority_missed
        checking = fit is not None and (follow_surrogate or windows % CHECK_EVERY == 0)
        np.multiply(z, float(majority), out=path[1 : a + 1])
        path[: a + 1].cumsum(axis=0, out=path[: a + 1])
        if checking:  # the surrogate's changes along the majority path
            delta, w = _surrogate_change(path[:a], z, *fit)
        guess = [majority] * a
        if follow_surrogate:
            guess = _surrogate_guess(u_list, delta, z, w, majority)
            if (not majority) in guess:
                np.multiply(z, np.array(guess)[:, None], out=path[1 : a + 1])
                path[: a + 1].cumsum(axis=0, out=path[: a + 1])
        rows = np.add(path[:a], z, out=proposals[:a])
        inside = config.in_box(rows)
        solved += int(np.count_nonzero(inside))
        windows += 1
        try:
            lps = _log_posterior_rows(rows, inside, measured_eigenvalues, model, config)
        except ConvergenceError:  # re-solve only the rows the walk reaches
            def row_lp(r, rows=rows, inside=inside):
                nonlocal solved
                solved += int(inside[r])
                one = slice(r, r + 1)
                return _log_posterior_rows(rows[one], inside[one], measured_eigenvalues, model, config).item()
        else:
            slots = np.arange(seen, seen + a) % FIT_ROWS
            ring_rows[slots], ring_lps[slots] = rows, lps
            seen += a
            row_lp = lps.tolist().__getitem__
        # decide steps until the first that breaks its prediction, which is consumed too
        for k, (u_k, guess_k) in enumerate(zip(u_list, guess)):
            lp_next = row_lp(k)
            accept = u_k < lp_next - lp
            if accept:
                lp = lp_next
            if accept != guess_k:
                missed += 1
                break
        window_accepts = sum(guess[:k]) + accept
        accepted += window_accepts
        if checking:
            majority_missed += k + 1 - window_accepts if majority else window_accepts
            if follow_surrogate:
                surrogate_missed += accept != guess_k
            else:  # the walk followed the majority path, so the surrogate's changes along it apply
                hunches = int(np.count_nonzero(u[:k] < delta[:k]))
                surrogate_missed += (k - hunches if majority else hunches) + ((u_k < delta.item(k)) != accept)
        # the states after steps i..i+k: the predicted path's, the last one as decided
        trace[i : i + k] = path[1 : k + 1]
        path[0] = rows[k] if accept else path[k]
        trace[i + k] = path[0]
        i += k + 1
    if accepted == 0:
        raise DiagnosticsError(
            "no proposal was ever accepted; decrease proposal_sd (or check the likelihood)"
        )
    return Chain(
        samples=trace[config.burn_in :],
        acceptance_rate=accepted / n,
        windows=windows,
        solved_rows=solved,
        prediction_rate=(n - missed) / n,
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
