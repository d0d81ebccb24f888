"""Slow reference implementations that the package's fast paths are tested against.

``generalized_eig`` solves ``K phi = lambda M phi`` for any symmetric K and
symmetric positive definite M, diagonal or not. The package's masses are
diagonal by construction, so it solves its eigenproblems only through
``StructuralModel``'s scaled stiffness stack; this general solver checks
that path bit for bit on the pair that ``brute_force_assemble`` builds
(``test_model``), and the MAC and pairing utilities on general problems
(``test_objective``); ``test_reference`` checks the solver itself.

``level_reference`` solves every eigenvalue-only alpha level exactly, by
Newton on the vertex eigenvalues, so a run's stacks can be held to the
level minimum itself rather than to a tolerance (``test_reference``).

``membership`` and ``alpha_cut`` evaluate one triangle (a, b, c) at one
point or level; the package's array forms (``AlphaCutStack.to_membership``,
``fuzzy.alpha_cuts`` and the measured data's ``cuts_at``) are checked
against them element by element (``test_fuzzy``, ``test_pipeline``).
"""

import numpy as np

from ffemu.errors import ConvergenceError, FfemuError, ShapeError
from ffemu.model import GROUND, fix_signs

LEVEL_RTOL = 1e-12  # relative eigenvalue residual every level_reference vertex reaches
NEWTON_STEPS = 50


class DefiniteMatrixError(FfemuError):
    """A matrix required to be positive definite is not."""


def _as_symmetric(matrix, name: str) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    skew = float(np.abs(a - a.T).max())
    if skew == 0.0:
        return a
    if skew > 1e-12 * (float(np.abs(a).max()) or 1.0):
        raise ShapeError(f"{name} is not symmetric")
    return 0.5 * (a + a.T)


def brute_force_assemble(model, theta):
    # independent oracle: accumulate every element contribution in a dict,
    # the parameter springs (in parameter order) apart from the fixed ones,
    # then add the two sums; K(theta) = sum_d theta_d K_d + K_fixed rounds
    # in that order, so the oracle and the package agree bit for bit
    n = model.n_dof
    fixed, params = {}, {}
    for s in sorted(model.springs, key=lambda s: -1 if s.param_index is None else s.param_index):
        entries = fixed if s.param_index is None else params
        k = s.stiffness if s.param_index is None else theta[s.param_index]
        nodes = [v for v in (s.node_a, s.node_b) if v != GROUND]
        for v in nodes:
            entries[(v, v)] = entries.get((v, v), 0.0) + k
        if len(nodes) == 2:
            a, b = nodes
            entries[(a, b)] = entries.get((a, b), 0.0) - k
            entries[(b, a)] = entries.get((b, a), 0.0) - k
    out = np.zeros((n, n))
    for entries in (fixed, params):
        for (i, j), v in entries.items():
            out[i, j] += v
    return out


def generalized_eig(stiffness, mass) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``K phi = lambda M phi`` for symmetric K, symmetric positive definite M.

    Returns ``(lam, phi)``: ascending eigenvalues (n,) and unit-norm,
    sign-fixed eigenvectors (n, n), column j the mode of ``lam[j]``.

    Raises
    ------
    ShapeError
        Non-square or mismatched matrices.
    DefiniteMatrixError
        M is not positive definite.
    ConvergenceError
        The underlying LAPACK iteration failed.
    """
    k = _as_symmetric(stiffness, "stiffness matrix")
    m = _as_symmetric(mass, "mass matrix")
    if k.shape != m.shape:
        raise ShapeError(f"dimension mismatch: K is {k.shape}, M is {m.shape}")
    diag = np.diag(m)
    if np.count_nonzero(m - np.diag(diag)) == 0:
        # diagonal mass: reduce to the standard problem of M^-1/2 K M^-1/2
        if np.any(diag <= 0.0):
            raise DefiniteMatrixError("mass matrix is not positive definite")
        inv_sqrt = 1.0 / np.sqrt(diag)
        try:
            lam, y = np.linalg.eigh(inv_sqrt[:, None] * k * inv_sqrt[None, :])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
        phi = inv_sqrt[:, None] * y
    else:
        # Cholesky reduction M = L L^T: C = L^-1 K L^-T, C y = lambda y, phi = L^-T y
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise DefiniteMatrixError("mass matrix is not positive definite") from exc
        try:
            lam, y = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, k).T))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"generalized eigensolver did not converge: {exc}") from exc
        phi = np.linalg.solve(chol.T, y)
    phi = phi / np.linalg.norm(phi, axis=0)
    return lam, fix_signs(phi)


def membership(tfn, x: float) -> float:
    """Piecewise-linear membership degree of the triangle (a, b, c) at x; 1 at the peak."""
    a, b, c = (float(v) for v in tfn)
    x = float(x)
    if x == b:
        return 1.0
    if x <= a or x >= c:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    return (c - x) / (c - b)


def alpha_cut(tfn, alpha: float) -> tuple[float, float]:
    """Bounds (lo, hi) of {x : membership(x) >= alpha} of one triangle (a, b, c)."""
    a, b, c = (float(v) for v in tfn)
    alpha = float(alpha)
    if alpha == 1.0:
        return b, b
    if alpha == 0.0:
        return a, c
    lo = a + alpha * (b - a)
    hi = c - alpha * (c - b)
    if lo > hi:  # 1-ulp rounding near a degenerate peak
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


def level_reference(model, eigenvalue_tfns, levels, theta_min, theta_max, start=None):
    """Exact (L, 2, d) lower and upper vertices of eigenvalue-only alpha levels.

    Level 1 solves lambda(theta) = the peaks of ``eigenvalue_tfns`` (n, 3);
    level k solves lambda(lower) = eig_lo and lambda(upper) = eig_hi, its
    cut of each triangle by ``alpha_cut``, lambda the ascending eigenvalues
    of K(theta) phi = lambda M phi. Each vertex is its own Newton iteration
    (Friedland, Nocedal & Overton 1987, method I): a step solves
    J step = target - lambda with the derivative dlambda_j / dtheta_i =
    y_j^T U~_i y_j, y_j the unit eigenvectors of M^-1/2 K M^-1/2 and U~_i =
    M^-1/2 U_i M^-1/2, U_i = dK/dtheta_i taken from ``brute_force_assemble``.
    Each step is clipped into the level's nesting box: [theta_min,
    theta_max] at level 1, then the lower vertex in [theta_min, previous
    lower] and the upper one in [previous upper, theta_max]. Level k starts
    from level k - 1's vertices, level 1 from ``start`` (the box centre when
    None). Every vertex must reach max_j |lambda_j - target_j| / target_j <=
    ``LEVEL_RTOL`` within ``NEWTON_STEPS`` steps, else ``ConvergenceError``
    naming it.

    Where it is no oracle:
    - d != n: J is not square, so a solution is not isolated (d > n) or
      need not exist (d < n); it raises ``ShapeError``.
    - inconsistent data, where no point of the nesting box matches the
      cut (noisy or model-mismatched eigenvalues, or a cut beyond the box):
      a run's level then ends at a non-zero least-squares minimum, which
      Newton does not seek; it raises ``ConvergenceError``.
    - several exact solutions (a symmetric structure, say): it follows the
      branch its start leads to, which need not be the one a run finds.
    """
    d, n = model.parameter_count, model.n_dof
    if d != n:
        raise ShapeError(f"level_reference needs one parameter per mode, got {d} parameters and {n} modes")
    scale = 1.0 / np.sqrt(model.masses)
    fixed = brute_force_assemble(model, np.zeros(d))
    parts = np.stack([brute_force_assemble(model, e) - fixed for e in np.eye(d)])
    scaled_parts = scale[None, :, None] * parts * scale[None, None, :]

    def vertex(theta, target, lo, hi, name):
        for _ in range(NEWTON_STEPS + 1):
            lam, y = np.linalg.eigh(scale[:, None] * brute_force_assemble(model, theta) * scale[None, :])
            if np.max(np.abs(lam - target) / target) <= LEVEL_RTOL:
                return theta
            jacobian = np.einsum("kj,ikl,lj->ji", y, scaled_parts, y)
            theta = np.clip(theta + np.linalg.solve(jacobian, target - lam), lo, hi)
        raise ConvergenceError(f"{name} did not reach relative residual {LEVEL_RTOL} in {NEWTON_STEPS} Newton steps")

    theta_min, theta_max = np.asarray(theta_min, dtype=float), np.asarray(theta_max, dtype=float)
    lower = upper = 0.5 * (theta_min + theta_max) if start is None else np.asarray(start, dtype=float)
    out = np.empty((len(levels), 2, d))
    for k, alpha in enumerate(levels):
        eig_lo, eig_hi = np.array([alpha_cut(tfn, alpha) for tfn in eigenvalue_tfns]).T
        if k == 0:
            lower = upper = vertex(lower, eig_lo, theta_min, theta_max, "level 1")
        else:
            lower = vertex(lower, eig_lo, theta_min, lower, f"level {k + 1} lower vertex")
            upper = vertex(upper, eig_hi, upper, theta_max, f"level {k + 1} upper vertex")
        out[k] = lower, upper
    return out
