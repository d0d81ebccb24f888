"""Slow reference implementations that the package's fast paths are tested against.

``generalized_eig`` solves ``K phi = lambda M phi`` for any symmetric K and
symmetric positive definite M, diagonal or not. The package's masses are
diagonal by construction, so it solves its eigenproblems only through
``StructuralModel``'s scaled stiffness stack; this general solver checks
that path bit for bit on the pair that ``test_model.brute_force_assemble``
builds, and the MAC and pairing utilities on general problems
(``test_objective``); ``test_reference`` checks the solver itself.

``membership`` and ``alpha_cut`` evaluate one triangle (a, b, c) at one
point or level, and ``fit_triangle`` fits one triangle to per-level
bounds; the package's array forms (``AlphaCutStack.to_membership``,
``fuzzy.alpha_cuts`` and the fit in ``simulate_measurements``) are checked
against them element by element (``test_fuzzy``, ``test_pipeline``).
"""

import numpy as np

from ffemu.errors import ConvergenceError, FfemuError, ShapeError
from ffemu.model import fix_signs


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


def fit_triangle(center: float, alphas, lows, highs) -> tuple[float, float, float]:
    """Least-squares triangle through the peak ``center`` to one quantity's
    per-level bounds: lo(alpha) = b - (1 - alpha) * s_left, mirrored above."""
    w = 1.0 - np.asarray(alphas, dtype=float)
    ssq = float(w @ w)
    if ssq == 0.0:
        return center, center, center
    s_left = max(0.0, float(w @ (center - np.asarray(lows))) / ssq)
    s_right = max(0.0, float(w @ (np.asarray(highs) - center)) / ssq)
    return center - s_left, center, center + s_right
