"""Dense symmetric linear algebra for small structural models.

Generalized eigensolutions of ``K phi = lambda M phi`` plus the
mode-correspondence utilities (MAC and greedy mode pairing) needed to keep
track of physical modes while stiffness parameters vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DefiniteMatrixError,
    DegenerateVectorError,
    ShapeError,
)

__all__ = ["ModalSolution", "generalized_eig", "mac", "pair_modes", "fix_signs"]


@dataclass
class ModalSolution:
    """Eigenpairs of a generalized symmetric eigenvalue problem.

    Attributes
    ----------
    eigenvalues : ndarray, shape (n,)
        In rad^2/s^2, ascending as produced by the solver. Pairing
        utilities may reorder a solution so that index j tracks the same
        physical mode across parameter changes.
    eigenvectors : ndarray, shape (n, n)
        Column j is the mode shape of ``eigenvalues[j]``, normalized to
        unit Euclidean norm and signed so its largest-magnitude component
        is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]

    def frequencies_hz(self) -> np.ndarray:
        """Natural frequencies f = sqrt(lambda) / (2 pi)."""
        return np.sqrt(np.maximum(self.eigenvalues, 0.0)) / (2.0 * np.pi)

    def reordered(self, permutation) -> "ModalSolution":
        """New solution with modes permuted (``permutation[j]`` becomes mode j)."""
        perm = np.asarray(permutation, dtype=int)
        return ModalSolution(self.eigenvalues[perm].copy(), self.eigenvectors[:, perm].copy())


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


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each largest-|component| entry is positive.

    Accepts one (n, n) matrix or a stack (..., n, n), flipping the columns
    of each matrix. Ties break toward the lowest index (argmax convention);
    this keeps eigenvector output reproducible across runs and platforms.
    """
    out = np.asarray(vectors, dtype=float)
    idx = np.argmax(np.abs(out), axis=-2)
    peak = np.take_along_axis(out, idx[..., None, :], axis=-2)
    return np.where(peak < 0.0, -out, out)


def generalized_eig(stiffness, mass) -> ModalSolution:
    """Solve ``K phi = lambda M phi`` for symmetric K, symmetric positive definite M.

    Returns ascending eigenvalues with unit-norm, sign-fixed eigenvectors.

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
    return ModalSolution(lam, fix_signs(phi))


def mac(phi_a, phi_b) -> float:
    """Modal assurance criterion: squared normalized projection, in [0, 1].

    Invariant under nonzero scaling and sign flips of either argument;
    1.0 means parallel shapes, 0.0 orthogonal ones.
    """
    a = np.asarray(phi_a, dtype=float).ravel()
    b = np.asarray(phi_b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"mode shapes differ in length: {a.shape[0]} vs {b.shape[0]}")
    aa = float(a @ a)
    bb = float(b @ b)
    if aa == 0.0 or bb == 0.0:
        raise DegenerateVectorError("MAC is undefined for a zero vector")
    return min(1.0, float(a @ b) ** 2 / (aa * bb))


def mac_matrix(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """MAC of every reference column against every candidate column.

    Accepts one pair of (n, n) matrices or two stacks (..., n, n), giving
    one table per pair.
    """
    ref = np.asarray(reference, dtype=float)
    cand = np.asarray(candidate, dtype=float)
    cross = np.swapaxes(ref, -1, -2) @ cand
    norms_r = np.sum(ref * ref, axis=-2)
    norms_c = np.sum(cand * cand, axis=-2)
    if np.any(norms_r == 0.0) or np.any(norms_c == 0.0):
        raise DegenerateVectorError("MAC is undefined for a zero vector")
    return np.minimum(1.0, cross**2 / (norms_r[..., :, None] * norms_c[..., None, :]))


def diagonal_dominates(table: np.ndarray) -> np.ndarray:
    """Whether each MAC table (or each of a stack) peaks on the diagonal in
    every row and every column; greedy pairing then keeps the identity."""
    identity = np.arange(table.shape[-1])
    return np.all(np.argmax(table, axis=-1) == identity, axis=-1) & np.all(
        np.argmax(table, axis=-2) == identity, axis=-1
    )


def pair_modes(reference: ModalSolution, candidate: ModalSolution) -> np.ndarray:
    """Match candidate modes to reference modes by greedy best-MAC assignment.

    Returns ``perm`` such that candidate mode ``perm[j]`` corresponds to
    reference mode ``j``; each candidate mode is used exactly once. MAC
    ties break toward the pair with the closest eigenvalues, which keeps
    the assignment well defined for repeated eigenvalues.
    """
    n = reference.n_modes
    if candidate.n_modes != n:
        raise ShapeError(f"mode counts differ: {n} vs {candidate.n_modes}")
    table = mac_matrix(reference.eigenvectors, candidate.eigenvectors)
    if diagonal_dominates(table):
        return np.arange(n)
    gaps = np.abs(reference.eigenvalues[:, None] - candidate.eigenvalues[None, :])
    order = np.lexsort((gaps.ravel(), -table.ravel()))
    perm = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)
    for flat in order:
        i, j = divmod(int(flat), n)
        if perm[i] < 0 and not used[j]:
            perm[i] = j
            used[j] = True
    return perm
