"""Mode bookkeeping for small structural models.

The mode-shape sign convention and the mode-correspondence utilities (MAC
and greedy mode pairing) needed to keep track of physical modes while
stiffness parameters vary. The eigensolves themselves are
``StructuralModel``'s.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateVectorError, ShapeError

__all__ = ["pair_modes", "fix_signs"]


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


def mac_matrix(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """MAC of every reference column against every candidate column.

    The modal assurance criterion of two shapes is their squared
    normalized projection, in [0, 1]: invariant under nonzero scaling and
    sign flips of either, 1.0 for parallel shapes and 0.0 for orthogonal
    ones. Accepts one pair of (n, n) matrices or two stacks (..., n, n),
    giving one table per pair.
    """
    ref = np.asarray(reference, dtype=float)
    cand = np.asarray(candidate, dtype=float)
    if ref.shape[-2] != cand.shape[-2]:
        raise ShapeError(f"mode shapes differ in length: {ref.shape[-2]} vs {cand.shape[-2]}")
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


def pair_modes(ref_values, ref_vectors, cand_values, cand_vectors) -> np.ndarray:
    """Match candidate modes to reference modes by greedy best-MAC assignment.

    Each side is its eigenvalues (n,) and its mode shapes (n_dof, n), one
    column per mode. Returns ``perm`` such that candidate mode ``perm[j]``
    corresponds to reference mode ``j``; each candidate mode is used
    exactly once. MAC ties break toward the pair with the closest
    eigenvalues, which keeps the assignment well defined for repeated
    eigenvalues.
    """
    n = len(ref_values)
    if len(cand_values) != n:
        raise ShapeError(f"mode counts differ: {n} vs {len(cand_values)}")
    table = mac_matrix(ref_vectors, cand_vectors)
    if diagonal_dominates(table):
        return np.arange(n)
    gaps = np.abs(np.subtract.outer(ref_values, cand_values))
    order = np.lexsort((gaps.ravel(), -table.ravel()))
    perm = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)
    for flat in order:
        i, j = divmod(int(flat), n)
        if perm[i] < 0 and not used[j]:
            perm[i] = j
            used[j] = True
    return perm
