"""Interval modal objective for one alpha level.

A stiffness box is one row, as the optimizers search it: a point (d,) at
alpha = 1, or [lower | upper] (2d,) below. Its one or two vertices are
solved as consecutive rows of one stacked eigensolve, and the weighted
squared errors between predicted and measured eigenvalue/eigenvector
bounds are summed into a single scalar objective. A level's measured
bounds are the cuts of ``MeasuredFuzzyModalData``'s eigenvalue and shape
triangles at its alpha (``cuts_at``), and the weights are two scalars:
one for every eigenvalue error, one for every shape error.

Eigenvalues are sorted ascending at each vertex. Every unit stiffness
matrix is positive semidefinite, so each sorted eigenvalue is monotone in
each stiffness (Courant-Fischer): the j-th sorted eigenvalues at the lower
and upper vertex are exactly the bounds of the j-th eigenvalue over the
box, the interval a measured eigenvalue cut describes. Mode shapes carry
no order, so the vertex shapes are MAC-paired to the box centre's shapes
instead. The mode bookkeeping lives here too: ``mac_matrix`` (the modal
assurance criterion of every pair of shapes), ``diagonal_dominates`` and
the greedy ``pair_modes`` fallback, whose one caller is ``vertex_modes``.

``residual_batch`` is the one residual path: it evaluates a whole
population of boxes with one stacked eigensolve, and a box's objective is
the squared norm of its row. The M-H likelihood is its alpha = 1 level
at the weights (0.5 / sd^2, 0) (``ffemu.bayes``).
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .errors import (
    ConfigurationError, DegenerateVectorError, DomainError, ShapeError, check, check_keys, check_value, in_file
)
from .fuzzy import alpha_cuts, triangles
from .model import StructuralModel, read_json, write_json

__all__ = [
    "MeasuredFuzzyModalData",
    "unit_columns",
    "residual_batch",
    "vertex_modes",
    "pair_modes",
    "load_measured",
    "save_measured",
]

_TWO_PI = 2.0 * math.pi


def hz_to_eigenvalue(f):
    """Frequencies in Hz to eigenvalues in rad^2/s^2, each squared as ``float ** 2`` rounds it."""
    return np.float_power(_TWO_PI * np.asarray(f, dtype=float), 2)


def eigenvalue_to_hz(lam):
    """Eigenvalues (scalar or array) in rad^2/s^2 to Hz; a negative one raises FloatingPointError."""
    with np.errstate(invalid="raise"):
        return np.sqrt(lam) / _TWO_PI


def unit_columns(mat: np.ndarray) -> np.ndarray:
    """``mat`` (..., n_dof, n) with each column scaled to unit length; a zero column stays zero."""
    norms = np.linalg.norm(mat, axis=-2)[..., None, :]
    return mat / np.where(norms == 0.0, 1.0, norms)


def _shape_errors(measured_cols: np.ndarray, predicted_cols: np.ndarray) -> np.ndarray:
    """Column-wise least-squares-scaled residual norms (one per mode).

    Each predicted shape phi is first scaled by the modal scale factor
    beta = (phi_m . phi) / (phi . phi) that minimizes |phi_m - beta phi|,
    so the result is invariant to the predicted shapes' scale and sign.
    ``predicted_cols`` is one (n, n) matrix or a stack (m, n, n); the
    result has shape (n,) or (m, n) to match.
    """
    denom = np.einsum("...ij,...ij->...j", predicted_cols, predicted_cols)
    if np.any(denom == 0.0):
        raise DegenerateVectorError("predicted mode shape is a zero vector")
    beta = np.einsum("ij,...ij->...j", measured_cols, predicted_cols) / denom
    resid = measured_cols - predicted_cols * beta[..., None, :]
    return np.sqrt(
        np.einsum("...ij,...ij->...j", resid, resid)
        / np.einsum("ij,ij->j", measured_cols, measured_cols)
    )


def _vertices(model: StructuralModel, boxes) -> np.ndarray:
    """The (m, v, d) vertices of m boxes: v = 1 for (m, d) points, v = 2 for
    (m, 2d) rows [lower | upper]."""
    boxes = np.asarray(boxes, dtype=float)
    d = model.parameter_count
    if boxes.ndim != 2 or boxes.shape[1] not in (d, 2 * d):
        raise ShapeError(f"boxes have shape {boxes.shape}, expected (m, {d}) points or (m, {2 * d}) rows")
    vertices = boxes.reshape(-1, boxes.shape[1] // d, d)
    if (vertices[:, 0] > vertices[:, -1]).any():
        raise DomainError("interval parameters crossed: lower > upper")
    return vertices


def residual_batch(model: StructuralModel, boxes, cuts, weights) -> np.ndarray:
    """Weighted residuals of m candidate boxes, one row of length 4n each.

    ``boxes`` are the optimizer's rows: (m, d) points or (m, 2d) rows
    [lower | upper]. ``cuts`` is the tuple ``(eig_lo, eig_hi, vec_lo,
    vec_hi)`` of one level's measured bounds: two (n,) eigenvalue arrays
    and two (n_dof, n) arrays of unit mode shapes. ``weights`` is the pair
    (eigenvalue, eigenvector). Row r is ``[e_lo, e_hi]`` for box r, each
    block n eigenvalue errors scaled by the square root of the eigenvalue
    weight, then n shape errors scaled by that of the eigenvector weight.
    Its squared norm is that box's objective, so the optimizers and the
    least-squares polish see one interval problem. The lower bounds are
    predicted at a box's first vertex and the upper ones at its last (a
    point's one vertex is both), from the sorted eigenvalues of one
    ``eigenvalues_batch`` call. When the eigenvector weight is non-zero,
    one ``vertex_modes`` call solves them instead, and its paired vertex
    shapes give the shape errors. Its ``eigh`` eigenvalues agree with
    ``eigvalsh``'s to a relative 1e-12, not bit for bit, so rows at
    eigenvector weight 0 and above 0 agree to that bound.

    Each weighted block is written in place into one zeroed (m, 4n)
    buffer; the shape columns stay zero when the eigenvector weight is 0.
    """
    eig_lo, eig_hi, vec_lo, vec_hi = cuts
    n = eig_lo.size
    if model.n_dof != n:
        raise ShapeError("predicted and measured mode counts differ")
    root_eig, root_vec = map(math.sqrt, weights)
    if root_vec:
        lam, vec = vertex_modes(model, boxes)
    else:
        vertices = _vertices(model, boxes)
        lam = model.eigenvalues_batch(vertices.reshape(-1, vertices.shape[-1])).reshape(vertices.shape[:2] + (n,))
    out = np.zeros((len(lam), 4 * n))
    np.multiply(root_eig, (eig_lo - lam[:, 0]) / eig_lo, out=out[:, :n])
    np.multiply(root_eig, (lam[:, -1] - eig_hi) / eig_hi, out=out[:, 2 * n : 3 * n])
    if root_vec:
        np.multiply(root_vec, _shape_errors(vec_lo, vec[:, 0]), out=out[:, n : 2 * n])
        np.multiply(root_vec, _shape_errors(vec_hi, vec[:, -1]), out=out[:, 3 * n :])
    return out


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


def pair_modes(table, ref_values, cand_values) -> np.ndarray:
    """Match candidate modes to reference modes by greedy best-MAC assignment.

    ``table`` is the (n, n) ``mac_matrix`` of the reference shapes against
    the candidate shapes, and ``ref_values`` and ``cand_values`` the two
    sides' (n,) eigenvalues. Returns ``perm`` such that candidate mode
    ``perm[j]`` corresponds to reference mode ``j``; each candidate mode is
    used exactly once. MAC ties break toward the pair with the closest
    eigenvalues, which keeps the assignment well defined for repeated
    eigenvalues.
    """
    n = len(ref_values)
    if np.shape(table) != (n, n) or len(cand_values) != n:
        raise ShapeError(f"mode counts differ: {n} vs {len(cand_values)}, with a MAC table of {np.shape(table)}")
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


def vertex_modes(model: StructuralModel, boxes) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (m, v, n) and mode shapes (m, v, n, n) at the v vertices of m boxes.

    ``boxes`` are (m, d) points (v = 1) or (m, 2d) rows [lower | upper]
    (v = 2). The eigenvalues are sorted ascending. The shapes are tracked
    to the box centre's, the mean of its vertices, by MAC, so column j is
    one physical mode at every vertex, and are sign-aligned with the centre
    shapes. Each box's centre and vertices are solved as v + 1 consecutive
    rows of one ``modal_batch`` stack; the greedy ``pair_modes`` runs only
    on vertices whose MAC diagonal does not dominate, with their MAC table.
    """
    vertices = _vertices(model, boxes)
    rows = np.concatenate([vertices.mean(axis=1, keepdims=True), vertices], axis=1)
    lam, vec = (a.reshape(rows.shape[:2] + a.shape[1:]) for a in model.modal_batch(rows.reshape(-1, rows.shape[-1])))
    centre, shapes = vec[:, :1], vec[:, 1:]
    tables = mac_matrix(centre, shapes)
    for k, j in np.argwhere(~diagonal_dominates(tables)):
        perm = pair_modes(tables[k, j], lam[k, 0], lam[k, j + 1])
        shapes[k, j] = shapes[k, j][:, perm]
    flip = np.einsum("...ij,...ij->...j", shapes, centre) < 0.0
    return lam[:, 1:], np.where(flip[..., None, :], -shapes, shapes)


class MeasuredFuzzyModalData:
    """Fuzzy measured modal data as two triangle arrays, last axis (a, b, c):
    ``eigenvalue_tfns`` (n, 3) in rad^2/s^2 and ``shape_tfns`` (n_dof, n, 3),
    column j mode j's shape. A crisp shape is the triangle (u, u, u) of its
    unit shape u, and ``mode_shapes`` is the peak; ``cuts_at`` scales each
    shape cut to unit length.

    Each rule of the data is stated here once, under the measured file's
    keys, so a bad value reads the same from Python as from a file: every
    ``'modes[j].eigenvalue'`` triangle is ordered and above 0; every shape
    triangle is ordered and no lower (a), peak (b) or upper (c) vertex
    vector is zero (``'modes[j].mode_shape'`` for a crisp shape,
    ``'modes[j].mode_shape_tfns'`` for a fuzzy one); and modes ascend, each
    eigenvalue cut's centre at or above the one before it at every level,
    checked at alpha 1 and 0 as a centre is affine in alpha.
    """

    def __init__(self, eigenvalue_tfns, shape_tfns):
        self.eigenvalue_tfns = np.asarray(eigenvalue_tfns, dtype=float)
        self.shape_tfns = np.asarray(shape_tfns, dtype=float)
        if self.eigenvalue_tfns.shape[1:] != (3,) or self.shape_tfns.shape[1:] != (self.n_modes, 3):
            raise ShapeError("need one eigenvalue triangle per mode and one shape triangle per component and mode")
        self.mode_shapes = self.shape_tfns[..., 1]
        for j, shape in enumerate(np.swapaxes(self.shape_tfns, 0, 1)):
            check(self.eigenvalue_tfns[j], f"modes[{j}].eigenvalue", shape=(3,), above=0)
            crisp = (shape == shape[:, 1:2]).all()
            key = f"modes[{j}].mode_shape" if crisp else f"modes[{j}].mode_shape_tfns"
            triangles(self.eigenvalue_tfns[j], f"modes[{j}].eigenvalue")
            triangles(shape, key)
            norms = np.linalg.norm(shape, axis=0)  # the a, b and c vertex vectors'
            if crisp and not norms[1]:  # an empty shape too
                raise ConfigurationError(f"'{key}' must not be a zero vector, got {reprlib.repr(shape[:, 1].tolist())}")
            if not norms.all():
                vertex = ("lower (a)", "peak (b)", "upper (c)")[int(norms.argmin())]
                raise ConfigurationError(f"'{key}' {vertex} vertex vector must not be zero")
        a, b, c = self.eigenvalue_tfns.T
        if (k := np.flatnonzero((np.diff(b) < 0.0) | (np.diff(a + c) < 0.0))).size:
            raise ConfigurationError(f"modes out of ascending order: modes[{k[0] + 1}] is below modes[{k[0]}]")

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalue_tfns)

    @property
    def is_crisp(self) -> bool:
        return all((tfns == tfns[..., 1:2]).all() for tfns in (self.eigenvalue_tfns, self.shape_tfns))

    def cuts_at(self, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Measured bounds ``(eig_lo, eig_hi, vec_lo, vec_hi)`` at ``alpha``: the
        (n,) eigenvalue and (n_dof, n) shape cut ends, each shape column scaled
        to unit length (L levels give (L, ...) arrays). A zero shape cut vector
        (a = -b gives one at alpha 0.5) is a ``DomainError`` naming mode and alpha."""
        vec_lo, vec_hi = alpha_cuts(self.shape_tfns, alpha)
        for bound, vec in (("lower", vec_lo), ("upper", vec_hi)):
            if (k := np.flatnonzero(np.linalg.norm(vec, axis=-2) == 0.0)).size:
                level, j = divmod(int(k[0]), self.n_modes)
                cut = f"a zero {bound} cut vector at alpha {float(np.ravel(alpha)[level])!r}"
                raise DomainError(f"'modes[{j}].mode_shape_tfns' has {cut}")
        return (*alpha_cuts(self.eigenvalue_tfns, alpha), unit_columns(vec_lo), unit_columns(vec_hi))


def save_measured(data: MeasuredFuzzyModalData, path) -> None:
    """Write measured data as ``load_measured`` reads them: eigenvalues in Hz,
    each ``mode_shape`` the peak, and ``mode_shape_tfns`` unless every shape
    triangle is degenerate."""
    columns = {"eigenvalue": eigenvalue_to_hz(data.eigenvalue_tfns).tolist(), "mode_shape": data.mode_shapes.T.tolist()}
    if (data.shape_tfns != data.mode_shapes[..., None]).any():
        columns["mode_shape_tfns"] = np.swapaxes(data.shape_tfns, 0, 1).tolist()
    modes = [dict(zip(columns, entry)) for entry in zip(*columns.values())]
    write_json(path, {"units": "hz", "modes": modes})


def load_measured(path) -> MeasuredFuzzyModalData:
    """Read measured fuzzy modal data, converting Hz triangles to eigenvalues.

    The file is one JSON object, ``{"units": "hz", "modes": [{"eigenvalue":
    [a, b, c], "mode_shape": [phi_1, ..., phi_n], "mode_shape_tfns": [[a, b,
    c], ...]}, ...]}``, with one entry per mode and at least one. ``units`` is ``"hz"`` (the
    default) or ``"eigenvalue"`` (rad^2/s^2). ``mode_shape_tfns``, one
    triangle per shape component, is given for every mode or for none;
    without it a mode's shape triangles are the crisp (u, u, u) of its
    ``mode_shape`` u scaled to unit length, and with it ``mode_shape`` must
    equal their peak once both are scaled to unit length, to 1e-12 in every
    component, so no value goes unread. Every shape has as many components as
    ``modes[0].mode_shape``. A legacy per-mode ``crisp`` key is ignored.
    These are the file's own rules, and ``MeasuredFuzzyModalData`` states
    the values' under the same keys. The reader keeps one bound, a
    frequency's above 0: squaring to an eigenvalue loses the sign, so no
    rule could see it after. Every value goes through ``errors.check_value``,
    so a bad one, or an unknown key, is a ``ConfigurationError`` naming the
    file and the key, as ``'modes[2].eigenvalue'``.
    """
    raw = read_json(path)
    with in_file(path):
        check_keys(raw, ("units", "modes"))
        units = check_value(raw, "units", "string", default="hz")
        if units not in ("hz", "eigenvalue"):
            raise ConfigurationError(f"'units' must be 'hz' or 'eigenvalue', got {units!r}")
        if not (modes := check_value(raw, "modes", "object", (-1,))):
            raise ConfigurationError("'modes' must list at least one mode, got []")
        keys = ["eigenvalue", "mode_shape"]
        if any("mode_shape_tfns" in entry for entry in modes):
            keys.append("mode_shape_tfns")
        shapes = {"eigenvalue": (3,), "mode_shape": (-1,), "mode_shape_tfns": (-1, 3)}
        values = {key: [] for key in keys}
        for i, entry in enumerate(modes):
            check_keys(entry, ("eigenvalue", "mode_shape", "mode_shape_tfns", "crisp"), f"modes[{i}].")
            for key in keys:
                bounds = {"above": 0} if key == "eigenvalue" and units == "hz" else {}
                value = check_value(entry, key, shape=shapes[key], label=f"modes[{i}].{key}", **bounds)
                values[key].append(value)
                if key != "eigenvalue" and len(value) != (n_dof := len(values["mode_shape"][0])):
                    raise ConfigurationError(
                        f"'modes[{i}].{key}' has {len(value)} components, but 'modes[0].mode_shape' has {n_dof}"
                    )
        eigenvalues = np.array(values["eigenvalue"], dtype=float)
        unit = unit_columns(np.array(values["mode_shape"], dtype=float).T)
        tfns = np.stack([unit] * 3, axis=-1)
        if "mode_shape_tfns" in values:
            tfns = np.reshape(values["mode_shape_tfns"], (len(modes), len(unit), 3)).swapaxes(0, 1)
        data = MeasuredFuzzyModalData(hz_to_eigenvalue(eigenvalues) if units == "hz" else eigenvalues, tfns)
        if (j := np.flatnonzero((np.abs(unit - unit_columns(data.mode_shapes)) > 1e-12).any(axis=0))).size:
            scaled = "once both are scaled to unit length, to 1e-12 in every component"
            raise ConfigurationError(f"'modes[{j[0]}].mode_shape' must equal its 'mode_shape_tfns' peak (b) {scaled}")
        return data
