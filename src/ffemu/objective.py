"""Interval modal objective for one alpha level.

The decision variable is a pair of stiffness vectors (lower, upper). The
model is solved at both vertices of the box, and the weighted squared
errors between predicted and measured eigenvalue/eigenvector bounds are
summed into a single scalar objective. Feasibility (global box plus
nesting against the previous level) is handled by projection so
optimizers only ever evaluate feasible candidates.

Eigenvalues are sorted ascending at each vertex. Every unit stiffness
matrix is positive semidefinite, so each sorted eigenvalue is monotone in
each stiffness (Courant-Fischer): the j-th sorted eigenvalues at the lower
and upper vertex are exactly the bounds of the j-th eigenvalue over the
box, the interval a measured eigenvalue cut describes. Mode shapes carry
no order, so the vertex shapes are MAC-paired to the box centre's shapes
instead.

``residual_batch`` is the path the optimizers use: it evaluates a whole
population of boxes with one stacked eigensolve. ``residual_vector`` and
``objective_value`` are its one-row case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateVectorError,
    DomainError,
    ShapeError,
)
from .fuzzy import TriangularFuzzyNumber
from .linalg import ModalSolution, diagonal_dominates, mac_matrix, pair_modes
from .model import StructuralModel, read_json

__all__ = [
    "IntervalParameters",
    "WeightingConfig",
    "MeasuredModalIntervals",
    "MeasuredFuzzyModalData",
    "FeasibleRegion",
    "residual_batch",
    "vertex_modes",
    "residual_vector",
    "objective_value",
    "load_measured",
    "save_measured",
]

_TWO_PI = 2.0 * math.pi


def hz_to_eigenvalue(f: float) -> float:
    """Frequency in Hz to eigenvalue in rad^2/s^2."""
    return (_TWO_PI * f) ** 2


def eigenvalue_to_hz(lam: float) -> float:
    """Eigenvalue in rad^2/s^2 to frequency in Hz."""
    return math.sqrt(lam) / _TWO_PI


@dataclass(frozen=True)
class IntervalParameters:
    """Lower and upper stiffness vectors: the 2d-dimensional decision variable."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ShapeError("lower and upper must be 1-D vectors of equal length")
        if np.any(lower > upper):
            raise DomainError("interval parameters crossed: lower > upper")

    @classmethod
    def from_point(cls, theta) -> "IntervalParameters":
        th = np.asarray(theta, dtype=float)
        return cls(th.copy(), th.copy())

    @classmethod
    def from_flat(cls, x) -> "IntervalParameters":
        x = np.asarray(x, dtype=float)
        d = x.size // 2
        return cls(x[:d].copy(), x[d:].copy())

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.lower, self.upper])

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def dimension(self) -> int:
        return self.lower.size


@dataclass(frozen=True)
class WeightingConfig:
    """Diagonals of the lower/upper weighting matrices.

    Each diagonal has one entry per stacked error component: first the n
    eigenvalue errors, then the n eigenvector errors.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size % 2:
            raise ShapeError("weight diagonals must be 1-D, equal, even-length vectors")
        if np.any(lower < 0.0) or np.any(upper < 0.0):
            raise DomainError("weights must be non-negative")

    @cached_property
    def sqrt_diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """``sqrt`` of the lower and upper diagonals, the residual row scales."""
        return np.sqrt(self.lower), np.sqrt(self.upper)

    @cached_property
    def has_shape_weight(self) -> bool:
        """Whether any eigenvector (second-half) weight is non-zero."""
        n = self.lower.size // 2
        return bool(np.any(self.lower[n:]) or np.any(self.upper[n:]))

    @classmethod
    def identity(cls, n_modes: int) -> "WeightingConfig":
        w = np.ones(2 * n_modes)
        return cls(w, w.copy())

    @classmethod
    def from_scalars(cls, n_modes: int, eigenvalue: float = 1.0, eigenvector: float = 1.0) -> "WeightingConfig":
        """Uniform block weights for the eigenvalue and eigenvector parts."""
        w = np.concatenate([np.full(n_modes, float(eigenvalue)), np.full(n_modes, float(eigenvector))])
        return cls(w, w.copy())


class MeasuredModalIntervals:
    """Measured modal bounds at one alpha level.

    Eigenvalue intervals per mode plus unit-norm lower/upper measured mode
    shapes (columns of ``vec_lo`` / ``vec_hi``). Eigenvalue bounds must be
    positive and interval centers ascending.
    """

    def __init__(self, eig_lo, eig_hi, vec_lo, vec_hi):
        self.eig_lo = np.asarray(eig_lo, dtype=float)
        self.eig_hi = np.asarray(eig_hi, dtype=float)
        self.vec_lo = _unit_columns(np.asarray(vec_lo, dtype=float))
        self.vec_hi = _unit_columns(np.asarray(vec_hi, dtype=float))
        n = self.eig_lo.size
        if self.eig_hi.shape != (n,):
            raise ShapeError("eigenvalue bound arrays must have equal length")
        if self.vec_lo.shape != (self.vec_lo.shape[0], n) or self.vec_hi.shape != self.vec_lo.shape:
            raise ShapeError("eigenvector arrays must have one column per mode")
        if np.any(self.eig_lo <= 0.0) or np.any(self.eig_hi <= 0.0):
            raise DomainError("measured eigenvalue bounds must be positive")
        if np.any(self.eig_lo > self.eig_hi):
            raise DomainError("measured eigenvalue intervals crossed")
        centers = 0.5 * (self.eig_lo + self.eig_hi)
        if np.any(np.diff(centers) < 0.0):
            raise DomainError("measured eigenvalue interval centers must be ascending")

    @property
    def n_modes(self) -> int:
        return self.eig_lo.size


def _unit_columns(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateVectorError("measured mode shape is a zero vector")
    return mat / norms


@dataclass(frozen=True)
class FeasibleRegion:
    """Box constraints for one alpha level.

    The lower parameters live in [theta_min, prev_lower] and the upper
    parameters in [prev_upper, theta_max]; without a previous-level
    solution both live in the global box. Exposes the flattened-vector
    interface (``lo``, ``hi``, ``project``) that the optimizers consume;
    ``lo`` and ``hi`` are built once, here.

    Projection clamps each flat component into [lo, hi], the same bits as
    clamping the lower and upper halves separately. Only an unanchored
    region can then hold a crossed component (lower > upper): an anchored
    one clamps lower to at most prev_lower and upper to at least
    prev_upper, and prev_lower <= prev_upper is checked here, so the
    crossed-bound repair runs for unanchored regions alone.
    """

    theta_min: np.ndarray
    theta_max: np.ndarray
    prev_lower: np.ndarray | None = None
    prev_upper: np.ndarray | None = None
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tmin = np.asarray(self.theta_min, dtype=float)
        tmax = np.asarray(self.theta_max, dtype=float)
        object.__setattr__(self, "theta_min", tmin)
        object.__setattr__(self, "theta_max", tmax)
        if tmin.shape != tmax.shape or tmin.ndim != 1:
            raise ConfigurationError("theta_min and theta_max must be 1-D and equal length")
        if np.any(tmin > tmax):
            raise ConfigurationError("theta_min must not exceed theta_max")
        if (self.prev_lower is None) != (self.prev_upper is None):
            raise ConfigurationError("previous bounds must be given together")
        pl, pu = tmax, tmin
        if self.prev_lower is not None:
            pl = np.asarray(self.prev_lower, dtype=float)
            pu = np.asarray(self.prev_upper, dtype=float)
            object.__setattr__(self, "prev_lower", pl)
            object.__setattr__(self, "prev_upper", pu)
            if pl.shape != tmin.shape or pu.shape != tmin.shape:
                raise ConfigurationError("previous bounds must match the box dimension")
            if np.any(pl > pu) or np.any(pl < tmin) or np.any(pu > tmax):
                raise ConfigurationError(
                    "previous-level solution violates theta_min <= lower <= upper <= theta_max"
                )
        object.__setattr__(self, "lo", np.concatenate([tmin, pu]))
        object.__setattr__(self, "hi", np.concatenate([pl, tmax]))

    @property
    def dimension(self) -> int:
        return 2 * self.theta_min.size

    def project_interval(self, candidate: IntervalParameters) -> IntervalParameters:
        """Clamp a candidate into the region, repairing crossed bounds.

        Crossed components (possible only without previous-level anchors)
        collapse to their midpoint, clamped into both component ranges.
        """
        return IntervalParameters.from_flat(self.project(candidate.flatten()))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Flat-vector form of ``project_interval`` for the optimizers.

        ``x`` is one flattened (lower, upper) vector or a stack of them as
        rows; each row is projected independently.
        """
        x = np.clip(np.asarray(x, dtype=float), self.lo, self.hi)
        if self.prev_lower is None:
            d = self.theta_min.size
            lower, upper = x[..., :d], x[..., d:]
            crossed = lower > upper
            if crossed.any():
                mid = 0.5 * (lower + upper)
                lower[crossed] = np.clip(mid, self.theta_min, self.theta_max)[crossed]
                upper[crossed] = lower[crossed]
        return x


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


def residual_batch(
    model: StructuralModel,
    lower,
    upper,
    measured: MeasuredModalIntervals,
    weights: WeightingConfig,
) -> np.ndarray:
    """Weighted residuals of m candidate boxes, one row of length 4n each.

    Row r is ``residual_vector`` of the box (lower[r], upper[r]). The
    eigenvalue errors compare the measured bounds with the sorted
    eigenvalues at the two vertices, which one ``eigenvalues_batch`` call
    solves for all 2m vertices. When a shape weight is non-zero, the
    vertices and centres come from one ``vertex_modes`` call instead, and
    its paired vertex shapes give the shape errors. Point boxes, passed as
    ``upper is lower``, solve their one vertex once.

    Each weighted block is written in place into one zeroed (m, 4n) buffer
    as ``sqrt(w) * e``, the same bits as scaling whole error rows; the
    shape columns stay zero when no shape weight is set.
    """
    point = upper is lower
    lower = np.asarray(lower, dtype=float)
    upper = lower if point else np.asarray(upper, dtype=float)
    n = measured.n_modes
    if lower.shape != upper.shape or lower.ndim != 2:
        raise ShapeError("lower and upper must be (m, d) arrays of equal shape")
    if not point and (lower > upper).any():
        raise DomainError("interval parameters crossed: lower > upper")
    if model.n_dof != n:
        raise ShapeError("predicted and measured mode counts differ")
    if weights.lower.size != 2 * n:
        raise ShapeError(f"weights sized for {weights.lower.size // 2} modes, data has {n}")
    m = lower.shape[0]
    root_lo, root_hi = weights.sqrt_diagonals
    out = np.zeros((m, 4 * n))
    if weights.has_shape_weight:
        lam, vec = vertex_modes(model, lower, upper)
        np.multiply(root_lo[n:], _shape_errors(measured.vec_lo, vec[:m]), out=out[:, n : 2 * n])
        np.multiply(root_hi[n:], _shape_errors(measured.vec_hi, vec[m:]), out=out[:, 3 * n :])
    else:
        lam = model.eigenvalues_batch(lower if point else np.concatenate([lower, upper]))
    e_lo = np.subtract(measured.eig_lo, lam[:m], out=out[:, :n])
    e_lo /= measured.eig_lo
    e_lo *= root_lo[:n]
    e_hi = np.subtract(lam[-m:], measured.eig_hi, out=out[:, 2 * n : 3 * n])
    e_hi /= measured.eig_hi
    e_hi *= root_hi[:n]
    return out


def vertex_modes(model: StructuralModel, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (2m, n) and mode shapes (2m, n, n) at the vertices of m boxes.

    Rows are the m lower vertices, then the m upper ones. The eigenvalues
    are sorted ascending. The shapes are tracked to the box centre's by
    MAC, so column j is one physical mode at both vertices, and are
    sign-aligned with the centre shapes. The centres and vertices are
    solved as one stack of 3m rows; the greedy ``pair_modes`` runs only on
    rows whose MAC diagonal does not dominate.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m = len(lower)
    lam, vec = model.modal_batch(np.concatenate([0.5 * (lower + upper), lower, upper]))
    vec_c = np.concatenate([vec[:m], vec[:m]])
    vec_v = vec[m:].copy()
    for k in np.flatnonzero(~diagonal_dominates(mac_matrix(vec_c, vec_v))):
        perm = pair_modes(ModalSolution(lam[k % m], vec_c[k]), ModalSolution(lam[m + k], vec_v[k]))
        vec_v[k] = vec_v[k][:, perm]
    flip = np.einsum("kij,kij->kj", vec_v, vec_c) < 0.0
    return lam[m:], np.where(flip[:, None, :], -vec_v, vec_v)


def residual_vector(
    model: StructuralModel,
    params: IntervalParameters,
    measured: MeasuredModalIntervals,
    weights: WeightingConfig,
) -> np.ndarray:
    """Weighted errors ``[sqrt(w_lo) * e_lo, sqrt(w_hi) * e_hi]`` of length 4n.

    Its squared norm is the objective, so a least-squares solver can work
    on the residuals of the same interval problem the optimizers see. It is
    the one-row case of ``residual_batch``.
    """
    return residual_batch(
        model, params.lower[None, :], params.upper[None, :], measured, weights
    )[0]


def objective_value(
    model: StructuralModel,
    params: IntervalParameters,
    measured: MeasuredModalIntervals,
    weights: WeightingConfig,
) -> float:
    """Weighted squared error of both interval branches; zero iff both vanish."""
    r = residual_vector(model, params, measured, weights)
    return float(r @ r)


class MeasuredFuzzyModalData:
    """Fuzzy measured modal data: one eigenvalue TFN per mode plus mode shapes.

    Mode shapes are either crisp (one vector per mode) or fuzzy
    (per-component TFNs); crisp is the common case. Internally eigenvalues
    are in rad^2/s^2; files store Hz by default.
    """

    def __init__(self, eigenvalue_tfns, mode_shapes, shape_tfns=None):
        self.eigenvalue_tfns = list(eigenvalue_tfns)
        self.mode_shapes = _unit_columns(np.asarray(mode_shapes, dtype=float))
        self.shape_tfns = shape_tfns
        n = len(self.eigenvalue_tfns)
        if self.mode_shapes.shape[1] != n:
            raise ShapeError("need one mode-shape column per eigenvalue TFN")
        if any(t.a <= 0.0 for t in self.eigenvalue_tfns):
            raise DomainError("eigenvalue TFN supports must be positive")
        if shape_tfns is not None and (
            len(shape_tfns) != n or any(len(col) != self.mode_shapes.shape[0] for col in shape_tfns)
        ):
            raise ShapeError("shape TFNs must be given per mode, per component")

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalue_tfns)

    @property
    def is_crisp(self) -> bool:
        return all(t.is_crisp for t in self.eigenvalue_tfns)

    def center_eigenvalues(self) -> np.ndarray:
        return np.array([t.b for t in self.eigenvalue_tfns])

    def cuts_at(self, alpha: float) -> MeasuredModalIntervals:
        """Measured bounds at one alpha level.

        With crisp shapes the lower and upper measured mode shapes both
        equal the stored vectors; with fuzzy shapes they are the
        component-wise cut endpoints.
        """
        cuts = [t.alpha_cut(alpha) for t in self.eigenvalue_tfns]
        eig_lo = np.array([c.lo for c in cuts])
        eig_hi = np.array([c.hi for c in cuts])
        if self.shape_tfns is None:
            vec_lo = self.mode_shapes
            vec_hi = self.mode_shapes
        else:
            vec_lo = np.empty_like(self.mode_shapes)
            vec_hi = np.empty_like(self.mode_shapes)
            for j, col in enumerate(self.shape_tfns):
                for i, tfn in enumerate(col):
                    cut = tfn.alpha_cut(alpha)
                    vec_lo[i, j] = cut.lo
                    vec_hi[i, j] = cut.hi
        return MeasuredModalIntervals(eig_lo, eig_hi, vec_lo, vec_hi)


def save_measured(data: MeasuredFuzzyModalData, path, units: str = "hz") -> None:
    """Write measured fuzzy modal data as JSON (eigenvalue TFNs in Hz by default)."""
    if units not in ("hz", "eigenvalue"):
        raise ConfigurationError(f"unknown units {units!r}; use 'hz' or 'eigenvalue'")
    convert = eigenvalue_to_hz if units == "hz" else (lambda x: x)
    modes = []
    for j, tfn in enumerate(data.eigenvalue_tfns):
        entry = {
            "eigenvalue": [convert(tfn.a), convert(tfn.b), convert(tfn.c)],
            "mode_shape": [float(v) for v in data.mode_shapes[:, j]],
        }
        if data.is_crisp:
            entry["crisp"] = True
        if data.shape_tfns is not None:
            entry["mode_shape_tfns"] = [[t.a, t.b, t.c] for t in data.shape_tfns[j]]
        modes.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"units": units, "modes": modes}, fh, indent=2)
        fh.write("\n")


def load_measured(path) -> MeasuredFuzzyModalData:
    """Read measured fuzzy modal data, converting Hz TFNs to eigenvalues."""
    raw = read_json(path)
    units = raw.get("units", "hz")
    if units not in ("hz", "eigenvalue"):
        raise ConfigurationError(f"{path}: unknown units {units!r}")
    convert = hz_to_eigenvalue if units == "hz" else (lambda x: x)
    try:
        mode_entries = raw["modes"]
        tfns = [
            TriangularFuzzyNumber(*(convert(float(v)) for v in entry["eigenvalue"]))
            for entry in mode_entries
        ]
        shapes = np.array([entry["mode_shape"] for entry in mode_entries], dtype=float).T
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed measured-data file: {exc}") from exc
    shape_tfns = None
    if any("mode_shape_tfns" in entry for entry in mode_entries):
        shape_tfns = [
            [TriangularFuzzyNumber(*vals) for vals in entry["mode_shape_tfns"]]
            for entry in mode_entries
        ]
    return MeasuredFuzzyModalData(tfns, shapes, shape_tfns)
