"""Parametric mass-spring structural models.

A model holds point masses and spring elements between nodes (or node to
ground). Each spring's stiffness is either a fixed value or a reference
into the updating-parameter vector, so ``K(theta)`` assembles by standard
superposition and the mass matrix is diagonal.

Mode shapes come out unit-norm, each with its largest-magnitude component
positive (``fix_signs``). ``resolve_model`` reads a model reference: the
token ``"bundled"`` (``ffemu/data/model_5dof.json``) or a model file, both
through ``load_model``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError, ConvergenceError, DomainError, ShapeError, check, check_keys, check_value, in_file, is_integer
)

__all__ = ["GROUND", "SpringElement", "StructuralModel", "fix_signs", "load_model", "model_from_dict", "resolve_model"]

GROUND = -1


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


@dataclass(frozen=True)
class SpringElement:
    """One spring; endpoints are 0-based node indices, GROUND (-1) for a support.

    Exactly one of ``stiffness`` (fixed, N/m) or ``param_index`` (position
    in the updating vector) must be given. ``errors.check`` states their
    bounds under the model file's keys: ``'stiffness'`` above 0 and
    ``'param'`` an integer of at least 0. The messages do not name the
    spring; ``model_from_dict`` names its position in the file.
    """

    id: str
    node_a: int
    node_b: int
    stiffness: float | None = None
    param_index: int | None = None

    def __post_init__(self):
        if (self.stiffness is None) == (self.param_index is None):
            raise ConfigurationError("give exactly one of stiffness or param_index")
        if self.node_a == GROUND and self.node_b == GROUND:
            raise ConfigurationError("at most one endpoint may be ground")
        if GROUND not in (self.node_a, self.node_b) and self.node_a == self.node_b:
            raise ConfigurationError("endpoints must differ")
        if self.stiffness is not None:
            check(self.stiffness, "stiffness", above=0)
        if self.param_index is not None:
            check(self.param_index, "param", "integer", at_least=0)


@dataclass(frozen=True)
class StructuralModel:
    """Masses (kg) plus spring list; ``parameter_count``, the updating
    dimension, is the largest spring ``param_index`` + 1.

    ``masses`` must be a non-empty list or 1-D array of finite numbers above
    0, which ``errors.check`` names as the model file's ``'masses'``. There
    must be at least one updating parameter: a model with none has nothing
    to update, and is a ``ConfigurationError``. Every index below the
    largest must be some spring's, so a gap (params 0 and 2) is a
    ``ConfigurationError`` naming 1. Every node needs a spring path to
    ground, so that K(theta) is positive definite for every positive theta;
    a floating node is a ``ConfigurationError`` naming the first one.
    """

    masses: np.ndarray
    springs: tuple[SpringElement, ...]

    def __post_init__(self):
        check(self.masses, "masses", shape=(-1,), above=0)
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        object.__setattr__(self, "springs", tuple(self.springs))
        if self.masses.size == 0:
            raise ConfigurationError("'masses' must not be empty")
        if self.parameter_count < 1:
            raise ConfigurationError(
                f"need at least one updating parameter (a spring with 'param'), got {self.parameter_count}"
            )
        n = self.masses.size
        for s in self.springs:
            for node in (s.node_a, s.node_b):
                if node != GROUND and not 0 <= node < n:
                    raise ConfigurationError(
                        f"spring {s.id!r}: node {node} outside 0..{n - 1}"
                    )
        if missing := set(range(self.parameter_count)) - {s.param_index for s in self.springs}:
            raise ConfigurationError(
                f"updating parameters never referenced by any spring: {sorted(missing)}"
            )
        # a connected spring network with a ground spring is positive definite
        # for positive stiffnesses; a group of nodes without one makes K(theta)
        # singular for every theta
        ends = [(s.node_a, s.node_b) for s in self.springs] + [(s.node_b, s.node_a) for s in self.springs]
        reached, near = set(), {b for a, b in ends if a == GROUND}
        while near - reached:
            reached |= near
            near = {b for a, b in ends if a in reached}
        if floating := sorted(set(range(n)) - reached):
            raise ConfigurationError(f"node {floating[0]} has no spring path to ground, so K(theta) is singular")

    @cached_property
    def parameter_count(self) -> int:
        return max((s.param_index for s in self.springs if s.param_index is not None), default=-1) + 1

    @property
    def n_dof(self) -> int:
        return self.masses.size

    @cached_property
    def _assembly(self) -> tuple[np.ndarray, np.ndarray]:
        """Fixed-spring stiffness plus one unit-stiffness matrix per parameter;
        K(theta) is exactly their linear superposition. A ground spring k at
        node i adds k to K[i, i]; a spring between nodes i and j adds k to
        both diagonal entries and -k off-diagonal."""
        n = self.n_dof
        fixed = np.zeros((n, n))
        units = np.zeros((self.parameter_count, n, n))
        for s in self.springs:
            target = fixed if s.param_index is None else units[s.param_index]
            k = 1.0 if s.param_index is not None else s.stiffness
            if s.node_a == GROUND:
                target[s.node_b, s.node_b] += k
            elif s.node_b == GROUND:
                target[s.node_a, s.node_a] += k
            else:
                a, b = s.node_a, s.node_b
                target[a, a] += k
                target[b, b] += k
                target[a, b] -= k
                target[b, a] -= k
        return fixed, units

    @cached_property
    def _inv_sqrt_masses(self) -> np.ndarray:
        return 1.0 / np.sqrt(self.masses)

    def _scaled_stiffness(self, thetas) -> np.ndarray:
        """The stack M^-1/2 K(theta) M^-1/2 (m, n, n) at m updating vectors.

        Every K(theta) is assembled at once by one matrix product of the
        (m, d) thetas with the d unit matrices, each flattened to a row; the
        mass matrix is diagonal by construction, so each row of the
        generalized problem reduces to the standard problem of this matrix
        directly. The fixed part and both scalings are applied in place on
        the product, entry by entry as (a_i K_ij) a_j with a = M^-1/2, so
        every row is the same bits whatever the stack.
        """
        th = np.asarray(thetas, dtype=float)
        if th.ndim != 2 or th.shape[1] != self.parameter_count:
            raise ShapeError(
                f"thetas have shape {th.shape}, expected (m, {self.parameter_count})"
            )
        if (th <= 0.0).any():
            raise DomainError("all stiffness parameters must be positive")
        fixed, units = self._assembly
        n = self.n_dof
        scaled = (th @ units.reshape(-1, n * n)).reshape(-1, n, n)
        scaled += fixed
        inv_sqrt = self._inv_sqrt_masses
        scaled *= inv_sqrt[:, None]
        scaled *= inv_sqrt
        return scaled

    def modal_batch(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (m, n) and eigenvectors (m, n, n) at m updating vectors.

        The whole stack is solved by one ``eigh``. Eigenvectors come out
        unit-norm and sign-fixed.
        """
        scaled = self._scaled_stiffness(thetas)
        try:
            lam, y = np.linalg.eigh(scaled)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
        phi = self._inv_sqrt_masses[:, None] * y
        phi = phi / np.linalg.norm(phi, axis=-2, keepdims=True)
        return lam, fix_signs(phi)

    def eigenvalues_batch(self, thetas) -> np.ndarray:
        """Ascending eigenvalues (m, n) at m updating vectors, without eigenvectors.

        The same reduction as ``modal_batch``, solved by one ``eigvalsh``;
        for callers that would discard the mode shapes.
        """
        scaled = self._scaled_stiffness(thetas)
        try:
            return np.linalg.eigvalsh(scaled)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _parse_endpoint(entry: dict, key: str, where: str) -> int:
    """A spring endpoint: a node index or the token "ground"."""
    raw = entry.get(key)
    if isinstance(raw, str) and raw.lower() == "ground":
        return GROUND
    if not is_integer(raw):
        raise ConfigurationError(f"'{where}.{key}' must be a node index or 'ground', got {raw!r}")
    return raw


def model_from_dict(data: dict, source: str = "<model>") -> StructuralModel:
    """Build a model from its JSON object form, validating as it goes.

    Expected shape::

        {"masses": [...], "springs": [{"id": ..., "a": ..., "b": ...,
          "stiffness": ... | "param": ...}, ...]}

    The parameter count is the springs' (``StructuralModel``), so the file
    states it nowhere else. Values go through ``errors.check_value``,
    and every error, an unknown key too, is a ``ConfigurationError`` naming
    ``source`` and the key, as ``'springs[1].param'``. The bounds of
    ``masses``, ``stiffness`` and ``param`` are the model's and the spring's
    (``StructuralModel``, ``SpringElement``), and a spring's complaint is
    prefixed with its position and id once, as ``springs[1] (id 'k2'):
    'param' must be at least 0, got -1``.
    """
    with in_file(source):
        check_keys(data, ("masses", "springs"))
        masses = check_value(data, "masses", shape=(-1,))
        spring_entries = check_value(data, "springs", "object", (-1,))
        if not spring_entries:
            raise ConfigurationError("'springs' must not be empty")
        springs = []
        for pos, entry in enumerate(spring_entries):
            where = f"springs[{pos}]"
            check_keys(entry, ("id", "a", "b", "stiffness", "param"), f"{where}.")
            sid = str(entry.get("id", f"spring{pos}"))
            a, b = _parse_endpoint(entry, "a", where), _parse_endpoint(entry, "b", where)
            param = check_value(entry, "param", "integer", label=f"{where}.param", default=None)
            stiffness = check_value(entry, "stiffness", label=f"{where}.stiffness", default=None)
            try:
                springs.append(SpringElement(sid, a, b, None if stiffness is None else float(stiffness), param))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{where} (id {sid!r}): {exc}") from exc
        return StructuralModel(masses=masses, springs=tuple(springs))


def load_model(path) -> StructuralModel:
    """Load a model definition from a JSON file.

    Syntax errors carry the line/column from the JSON parser; semantic
    errors name the offending spring entry.
    """
    return model_from_dict(read_json(path), source=str(path))


def resolve_model(ref: str, base: Path = Path()) -> StructuralModel:
    """The packaged five-DOF model for the token ``"bundled"``, else the model
    file at ``ref`` (a relative path resolves against ``base``)."""
    if ref == "bundled":
        with resources.as_file(resources.files("ffemu.data") / "model_5dof.json") as path:
            return load_model(path)
    return load_model(base / ref)


def read_json(path) -> dict:
    """Parse one JSON file, which must hold one JSON object; a syntax error
    (with its line and column) or any other top level is a
    ``ConfigurationError`` naming the file."""
    with in_file(path), open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"expected a JSON object, got {type(data).__name__}")
    return data


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path`` as JSON indented by 2, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
