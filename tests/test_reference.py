"""Tests for the reference generalized eigensolver and the level reference."""

import json

import mpmath
import numpy as np
import pytest
from reference import (
    LEVEL_RTOL,
    DefiniteMatrixError,
    alpha_cut,
    brute_force_assemble,
    generalized_eig,
    level_reference,
)

from ffemu import scenarios
from ffemu.errors import ConvergenceError, ShapeError
from ffemu.model import GROUND, SpringElement, StructuralModel, resolve_model
from ffemu.pipeline import load_run_config, run_ffemu


def random_spd(rng, n, shift=None):
    a = rng.standard_normal((n, n))
    return a @ a.T + (n if shift is None else shift) * np.eye(n)


class TestGeneralizedEig:
    def test_identity_case(self):
        lam, _ = generalized_eig(np.eye(3), np.eye(3))
        np.testing.assert_allclose(lam, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal_case(self):
        lam, phi = generalized_eig(np.diag([1.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(lam, [1.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(phi), np.eye(2), atol=1e-12)

    def test_two_dof_chain_closed_form(self):
        # Oracle: roots of the characteristic polynomial of [[2,-1],[-1,1]],
        # det(K - lam I) = lam^2 - 3 lam + 1, expanded by hand.
        k = np.array([[2.0, -1.0], [-1.0, 1.0]])
        oracle = np.sort(np.roots([1.0, -3.0, 1.0]))
        np.testing.assert_allclose(oracle, [0.3819660112501051, 2.618033988749895], rtol=1e-12)
        lam, _ = generalized_eig(k, np.eye(2))
        np.testing.assert_allclose(lam, oracle, rtol=1e-12)

    def test_residual_bound_random_spd_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            k = random_spd(rng, n)
            m = random_spd(rng, n)
            lam, vectors = generalized_eig(k, m)
            for j in range(n):
                phi = vectors[:, j]
                resid = np.linalg.norm(k @ phi - lam[j] * (m @ phi))
                assert resid <= 1e-8 * np.linalg.norm(k @ phi) + 1e-14

    def test_trace_identity_diagonal_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = random_spd(rng, n)
            m_diag = rng.uniform(0.5, 3.0, n)
            lam, _ = generalized_eig(k, np.diag(m_diag))
            trace = np.trace(np.diag(1.0 / m_diag) @ k)
            assert lam.sum() == pytest.approx(trace, rel=1e-8)

    def test_monotonicity_under_psd_increment(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            k = random_spd(rng, n)
            dk = random_spd(rng, n, shift=0.0)  # PSD increment
            m = np.diag(rng.uniform(0.5, 2.0, n))
            lam, _ = generalized_eig(k, m)
            lam_up, _ = generalized_eig(k + dk, m)
            assert np.all(lam_up >= lam - 1e-9 * np.abs(lam))

    def test_unit_norm_and_sign_convention(self):
        rng = np.random.default_rng(5)
        k = random_spd(rng, 6)
        m = random_spd(rng, 6)
        _, phi = generalized_eig(k, m)
        norms = np.linalg.norm(phi, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        for j in range(6):
            col = phi[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_ascending_order(self):
        rng = np.random.default_rng(9)
        lam, _ = generalized_eig(random_spd(rng, 8), random_spd(rng, 8))
        assert np.all(np.diff(lam) >= 0.0)

    def test_indefinite_mass_rejected(self):
        with pytest.raises(DefiniteMatrixError):
            generalized_eig(np.eye(2), np.diag([1.0, -1.0]))

    def test_indefinite_nondiagonal_mass_rejected(self):
        # eigenvalues 3 and -1; the Cholesky reduction must refuse it
        with pytest.raises(DefiniteMatrixError):
            generalized_eig(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            generalized_eig(np.eye(3), np.eye(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            generalized_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


def reference_of(run):
    return level_reference(
        run.model, run.measured.eigenvalue_tfns, run.levels, run.theta_min, run.theta_max, run.theta_initial
    )


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    """The bundled 10-level, eigenvalue-only run config at seed 0 for an optimizer."""

    def load(optimizer):
        path = tmp_path_factory.mktemp(optimizer) / "run.json"
        path.write_text(json.dumps(scenarios.bundled_run_config(optimizer=optimizer, seed=0)))
        return load_run_config(path)

    return load


def peak_triangles(model, theta):
    """Triangles whose peaks are the eigenvalues at ``theta``."""
    lam = np.linalg.eigvalsh(brute_force_assemble(model, theta) / np.sqrt(np.outer(model.masses, model.masses)))
    return np.stack([0.9 * lam, lam, 1.1 * lam], axis=1)


class TestLevelReference:
    @pytest.mark.parametrize("optimizer", ["aco", "pso"])
    def test_bundled_stacks_are_the_exact_level_solutions(self, bundled_run, optimizer):
        run = bundled_run(optimizer)
        assert run.weights == (1.0, 0.0) and run.levels.size == 10
        exact = reference_of(run)
        result = run_ffemu(run)
        assert np.abs(result.parameters.lo - exact[:, 0]).max() <= 1e-8  # N/m
        assert np.abs(result.parameters.hi - exact[:, 1]).max() <= 1e-8

    def test_solution_eigenvalues_match_an_mpmath_evaluation(self, bundled_run):
        # the reference's own residual, from float64 eigh, is checked at 40
        # digits: the eigenvalues of M^-1/2 K M^-1/2 at each solved vertex
        run = bundled_run("aco")
        exact = reference_of(run)
        n = run.model.n_dof
        with mpmath.workdps(40):
            scale = [1 / mpmath.sqrt(mpmath.mpf(m)) for m in run.model.masses]
            for k, alpha in enumerate(run.levels):
                cut = np.array([alpha_cut(tfn, alpha) for tfn in run.measured.eigenvalue_tfns])
                for v in (0, 1):
                    stiffness = brute_force_assemble(run.model, exact[k, v])
                    scaled = mpmath.matrix(n, n)
                    for i in range(n):
                        for j in range(n):
                            scaled[i, j] = scale[i] * mpmath.mpf(stiffness[i, j]) * scale[j]
                    lam = sorted(mpmath.eigsy(scaled, eigvals_only=True))
                    for j in range(n):
                        assert abs(lam[j] / mpmath.mpf(cut[j, v]) - 1) <= LEVEL_RTOL, (k, v, j)

    def test_more_modes_than_parameters_is_no_oracle(self):
        model = StructuralModel(
            masses=np.ones(2),
            springs=(SpringElement("g", GROUND, 0, stiffness=1.0), SpringElement("c", 0, 1, param_index=0)),
        )
        with pytest.raises(ShapeError, match="one parameter per mode"):
            level_reference(model, np.ones((2, 3)), [1.0], [0.5], [2.0])

    def test_a_cut_no_point_of_the_box_reaches_raises(self):
        # every peak four times the truth's: the stiffnesses would have to
        # grow about fourfold, beyond theta_max
        model = resolve_model("bundled")
        tfns = 4.0 * peak_triangles(model, scenarios.THETA_TRUE)
        with pytest.raises(ConvergenceError, match="level 1 did not reach relative residual"):
            level_reference(model, tfns, [1.0, 0.5], scenarios.THETA_MIN, scenarios.THETA_MAX)

    def test_of_several_exact_solutions_it_follows_its_start(self):
        # two unit masses, each grounded through its own updating spring and
        # coupled by a fixed one: swapping the two updating springs keeps
        # every eigenvalue
        model = StructuralModel(
            masses=np.ones(2),
            springs=(
                SpringElement("k0", GROUND, 0, param_index=0),
                SpringElement("k1", GROUND, 1, param_index=1),
                SpringElement("c", 0, 1, stiffness=1.0),
            ),
        )
        tfns = peak_triangles(model, np.array([2.0, 5.0]))
        box = ([1.0, 1.0], [10.0, 10.0])
        for start, solution in [([2.3, 4.6], [2.0, 5.0]), ([4.6, 2.3], [5.0, 2.0])]:
            exact = level_reference(model, tfns, [1.0], *box, start=start)
            np.testing.assert_allclose(exact[0], [solution, solution], rtol=1e-10)
