"""Tests for the generalized eigensolver and mode-pairing utilities."""

import numpy as np
import pytest

from ffemu.errors import DefiniteMatrixError, DegenerateVectorError, ShapeError
from ffemu.linalg import ModalSolution, generalized_eig, mac_matrix, pair_modes


def random_spd(rng, n, shift=None):
    a = rng.standard_normal((n, n))
    return a @ a.T + (n if shift is None else shift) * np.eye(n)


class TestGeneralizedEig:
    def test_identity_case(self):
        sol = generalized_eig(np.eye(3), np.eye(3))
        np.testing.assert_allclose(sol.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal_case(self):
        sol = generalized_eig(np.diag([1.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(sol.eigenvalues, [1.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(sol.eigenvectors), np.eye(2), atol=1e-12)

    def test_two_dof_chain_closed_form(self):
        # Oracle: roots of the characteristic polynomial of [[2,-1],[-1,1]],
        # det(K - lam I) = lam^2 - 3 lam + 1, expanded by hand.
        k = np.array([[2.0, -1.0], [-1.0, 1.0]])
        oracle = np.sort(np.roots([1.0, -3.0, 1.0]))
        np.testing.assert_allclose(oracle, [0.3819660112501051, 2.618033988749895], rtol=1e-12)
        sol = generalized_eig(k, np.eye(2))
        np.testing.assert_allclose(sol.eigenvalues, oracle, rtol=1e-12)

    def test_residual_bound_random_spd_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            k = random_spd(rng, n)
            m = random_spd(rng, n)
            sol = generalized_eig(k, m)
            for j in range(n):
                phi = sol.eigenvectors[:, j]
                resid = np.linalg.norm(k @ phi - sol.eigenvalues[j] * (m @ phi))
                assert resid <= 1e-8 * np.linalg.norm(k @ phi) + 1e-14

    def test_trace_identity_diagonal_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = random_spd(rng, n)
            m_diag = rng.uniform(0.5, 3.0, n)
            sol = generalized_eig(k, np.diag(m_diag))
            trace = np.trace(np.diag(1.0 / m_diag) @ k)
            assert sol.eigenvalues.sum() == pytest.approx(trace, rel=1e-8)

    def test_monotonicity_under_psd_increment(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            k = random_spd(rng, n)
            dk = random_spd(rng, n, shift=0.0)  # PSD increment
            m = np.diag(rng.uniform(0.5, 2.0, n))
            lam = generalized_eig(k, m).eigenvalues
            lam_up = generalized_eig(k + dk, m).eigenvalues
            assert np.all(lam_up >= lam - 1e-9 * np.abs(lam))

    def test_unit_norm_and_sign_convention(self):
        rng = np.random.default_rng(5)
        k = random_spd(rng, 6)
        m = random_spd(rng, 6)
        sol = generalized_eig(k, m)
        norms = np.linalg.norm(sol.eigenvectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        for j in range(6):
            col = sol.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_ascending_order(self):
        rng = np.random.default_rng(9)
        sol = generalized_eig(random_spd(rng, 8), random_spd(rng, 8))
        assert np.all(np.diff(sol.eigenvalues) >= 0.0)

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


def mac(phi_a, phi_b) -> float:
    """MAC of two single shapes, through ``mac_matrix``."""
    return mac_matrix(np.asarray(phi_a, float)[:, None], np.asarray(phi_b, float)[:, None])[0, 0]


class TestMac:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, -3.0])
        assert mac(v, v) == 1.0

    def test_orthogonal_vectors(self):
        assert mac([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_and_sign_invariance(self):
        v = np.array([0.3, -1.2, 2.0])
        assert mac(v, -3.0 * v) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_invariance_random(self):
        # every column of either stack scaled by its own nonzero factor
        rng = np.random.default_rng(21)
        a = rng.standard_normal((100, 5, 5))
        b = rng.standard_normal((100, 5, 5))
        s = rng.uniform(0.1, 10.0, (100, 1, 5)) * rng.choice([-1.0, 1.0], (100, 1, 5))
        table = mac_matrix(a, b)
        np.testing.assert_allclose(mac_matrix(s * a, b), table, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mac_matrix(a, s * b), table, rtol=0, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            mac([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mac([1.0, 0.0], [1.0, 0.0, 0.0])


class TestPairModes:
    def test_identity_on_self(self):
        sol = generalized_eig(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        np.testing.assert_array_equal(pair_modes(sol, sol), [0, 1, 2])

    def test_constructed_swap(self):
        sol = generalized_eig(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        swapped = ModalSolution(
            sol.eigenvalues[[1, 0, 2]], sol.eigenvectors[:, [1, 0, 2]]
        )
        np.testing.assert_array_equal(pair_modes(sol, swapped), [1, 0, 2])

    def test_small_perturbation_keeps_identity(self):
        # Oracle: exhaustive MAC-table inspection; for a 1% SPD perturbation
        # the diagonal dominates every row, so greedy must return identity.
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = random_spd(rng, 5)
            m = random_spd(rng, 5)
            ref = generalized_eig(k, m)
            bump = random_spd(rng, 5, shift=0.0)
            cand = generalized_eig(k + 0.01 * np.abs(k).max() / np.abs(bump).max() * bump, m)
            table = mac_matrix(ref.eigenvectors, cand.eigenvectors)
            assert np.all(np.argmax(table, axis=1) == np.arange(5))
            np.testing.assert_array_equal(pair_modes(ref, cand), np.arange(5))

    def test_mismatched_mode_counts_rejected(self):
        a = generalized_eig(np.eye(2), np.eye(2))
        b = generalized_eig(np.eye(3), np.eye(3))
        with pytest.raises(ShapeError):
            pair_modes(a, b)
