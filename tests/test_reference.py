"""Tests for the reference generalized eigensolver."""

import numpy as np
import pytest
from reference import DefiniteMatrixError, generalized_eig

from ffemu.errors import ShapeError


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
