"""Spectral core: eigendecomposition and functional calculus."""

import math

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    DimensionMismatchError,
    InvalidParamsError,
    NonFiniteError,
    NotPSDError,
    NotSymmetricError,
    SymmetricOperator,
    apply_multiplier,
    eigh,
    inverse_transform,
    jacobi_eigh,
    operator_power,
    schrodinger_group,
    spectral_transform,
)
from bandapprox.harness import OperatorSpec, build_operator
from conftest import random_vector


class TestEigh:
    def test_diagonal_raw_l_takes_square_roots(self):
        dec = eigh(SymmetricOperator(np.diag([1.0, 4.0, 9.0]), kind=RAW_L))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(3), atol=1e-12)

    def test_2x2_characteristic_roots(self):
        # characteristic polynomial mu^2 - 4 mu + 3 has roots 1 and 3
        dec = eigh(SymmetricOperator(np.array([[2.0, -1.0], [-1.0, 2.0]]), kind=RAW_D))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(np.abs(dec.eigenvectors[:, 0]), [s, s], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.eigenvectors[:, 1]), [s, s], atol=1e-12)

    def test_cycle4_circulant_spectrum(self):
        # L eigenvalues 2 - 2cos(2 pi k / 4) = {0, 2, 2, 4}
        dec = eigh(build_operator(OperatorSpec(builtin="cycle", size=4)))
        np.testing.assert_allclose(dec.eigenvalues,
                                   [0.0, math.sqrt(2), math.sqrt(2), 2.0], atol=1e-10)
        assert [len(g) for g in dec.groups] == [1, 2, 1]

    def test_matches_lapack_on_random_symmetric(self, rng):
        a = rng.standard_normal((10, 10))
        mat = (a @ a.T) / 10
        mat = (mat + mat.T) / 2
        dec = eigh(SymmetricOperator(mat, kind=RAW_D))
        np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(mat), atol=1e-10)

    def test_orthonormality_and_reconstruction(self, rng):
        a = rng.standard_normal((16, 16))
        mat = (a @ a.T) / 16
        mat = (mat + mat.T) / 2
        dec = eigh(SymmetricOperator(mat, kind=RAW_L))
        u = dec.eigenvectors
        assert np.max(np.abs(u.T @ u - np.eye(16))) <= 1e-10
        mu = dec.eigenvalues ** 2
        recon = u @ np.diag(mu) @ u.T
        assert np.max(np.abs(mat - recon)) <= 1e-8 * (1 + mu.max())

    def test_eigen_residuals(self, rng):
        a = rng.standard_normal((12, 12))
        mat = (a + a.T) / 2 + 12 * np.eye(12)
        dec = eigh(SymmetricOperator(mat, kind=RAW_D))
        for j in range(12):
            u = dec.eigenvectors[:, j]
            lam = dec.eigenvalues[j]
            assert np.linalg.norm(mat @ u - lam * u) <= 1e-8 * (1 + lam)

    def test_tiny_negative_eigenvalue_clamped(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        mat = q @ np.diag([-5e-17, 0.5, 2.0]) @ q.T
        mat = (mat + mat.T) / 2
        dec = eigh(SymmetricOperator(mat, kind=RAW_L))
        assert dec.eigenvalues[0] == 0.0

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            eigh(SymmetricOperator(np.diag([-1.0, 2.0]), kind=RAW_L))

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            SymmetricOperator(np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            SymmetricOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParamsError):
            SymmetricOperator(np.eye(2), kind="raw_X")

    def test_degeneracy_grouping_tolerance(self):
        dec = eigh(SymmetricOperator(np.diag([1.0, 1.0 + 1e-12, 2.0]), kind=RAW_D))
        assert [len(g) for g in dec.groups] == [2, 1]
        for g in dec.groups:
            lam = dec.eigenvalues[list(g)]
            assert lam.max() - lam.min() <= dec.eps_group


class TestJacobi:
    def test_already_diagonal(self):
        w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_one_by_one(self):
        w, v = jacobi_eigh(np.array([[5.0]]))
        assert w[0] == 5.0 and v[0, 0] == 1.0


class TestTransforms:
    def test_basis_vector_coefficients(self, diag_dec):
        f = diag_dec.eigenvectors[:, 1]
        c = spectral_transform(diag_dec, f)
        np.testing.assert_allclose(c, [0.0, 1.0, 0.0], atol=1e-12)

    def test_2x2_symmetric_vector(self):
        dec = eigh(SymmetricOperator(np.array([[2.0, -1.0], [-1.0, 2.0]]), kind=RAW_D))
        f = np.array([1.0, 1.0]) / math.sqrt(2.0)
        c = spectral_transform(dec, f)
        np.testing.assert_allclose(np.abs(c), [1.0, 0.0], atol=1e-12)

    def test_plancherel_with_independent_gram_check(self, rng):
        a = rng.standard_normal((16, 16))
        dec = eigh(SymmetricOperator((a @ a.T + (a @ a.T).T) / 2, kind=RAW_L))
        # independent route: the transform is unitary because U^T U = I
        gram_dev = np.max(np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(16)))
        assert gram_dev <= 1e-12
        f = random_vector(rng, 16)
        c = spectral_transform(dec, f)
        assert abs(np.linalg.norm(c) - np.linalg.norm(f)) <= 1e-10 * (1 + np.linalg.norm(f))

    def test_roundtrip_identity(self, rng):
        a = rng.standard_normal((32, 32))
        dec = eigh(SymmetricOperator((a @ a.T + (a @ a.T).T) / 2, kind=RAW_L))
        f = random_vector(rng, 32)
        back = inverse_transform(dec, spectral_transform(dec, f))
        assert np.linalg.norm(back - f) <= 1e-10 * np.linalg.norm(f)

    def test_coefficient_basis_synthesizes_eigenvector(self, diag_dec):
        c = spectral_transform(diag_dec, diag_dec.eigenvectors[:, 2])
        np.testing.assert_allclose(inverse_transform(diag_dec, c), diag_dec.eigenvectors[:, 2],
                                   atol=1e-12)

    def test_zero_coefficients(self, diag_dec):
        np.testing.assert_array_equal(inverse_transform(diag_dec, np.zeros(3)), np.zeros(3))

    def test_dimension_mismatch(self, diag_dec):
        with pytest.raises(DimensionMismatchError):
            spectral_transform(diag_dec, np.ones(4))
        with pytest.raises(DimensionMismatchError):
            inverse_transform(diag_dec, np.ones(4))

    def test_nonfinite_coefficients_rejected(self, diag_dec):
        with pytest.raises(NonFiniteError):
            inverse_transform(diag_dec, [1.0, math.nan, 0.0])


class TestFunctionalCalculus:
    def test_identity_multiplier(self, diag_dec, rng):
        f = random_vector(rng, 3)
        out = apply_multiplier(diag_dec, lambda lam: np.ones_like(lam), f)
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_power_on_eigenvector(self, diag_dec):
        for j, lam in enumerate(diag_dec.eigenvalues):
            for k in (1, 2, 3):
                out = operator_power(diag_dec, k, diag_dec.eigenvectors[:, j])
                np.testing.assert_allclose(out, lam ** k * diag_dec.eigenvectors[:, j],
                                           atol=1e-10)

    def test_power_zero_is_identity(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        np.testing.assert_allclose(operator_power(cycle16_dec, 0.0, f), f, atol=1e-12)

    @pytest.mark.parametrize("s", [-0.5, math.nan])
    def test_negative_power_rejected(self, diag_dec, rng, s):
        with pytest.raises(InvalidParamsError):
            operator_power(diag_dec, s, random_vector(rng, 3))

    def test_sqrt_power_composes_to_full(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        twice = operator_power(random_dec, 0.5, operator_power(random_dec, 0.5, f))
        once = operator_power(random_dec, 1.0, f)
        assert np.linalg.norm(twice - once) <= 1e-10 * (1 + np.linalg.norm(once))

    def test_group_identity_at_zero(self, diag_dec, rng):
        f = random_vector(rng, 3)
        np.testing.assert_allclose(schrodinger_group(diag_dec, 0.0, f), f, atol=1e-14)

    def test_group_real_time_isometry(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        for t in (0.3, -1.7, 12.0):
            out = schrodinger_group(random_dec, t, f)
            assert abs(np.linalg.norm(out) - np.linalg.norm(f)) \
                <= 1e-10 * np.linalg.norm(f)

    def test_group_law(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        lhs = schrodinger_group(random_dec, 0.4,
                                schrodinger_group(random_dec, 1.1, f))
        rhs = schrodinger_group(random_dec, 1.5, f)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(f)

    def test_power_commutes_with_group(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        lhs = operator_power(random_dec, 1.5, schrodinger_group(random_dec, 0.9, f))
        rhs = schrodinger_group(random_dec, 0.9, operator_power(random_dec, 1.5, f))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_complex_time_growth_on_eigenvector(self, diag_dec):
        u = diag_dec.eigenvectors[:, 2]  # lambda = 3, so omega_f = 3
        for z in (1j, -0.5j, 0.7 - 0.2j):
            grown = np.linalg.norm(schrodinger_group(diag_dec, z, u))
            assert grown <= math.exp(3.0 * abs(z.imag)) * (1 + 1e-12)


class TestMultiplierErrors:
    def test_non_finite_multiplier_rejected(self, cycle16_dec, rng):
        from bandapprox import NonFiniteMultiplierError

        f = random_vector(rng, 16)
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteMultiplierError):
            # 1/lambda blows up on the zero mode of the cycle Laplacian
            apply_multiplier(cycle16_dec, lambda lam: 1.0 / lam, f)
