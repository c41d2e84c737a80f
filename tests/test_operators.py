"""Spectral core: eigendecomposition and functional calculus."""

import math
import warnings

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    DimensionMismatchError,
    InvalidParamsError,
    InvalidSpectrumError,
    NonFiniteError,
    NotPSDError,
    NotSymmetricError,
    SpectralDecomposition,
    SymmetricOperator,
    apply_multiplier,
    best_approx,
    eigh,
    inverse_transform,
    schrodinger_group,
    spectral_transform,
)
from bandapprox.harness import OperatorSpec, build_operator, parse_operator_arg
from bandapprox.operators import GROUP_TOL_FACTOR, _jacobi_eigh
from conftest import random_vector
from oracles import jacobi_eigh_row_column, operator_power


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

    @pytest.mark.parametrize("eigenvalues, eigenvectors", [
        ([2.0, 1.0, 0.0], np.eye(3)),        # descending: lambda_max would read 0.0
        ([0.0, 2.0, 1.0], np.eye(3)),        # not ascending
        ([0.0, math.nan, 1.0], np.eye(3)),
        ([0.0, 1.0, math.inf], np.eye(3)),
        ([-1.0, 0.0, 1.0], np.eye(3)),
        ([0.0, 1.0, 2.0], np.eye(2)),
        ([0.0, 1.0, 2.0], np.ones((3, 2))),
        ([[0.0, 1.0]], np.eye(2)),
        ([0.0, 1.0, 1.0 + 1e-9, 2.0], np.eye(4)),  # two values within eps_group = 2e-9
    ])
    def test_malformed_spectrum_rejected(self, eigenvalues, eigenvectors):
        # the descending case used to give lambda_max 0.0 and best_approx(ones(3), 1.5) = 1.0
        with pytest.raises(InvalidSpectrumError):
            SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)

    @pytest.mark.parametrize("kind", [RAW_L, RAW_D])
    def test_dimension_zero_rejected(self, kind):
        # the paper's spaces are never zero-dimensional: neither constructor takes N = 0, so no
        # public function meets a 0 x 0 operator and fails on it untyped
        with pytest.raises(DimensionMismatchError):
            SymmetricOperator(np.zeros((0, 0)), kind=kind)
        with pytest.raises(InvalidSpectrumError):
            SpectralDecomposition(eigenvalues=np.zeros(0), eigenvectors=np.zeros((0, 0)), kind=kind)

    def test_well_formed_spectrum_accepted(self):
        dec = SpectralDecomposition(eigenvalues=[0.0, 1.0, 1.0, 2.0], eigenvectors=np.eye(4))
        assert dec.groups == ((0,), (1, 2), (3,))  # the runs of equal eigenvalues
        assert dec.lambda_max == 2.0
        assert best_approx(dec, np.ones(4), 1.5) == 1.0

    def test_eps_group_is_derived(self):
        # the width of the cut rule is GROUP_TOL_FACTOR lambda_max for every decomposition, set
        # by none: a hand-built one cuts as eigh's does, and nan, a negative width or one that
        # bridges two distinct values cannot be passed
        dec = SpectralDecomposition(eigenvalues=[0.0, 1.0, 1.0, 2.0], eigenvectors=np.eye(4))
        assert dec.eps_group == GROUP_TOL_FACTOR * 2.0
        assert best_approx(dec, [0.0, 0.0, 0.0, 1.0], 2.0 - dec.eps_group / 2.0) == 0.0
        assert best_approx(dec, [0.0, 0.0, 0.0, 1.0], 2.0 - 2.0 * dec.eps_group) == 1.0
        for width in (math.nan, -1.0, 0.5):
            with pytest.raises(TypeError):
                SpectralDecomposition(eigenvalues=[0.0, 0.3, 1.0], eigenvectors=np.eye(3),
                                      eps_group=width)

    def test_degeneracy_grouping_tolerance(self):
        dec = eigh(SymmetricOperator(np.diag([1.0, 1.0 + 1e-12, 2.0]), kind=RAW_D))
        assert [len(g) for g in dec.groups] == [2, 1]
        for g in dec.groups:
            lam = dec.eigenvalues[list(g)]
            assert lam.max() - lam.min() <= dec.eps_group


class TestLapackOracle:
    """``eigh`` against ``np.linalg.eigh``: eigenvalues and per-group spectral projectors.

    Projectors, not vectors: a cycle has degenerate pairs, whose basis
    vectors each solver may rotate freely inside their eigenspace.
    """

    @pytest.mark.parametrize("text, kind", [
        ("cycle:16", RAW_L), ("cycle:64", RAW_L), ("path:33", RAW_L), ("complete:12", RAW_L),
        ("random:40:3", RAW_L), ("diag:0,0.5,1,2,2,3.5,7", RAW_D), ("diag:2", RAW_L),
        ("diag:0,0", RAW_L)])
    def test_eigenvalues_and_group_projectors(self, text, kind):
        op = build_operator(parse_operator_arg(text, kind=kind))
        dec = eigh(op)
        w, u = np.linalg.eigh(op.entries)
        matrix_eigs = dec.eigenvalues ** 2 if kind == RAW_L else dec.eigenvalues
        assert np.max(np.abs(matrix_eigs - w)) <= 1e-10
        v = dec.eigenvectors
        for group in dec.groups:
            g = list(group)
            assert np.max(np.abs(v[:, g] @ v[:, g].T - u[:, g] @ u[:, g].T)) <= 1e-10, group


class TestJacobi:
    def test_already_diagonal(self):
        w, v = _jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_one_by_one(self):
        w, v = _jacobi_eigh(np.array([[5.0]]))
        assert w[0] == 5.0 and v[0, 0] == 1.0

    @pytest.mark.parametrize("j", [200, -200, 600, -600, 1000, -1000])
    def test_power_of_two_scales_are_exact(self, j):
        # the sweeps rotate A 2^-e, max |A| 2^-e in [0.5, 1): A 2^j gives 2^j w and the same basis
        a = build_operator(parse_operator_arg("cycle:16")).entries
        w, v = _jacobi_eigh(a)
        w_j, v_j = _jacobi_eigh(a * 2.0 ** j)
        np.testing.assert_array_equal(w_j, w * 2.0 ** j)
        np.testing.assert_array_equal(v_j, v)

    @pytest.mark.parametrize("scale", [1e154, 1e-160, 1e-170])
    def test_scales_where_the_norm_over_or_underflows(self, scale):
        # ||A||_F overflowed (threshold inf) or underflowed (0): no sweep ran, or one left a
        # ghost eigenvalue 9.3e-9 scale; the bare diagonal [2, ..., 2] scale came back
        a = build_operator(parse_operator_arg("cycle:6")).entries
        w, _ = _jacobi_eigh(a * scale)
        np.testing.assert_allclose(w / scale, [0.0, 1.0, 1.0, 3.0, 3.0, 4.0], rtol=0, atol=1e-12)


def _jacobi_matrices():
    """Every builtin family at each size of 1, 2, 8, 16, 37 and 64 it takes (cycle needs 3
    nodes; 64 is the largest size the sweep benchmark solves), random_psd:128 (whose unpadded
    row stride would be 2 KiB), raw_D diagonals with repeated values, the zero matrix, cycle:16
    relabelled, and the matrices of the ``TestJacobi`` scales (no operator has dimension 0)."""
    def spec(text, kind=RAW_L):
        return build_operator(parse_operator_arg(text, kind)).entries

    for family in ("cycle", "path", "complete", "random_psd"):
        for n in (1, 2, 8, 16, 37, 64):
            if family != "cycle" or n >= 3:
                yield pytest.param(spec(f"{family}:{n}"), id=f"{family}:{n}")
    yield pytest.param(spec("random_psd:128"), id="random_psd:128")
    for text in ("diag:0,0,0", "diag:2,1,2,1,2", "diag:0,0.5,0.5,1,7,7,7", "diag:3"):
        yield pytest.param(spec(text, RAW_D), id=text)
    yield pytest.param(np.zeros((5, 5)), id="zero:5")
    perm = np.random.default_rng(25).permutation(16)
    yield pytest.param(spec("cycle:16")[np.ix_(perm, perm)], id="cycle:16 relabelled")
    for j in (200, -200, 600, -600, 1000, -1000):
        yield pytest.param(spec("cycle:16") * 2.0 ** j, id=f"cycle:16 * 2^{j}")
    for scale in (1e154, 1e-160, 1e-170):
        yield pytest.param(spec("cycle:6") * scale, id=f"cycle:6 * {scale}")


@pytest.mark.parametrize("matrix", _jacobi_matrices())
def test_jacobi_matches_the_two_sided_rotation_bit_for_bit(matrix):
    # the row step on [A | V^T] with the column copy performs the two-sided rotation's
    # floating-point operations on the same entries, so the eigenpairs agree bit for bit
    before = matrix.copy()
    w, v = _jacobi_eigh(matrix)
    w_ref, v_ref = jacobi_eigh_row_column(matrix)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert np.array_equal(matrix, before)


#: the ways a vector enters the library: the two transforms, and the one step
#: (``operators._coefficients``, which ``spectral_transform`` takes too) behind
#: every other public function
VECTOR_ENTRIES = {
    "spectral_transform": spectral_transform,
    "inverse_transform": inverse_transform,
    "apply_multiplier": lambda dec, f: apply_multiplier(dec, np.cos, f),
    "best_approx": lambda dec, f: best_approx(dec, f, 2.0),
}


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

    @pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
    @pytest.mark.parametrize("bad", [np.ones(4), np.ones((3, 1)), np.ones((3, 4)),
                                     np.float64(1.0)], ids=["length", "column", "matrix", "0-d"])
    def test_dimension_mismatch(self, diag_dec, entry, bad):
        with pytest.raises(DimensionMismatchError):
            VECTOR_ENTRIES[entry](diag_dec, bad)

    @pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_nonfinite_coefficients_rejected(self, diag_dec, entry, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                VECTOR_ENTRIES[entry](diag_dec, [1.0, bad, 0.0])


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
