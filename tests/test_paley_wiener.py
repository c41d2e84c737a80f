"""Band projections, best approximation, bandwidth, Bernstein ratios."""

import math

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    InvalidParamsError,
    NegativeOmegaError,
    NotBandlimitedError,
    SymmetricOperator,
    ZeroVectorError,
    bandwidth,
    bernstein_check,
    best_approx,
    dense_union_check,
    eigh,
    inverse_transform,
    pw_project,
    spectral_tail,
)
from conftest import random_vector


class TestProjection:
    def test_full_band_is_identity(self, diag_dec, rng):
        f = random_vector(rng, 3)
        np.testing.assert_allclose(pw_project(diag_dec, f, 3.0), f, atol=1e-12)
        np.testing.assert_allclose(pw_project(diag_dec, f, 100.0), f, atol=1e-12)

    def test_empty_band_is_zero(self, diag_dec, rng):
        f = random_vector(rng, 3)
        np.testing.assert_allclose(pw_project(diag_dec, f, 0.5), 0.0, atol=1e-12)

    def test_definition_on_coefficients(self, diag_dec):
        f = inverse_transform(diag_dec, [1.0, 1.0, 1.0])
        projected = pw_project(diag_dec, f, 2.0)
        np.testing.assert_allclose(projected, inverse_transform(diag_dec, [1.0, 1.0, 0.0]),
                                   atol=1e-12)

    def test_band_edge_is_inside(self, diag_dec):
        u = diag_dec.eigenvectors[:, 1]  # lambda = 2
        np.testing.assert_allclose(pw_project(diag_dec, u, 2.0), u, atol=1e-14)

    def test_idempotent(self, cycle16_dec, rng):
        # idempotence up to one transform round-trip of rounding noise
        f = random_vector(rng, 16)
        once = pw_project(cycle16_dec, f, 1.3)
        twice = pw_project(cycle16_dec, once, 1.3)
        assert np.linalg.norm(once - twice) <= 1e-13 * np.linalg.norm(f)

    def test_idempotent_exactly_for_diagonal_operator(self, diag_dec, rng):
        # with the standard basis the projection is a pure mask: exact
        f = random_vector(rng, 3)
        once = pw_project(diag_dec, f, 2.0)
        twice = pw_project(diag_dec, once, 2.0)
        np.testing.assert_array_equal(once, twice)

    def test_negative_omega_rejected(self, diag_dec, rng):
        with pytest.raises(NegativeOmegaError):
            pw_project(diag_dec, random_vector(rng, 3), -0.1)


class TestBestApprox:
    def test_unit_tail(self, diag_dec):
        f = inverse_transform(diag_dec, [1.0, 1.0, 1.0])
        assert abs(best_approx(diag_dec, f, 2.0) - 1.0) <= 1e-12

    def test_nothing_kept(self, diag_dec):
        f = inverse_transform(diag_dec, [1.0, 1.0, 1.0])
        assert abs(best_approx(diag_dec, f, 0.5) - math.sqrt(3.0)) <= 1e-12

    def test_monotone_and_vanishing_at_top(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        values = [best_approx(cycle16_dec, f, w)
                  for w in np.unique(cycle16_dec.eigenvalues)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert best_approx(cycle16_dec, f, cycle16_dec.lambda_max) <= 1e-12

    def test_equals_spectral_tail_on_random_instances(self, rng):
        from bandapprox import RAW_L, SymmetricOperator, eigh

        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = rng.standard_normal((n, n))
            mat = (a @ a.T + (a @ a.T).T) / 2
            dec = eigh(SymmetricOperator(mat, kind=RAW_L))
            f = random_vector(rng, n)
            omega = float(rng.uniform(0, 1.2 * dec.lambda_max))
            e_val = best_approx(dec, f, omega)
            r_val = spectral_tail(dec, f, omega)
            assert abs(e_val - r_val) <= 1e-12 * (1 + np.linalg.norm(f))

    def test_pythagoras(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        omega = 1.2
        proj = pw_project(cycle16_dec, f, omega)
        lhs = np.linalg.norm(f) ** 2
        rhs = np.linalg.norm(proj) ** 2 + best_approx(cycle16_dec, f, omega) ** 2
        assert abs(lhs - rhs) <= 1e-10 * lhs

    def test_optimality_over_random_competitors(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        omega = 1.5
        e_val = best_approx(cycle16_dec, f, omega)
        for _ in range(50):
            g = pw_project(cycle16_dec, random_vector(rng, 16), omega)
            assert np.linalg.norm(f - g) >= e_val - 1e-12


class TestBandwidth:
    def test_eigenvector_is_exact_for_all_k(self, diag_dec):
        rep = bandwidth(diag_dec, diag_dec.eigenvectors[:, 1])
        assert rep.omega_f == 2.0
        np.testing.assert_allclose(rep.k_sequence, 2.0, rtol=1e-12)

    def test_two_point_spectrum_closed_form(self, rng):
        from bandapprox import RAW_D, SymmetricOperator, eigh

        dec = eigh(SymmetricOperator(np.diag([1.0, 2.0]), kind=RAW_D))
        f = inverse_transform(dec, [1.0, 1.0])
        rep = bandwidth(dec, f)
        ks = np.arange(1, 41)
        closed = (1.0 + 2.0 ** (2 * ks)) ** (1.0 / (2 * ks))
        np.testing.assert_allclose(rep.k_sequence, closed, rtol=1e-12)
        # the gap to the support edge shrinks toward zero
        gaps = np.abs(rep.k_sequence - 2.0)
        assert gaps[-1] < gaps[0] and gaps[-1] < 0.02

    def test_unit_vector_sequence_is_nondecreasing(self, rng):
        from bandapprox import RAW_D, SymmetricOperator, eigh

        dec = eigh(SymmetricOperator(np.diag([1.0, 2.0]), kind=RAW_D))
        f = inverse_transform(dec, np.array([1.0, 1.0]) / math.sqrt(2))
        rep = bandwidth(dec, f)
        assert np.all(np.diff(rep.k_sequence) >= -1e-12)

    def test_sup_ratio_finite_iff_probe_covers_support(self, cycle16_dec, rng):
        f = pw_project(cycle16_dec, random_vector(rng, 16), 1.5)
        rep = bandwidth(cycle16_dec, f)
        norm_f = np.linalg.norm(f)
        # probe at the support edge: ratios bounded by ||f||
        assert rep.sup_ratio <= norm_f * (1 + 1e-10)
        above = bandwidth(cycle16_dec, f, probe_omega=rep.omega_f * 1.3)
        assert above.sup_ratio <= norm_f * (1 + 1e-10)
        below = bandwidth(cycle16_dec, f, probe_omega=rep.omega_f * 0.7, k_max=40)
        assert below.sup_ratio > 2 * norm_f

    def test_zero_vector_rejected(self, diag_dec):
        with pytest.raises(ZeroVectorError):
            bandwidth(diag_dec, np.zeros(3))

    @pytest.mark.parametrize("k_max", [0, -3, 2.0, True])
    def test_k_max_must_be_a_positive_integer(self, diag_dec, k_max):
        with pytest.raises(InvalidParamsError):
            bandwidth(diag_dec, np.ones(3), k_max=k_max)


class TestBernstein:
    def test_equality_on_top_band_eigenvector(self, diag_dec):
        rep = bernstein_check(diag_dec, diag_dec.eigenvectors[:, 2], 3.0,
                              [0.5, 1.0, 2.0, 7.0])
        np.testing.assert_allclose(rep.ratios, 1.0, atol=1e-12)

    def test_s_zero_gives_ratio_one(self, diag_dec):
        rep = bernstein_check(diag_dec, diag_dec.eigenvectors[:, 0], 1.0, [0.0])
        assert abs(rep.ratios[0] - 1.0) <= 1e-12

    def test_random_bandlimited_vectors(self, cycle16_dec, rng):
        lam_pos = np.unique(cycle16_dec.eigenvalues[cycle16_dec.eigenvalues > 0])
        for _ in range(25):
            omega = float(rng.choice(lam_pos))
            f = pw_project(cycle16_dec, random_vector(rng, 16), omega)
            if np.linalg.norm(f) < 1e-12:
                continue
            rep = bernstein_check(cycle16_dec, f, omega, [0.5, 1.0, 2.0, 7.0])
            assert rep.passed, rep.ratios

    def test_not_bandlimited_rejected(self, diag_dec):
        f = inverse_transform(diag_dec, [1.0, 0.0, 1.0])
        with pytest.raises(NotBandlimitedError):
            bernstein_check(diag_dec, f, 2.0, [1.0])


class TestDenseUnion:
    def test_large_eps_gives_zero(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        assert dense_union_check(cycle16_dec, f, np.linalg.norm(f) * 1.01) == 0.0

    def test_tiny_eps_gives_support_edge(self, diag_dec):
        f = inverse_transform(diag_dec, [1.0, 1.0, 0.0])
        omega = dense_union_check(diag_dec, f, 1e-14)
        assert omega == 2.0

    def test_returned_threshold_achieves_eps(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        eps = np.linalg.norm(f) / 2
        omega = dense_union_check(cycle16_dec, f, eps)
        assert best_approx(cycle16_dec, f, omega) <= eps
        # minimality: every smaller candidate overshoots
        smaller = [w for w in np.unique(cycle16_dec.eigenvalues) if w < omega]
        for w in smaller:
            assert best_approx(cycle16_dec, f, w) > eps

    def test_first_qualifying_candidate(self):
        dec = eigh(SymmetricOperator(np.diag([0.0, 1.0, 2.0, 3.0]), kind=RAW_D))
        f = np.array([1.0, 0.5, 0.25, 0.125], dtype=complex)
        for eps in (1.0, 0.3, 0.2, 0.125, 0.1, 1e-3):
            first = next(w for w in (0.0, 1.0, 2.0, 3.0) if spectral_tail(dec, f, w) <= eps)
            assert dense_union_check(dec, f, eps) == first

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_nonpositive_eps_rejected(self, diag_dec, rng, eps):
        with pytest.raises(InvalidParamsError):
            dense_union_check(diag_dec, random_vector(rng, 3), eps)
