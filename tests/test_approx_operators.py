"""Riesz interpolation, the sinc-power kernel, Q operator, Jackson chain."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidParamsError,
    KernelOrderMismatchError,
    NotBandlimitedError,
    OddOrderError,
    OrderTooSmallError,
    RieszConfig,
    SymmetricOperator,
    build_kernel,
    eigh,
    jackson_check,
    jackson_constant,
    kernel_symbol,
    pw_project,
    q_apply,
    riesz_apply,
    riesz_identity_check,
    riesz_symbol,
    shift_coefficients,
    spectral_tail,
    spectral_transform,
)
from bandapprox.approx_operators import _psi_moment
from conftest import random_vector
from oracles import kernel_norm_const_closed_form, riesz_symbol_direct, riesz_symbol_mpmath


class TestRiesz:
    def test_zero_vector(self, diag_dec):
        out = riesz_apply(diag_dec, np.zeros(3), RieszConfig(omega=2.0))
        np.testing.assert_array_equal(out, 0.0)

    def test_norm_bound(self, cycle16_dec, rng):
        cfg = RieszConfig(omega=1.7, k_trunc=10_000)
        for _ in range(10):
            f = random_vector(rng, 16)
            out = riesz_apply(cycle16_dec, f, cfg)
            assert np.linalg.norm(out) <= cfg.omega * np.linalg.norm(f) * (1 + 1e-6)

    def test_tail_bound_matches_brute_force(self):
        cfg = RieszConfig(omega=2.0, k_trunc=500)
        cutoff = 3_000_000
        k = np.arange(501, cutoff)
        brute = (cfg.omega / math.pi ** 2) * float(
            np.sum(1.0 / (k - 0.5) ** 2 + 1.0 / (k + 0.5) ** 2))
        # the brute sum stops at the cutoff, so it brackets the bound from below
        assert brute <= cfg.tail_bound <= brute * (1 + 1e-12) \
            + 2.1 * (cfg.omega / math.pi ** 2) / (cutoff - 1)

    def test_symbol_converges_to_ilambda_on_band(self):
        omega = 2.0
        lams = np.linspace(0.0, omega, 33)
        errors = []
        for k_trunc in (100, 1000, 10_000):
            rho = riesz_symbol(lams, RieszConfig(omega, k_trunc))
            errors.append(float(np.max(np.abs(rho - 1j * lams))))
        assert errors[0] > errors[1] > errors[2]
        slope = np.polyfit(np.log([100, 1000, 10_000]), np.log(errors), 1)[0]
        assert abs(slope + 1.0) <= 0.2

    def test_residual_below_tail_bound(self):
        omega = 2.0
        cfg = RieszConfig(omega, 10_000)
        lams = np.linspace(0.0, omega, 65)
        rho = riesz_symbol(lams, cfg)
        assert np.max(np.abs(rho - 1j * lams)) <= cfg.tail_bound * (1 + 1e-10)

    def test_identity_on_eigenvector(self, diag_dec):
        u = diag_dec.eigenvectors[:, 1]  # lambda = 2, band edge omega = 2
        residuals = [riesz_identity_check(diag_dec, u, 2.0, 1, k).residual
                     for k in (100, 1000, 10_000)]
        assert residuals[0] > residuals[1] > residuals[2]
        slope = np.polyfit(np.log([100, 1000, 10_000]), np.log(residuals), 1)[0]
        assert abs(slope + 1.0) <= 0.2

    def test_identity_second_power_composes(self, diag_dec):
        u = diag_dec.eigenvectors[:, 1]
        cfg = RieszConfig(omega=2.0, k_trunc=10_000)
        twice = riesz_apply(diag_dec, riesz_apply(diag_dec, u, cfg), cfg)
        target = (1j * 2.0) ** 2 * u
        assert np.linalg.norm(twice - target) / np.linalg.norm(target) <= 1e-3
        rep = riesz_identity_check(diag_dec, u, 2.0, 2, 10_000)
        assert rep.residual <= 1e-3

    @pytest.mark.parametrize("omega", [0.3085016415179093, 0.317294755324036])
    def test_identity_tail_at_band_edge_within_verify_bound(self, omega):
        # at lam = omega the residual equals the tail bound exactly, so the ratio
        # that verify holds to 1 + 1e-10 measures only the rounding of the symbol;
        # the sum of all 2K+1 terms reads 1 + 1.28e-10 and 1 + 1.03e-10 here
        dec = eigh(SymmetricOperator(np.diag([omega]), kind=RAW_D))
        rep = riesz_identity_check(dec, dec.eigenvectors[:, 0], omega, 1, 10_000)
        assert rep.residual / rep.tail_bound <= 1 + 1e-10

    def test_zero_vector_identity_report(self, diag_dec):
        rep = riesz_identity_check(diag_dec, np.zeros(3), 2.0, 1, 100)
        assert rep.residual == 0.0

    def test_not_bandlimited_rejected(self, diag_dec):
        with pytest.raises(NotBandlimitedError):
            riesz_identity_check(diag_dec, diag_dec.eigenvectors[:, 2], 2.0, 1, 100)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            RieszConfig(omega=0.0)
        with pytest.raises(InvalidConfigError):
            RieszConfig(omega=1.0, k_trunc=0)

    @pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(InvalidConfigError):
            RieszConfig(omega=omega)

    @pytest.mark.parametrize("k_trunc", [2.5, 100.0, True, np.float64(3.0), "100"])
    def test_non_integer_truncation_rejected(self, k_trunc):
        with pytest.raises(InvalidConfigError):
            RieszConfig(omega=1.0, k_trunc=k_trunc)

    def test_numpy_integer_truncation_accepted(self):
        lams = np.linspace(0.0, 3.0, 7)
        np.testing.assert_array_equal(riesz_symbol(lams, RieszConfig(2.0, np.int64(100))),
                                      riesz_symbol(lams, RieszConfig(2.0, 100)))

    @pytest.mark.parametrize("power", [0, -1, 1.5, 2.0, True])
    def test_identity_power_must_be_positive_integer(self, diag_dec, power):
        u = diag_dec.eigenvectors[:, 1]
        with pytest.raises(InvalidParamsError):
            riesz_identity_check(diag_dec, u, 2.0, power, 100)
        with pytest.raises(InvalidParamsError):
            riesz_identity_check(diag_dec, np.zeros(3), 2.0, power, 100)

    def test_identity_accepts_numpy_integer_power(self, diag_dec):
        u = diag_dec.eigenvectors[:, 1]
        rep = riesz_identity_check(diag_dec, u, 2.0, np.int64(2), 100)
        assert rep.residual == riesz_identity_check(diag_dec, u, 2.0, 2, 100).residual


class TestRieszSymbolFastPath:
    """The paired baby-step/giant-step sum against the full 2K+1-term series."""

    @pytest.mark.parametrize("k_trunc", [1, 2, 3, 4, 5, 99, 100, 101, 9_999, 10_000])
    def test_matches_direct_series(self, k_trunc):
        for omega in (0.3, 1.7, 4.0):
            lams = np.concatenate([np.linspace(0.0, 50.0 * omega, 201),
                                   [omega, omega * (1 - 1e-12), 2.0 * omega, -0.7 * omega]])
            cfg = RieszConfig(omega, k_trunc)
            fast = riesz_symbol(lams, cfg)
            assert fast.shape == lams.shape and fast.dtype == np.complex128
            dev = np.max(np.abs(fast - riesz_symbol_direct(lams, cfg)))
            assert dev <= 1e-14 * omega, (omega, dev)

    @pytest.mark.parametrize("k_trunc", [1_000, 10_000])
    def test_matches_high_precision_reference(self, k_trunc):
        omega = 1.7
        lams = [omega, 0.37 * omega, 2.6 * omega, -omega]
        fast = riesz_symbol(lams, RieszConfig(omega, k_trunc))
        for lam, value in zip(lams, fast):
            exact = riesz_symbol_mpmath(lam, omega, k_trunc)
            assert abs(value - exact) <= 4e-15 * omega, (lam, abs(value - exact))

    @pytest.mark.parametrize("k_trunc", [1_000, 10_000])
    def test_band_edge_within_few_ulps(self, k_trunc):
        # at lam = omega every term is in phase: rho = i (omega - tail) exactly, and
        # the identity-tail check in verify reads this value at the ulp level
        with mpmath.workdps(30):
            half_k = mpmath.mpf(k_trunc) + mpmath.mpf(0.5)
            series = mpmath.pi ** 2 - 2 * mpmath.polygamma(1, half_k) + 1 / half_k ** 2
            for omega in np.random.default_rng(5).uniform(0.2, 4.5, 60):
                rho = riesz_symbol(omega, RieszConfig(float(omega), k_trunc))[0]
                exact = mpmath.mpf(omega) * series / mpmath.pi ** 2
                assert abs(rho.real) <= 1e-15 * omega
                assert abs(float(mpmath.mpf(rho.imag) - exact)) <= 4 * math.ulp(omega), omega

    def test_scalar_and_empty_input(self):
        cfg = RieszConfig(2.0, 100)
        assert riesz_symbol(1.5, cfg).shape == (1,)
        assert riesz_symbol(np.array([]), cfg).shape == (0,)

    def test_memory_is_sublinear_in_truncation(self):
        lams = np.linspace(0.0, 3.0, 4096)
        cfg = RieszConfig(2.0, 10_000)
        tracemalloc.start()
        try:
            rho = riesz_symbol(lams, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full phase matrix would be 16 * 4096 * 20001 bytes, about 1.3 GB
        assert peak < 64 * 2 ** 20, peak
        assert np.max(np.abs(rho)) <= cfg.omega * (1 + 1e-12)


class TestKernel:
    def test_order_validation(self):
        with pytest.raises(OddOrderError):
            build_kernel(5, 1)
        with pytest.raises(OrderTooSmallError):
            build_kernel(4, 2)  # needs n >= 5

    def test_value_at_origin(self):
        kernel = build_kernel(4, 1)
        assert abs(float(kernel.h(0.0)) - kernel.norm_const * 4.0 ** (-4)) <= 1e-15

    def test_mass_is_one_under_refinement(self):
        for n in (4, 6, 8):
            kernel = build_kernel(n, 1)
            refined = 2.0 * kernel.norm_const * _psi_moment(n, 0, refine=2)
            assert abs(refined - 1.0) <= 1e-8

    def test_norm_const_matches_bspline_closed_form(self):
        for n in (4, 6, 8, 10):
            kernel = build_kernel(n, 1)
            exact = kernel_norm_const_closed_form(n)
            assert abs(kernel.norm_const - exact) <= 1e-9 * exact

    def test_moment_finite_and_stable(self):
        kernel = build_kernel(6, 2)
        m2 = kernel.moment(2)
        refined = 2.0 * kernel.norm_const * _psi_moment(6, 2, refine=2)
        assert math.isfinite(m2) and m2 > 0
        assert abs(m2 - refined) <= 1e-6 * m2

    def test_nonnegative_on_samples(self):
        kernel = build_kernel(6, 2)
        t = np.linspace(-500, 500, 20_001)
        values = kernel.h(t)
        assert np.all(values >= 0)
        np.testing.assert_allclose(values, kernel.h(-t), atol=1e-18)


class TestKernelSymbol:
    def test_normalized_at_origin(self):
        kernel = build_kernel(6, 2)
        assert kernel.symbol(0.0) == 1.0
        assert abs(kernel.symbol_quadrature(0.0) - 1.0) <= 1e-8

    def test_vanishes_outside_band(self):
        kernel = build_kernel(4, 1)
        for xi in (1.0, 1.01, 1.5, 3.0):
            assert kernel.symbol(xi) == 0.0
            assert abs(kernel.symbol_quadrature(xi)) <= 1e-8

    def test_known_value_order_four(self):
        # B-spline values give exactly 1/4 at half-band for order 4
        kernel = build_kernel(4, 1)
        assert abs(kernel.symbol(0.5) - 0.25) <= 1e-15
        assert abs(kernel.symbol_quadrature(0.5) - 0.25) <= 1e-8

    def test_dual_evaluators_agree_at_64_points(self):
        for n in (4, 6):
            kernel = build_kernel(n, 1)
            xi = np.linspace(-1.2, 1.2, 64)
            dev = np.max(np.abs(kernel_symbol(kernel, xi, "bspline")
                                - kernel_symbol(kernel, xi, "quadrature")))
            assert dev <= 1e-8

    def test_unknown_method_rejected(self):
        kernel = build_kernel(4, 1)
        with pytest.raises(InvalidParamsError):
            kernel_symbol(kernel, 0.3, "fourier")


class TestQOperator:
    def test_shift_coefficients_sum_to_one(self):
        for m in range(1, 8):
            b = shift_coefficients(m)
            assert abs(b.sum() - 1.0) <= 1e-12
            # re-derivation: coefficients of e^{ij s D} in the expansion of
            # (-1)^{m+1} (e^{isD} - I)^m are (-1)^{j+1} C(m, j) for j >= 1
            expected = [(-1.0) ** (j + 1) * math.comb(m, j) for j in range(1, m + 1)]
            np.testing.assert_array_equal(b, expected)

    def test_zero_vector(self, cycle16_dec):
        kernel = build_kernel(6, 2)
        out = q_apply(cycle16_dec, np.zeros(16), 1.0, 2, kernel)
        np.testing.assert_array_equal(out, 0.0)

    def test_kernel_mode_passes_through(self, cycle16_dec, rng):
        kernel = build_kernel(6, 2)
        f = random_vector(rng, 16)
        qf = q_apply(cycle16_dec, f, 1.0, 2, kernel)
        c_in = spectral_transform(cycle16_dec, f)
        c_out = spectral_transform(cycle16_dec, qf)
        zero_modes = cycle16_dec.eigenvalues == 0.0
        assert np.any(zero_modes)
        dev = np.max(np.abs(c_out[zero_modes] - c_in[zero_modes]))
        assert dev <= 1e-10 * np.linalg.norm(f)

    def test_output_is_bandlimited(self, cycle16_dec, rng):
        kernel = build_kernel(6, 2)
        for omega in (0.5, 1.0, 1.9):
            f = random_vector(rng, 16)
            qf = q_apply(cycle16_dec, f, omega, 2, kernel)
            assert spectral_tail(cycle16_dec, qf, omega) <= 1e-10 * np.linalg.norm(f)

    def test_small_bandwidth_error_bounded_by_direct_estimate(self, cycle16_dec, rng):
        from bandapprox import modulus

        m = 2
        kernel = build_kernel(6, m)
        omega = 2.0 * cycle16_dec.lambda_max
        f = pw_project(cycle16_dec, random_vector(rng, 16), omega / m)
        qf = q_apply(cycle16_dec, f, omega, m, kernel)
        err = np.linalg.norm(qf - f)
        bound = jackson_constant(kernel, m, 0) * modulus(cycle16_dec, f, 1.0 / omega, m)
        assert err <= bound * (1 + 1e-6)
        assert err <= 0.5 * np.linalg.norm(f)  # smooth input: visibly small error

    def test_symbol_route_matches_quadrature_route(self, diag_dec, rng):
        kernel = build_kernel(6, 2)
        f = random_vector(rng, 3)
        fast = q_apply(diag_dec, f, 2.5, 2, kernel, method="bspline")
        slow = q_apply(diag_dec, f, 2.5, 2, kernel, method="quadrature")
        assert np.linalg.norm(fast - slow) <= 1e-7 * np.linalg.norm(f)

    def test_kernel_order_mismatch(self, diag_dec, rng):
        kernel = build_kernel(4, 1)
        with pytest.raises(KernelOrderMismatchError):
            q_apply(diag_dec, random_vector(rng, 3), 1.0, 2, kernel)


class TestJacksonConstant:
    def test_order_zero_at_least_one(self):
        for n, m in ((4, 1), (6, 2), (8, 3)):
            assert jackson_constant(build_kernel(n, m), m, 0) >= 1.0

    def test_stable_under_refinement(self):
        kernel = build_kernel(6, 2)
        base = jackson_constant(kernel, 2, 1)
        refined = sum(math.comb(2, i) * 2.0 * kernel.norm_const
                      * _psi_moment(6, 1 + i, refine=2) for i in range(3))
        assert abs(base - refined) <= 1e-6 * base

    def test_proof_exponent_variant_is_smaller(self):
        kernel = build_kernel(8, 3)
        full = jackson_constant(kernel, 3, 1)
        proof = jackson_constant(kernel, 3, 1, proof_exponent=True)
        assert 0 < proof <= full

    def test_index_out_of_range(self):
        kernel = build_kernel(6, 2)
        with pytest.raises(IndexOutOfRangeError):
            jackson_constant(kernel, 2, 3)

    def test_divergent_tail_rejected(self):
        # k = m = 2 with n = 6 is the boundary n = 2m + 2: finite
        kernel6 = build_kernel(6, 2)
        assert math.isfinite(jackson_constant(kernel6, 2, 2))
        # m = 3, k = 2 with n = 6 would need n >= 7: rejected
        kernel = build_kernel(6, 3)
        with pytest.raises(OrderTooSmallError):
            jackson_constant(kernel, 3, 2)


class TestJacksonCheck:
    def test_bandlimited_input_vacuous_or_tiny(self, cycle16_dec, rng):
        kernel = build_kernel(6, 2)
        omega = cycle16_dec.lambda_max
        f = pw_project(cycle16_dec, random_vector(rng, 16), omega)
        rep = jackson_check(cycle16_dec, f, omega, 2, 0, kernel)
        assert rep.best <= 1e-12 * np.linalg.norm(f)
        assert rep.passed

    def test_single_eigenvector_closed_forms(self, diag_dec):
        # E = 1 below the eigenvalue; the bound reduces to single-mode values
        kernel = build_kernel(6, 2)
        u = diag_dec.eigenvectors[:, 2]  # lambda = 3
        omega, m, k = 2.0, 2, 1
        rep = jackson_check(diag_dec, u, omega, m, k, kernel)
        assert abs(rep.best - 1.0) <= 1e-12
        lam = 3.0
        expected_modulus = max(2 * abs(math.sin(tau * lam / 2)) * lam
                               for tau in np.linspace(0, 1 / omega, 4097))
        expected_bound = jackson_constant(kernel, m, k) * expected_modulus / omega
        assert abs(rep.bound - expected_bound) <= 1e-4 * expected_bound
        assert rep.passed

    def test_random_sweep(self, random_dec, rng):
        combos = ((2, 0, 6), (2, 1, 6), (3, 1, 8))
        start = random_dec.eigenvalues[0]
        omegas = np.linspace(max(start, 0.05 * random_dec.lambda_max),
                             2 * random_dec.lambda_max, 5)
        for m, k, order in combos:
            kernel = build_kernel(order, m)
            for _ in range(5):
                f = random_vector(rng, random_dec.dim)
                for omega in omegas:
                    rep = jackson_check(random_dec, f, float(omega), m, k, kernel)
                    assert rep.passed, (m, k, omega, rep)
