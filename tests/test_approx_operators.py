"""Riesz interpolation, the sinc-power kernel, Q operator, Jackson chain."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidOrderError,
    InvalidParamsError,
    KernelOrderMismatchError,
    NotBandlimitedError,
    OddOrderError,
    OrderTooSmallError,
    RieszConfig,
    SymmetricOperator,
    apply_multiplier,
    best_approx,
    build_kernel,
    eigh,
    jackson_check,
    jackson_constant,
    modulus,
    pw_project,
    q_apply,
    q_symbol,
    riesz_apply,
    riesz_identity_check,
    riesz_symbol,
    spectral_tail,
    spectral_transform,
)
from bandapprox.approx_operators import _trigamma, _uniform_bspline
from bandapprox.harness import DEFAULT_TOLERANCES as TOLS, build_operator, parse_operator_arg
from conftest import random_vector
from oracles import (
    half_moment_by_quadrature,
    half_moment_mpmath,
    half_moment_quadosc,
    kernel_norm_const_closed_form,
    kernel_symbol_by_quadrature,
    kernel_values,
    operator_power,
    q_symbol_by_quadrature,
    q_symbol_by_shifts,
    q_symbol_mpmath,
    riesz_symbol_direct,
    riesz_symbol_mpmath,
    riesz_symbol_paired,
    uniform_bspline_by_lists,
)
from public_calls import check_block


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

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 2.5, 19.5, 20.0, 20.5, 100.5, 10000.5,
                                   10001.5, 1e8 + 0.5])
    def test_trigamma_matches_mpmath(self, x):
        # both sides of the switch from the recurrence to the series at x = 20
        with mpmath.workdps(40):
            exact = mpmath.polygamma(1, x)
            assert abs(float((mpmath.mpf(_trigamma(x)) - exact) / math.ulp(float(exact)))) <= 2

    @pytest.mark.parametrize("k_trunc", [1, 2, 3, 99, 10_000, 1_000_000])
    def test_tail_bound_matches_mpmath(self, k_trunc):
        cfg = RieszConfig(omega=1.7, k_trunc=k_trunc)
        with mpmath.workdps(40):
            half_k = mpmath.mpf(k_trunc) + mpmath.mpf(0.5)
            exact = (mpmath.mpf(cfg.omega) / mpmath.pi ** 2
                     * (mpmath.polygamma(1, half_k) + mpmath.polygamma(1, half_k + 1)))
            assert abs(float(mpmath.mpf(cfg.tail_bound) / exact - 1)) <= 1e-15

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

    def test_an_axis_of_omega(self):
        omegas = [[0.5], [1.7], [3.0]]
        cfg = RieszConfig(omega=omegas, k_trunc=100)
        assert (cfg.omega.shape, cfg.omega.flags.writeable) == ((3, 1), False)
        lams = np.linspace(0.0, 3.0, 7)
        symbols = riesz_symbol(lams, cfg)
        assert symbols.shape == (3, 1, 7)
        for (omega,), row, bound in zip(omegas, symbols, cfg.tail_bound.ravel().tolist()):
            one = RieszConfig(omega, 100)
            np.testing.assert_array_equal(row[0], riesz_symbol(lams, one))
            assert bound == one.tail_bound
        # a scalar config keeps its float, its equality and its hash; an axis has neither
        assert type(RieszConfig(1.7).tail_bound) is float
        assert hash(RieszConfig(1.7)) == hash(RieszConfig(1.7, 10_000))
        with pytest.raises(TypeError):
            hash(cfg)
        with pytest.raises(ValueError):
            cfg == RieszConfig(omega=omegas, k_trunc=100)
        with pytest.raises(InvalidConfigError):
            RieszConfig(omega=[1.0, 0.0])

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

    @pytest.mark.parametrize("power", [1, 2])
    def test_identity_on_an_axis_of_edges_equals_its_scalar_calls(self, cycle16_dec, rng, power):
        dec = cycle16_dec

        def identity(dec, f, omega):
            return riesz_identity_check(dec, f, omega, power, 1000)

        block = pw_project(dec, np.array([random_vector(rng, 16) for _ in range(3)]), 1.0)
        block[1] = 0.0  # a zero row reads 0
        assert identity(dec, block[1], 1.0).residual == 0.0
        check_block("riesz_identity_check", dec, block[:, None], np.array([1.0, 1.4, 2.1, 3.9]),
                    identity)
        # as verify calls it: each eigenvector at its own eigenvalue, one row per edge
        picks = [5, 10, 15]
        check_block("riesz_identity_check", dec, dec.eigenvectors[:, picks].T,
                    dec.eigenvalues[picks], identity)
        with pytest.raises(NotBandlimitedError):  # the rows hold mass above 0.5
            identity(dec, block[:, None], [0.5, 1.0])


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

    @pytest.mark.parametrize("k_trunc", [1, 2, 3, 5, 99, 100, 101, 10_000])
    @pytest.mark.parametrize("n", [1, 2, 9, 256])
    def test_matches_the_directly_phased_pairing(self, n, k_trunc):
        # the same paired sum with every phase from its own exponential: angle addition adds one
        # rounding to the phases past the first sqrt b steps of each grid, whose terms are small
        omegas = np.array([0.3, 1.7, 4.0])
        for omega in omegas:  # the band edge, past the band and a negative point come first
            spread = np.random.default_rng(n + k_trunc).uniform(-3.0, 3.0, max(n - 3, 0)) * omega
            lams = np.concatenate(([omega, 2.5 * omega, -0.7 * omega], spread))[:n]
            cfg = RieszConfig(omega, k_trunc)
            dev = np.max(np.abs(riesz_symbol(lams, cfg) - riesz_symbol_paired(lams, cfg)))
            assert dev <= 2e-15 * omega, (omega, dev)

    def test_exponentials_per_point_and_edge(self, monkeypatch):
        # at K = 10^4 (b = Q = 100): 20 for the baby steps, 20 for the giant steps and one for
        # k = -K, against 100 + 99 + 1 with every phase taken directly
        counts, exp = [], np.exp

        def counted(x, *args, **kw):
            counts.append(np.size(x))
            return exp(x, *args, **kw)

        monkeypatch.setattr(np, "exp", counted)
        lams, cfg = np.linspace(0.0, 3.0, 256), RieszConfig(2.0, 10_000)
        for symbol, most in ((riesz_symbol, 256 * 41), (riesz_symbol_paired, 256 * 200)):
            counts.clear()
            symbol(lams, cfg)
            assert sum(counts) <= most, (symbol.__name__, sum(counts))
        assert sum(counts) == 256 * 200  # the count sees every exponential

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

    @pytest.mark.parametrize("k_trunc", [1, 2, 3, 5, 100, 10_000])
    def test_an_axis_of_edges_equals_its_points_and_edges_alone(self, k_trunc):
        # repeated points, both zeros and points beyond the band: each distinct point is
        # evaluated once per edge, and every value is that of its point and edge alone
        lams = np.array([0.0, 1.3, 2.0, 1.3, 0.0, 7.5, -0.0, 2.0, 0.45, 1.3])
        omegas = np.array([[0.3, 1.3, 2.0], [2.6, 4.7, 11.0]])
        symbols = riesz_symbol(lams, RieszConfig(omegas, k_trunc))
        assert symbols.shape == omegas.shape + lams.shape
        for index in np.ndindex(omegas.shape):
            cfg = RieszConfig(float(omegas[index]), k_trunc)
            for lam, value in zip(lams.tolist(), symbols[index]):
                assert value.tobytes() == riesz_symbol(lam, cfg)[0].tobytes(), (index, lam)
            np.testing.assert_array_equal(symbols[index], riesz_symbol(lams, cfg))
            dev = np.max(np.abs(symbols[index] - riesz_symbol_direct(lams, cfg)))
            assert dev <= 1e-14 * cfg.omega, (index, dev)

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

    def test_an_axis_of_edges_keeps_the_working_set_of_one(self, cycle16_dec):
        # the edges are taken one after another: a block of edges x b x Q giant steps would
        # hold 20 * 9 * 100 * 99 complex values, about 29 MB
        peaks = []
        for omega in (1.0, np.linspace(0.3, 2.4, 20)):
            tracemalloc.start()
            try:
                riesz_symbol(cycle16_dec.eigenvalues, RieszConfig(omega))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks


class TestKernel:
    def test_order_validation(self):
        with pytest.raises(OddOrderError):
            build_kernel(5, 1)
        with pytest.raises(OrderTooSmallError):
            build_kernel(4, 2)  # needs n >= 5

    def test_value_at_origin(self):
        kernel = build_kernel(4, 1)
        assert abs(float(kernel_values(kernel, 0.0)) - kernel.norm_const * 4.0 ** (-4)) <= 1e-15

    @pytest.mark.parametrize("n", [144, 150, 200])
    def test_order_beyond_the_double_range_rejected(self, n):
        # (sin(t/n)/t)^n underflows, so the normalization constant is no finite double
        with pytest.raises(InvalidParamsError, match=f"n={n}"):
            build_kernel(n, 2)

    def test_mass_is_one_under_refinement(self):
        # 142 is the largest even order whose normalization constant is a double
        for n in (4, 6, 8, 142):
            kernel = build_kernel(n, 1)
            refined = 2.0 * kernel.norm_const * half_moment_by_quadrature(n, 0, refine=2)
            assert abs(refined - 1.0) <= 1e-8

    def test_norm_const_matches_bspline_closed_form(self):
        for n in (4, 6, 8, 10):
            kernel = build_kernel(n, 1)
            exact = kernel_norm_const_closed_form(n)
            assert abs(kernel.norm_const - exact) <= 1e-9 * exact

    def test_moment_finite_and_stable(self):
        kernel = build_kernel(6, 2)
        m2 = kernel.moment(2)
        refined = 2.0 * kernel.norm_const * half_moment_by_quadrature(6, 2, refine=2)
        assert math.isfinite(m2) and m2 > 0
        assert abs(m2 - refined) <= 1e-9 * m2

    def test_nonnegative_on_samples(self):
        kernel = build_kernel(6, 2)
        t = np.linspace(-500, 500, 20_001)
        values = kernel_values(kernel, t)
        assert np.all(values >= 0)
        np.testing.assert_allclose(values, kernel_values(kernel, -t), atol=1e-18)

    def test_moments_are_the_exact_sums(self):
        # every even order up to 80 and every finite moment: within 4e-16 of Gradshteyn &
        # Ryzhik 3.827 at 50 digits, where the float sums cancel to 8e-7 at n = 40
        worst = 0.0
        for n in range(4, 81, 2):
            kernel = build_kernel(n, 1)
            for p in range(n - 1):
                exact = half_moment_mpmath(n, p)
                worst = max(worst, abs(float(kernel.moment(p) / (2 * kernel.norm_const) / exact
                                             - 1)))
        assert worst <= 4e-16

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 40, 74])
    def test_moments_match_gauss_legendre(self, n):
        # the composite quadrature shares no code with the sums; 74 is the largest order at
        # which its t^p stays finite (5.4e-10 off there, at p = 72)
        kernel = build_kernel(n, 1)
        for p in range(n - 1):
            quad = 2.0 * kernel.norm_const * half_moment_by_quadrature(n, p)
            assert abs(kernel.moment(p) - quad) <= 1e-9 * kernel.moment(p), p

    @pytest.mark.parametrize("n, p", [(6, 4), (40, 38), (80, 78), (100, 97)])
    def test_moments_match_quadosc(self, n, p):
        # the high moments, where the Gauss-Legendre oracle is weakest or overflows
        kernel = build_kernel(n, 1)
        quad = float(half_moment_quadosc(n, p))
        assert abs(kernel.moment(p) / (2 * kernel.norm_const) - quad) <= 1e-15 * quad

    @pytest.mark.parametrize("p, error", [(-1, InvalidOrderError), (-2, InvalidOrderError),
                                          (1.5, InvalidOrderError), (True, InvalidOrderError),
                                          (5, OrderTooSmallError), (6, OrderTooSmallError)])
    def test_divergent_or_fractional_moment_rejected(self, p, error):
        # the integral of h |t|^p diverges at 0 for p <= -1 and at infinity for p > n - 2
        with pytest.raises(error):
            build_kernel(6, 2).moment(p)


class TestKernelSymbol:
    def test_normalized_at_origin(self):
        kernel = build_kernel(6, 2)
        assert kernel.symbol(0.0) == 1.0
        assert abs(kernel_symbol_by_quadrature(kernel, 0.0) - 1.0) <= 1e-8

    def test_vanishes_outside_band(self):
        kernel = build_kernel(4, 1)
        for xi in (1.0, 1.01, 1.5, 3.0):
            assert kernel.symbol(xi) == 0.0
            assert abs(kernel_symbol_by_quadrature(kernel, xi)) <= 1e-8

    def test_known_value_order_four(self):
        # B-spline values give exactly 1/4 at half-band for order 4
        kernel = build_kernel(4, 1)
        assert abs(kernel.symbol(0.5) - 0.25) <= 1e-15
        assert abs(kernel_symbol_by_quadrature(kernel, 0.5) - 0.25) <= 1e-8

    @pytest.mark.parametrize("shape", [(), (7,), (2, 256), (3, 1, 5)])
    def test_stacked_bspline_is_the_list_recursion_bit_for_bit(self, shape):
        # the same element-wise operations on a stack as on one array per knot; points
        # cover the support [0, n], its knots and both sides of it
        rng = np.random.default_rng(33)
        for n in (1, 2, 3, 4, 6, 31, 80, 145):
            y = rng.uniform(-1.0, n + 1.0, shape)
            if y.size > 2:
                y.flat[:3] = 0.0, 1.0, float(n)
            assert np.array_equal(_uniform_bspline(n, y), uniform_bspline_by_lists(n, y))

    def test_dual_evaluators_agree_at_64_points(self):
        for n in (4, 6):
            kernel = build_kernel(n, 1)
            xi = np.linspace(-1.2, 1.2, 64)
            dev = np.max(np.abs(kernel.symbol(xi) - kernel_symbol_by_quadrature(kernel, xi)))
            assert dev <= 1e-8


class TestQOperator:
    def test_shift_coefficients_sum_to_one(self):
        # the coefficients (-1)^{j+1} C(m, j) of e^{ij s D}, j >= 1, in the expansion of
        # (-1)^{m+1} (e^{isD} - I)^m sum to 1, and so the symbol is exactly 1 at lambda = 0 up
        # to the largest order whose weights are exact doubles (every partial sum is one too)
        for m in range(1, 57):
            kernel = build_kernel(m + 4 - m % 2, m)
            assert q_symbol(kernel, 1.0, m, [0.0]).tolist() == [1.0]

    @pytest.mark.parametrize("m", [57, 58, 61, 77])
    def test_weights_that_are_no_exact_doubles_are_rejected(self, cycle16_dec, m):
        # from m = 57 some C(m, j) passes 2^53 and is rounded: at m = 58 the weights summed to
        # -2, and at m = 77 (n = 80) the symbol read -156940 at lambda = 0, where it is 1
        kernel = build_kernel(80, m)
        with pytest.raises(KernelOrderMismatchError, match=r"2\^53"):
            q_symbol(kernel, 1.2, m, [0.0])
        with pytest.raises(KernelOrderMismatchError):
            q_apply(cycle16_dec, np.ones(16), 1.2, m, kernel)

    @pytest.mark.parametrize("m", [10, 20, 30])
    def test_symbol_against_mpmath(self, m):
        # the weights cancel terms up to C(m, m/2) in the sum, so its error grows like 2^m ulps
        kernel = build_kernel(m + 4, m)
        for omega in (1.0, 1.7):
            lam = np.linspace(0.0, 0.3, 31) * omega
            exact = [q_symbol_mpmath(m + 4, m, x, omega) for x in lam.tolist()]
            error = np.max(np.abs(q_symbol(kernel, omega, m, lam) - exact))
            assert error <= 4 * 2.0 ** m * np.finfo(float).eps

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
        fast = q_apply(diag_dec, f, 2.5, 2, kernel)
        symbol = q_symbol_by_quadrature(kernel, 2.5, 2, diag_dec.eigenvalues)
        slow = apply_multiplier(diag_dec, lambda lam: symbol, f)
        assert np.linalg.norm(fast - slow) <= 1e-7 * np.linalg.norm(f)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_symbol_equals_its_sum_over_shifts(self, cycle16_dec, m):
        # one kernel transform of every shift, its rows added in j order, as shift by shift
        kernel = build_kernel(m + 3 + (m + 3) % 2, m)
        lam = np.concatenate([cycle16_dec.eigenvalues, [0.0, 0.37, 5.0]])
        for omega in (1.3, np.array([0.4, 1.0, 2.5, 7.0]), np.array([[0.4], [1.9]])):
            fast = q_symbol(kernel, omega, m, lam)
            assert fast.shape == np.shape(omega) + lam.shape
            assert fast.tobytes() == q_symbol_by_shifts(kernel, omega, m, lam).tobytes()

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
                      * half_moment_by_quadrature(6, 1 + i, refine=2) for i in range(3))
        assert abs(base - refined) <= 1e-9 * base

    def test_index_out_of_range(self):
        kernel = build_kernel(6, 2)
        with pytest.raises(IndexOutOfRangeError):
            jackson_constant(kernel, 2, 3)

    @pytest.mark.parametrize("n", [76, 78, 80, 100, 142])
    def test_large_orders_finite(self, n):
        # from n = 76 the quadrature's t^p overflowed: nan constants, or a RuntimeError
        kernel = build_kernel(n, n - 3)
        for m in range(n - 1):
            for k in range(min(m, n - 2 - m) + 1):
                assert 0.0 < jackson_constant(kernel, m, k) < math.inf, (m, k)

    def test_divergent_tail_rejected(self):
        # k = m = 2 with n = 6 is the boundary n = 2m + 2: finite
        kernel6 = build_kernel(6, 2)
        assert math.isfinite(jackson_constant(kernel6, 2, 2))
        # m = 3, k = 2 with n = 6 would need n >= 7: rejected
        kernel = build_kernel(6, 3)
        with pytest.raises(OrderTooSmallError):
            jackson_constant(kernel, 3, 2)


def _jackson_holds(rep) -> bool:
    """The bounds ``verify`` applies to the chain's ratios and its link gap."""
    return (rep.link_gap <= TOLS["jackson_link"]
            and max(rep.ratio_best, rep.ratio_q) <= 1.0 + TOLS["jackson_ratio"])


class TestJacksonCheck:
    def test_bandlimited_input_vacuous_or_tiny(self, cycle16_dec, rng):
        kernel = build_kernel(6, 2)
        omega = cycle16_dec.lambda_max
        f = pw_project(cycle16_dec, random_vector(rng, 16), omega)
        rep = jackson_check(cycle16_dec, f, omega, 2, 0, kernel)
        assert rep.best <= 1e-12 * np.linalg.norm(f)
        assert _jackson_holds(rep)

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
        assert _jackson_holds(rep)

    @pytest.mark.parametrize("m,k", [(1, 0), (2, 1), (3, 1), (4, 2), (4, 0)])
    def test_no_scan_point_below_the_first_maximum(self, cycle16_dec, rng, scan_work, m, k):
        # past omega = 4 lambda_max / (3 pi), 1 / omega < (4j - 1) pi / (4j lambda_max) for every
        # order j = m - k >= 1, so it lies below the first point of the shift scan (pi /
        # lambda_max) and its grid neighbour: every ||Delta_tau^j D^k f|| rises up to 1 / omega,
        # the modulus is its value there, one ``_difference_norms`` call, and nothing is refined
        kernel = build_kernel(2 * (m // 2) + 4, m)
        omegas = 4.0 * cycle16_dec.lambda_max / (3.0 * math.pi) * np.array([1.01, 1.5, 10.0])
        f = np.array([random_vector(rng, 16) for _ in range(3)])[:, None]
        rep = jackson_check(cycle16_dec, f, omegas, m, k, kernel)
        assert len(scan_work.norms) == 1 and scan_work.newton == []
        assert np.all(rep.bound > 0.0)

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
                    assert _jackson_holds(rep), (m, k, omega, rep)


#: a degenerate spectrum, a path, random PSD, and raw_D with a kernel mode
BATCH_SPECS = (("cycle:16", RAW_L), ("path:9", RAW_L), ("random:12:3", RAW_L),
               ("diag:0,0.5,1,2,3.5,7", RAW_D))


class TestJacksonReports:
    """Every vector and band edge in one block call, against the public functions edge by edge."""

    @pytest.mark.parametrize("m,order", [(2, 6), (3, 8)])
    @pytest.mark.parametrize("text,kind", BATCH_SPECS, ids=[t for t, _ in BATCH_SPECS])
    def test_matches_public_functions(self, text, kind, m, order, rng):
        dec = eigh(build_operator(parse_operator_arg(text, kind=kind)))
        kernel = build_kernel(order, m)
        vectors = [random_vector(rng, dec.dim) for _ in range(3)]
        top, low = dec.lambda_max, dec.min_positive_eigenvalue
        omegas = [1.3 * top, 0.4 * top, 0.6 * low, 2.1 * top, 0.4 * top]  # unsorted, a repeat
        for k in range(m + 1):
            const = jackson_constant(kernel, m, k)
            rep = jackson_check(dec, np.array(vectors)[:, None], omegas, m, k, kernel)
            assert rep.best.shape == rep.ratio_q.shape == (len(vectors), len(omegas))
            assert rep.constant == const
            for i, f in enumerate(vectors):
                norm_f = np.linalg.norm(f)
                for j, omega in enumerate(omegas):
                    q_err = np.linalg.norm(q_apply(dec, f, omega, m, kernel) - f)
                    bound = const * modulus(dec, operator_power(dec, k, f), 1.0 / omega,
                                            m - k) / omega ** k
                    assert abs(rep.best[i, j] - best_approx(dec, f, omega)) <= 1e-12 * norm_f
                    assert abs(rep.q_error[i, j] - q_err) <= 1e-12 * norm_f
                    assert abs(rep.bound[i, j] - bound) <= 1e-12 * bound
                    assert rep.link_gap[i, j] == rep.best[i, j] - rep.q_error[i, j]

    @pytest.mark.parametrize("k", [-1, 3])
    def test_power_outside_zero_to_m_rejected(self, cycle16_dec, rng, k):
        kernel = build_kernel(8, 2)
        f = random_vector(rng, 16)
        with pytest.raises(IndexOutOfRangeError):
            jackson_check(cycle16_dec, [f, f], [1.0, 2.0], 2, k, kernel)
        with pytest.raises(IndexOutOfRangeError):
            jackson_check(cycle16_dec, f, 1.0, 2, k, kernel)
