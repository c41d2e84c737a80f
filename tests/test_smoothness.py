"""Moduli of continuity, Besov norms, K-functional."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    BesovParams,
    DimensionMismatchError,
    InvalidOrderError,
    InvalidParamsError,
    NonPositiveTError,
    SymmetricOperator,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    difference,
    eigh,
    k_besov_norm,
    k_functional,
    lemma1_check,
    lemma2_check,
    modulus,
    modulus_inequality_checks,
    pw_project,
    sup_scaled_best_approx,
)
from bandapprox.harness import DEFAULT_TOLERANCES as TOLS
from bandapprox.harness import build_operator, parse_operator_arg
from bandapprox.smoothness import _clipped_newton, _difference_norms
from conftest import random_vector
from oracles import (
    besov_integral_by_quadrature,
    difference_by_composition,
    k_functional_bruteforce,
    modulus_dense_scan,
    operator_power,
)
from public_calls import check_homogeneous


class TestDifference:
    def test_zero_shift_vanishes(self, diag_dec, rng):
        out = difference(diag_dec, random_vector(rng, 3), 0.0, 2)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_first_order_norm_on_eigenvector(self, diag_dec):
        tau = 0.37
        for j, lam in enumerate(diag_dec.eigenvalues):
            out = difference(diag_dec, diag_dec.eigenvectors[:, j], tau, 1)
            assert abs(np.linalg.norm(out) - 2 * abs(math.sin(tau * lam / 2))) <= 1e-12

    @pytest.mark.parametrize("m", [0, 1.5, 2.0, True])
    def test_order_must_be_a_positive_integer(self, diag_dec, m):
        with pytest.raises(InvalidParamsError):
            difference(diag_dec, np.ones(3), 0.5, m)

    def test_matches_composition_oracle(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        for m in (1, 2, 3, 4):
            direct = difference(random_dec, f, 0.61, m)
            composed = difference_by_composition(random_dec, f, 0.61, m)
            assert np.linalg.norm(direct - composed) <= 1e-12 * (1 + np.linalg.norm(f))


class TestModulus:
    def test_single_eigenvector_closed_form(self, diag_dec):
        # g is monotone on [0, pi / lambda], so the sup sits at s itself
        u = diag_dec.eigenvectors[:, 2]  # lambda = 3
        s = 0.9  # s * lambda <= pi
        got = modulus(diag_dec, u, s, 1)
        assert abs(got - 2 * math.sin(s * 3 / 2)) <= 1e-10

    def test_zero_vector(self, diag_dec):
        assert modulus(diag_dec, np.zeros(3), 1.0, 2) == 0.0

    @pytest.mark.parametrize("m", [-1, 1.5, 2.0, True])
    def test_order_must_be_a_nonnegative_integer(self, diag_dec, m):
        # the m-th difference is defined for integer m only
        with pytest.raises(InvalidParamsError):
            modulus(diag_dec, np.ones(3), 0.5, m)

    def test_uniform_bound(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        for m in (1, 2, 3):
            for s in (0.2, 1.0, 7.0, 40.0):
                assert modulus(cycle16_dec, f, s, m) \
                    <= 2 ** m * np.linalg.norm(f) * (1 + 1e-12)

    def test_nondecreasing_in_s(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        values = [modulus(cycle16_dec, f, s, 2) for s in np.linspace(0.0, 6.0, 13)]
        assert values[0] == 0.0
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_order_zero_returns_norm(self, diag_dec, rng):
        f = random_vector(rng, 3)
        assert abs(modulus(diag_dec, f, 2.0, 0) - np.linalg.norm(f)) <= 1e-12

    @pytest.mark.parametrize("text,kind", [("cycle:16", RAW_L), ("path:9", RAW_L),
                                           ("random:12:3", RAW_L),
                                           ("diag:0,0.5,1,2,3.5,7", RAW_D)])
    def test_below_pi_over_lambda_max_it_is_the_difference_at_s(self, text, kind, rng):
        # ||Delta_tau^m f||^2 = sum |c|^2 (2 sin(tau lambda / 2))^{2m} rises on [0, pi / lambda_max],
        # so there Omega_m(f, s) = ||Delta_s^m f||.  The two routes share the transform and differ
        # by a synthesis of N terms and two sums of N terms, each of size at most 2^m ||f|| and
        # each rounding by at most about N eps 2^m ||f|| (Higham, "Accuracy and Stability of
        # Numerical Algorithms", 2nd ed., sec. 3.1), and by the basis's departure from
        # orthogonality, below N eps at these N: 4 N eps 2^m ||f|| in all
        dec = eigh(build_operator(parse_operator_arg(text, kind=kind)))
        top = math.pi / dec.lambda_max
        for m in (1, 2, 3, 4):
            f = random_vector(rng, dec.dim)
            bound = 4 * dec.dim * np.finfo(float).eps * 2.0 ** m * np.linalg.norm(f)
            for s in (1e-3 * top, 0.1 * top, 0.5 * top, 0.9 * top, top, rng.uniform(0.0, top)):
                assert abs(modulus(dec, f, s, m)
                           - np.linalg.norm(difference(dec, f, s, m))) <= bound, (m, s)

    def test_matches_dense_scan(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        s = 2.7
        fast = modulus(random_dec, f, s, 2)
        slow = modulus_dense_scan(random_dec, f, s, 2)
        assert abs(fast - slow) <= 1e-6 * (1 + slow)
        assert fast >= slow - 1e-12  # refinement only improves on the scan


class TestModulusInequalities:
    def test_k_zero_is_identity(self, cycle16_dec, rng):
        rep = modulus_inequality_checks(cycle16_dec, random_vector(rng, 16),
                                        1.3, 2.0, 2, 0)
        assert abs(rep.ratio_power - 1.0) <= 1e-12

    def test_single_eigenvector_closed_form(self, diag_dec):
        # both sides reduce to powers of 2 sin(tau lambda / 2) at lambda = 1
        u = diag_dec.eigenvectors[:, 0]
        s, m, k = 0.8, 2, 1
        rep = modulus_inequality_checks(diag_dec, u, s, 1.5, m, k)
        lhs = (2 * math.sin(s / 2)) ** 2
        rhs = s * (2 * math.sin(s / 2))  # |D u| = u, slack factor s^k
        assert abs(rep.ratio_power - lhs / rhs) <= 1e-6

    @pytest.mark.parametrize("s", [1e-7, 1e-8])
    def test_small_shifts_reach_their_limits(self, s):
        # Omega_2(f, s) ~ s^2 ||D^2 f|| as s -> 0, so the ratios tend to 1 and (a/(1+a))^m = 4/9;
        # "vanishing" was decided at ||f||, not at ||f|| min(2, s lambda_max)^m, and both read 0.0
        # from s = 1e-7 (ratio_power) or 1e-8 (ratio_scale)
        dec = eigh(build_operator(parse_operator_arg("cycle:8")))
        rep = modulus_inequality_checks(dec, np.arange(8.0), s, 2.0, 2, 2)
        assert abs(rep.ratio_power - 1.0) <= 1e-6 and abs(rep.ratio_scale - 4.0 / 9.0) <= 1e-6

    def test_one_shift_scan_per_order(self, cycle16_dec, rng, scans):
        # f at s and a s (m = j) and D^k f at s (m - k = j, k > 0) share the scan of order j:
        # orders 1, 2, 3 on the f side and 1, 2 on the D^k f side are 3 scans, not 5
        m, k = np.array([(1, 0), (2, 1), (2, 0), (3, 1), (3, 2)]).T
        modulus_inequality_checks(cycle16_dec, random_vector(rng, 16), 0.7, 2.0, m, k)
        assert len(scans) == 3

    def test_random_sweep(self, cycle16_dec, rng):
        for _ in range(50):
            f = random_vector(rng, 16)
            s = float(np.exp(rng.uniform(math.log(0.05), math.log(10.0))))
            a_scale = float(np.exp(rng.uniform(math.log(0.3), math.log(4.0))))
            m = int(rng.integers(1, 4))
            k = int(rng.integers(0, m + 1))
            rep = modulus_inequality_checks(cycle16_dec, f, s, a_scale, m, k)
            assert max(rep.ratio_power, rep.ratio_scale) <= 1.0 + TOLS["modulus_ratio"], \
                (s, a_scale, m, k, rep)


class TestBesovNorm:
    def test_eigenvector_integral_closed_form(self, diag_dec):
        u = diag_dec.eigenvectors[:, 1]  # lambda = 2
        for alpha, q in ((0.7, 1.0), (0.9, 2.0), (1.5, 3.0)):
            params = BesovParams(alpha=alpha, q=q, flavor="integral_E")
            expected = 1.0 + (2.0 ** (alpha * q) / (alpha * q)) ** (1.0 / q)
            assert abs(besov_norm(diag_dec, u, params) - expected) <= 1e-12

    def test_eigenvector_sup_closed_form(self, diag_dec):
        u = diag_dec.eigenvectors[:, 1]
        params = BesovParams(alpha=0.8, q=math.inf, flavor="integral_E")
        assert abs(besov_norm(diag_dec, u, params) - (1.0 + 2.0 ** 0.8)) <= 1e-12

    def test_absolute_homogeneity_every_flavor(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        for flavor in ("integral_E", "discrete_E", "integral_R", "discrete_R",
                       "k_functional"):
            for q in (1.0, 2.0, math.inf):
                params = BesovParams(alpha=1.2, q=q, r=3, flavor=flavor)
                base = besov_norm(random_dec, f, params)
                scaled = besov_norm(random_dec, -7.25 * f, params)
                assert abs(scaled / base - 7.25) <= 7.25 * 1e-10

    def test_e_and_r_flavors_agree(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        for q in (1.0, 2.0, math.inf):
            pe = BesovParams(alpha=0.8, q=q, flavor="integral_E")
            pr = BesovParams(alpha=0.8, q=q, flavor="integral_R")
            ve, vr = besov_norm(cycle16_dec, f, pe), besov_norm(cycle16_dec, f, pr)
            assert abs(ve - vr) <= 1e-12 * ve

    def test_closed_form_matches_quadrature_oracle(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        for alpha, q in ((0.7, 1.0), (1.5, 2.0)):
            params = BesovParams(alpha=alpha, q=q, flavor="integral_E")
            closed = besov_norm(cycle16_dec, f, params) - np.linalg.norm(f)
            quad = besov_integral_by_quadrature(cycle16_dec, f, alpha, q)
            assert abs(closed - quad) <= 1e-6 * quad

    def test_discrete_truncation_matches_direct_sum(self, cycle16_dec, rng):
        # direct sum uses the coefficient tail, which is exactly zero above
        # the top eigenvalue; the vector-domain residual has a ~1e-14 floor
        # that the geometric weight a^{k alpha} would amplify
        from bandapprox import spectral_tail

        f = random_vector(rng, 16)
        alpha, q, a = 0.9, 2.0, 2.0
        params = BesovParams(alpha=alpha, q=q, a=a, flavor="discrete_R")
        got = besov_norm(cycle16_dec, f, params)
        direct = np.linalg.norm(f) + sum(
            (a ** (k * alpha) * spectral_tail(cycle16_dec, f, a ** k)) ** q
            for k in range(50)) ** (1 / q)
        assert abs(got - direct) <= 1e-12 * direct

    def test_zero_vector_norm_is_zero(self, diag_dec):
        params = BesovParams(alpha=0.5, q=2.0, flavor="integral_E")
        assert besov_norm(diag_dec, np.zeros(3), params) == 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            BesovParams(alpha=0.0, q=2.0)
        with pytest.raises(InvalidParamsError):
            BesovParams(alpha=1.0, q=0.5)
        with pytest.raises(InvalidParamsError):
            BesovParams(alpha=2.0, q=2.0, r=2)  # needs alpha < r
        with pytest.raises(InvalidParamsError):
            BesovParams(alpha=1.0, q=2.0, a=1.0)
        with pytest.raises(InvalidParamsError):
            BesovParams(alpha=1.0, q=2.0, r=2, flavor="modulus")  # q must be inf
        # alpha = r is allowed at q = inf
        BesovParams(alpha=2.0, q=math.inf, r=2)


class TestParameterAxis:
    """``BesovParams`` with array fields: one norm per element of the broadcast shape."""

    @pytest.mark.parametrize("fields", [
        dict(alpha=[0.5, 0.0], q=2.0), dict(alpha=0.5, q=[2.0, 0.5]),
        dict(alpha=0.5, q=2.0, a=[2.0, 1.0]), dict(alpha=[0.5, 1.5], q=2.0, r=[2, 1]),
        dict(alpha=0.5, q=2.0, r=[1, 1.5]), dict(alpha=0.5, q=2.0, r=np.array([2.0, 3.0])),
        dict(alpha=[0.5, 1.0], q=math.inf, flavor="modulus"),
        dict(alpha=[0.5, 0.8], q=[math.inf, 2.0], r=2, flavor="modulus"),
    ])
    def test_one_bad_element_raises(self, fields):
        with pytest.raises(InvalidParamsError):
            BesovParams(**fields)

    def test_shapes_that_do_not_broadcast_raise(self, cycle16_dec, rng):
        with pytest.raises(DimensionMismatchError):
            BesovParams(alpha=[0.5, 0.8], q=[1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            BesovParams(alpha=[0.5, 0.8], q=2.0, r=[[1], [2], [3]], a=[2.0, 1.5, 3.0])
        rows = np.array([random_vector(rng, 16) for _ in range(3)])
        with pytest.raises(DimensionMismatchError):
            besov_norm(cycle16_dec, rows, BesovParams(alpha=[0.5, 0.8], q=2.0))

    def test_default_r_is_taken_element_by_element(self):
        alphas, qs = [[0.5], [1.0], [1.5], [2.0]], [2.0, math.inf]
        p = BesovParams(alpha=alphas, q=qs)
        assert p.r.shape == (4, 2)
        np.testing.assert_array_equal(p.r, [[1, 1], [2, 1], [2, 2], [3, 2]])
        for (alpha,), row in zip(alphas, p.r.tolist()):
            assert row == [BesovParams(alpha=alpha, q=q).r for q in qs]
        np.testing.assert_array_equal(p.q == math.inf, [False, True])  # the shape of q

    def test_a_scalar_keeps_its_types(self):
        p = BesovParams(alpha=0.8, q=2.0)
        assert (type(p.alpha), type(p.r), type(p.q == math.inf)) == (float, int, bool)
        assert p == BesovParams(alpha=0.8, q=2.0, r=1)
        assert hash(p) == hash(BesovParams(alpha=0.8, q=2.0, r=1))
        axis = BesovParams(alpha=[0.8], q=2.0)
        assert (axis.r.dtype.kind, axis.alpha.flags.writeable) == ("i", False)


class TestKFunctional:
    def test_zero_vector(self, diag_dec):
        assert k_functional(diag_dec, np.zeros(3), 1.0, 2) == 0.0

    def test_feasible_point_bounds(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        for t in (0.01, 0.5, 10.0):
            value = k_functional(random_dec, f, t, 2)
            assert value <= np.linalg.norm(f) * (1 + 1e-10)
            d2f = operator_power(random_dec, 2, f)
            assert value <= t * np.linalg.norm(d2f) * (1 + 1e-10) + 1e-12

    def test_matches_bruteforce_at_dim_two(self, rng):
        for trial in range(20):
            lam = np.sort(rng.uniform(0.2, 4.0, size=2))
            dec = eigh(SymmetricOperator(np.diag(lam), kind=RAW_D))
            f = random_vector(rng, 2)
            t = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e2))))
            r = int(rng.integers(1, 4))
            path = k_functional(dec, f, t, r)
            brute = k_functional_bruteforce(dec, f, t, r)
            assert abs(path - brute) <= 1e-4 * brute + 1e-12, (trial, lam, t, r)

    def test_nondecreasing_and_concave_in_t(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        ts = np.exp(np.linspace(math.log(1e-3), math.log(1e2), 11))
        vals = [k_functional(cycle16_dec, f, t, 2) for t in ts]
        assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))
        for i in range(1, len(ts) - 1):
            chord = vals[i - 1] + (vals[i + 1] - vals[i - 1]) \
                * (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
            assert vals[i] >= chord - 1e-7 * (1 + vals[i])

    def test_nonpositive_t_rejected(self, diag_dec, rng):
        with pytest.raises(NonPositiveTError):
            k_functional(diag_dec, random_vector(rng, 3), 0.0, 1)

    def test_graph_norm_variant_dominates_seminorm(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        t = 0.7
        semi = k_functional(random_dec, f, t, 2, domain_norm="seminorm")
        graph = k_functional(random_dec, f, t, 2, domain_norm="graph")
        assert graph >= semi - 1e-10


class TestKBesovNorm:
    def test_zero_vector(self, diag_dec):
        params = BesovParams(alpha=0.5, q=2.0, r=1, flavor="k_functional")
        assert k_besov_norm(diag_dec, np.zeros(3), params) == 0.0

    def test_equivalence_bracket_vs_discrete(self, cycle16_dec, rng):
        params_k = BesovParams(alpha=0.8, q=2.0, r=2, flavor="k_functional")
        params_d = BesovParams(alpha=0.8, q=2.0, r=2, flavor="discrete_E")
        ratios = []
        for _ in range(50):
            f = random_vector(rng, 16)
            ratios.append(besov_norm(cycle16_dec, f, params_k)
                          / besov_norm(cycle16_dec, f, params_d))
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
        assert ratios.max() / ratios.min() < 100.0

    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_graph_norm_on_the_spectrum_zero(self, q):
        # lambda_max = 0: W = I, so K(t) = min(t, 1) ||f|| is not 0; t_lo = t_hi = 1, and the
        # ends give (t^-1/2 K)^2 integrals 25 (1/(2 (1/2)) + 1/(2 (1/2))), so 5 + 5 sqrt(2) at
        # q = 2, and the sup 5 at t = 1, so 10 at q = inf
        dec = eigh(SymmetricOperator(np.diag([0.0, 0.0]), kind=RAW_D))
        f = np.array([3.0, 4.0])
        params = BesovParams(alpha=0.5, q=q, r=1, flavor="k_functional")
        expected = 10.0 if q == math.inf else 5.0 + 5.0 * math.sqrt(2.0)
        assert math.isclose(k_besov_norm(dec, f, params, "graph"), expected, rel_tol=1e-12)
        assert k_besov_norm(dec, f, params) == 5.0  # seminorm: W = 0, so K(t) = 0


class TestSeminormSup:
    def test_zero_vector(self, diag_dec):
        assert besov_seminorm_sup(diag_dec, np.zeros(3), 1.5, 1, 2) == 0.0

    def test_single_eigenvector_reduction(self, diag_dec):
        # tau^-beta lambda^n (2 sin(tau lambda / 2))^r, beta = alpha - n, peaks at tau = 2x / lambda
        # with x cot x = beta / r on (0, pi/2): lambda^{n+beta} (2x)^-beta (2 sin x)^r
        u = diag_dec.eigenvectors[:, 2]  # lambda = 3
        for alpha, n, r in ((1.6, 1, 2), (0.5, 0, 1), (2.9, 1, 2), (2.2, 0, 5)):
            beta = alpha - n
            with mpmath.workdps(40):
                x = mpmath.findroot(lambda x: x * mpmath.cot(x) - mpmath.mpf(beta) / r,
                                    (mpmath.mpf("1e-9"), mpmath.pi / 2), solver="bisect")
                exact = float(3 ** (n + mpmath.mpf(beta)) * (2 * x) ** -beta
                              * (2 * mpmath.sin(x)) ** r)
            got = besov_seminorm_sup(diag_dec, u, alpha, n, r)
            assert abs(got - exact) <= 1e-12 * exact, (alpha, n, r, got, exact)

    def test_homogeneity(self, cycle16_dec, rng):
        check_homogeneous("besov_seminorm_sup", cycle16_dec, random_vector(rng, 16), 3.0, 1,
                          lambda dec, f, p: besov_seminorm_sup(dec, f, 1.5, 1, 2), tol=1e-10)

    def test_invalid_order_rejected(self, diag_dec, rng):
        with pytest.raises(InvalidOrderError):
            besov_seminorm_sup(diag_dec, random_vector(rng, 3), 1.0, 1, 2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_orders_at_most_alpha_minus_n_rejected(self, r):
        # tau^-3 ||Delta_tau f|| is 7.0e4, 7.0e6 and 7.0e8 at tau = 1e-2, 1e-3 and 1e-4: the
        # supremum is infinite for r <= alpha - n, where the grid of s read 3.44e6 (r = 1)
        dec = eigh(SymmetricOperator(np.diag([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), kind=RAW_D))
        f = dec.eigenvectors[:, 1] + dec.eigenvectors[:, 5]
        with pytest.raises(InvalidOrderError, match="alpha < n \\+ r"):
            besov_seminorm_sup(dec, f, 3.0, 0, r)
        assert besov_seminorm_sup(dec, f, 3.0, 0, 4) > 0.0


class TestLemmas:
    def test_eigenvector_ratios_finite(self, diag_dec):
        u = diag_dec.eigenvectors[:, 1]
        rep1 = lemma1_check(diag_dec, u, 1.5, 1, 2)
        rep2 = lemma2_check(diag_dec, u, 1.5, 1, 2)
        assert 0 < rep1.ratio <= TOLS["finite_cap"]
        assert 0 < rep2.ratio <= TOLS["finite_cap"]

    def test_bandlimited_vector_bounded_lhs(self, cycle16_dec, rng):
        omega = 1.0
        f = pw_project(cycle16_dec, random_vector(rng, 16), omega)
        alpha = 1.5
        lhs = sup_scaled_best_approx(cycle16_dec, f, alpha)
        assert lhs <= omega ** alpha * np.linalg.norm(f) * (1 + 1e-10)
        rep = lemma1_check(cycle16_dec, f, alpha, 1, 2)
        assert rep.ratio <= TOLS["finite_cap"]

    def test_sup_scaled_alpha_range(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        # alpha = 0: s^0 E(f, s) is largest at s -> 0
        assert sup_scaled_best_approx(cycle16_dec, f, 0.0) == best_approx(cycle16_dec, f, 0.0)
        for alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidParamsError):
                sup_scaled_best_approx(cycle16_dec, f, alpha)

    def test_zero_vector_vacuous_pass(self, diag_dec):
        # both sides vanish: the ratio is 0, which passes every bound
        rep = lemma1_check(diag_dec, np.zeros(3), 1.5, 1, 2)
        assert rep.lhs == rep.rhs == rep.ratio == 0.0
        rep2 = lemma2_check(diag_dec, np.zeros(3), 1.5, 1, 2)
        assert rep2.lhs == rep2.rhs == rep2.ratio == 0.0

    def test_order_preconditions(self, diag_dec, rng):
        f = random_vector(rng, 3)
        with pytest.raises(InvalidOrderError):
            lemma1_check(diag_dec, f, 1.0, 1, 2)  # alpha - n = 0
        with pytest.raises(InvalidOrderError):
            lemma1_check(diag_dec, f, 4.0, 1, 2)  # alpha - n > r


class TestModulusFlavor:
    def test_matches_seminorm_at_order_zero(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        params = BesovParams(alpha=0.8, q=math.inf, r=2, flavor="modulus")
        got = besov_norm(cycle16_dec, f, params)
        expected = np.linalg.norm(f) + besov_seminorm_sup(cycle16_dec, f, 0.8, 0, 2)
        assert abs(got - expected) <= 1e-12 * expected

    def test_homogeneity(self, cycle16_dec, rng):
        params = BesovParams(alpha=0.8, q=math.inf, r=2, flavor="modulus")
        check_homogeneous("besov_norm", cycle16_dec, random_vector(rng, 16), 5.0, 1,
                          lambda dec, f, p: besov_norm(dec, f, params), tol=1e-10)


def test_newton_without_a_start_point_evaluates_nothing():
    # a shift scan or a K-path search that found no maximum to refine costs no evaluation
    calls = []
    x, best = _clipped_newton(lambda t: calls.append(t) or (t, t), np.zeros(0), 0.0, 1.0, 6)
    assert calls == [] and x.shape == best.shape == (0,)


def test_difference_norms_hold_two_arrays_of_their_product_at_once():
    # 2,000 shifts at N = 256: the sine array outlived its power and the peak was three times
    # the product |2 sin(tau lambda / 2)|^{2m} |c|^2
    rng = np.random.default_rng(3)
    lam, mag2 = np.sort(rng.uniform(0.0, 4.0, 256)), rng.uniform(size=256)
    taus = np.linspace(0.0, 3.0, 2000)
    tracemalloc.start()
    try:
        _difference_norms(lam, mag2, taus, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * taus.size * lam.size * 8, peak
