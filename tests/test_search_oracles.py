"""Array-pass K-functional and modulus searches against oracles.

The oracles in ``oracles.py`` are the former library routines (one
golden-section search in log s per ``t`` for the K-functional, and the
shift scan with golden-section peak refinement), for the K-functional
norm a dense integral in ``log t`` of the library's ``K(t)`` with the
closed-form ends, and for the seminorm a denser scan of
``tau^-beta ||Delta_tau^r g||`` refined the same way.  The array passes,
refined by clipped Newton steps, must reproduce them to 1e-12 relative on
every family, including degenerate and trivial spectra.  A single
eigenvector has closed forms for both searches and for the K-functional
norm, and the results are 1-homogeneous in ``f`` far beyond the range
where squaring a coefficient would overflow.
"""

import math

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    BesovParams,
    besov_seminorm_sup,
    eigh,
    k_besov_norm,
    k_functional,
    modulus,
    spectral_tail,
    spectral_transform,
)
from bandapprox.harness import build_operator, parse_operator_arg
from bandapprox.operators import _coefficients, _measure
from bandapprox.smoothness import _moduli, _running_modulus
from conftest import random_vector
from oracles import (
    besov_seminorm_sup_per_s,
    k_besov_norm_dense,
    k_functional_golden,
    operator_power,
    running_modulus_golden,
    seminorm_golden,
)

REL = 1e-12

#: cycle/path/complete (degenerate), random PSD, a spectrum containing 0,
#: N = 1 and the spectrum {0}
SPECS = (("cycle:8", RAW_L), ("cycle:16", RAW_L), ("path:16", RAW_L),
         ("complete:12", RAW_L), ("random:32:3", RAW_L), ("random:64:4", RAW_L),
         ("diag:0,0.5,2,3", RAW_D), ("diag:2", RAW_D), ("diag:0,0", RAW_D))

#: lambda_max / lambda_min_positive = 1e4
WIDE_SPREAD = "diag:0.001,0.01,0.5,3,10"

#: squares of coefficients at 1e+-160 overflow or underflow
EXTREME_SCALES = (1e100, 1e-100, 1e150, 1e-150, 1e160, 1e-160)


def _dec(text, kind=RAW_D):
    return eigh(build_operator(parse_operator_arg(text, kind=kind)))


def _close(new, old):
    return abs(new - old) <= REL * abs(old)


@pytest.fixture(params=SPECS, ids=[text for text, _ in SPECS])
def case(request, rng):
    dec = _dec(*request.param)
    return dec, random_vector(rng, dec.dim)


class TestKFunctionalAgainstGoldenSearch:
    def test_besov_norm_every_family(self, case):
        dec, f = case
        params = BesovParams(alpha=1.5, q=2.0, flavor="k_functional")
        assert _close(k_besov_norm(dec, f, params), k_besov_norm_dense(dec, f, params))

    @pytest.mark.parametrize("alpha,q", [(0.7, 1.0), (0.9, math.inf)])
    def test_besov_norm_other_exponents(self, cycle16_dec, rng, alpha, q):
        f = random_vector(rng, 16)
        params = BesovParams(alpha=alpha, q=q, flavor="k_functional")
        assert _close(k_besov_norm(cycle16_dec, f, params),
                      k_besov_norm_dense(cycle16_dec, f, params))

    @pytest.mark.parametrize("text", ["cycle:16", "diag:0,0.5,2,3"])
    def test_graph_norm_variant(self, rng, text):
        dec = _dec(text, RAW_L if text.startswith("cycle") else RAW_D)
        f = random_vector(rng, dec.dim)
        params = BesovParams(alpha=0.7, q=1.0, flavor="k_functional")
        new = k_besov_norm(dec, f, params, domain_norm="graph")
        assert _close(new, k_besov_norm_dense(dec, f, params, domain_norm="graph"))
        for t in (1e-3, 0.7, 40.0):
            assert _close(k_functional(dec, f, t, 2, domain_norm="graph"),
                          k_functional_golden(dec, f, t, 2, domain_norm="graph"))

    def test_single_t_matches(self, random_dec, rng):
        f = random_vector(rng, random_dec.dim)
        for t in (1e-6, 1e-2, 0.5, 10.0, 1e5):
            for r in (1, 2, 3):
                assert _close(k_functional(random_dec, f, t, r),
                              k_functional_golden(random_dec, f, t, r))

    def test_wide_spread(self, rng):
        dec = _dec(WIDE_SPREAD)
        f = random_vector(rng, dec.dim)
        params = BesovParams(alpha=0.7, q=1.0, flavor="k_functional")
        assert _close(k_besov_norm(dec, f, params), k_besov_norm_dense(dec, f, params))

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_one_homogeneous_at_extreme_scales(self, cycle16_dec, rng, scale, q):
        f = random_vector(rng, 16)
        params = BesovParams(alpha=0.9, q=q, flavor="k_functional")
        base = k_besov_norm(cycle16_dec, f, params)
        scaled = k_besov_norm(cycle16_dec, scale * f, params)
        assert abs(scaled / (scale * base) - 1.0) <= 1e-12


#: operators of every kind the K-functional norm is held to 1e-12 of the dense oracle on
DENSE_SPECS = (("cycle:16", RAW_L), ("path:32", RAW_L), ("random:64", RAW_L),
               ("complete:12", RAW_L), ("diag:0,0.01,0.3,1,4,10", RAW_D))


@pytest.fixture(scope="module", params=DENSE_SPECS, ids=[text for text, _ in DENSE_SPECS])
def dense_dec(request):
    return _dec(*request.param)


@pytest.mark.parametrize("domain_norm", ["seminorm", "graph"])
@pytest.mark.parametrize("alpha,q", [(0.7, 1.0), (1.5, 1.5), (1.5, 2.0), (0.7, 10.0),
                                     (0.9, math.inf), (1.0, math.inf)])
def test_k_norm_against_the_dense_oracle(dense_dec, rng, alpha, q, domain_norm):
    # the 200-point t-grid on [1e-6 / lambda_max^r, 1e6] read the K part low by up to 1.1% at
    # q = 1 and 0.3% at q = inf; alpha = 1 at q = inf has theta = 1, where the sup is b0
    dec = dense_dec
    f = random_vector(rng, dec.dim)
    params = BesovParams(alpha=alpha, q=q, flavor="k_functional")
    assert _close(k_besov_norm(dec, f, params, domain_norm),
                  k_besov_norm_dense(dec, f, params, domain_norm))


class TestSeminormAgainstPerShiftSearch:
    """The seminorm is ``sup_tau tau^-beta ||Delta_tau^r D^n f||`` (``beta = alpha - n``), taken
    exactly by the shift scan; the oracle scans four times as densely and refines its peaks by
    golden section.  The former 512-point grid of ``s`` (``besov_seminorm_sup_per_s``) read
    low by up to 4e-4 relative and stays only as a lower bound."""

    def test_every_family(self, case):
        dec, f = case
        assert _close(besov_seminorm_sup(dec, f, 1.5, 1, 2), seminorm_golden(dec, f, 1.5, 1, 2))

    def test_order_zero(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        assert _close(besov_seminorm_sup(cycle16_dec, f, 0.8, 0, 2),
                      seminorm_golden(cycle16_dec, f, 0.8, 0, 2))

    @pytest.mark.parametrize("alpha,n,r", [(0.8, 0, 2), (0.5, 0, 1), (2.5, 1, 3)])
    def test_every_order(self, case, alpha, n, r):
        dec, f = case
        assert _close(besov_seminorm_sup(dec, f, alpha, n, r), seminorm_golden(dec, f, alpha, n, r))

    @pytest.mark.parametrize("text", [WIDE_SPREAD, "diag:0,0.01,0.3,1,4,10"])
    @pytest.mark.parametrize("alpha,n,r", [(1.5, 1, 2), (0.7, 0, 1), (2.5, 1, 3)])
    def test_wide_spreads(self, rng, text, alpha, n, r):
        dec = _dec(text)
        f = random_vector(rng, dec.dim)
        assert _close(besov_seminorm_sup(dec, f, alpha, n, r), seminorm_golden(dec, f, alpha, n, r))

    def test_wide_spread_not_below_capped_grid(self, rng):
        dec = _dec(WIDE_SPREAD)
        f = random_vector(rng, dec.dim)
        alpha, n, r = 0.5, 0, 1
        # the per-s search capped its shift grid at 8192 points at the top s
        top_s = 100.0 / dec.min_positive_eigenvalue
        assert 8 * r * top_s * dec.lambda_max / (2 * math.pi) > 8192
        new = besov_seminorm_sup(dec, f, alpha, n, r)
        old = besov_seminorm_sup_per_s(dec, f, alpha, n, r)
        assert new >= old - REL * abs(old)

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    def test_one_homogeneous_at_extreme_scales(self, cycle16_dec, rng, scale):
        f = random_vector(rng, 16)
        base = besov_seminorm_sup(cycle16_dec, f, 1.5, 1, 2)
        scaled = besov_seminorm_sup(cycle16_dec, scale * f, 1.5, 1, 2)
        assert abs(scaled / (scale * base) - 1.0) <= 1e-12


class TestNewtonScanAgainstGoldenScan:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_family(self, case, m):
        dec, f = case
        if dec.lambda_max == 0.0:
            assert modulus(dec, f, 1.0, m) == 0.0  # spectrum {0}: nothing to scan
            return
        mag2 = np.abs(spectral_transform(dec, f)) ** 2
        s_values = np.exp(np.linspace(math.log(0.01 / dec.lambda_max),
                                      math.log(20.0 / dec.min_positive_eigenvalue), 64))
        new = _running_modulus(dec.eigenvalues, mag2[None], s_values[None], m)[0]
        old = running_modulus_golden(dec.eigenvalues, mag2, s_values, m)
        assert np.all(np.abs(new - old) <= REL * np.abs(old))


class TestOneScanForManyShifts:
    """``_moduli`` at many ``s`` scans once, up to the largest; its grid depends only on
    ``m`` and ``lambda_max``, and it runs two points past the largest ``s``, so every
    value equals a scan up to that ``s`` alone.  A scan that stopped one point past ``s``
    would leave a maximum just below the last ``s`` unrefined (0.5% low on random:12:3)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("text", ["cycle:16", "path:9", "random:12:3"])
    def test_matches_one_call_per_shift(self, text, m, rng):
        dec = _dec(text, RAW_L)
        _, c, e = _coefficients(dec, random_vector(rng, dec.dim))
        top, low = dec.lambda_max, dec.min_positive_eigenvalue
        # unsorted, with a repeat and s = 0, then a fine sweep
        s_values = [1.0 / low, 0.3 / top, 0.0, 4.0 / top, 0.3 / top, 2.5 / low, 0.05 / top]
        s_values += list(rng.permutation(np.linspace(0.01, 20.0, 150)) / top)
        many = _moduli(_measure(dec, c), e, s_values, m)
        for s, value in zip(s_values, many):
            one = _moduli(_measure(dec, c), e, [s], m)[0]
            assert abs(value - one) <= 1e-15 * one, (s, value, one)


def _eigenvector(dec, j, coeff):
    return coeff * dec.eigenvectors[:, j].astype(np.complex128)


class TestSingleEigenvectorClosedForms:
    """``f = c u_j`` has ``K(t) = |c| min(1, t ||u_j||_W)``, ``||u_j||_W = lambda^r`` for
    the seminorm, and ``Omega_m(f, s) = |c| (2 sin(min(s lambda, pi) / 2))^m``."""

    COEFF = 0.3 - 1.2j

    @pytest.mark.parametrize("domain_norm", ["seminorm", "graph"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_k_functional(self, cycle16_dec, r, domain_norm):
        for j in (1, 5, 15):
            lam = float(cycle16_dec.eigenvalues[j])
            weight = lam ** r if domain_norm == "seminorm" else math.sqrt(1.0 + lam ** (2 * r))
            f = _eigenvector(cycle16_dec, j, self.COEFF)
            for t in (1e-3 / weight, 0.5 / weight, 1.0 / weight, 2.0 / weight, 1e3 / weight):
                expected = abs(self.COEFF) * min(1.0, t * weight)
                assert _close(k_functional(cycle16_dec, f, t, r, domain_norm), expected)

    @pytest.mark.parametrize("q", [1.0, 2.0, 10.0, math.inf])
    @pytest.mark.parametrize("r,alpha", [(1, 0.5), (2, 1.5), (8, 7.5)])
    def test_k_besov_norm(self, r, alpha, q):
        # K(t) = |c| min(1, t lambda^r): t_lo = t_hi = lambda^-r and t^-theta K peaks at
        # |c| lambda^alpha, so the norm is
        # |c| (1 + lambda^alpha (1/(q(1-theta)) + 1/(q theta))^(1/q));
        # e_1 of diag(0, 0.5, 1, 2, 3.5, 7) at r = 8 read 0.58% low on the clamped t-grid
        dec = _dec("diag:0,0.5,1,2,3.5,7")
        theta = alpha / r
        factor = 1.0 if q == math.inf else (1 / (q * (1 - theta)) + 1 / (q * theta)) ** (1 / q)
        for j in (1, 3, 5):
            lam = float(dec.eigenvalues[j])
            f = _eigenvector(dec, j, self.COEFF)
            expected = abs(self.COEFF) * (1.0 + lam ** alpha * factor)
            params = BesovParams(alpha=alpha, q=q, r=r, flavor="k_functional")
            assert _close(k_besov_norm(dec, f, params), expected)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_modulus(self, cycle16_dec, m):
        for j in (1, 5, 15):
            lam = float(cycle16_dec.eigenvalues[j])
            f = _eigenvector(cycle16_dec, j, self.COEFF)
            for s in np.array([0.1, 0.9, 1.0, 1.7, 7.3]) * math.pi / lam:
                expected = abs(self.COEFF) * (2.0 * math.sin(min(s * lam, math.pi) / 2.0)) ** m
                assert _close(modulus(cycle16_dec, f, s, m), expected)


class TestEndpoints:
    @pytest.mark.parametrize("r", [1, 2])
    def test_extreme_t_take_the_path_endpoints(self, cycle16_dec, rng, r):
        f = random_vector(rng, 16)
        small = k_functional(cycle16_dec, f, 1e-30, r)
        assert _close(small, 1e-30 * float(np.linalg.norm(operator_power(cycle16_dec, r, f))))
        assert _close(k_functional(cycle16_dec, f, 1e30, r), spectral_tail(cycle16_dec, f, 0.0))

    def test_kernel_vector(self):
        dec = _dec("diag:0,0.5,2,3")
        f = np.array([2.0 + 1.0j, 0.0, 0.0, 0.0])  # D f = 0
        for t in (1e-30, 1.0, 1e30):
            assert k_functional(dec, f, t, 2) == 0.0
        params = BesovParams(alpha=0.7, q=1.0, flavor="k_functional")
        assert k_besov_norm(dec, f, params) == float(np.linalg.norm(f))
        assert modulus(dec, f, 3.0, 2) == 0.0
        assert besov_seminorm_sup(dec, f, 1.5, 0, 2) == 0.0


@pytest.mark.parametrize("scale", EXTREME_SCALES)
def test_k_functional_and_modulus_one_homogeneous(cycle16_dec, rng, scale):
    f = random_vector(rng, 16)
    for fn in (lambda g: k_functional(cycle16_dec, g, 0.3, 2),
               lambda g: modulus(cycle16_dec, g, 0.7, 2)):
        assert abs(fn(scale * f) / (scale * fn(f)) - 1.0) <= 1e-12
