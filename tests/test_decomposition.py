"""Band splitting, frame norms, equivalence and synthesis inequalities."""

import math

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    BesovParams,
    InvalidBaseError,
    InvalidParamsError,
    MembershipViolationError,
    SymmetricOperator,
    ZeroVectorError,
    band_decompose,
    besov_norm,
    best_approx,
    eigh,
    equivalence_report,
    frame_norm,
    pw_project,
    spectral_tail,
    synthesis_check,
)
from bandapprox.harness import build_operator, parse_operator_arg
from bandapprox.paley_wiener import MAX_BANDS, band_count
from conftest import random_vector


class TestBandDecompose:
    def test_low_band_vector_lands_in_band_zero(self, cycle16_dec, rng):
        f = pw_project(cycle16_dec, random_vector(rng, 16), 1.0)
        band_dec = band_decompose(cycle16_dec, f, 2.0)
        np.testing.assert_allclose(band_dec.bands[0], f, atol=1e-12)
        for band in band_dec.bands[1:]:
            assert np.linalg.norm(band) <= 1e-12

    def test_eigenvector_occupies_single_band(self, diag_dec):
        # lambda = 3 sits in (2, 4]: band index 2 for base 2
        u = diag_dec.eigenvectors[:, 2]
        band_dec = band_decompose(diag_dec, u, 2.0)
        norms = band_dec.band_norms()
        assert np.argmax(norms) == 2
        assert sum(norm > 1e-12 for norm in norms) == 1

    def test_eigenvalue_on_edge_joins_lower_band(self):
        # bands are closed above: lambda = 1, 2, 4 sit in bands 0, 1, 2 for base 2
        dec = eigh(build_operator(parse_operator_arg("diag:0,1,2,4", kind=RAW_D)))
        bands = band_decompose(dec, np.ones(4, dtype=complex), 2.0).bands
        # D is diagonal, so vector entry j carries eigenvalue lambda_j
        supports = [tuple(np.flatnonzero(np.abs(b) > 0)) for b in bands]
        assert supports == [(0, 1), (2,), (3,)]

    def test_membership_orthogonality_reconstruction(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        band_dec = band_decompose(cycle16_dec, f, 2.0)
        norm_f = np.linalg.norm(f)
        for k, band in enumerate(band_dec.bands):
            assert spectral_tail(cycle16_dec, band, 2.0 ** k) <= 1e-12 * norm_f
        for j in range(band_dec.count):
            for k in range(j + 1, band_dec.count):
                inner = abs(np.vdot(band_dec.bands[j], band_dec.bands[k]))
                assert inner <= 1e-10 * norm_f ** 2
        recon = np.sum(band_dec.bands, axis=0)
        assert np.linalg.norm(recon - f) <= 1e-10 * norm_f

    def test_pythagoras_over_bands(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        band_dec = band_decompose(cycle16_dec, f, 2.0)
        total = float(np.sum(band_dec.band_norms() ** 2))
        assert abs(total - np.linalg.norm(f) ** 2) <= 1e-10 * np.linalg.norm(f) ** 2

    def test_tail_identity_at_band_edges(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        a = 2.0
        band_dec = band_decompose(cycle16_dec, f, a)
        norms2 = band_dec.band_norms() ** 2
        for big_n in range(band_dec.count):
            e2 = best_approx(cycle16_dec, f, a ** big_n) ** 2
            tail = float(np.sum(norms2[big_n + 1:]))
            assert abs(e2 - tail) <= 1e-10 * np.linalg.norm(f) ** 2

    def test_invalid_base(self, diag_dec, rng):
        with pytest.raises(InvalidBaseError):
            band_decompose(diag_dec, random_vector(rng, 3), 1.0)


class TestFrameNorm:
    def test_zero_bands(self, diag_dec):
        band_dec = band_decompose(diag_dec, np.zeros(3), 2.0)
        assert frame_norm(band_dec, 1.0, 2.0) == 0.0

    def test_single_band_weight(self, diag_dec):
        u = diag_dec.eigenvectors[:, 2]  # band 2 for base 2
        band_dec = band_decompose(diag_dec, u, 2.0)
        alpha = 0.8
        expected = 2.0 ** (2 * alpha)
        assert abs(frame_norm(band_dec, alpha, 2.0) - expected) <= 1e-10
        assert abs(frame_norm(band_dec, alpha, math.inf) - expected) <= 1e-10

    def test_homogeneity(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        for q in (1.0, 2.0, math.inf):
            base = frame_norm(band_decompose(cycle16_dec, f, 2.0), 0.7, q)
            scaled = frame_norm(band_decompose(cycle16_dec, 4.0 * f, 2.0), 0.7, q)
            assert abs(scaled / base - 4.0) <= 4e-10


class TestEquivalence:
    def test_eigenvector_ratio_finite(self, diag_dec):
        rep = equivalence_report(diag_dec, diag_dec.eigenvectors[:, 1], 0.8, 2.0)
        assert rep.ratio_lo == rep.ratio_hi
        assert math.isfinite(rep.ratio_lo) and rep.ratio_lo > 0

    def test_scaling_leaves_ratio_unchanged(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        one = equivalence_report(cycle16_dec, f, 0.8, 2.0)
        scaled = equivalence_report(cycle16_dec, 1e3 * f, 0.8, 2.0)
        assert abs(one.ratios[0] - scaled.ratios[0]) <= 1e-10 * one.ratios[0]

    def test_corpus_bracket_stable_across_sizes(self, rng):
        from bandapprox import eigh
        from bandapprox.harness import OperatorSpec, build_operator

        brackets = {}
        for n in (8, 16, 32, 64):
            dec = eigh(build_operator(OperatorSpec(builtin="cycle", size=n)))
            vectors = [random_vector(rng, n) for _ in range(50)]
            rep = equivalence_report(dec, vectors, 0.8, 2.0)
            brackets[n] = (rep.ratio_lo, rep.ratio_hi)
            assert 0 < rep.ratio_lo <= rep.ratio_hi < math.inf
        los = [b[0] for b in brackets.values()]
        his = [b[1] for b in brackets.values()]
        assert max(his) / min(his) < 2.0
        assert max(los) / min(los) < 2.0

    def test_zero_vector_rejected(self, diag_dec):
        with pytest.raises(ZeroVectorError):
            equivalence_report(diag_dec, np.zeros(3), 1.0, 2.0)


class TestSynthesis:
    def test_canonical_bands_satisfy_explicit_constant(self, cycle16_dec, rng):
        for _ in range(10):
            f = random_vector(rng, 16)
            band_dec = band_decompose(cycle16_dec, f, 2.0)
            rep = synthesis_check(cycle16_dec, band_dec.bands, 0.8, a=2.0)
            assert rep.passed
            assert rep.constant == 1.0 / (1.0 - 2.0 ** -0.8)

    def test_single_band_input(self, cycle16_dec, rng):
        f = pw_project(cycle16_dec, random_vector(rng, 16), 1.0)
        rep = synthesis_check(cycle16_dec, [f], 0.8, a=2.0)
        assert rep.passed
        # E(f, a^N) = 0 for every edge at or above the band
        assert best_approx(cycle16_dec, f, 1.0) <= 1e-12 * np.linalg.norm(f)

    def test_overlapping_nonorthogonal_bands(self, cycle16_dec, rng):
        a = 2.0
        k_top = 1
        while a ** k_top < cycle16_dec.lambda_max:
            k_top += 1
        for _ in range(10):
            bands = [pw_project(cycle16_dec, random_vector(rng, 16), a ** k)
                     for k in range(k_top + 1)]
            rep = synthesis_check(cycle16_dec, bands, 0.8, a=a)
            assert rep.passed, rep

    def test_membership_violation_detected(self, cycle16_dec, rng):
        bands = [random_vector(rng, 16)]  # full-spectrum vector claimed in PW_1
        with pytest.raises(MembershipViolationError):
            synthesis_check(cycle16_dec, bands, 0.8, a=2.0)

    @pytest.mark.parametrize("q", [0.0, 0.5, math.nan, -math.inf])
    def test_q_outside_one_to_inf_rejected(self, diag_dec, q):
        # the same rule as frame_norm and BesovParams: q in [1, inf]
        bands = [diag_dec.eigenvectors[:, 0]]  # lambda = 1 lies in band 0
        with pytest.raises(InvalidParamsError):
            synthesis_check(diag_dec, bands, 0.8, q, a=2.0)
        with pytest.raises(InvalidParamsError):
            frame_norm(band_decompose(diag_dec, bands[0], 2.0), 0.8, q)
        with pytest.raises(InvalidParamsError):
            BesovParams(alpha=0.8, q=q)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_outside_zero_to_inf_rejected(self, diag_dec, alpha):
        # the weights a^(k alpha) and the default order r need a finite alpha
        bands = [diag_dec.eigenvectors[:, 0]]
        with pytest.raises(InvalidParamsError):
            synthesis_check(diag_dec, bands, alpha, a=2.0)
        with pytest.raises(InvalidParamsError):
            frame_norm(band_decompose(diag_dec, bands[0], 2.0), alpha, 2.0)
        with pytest.raises(InvalidParamsError):
            BesovParams(alpha=alpha, q=math.inf)

    def test_q_in_range_accepted(self, diag_dec):
        bands = [diag_dec.eigenvectors[:, 0]]
        for q in (1.0, 2.0, math.inf):
            rep = synthesis_check(diag_dec, bands, 0.8, q, a=2.0)
            assert rep.passed and abs(rep.frame_q - 1.0) <= 1e-15


class TestBandCount:
    def test_matches_defining_loop(self):
        for a in (2.0, 1.5, 3.0, 1.01):
            for lam in (0.0, 0.5, 1.0, 1.0000001, 2.0, 3.999, 4.0, 4.0001, 1024.0, 1e6):
                k = 0
                while a ** k < lam:
                    k += 1
                assert band_count(lam, a) == k, (a, lam)

    def test_base_close_to_one_covers_spectrum(self, rng):
        # the former loop stopped at 10,000 bands, edge 2.718 < 4, residual 1.0
        dec = eigh(build_operator(parse_operator_arg("diag:0,1,4", kind=RAW_D)))
        f = random_vector(rng, 3)
        band_dec = band_decompose(dec, f, 1.0001)
        assert band_dec.band_edges[-1] >= dec.lambda_max
        residual = np.linalg.norm(np.sum(band_dec.bands, axis=0) - f)
        assert residual <= 1e-10 * np.linalg.norm(f)

    def test_base_too_close_to_one_rejected(self, rng):
        dec = eigh(build_operator(parse_operator_arg("diag:0,1,4", kind=RAW_D)))
        a = 1.0 + 1e-9
        assert math.log(4.0) / math.log(a) > MAX_BANDS
        f = random_vector(rng, 3)
        with pytest.raises(InvalidBaseError):
            band_decompose(dec, f, a)
        with pytest.raises(InvalidBaseError):
            synthesis_check(dec, [pw_project(dec, f, 1.0)], 0.8, a=a)
        with pytest.raises(InvalidBaseError):
            besov_norm(dec, f, BesovParams(alpha=0.8, q=2.0, a=a, flavor="discrete_R"))


def _diag_dec(values):
    """Decomposition of D = diag(values), given directly; entry j carries values[j]."""
    return eigh(SymmetricOperator(np.diag(values), kind=RAW_D))


class TestBandEdges:
    """Every routine cuts the spectrum at the same edges a^k, also at non-integer bases.

    ``1.1 ** 7`` and ``1.11 ** 4`` are values where an array power of ``a``
    can differ from the scalar power in the last bit; an eigenvalue sitting
    on such an edge must still land in one band for every routine.
    """

    def test_eigenvalue_on_edge_tail_identity(self):
        a = 1.1
        dec = _diag_dec([0.5, a ** 7, 3.0])
        f = np.ones(3, dtype=complex)
        norms2 = band_decompose(dec, f, a).band_norms() ** 2
        assert best_approx(dec, f, a ** 7) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(norms2[8:])) == pytest.approx(1.0, abs=1e-12)

    def test_synthesis_accepts_own_bands_at_edge(self):
        a = 1.11
        dec = _diag_dec([0.5, 1.5180704100000006, 1.6])
        bands = band_decompose(dec, np.ones(3, dtype=complex), a).bands
        assert synthesis_check(dec, bands, 0.8, a=a).passed

    @pytest.mark.parametrize("a", [1.1, 1.11, 1.5, 3.0, math.sqrt(10.0)])
    def test_eigenvalue_on_every_edge(self, a):
        top = 12
        dec = _diag_dec([a ** k for k in range(top + 1)])
        f = np.ones(top + 1, dtype=complex)
        band_dec = band_decompose(dec, f, a)
        assert band_dec.count == top + 1
        for k, band in enumerate(band_dec.bands):
            # entry k carries the eigenvalue a^k, the closed upper edge of band k
            assert tuple(np.flatnonzero(np.abs(band) > 0)) == (k,), (a, k)
        norms2 = band_dec.band_norms() ** 2
        for k in range(top + 1):
            e2 = best_approx(dec, f, a ** k) ** 2
            assert abs(e2 - float(np.sum(norms2[k + 1:]))) <= 1e-12, (a, k)
        assert synthesis_check(dec, band_dec.bands, 0.8, a=a).passed
