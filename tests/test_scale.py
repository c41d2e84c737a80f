"""Extreme scales of ``f``: distances, l^q sums and norms taken at a power-of-two scale.

At ``1e160`` the square of an entry of ``f`` overflows and at ``1e-160``
and ``1e-300`` it underflows.  Every value below is still 1-homogeneous in
``f``, and every ratio is independent of its scale, to 1e-12.
"""

import math

import numpy as np
import pytest

from bandapprox import (
    BesovParams,
    band_decompose,
    bandwidth,
    bernstein_check,
    besov_norm,
    best_approx,
    build_kernel,
    equivalence_report,
    frame_norm,
    jackson_check,
    lemma1_check,
    lemma2_check,
    pw_project,
    riesz_identity_check,
    spectral_tail,
    sup_scaled_best_approx,
    synthesis_check,
)
from conftest import random_vector

SCALES = (1e150, 1e-150, 1e160, 1e-160, 1e-300)
TOL = 1e-12


def _off(scaled, base, scale=1.0) -> float:
    """Largest relative deviation of ``scaled`` from ``scale * base``, elementwise."""
    scaled, base = np.atleast_1d(scaled), np.atleast_1d(base) * scale
    return float(np.max(np.abs(scaled / base - 1.0)))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("flavor", ["integral_E", "discrete_E", "integral_R", "discrete_R"])
def test_besov_flavors_one_homogeneous(cycle16_dec, rng, scale, q, flavor):
    f = random_vector(rng, 16)
    params = BesovParams(alpha=0.8, q=q, flavor=flavor)
    assert _off(besov_norm(cycle16_dec, scale * f, params),
                besov_norm(cycle16_dec, f, params), scale) <= TOL


@pytest.mark.parametrize("scale", SCALES)
def test_values_one_homogeneous(cycle16_dec, rng, scale):
    dec = cycle16_dec
    f = random_vector(rng, 16)
    for value in (lambda g: best_approx(dec, g, 1.0),
                  lambda g: spectral_tail(dec, g, 1.0),
                  lambda g: sup_scaled_best_approx(dec, g, 0.8),
                  lambda g: bandwidth(dec, g).sup_ratio,
                  lambda g: band_decompose(dec, g).band_norms(),
                  lambda g: frame_norm(band_decompose(dec, g), 0.7, 1.5),
                  lambda g: synthesis_check(dec, band_decompose(dec, g).bands, 0.7).lhs):
        assert _off(value(scale * f), value(f), scale) <= TOL


@pytest.mark.parametrize("scale", SCALES)
def test_ratios_scale_invariant(cycle16_dec, rng, scale):
    dec = cycle16_dec
    f = random_vector(rng, 16)
    g = pw_project(dec, f, 1.5)
    kernel = build_kernel(6, 2)
    for ratio in (lambda h: bernstein_check(dec, h, 1.5, (0.5, 1.0, 2.0)).ratios,
                  lambda h: equivalence_report(dec, [h], 0.7, 2.0).ratios,
                  lambda h: [jackson_check(dec, h, 1.2, 2, 1, kernel).ratio_best,
                             jackson_check(dec, h, 1.2, 2, 1, kernel).ratio_q],
                  lambda h: [lemma1_check(dec, h, 1.5, 1, 2).ratio,
                             lemma2_check(dec, h, 1.5, 1, 2).ratio],
                  lambda h: bandwidth(dec, h).omega_f):
        assert _off(ratio(scale * g), ratio(g)) <= TOL
    # a residual relative to ||f||, near 1e-8 at this truncation: compared absolutely
    residuals = [riesz_identity_check(dec, h, 1.5, power=2).residual for h in (scale * g, g)]
    assert abs(residuals[0] - residuals[1]) <= TOL
