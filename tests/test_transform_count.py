"""One coefficient transform per vector argument of every public function.

Each public function checks, scales and transforms each vector argument
once (``operators._coefficients``) and hands the coefficients to its
helpers; a composite check that called a public function on its own
vector, or built ``D^k f`` by a synthesis and a second transform, would
show here as a second call.  A block argument (shape ``(..., N)``) is one
stacked transform, so a block call counts one whatever its rows and
parameters.  ``synthesis_check`` transforms the bands, as one block, and
then the sum of the bands, a vector it was never given.  The private block
helpers take the triples ``_coefficients`` returns and transform nothing.
"""

import math

import numpy as np
import pytest

from bandapprox import (
    BesovParams,
    RieszConfig,
    apply_multiplier,
    band_decompose,
    bandwidth,
    bernstein_check,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    build_kernel,
    difference,
    equivalence_report,
    jackson_check,
    k_besov_norm,
    k_functional,
    lemma1_check,
    lemma2_check,
    modulus,
    modulus_inequality_checks,
    pw_project,
    q_apply,
    riesz_apply,
    riesz_identity_check,
    schrodinger_group,
    spectral_tail,
    spectral_transform,
    sup_scaled_best_approx,
    synthesis_check,
)
from bandapprox.operators import _coefficients, _measure, _powered, _unscaled
from bandapprox.smoothness import BESOV_FLAVORS, _besov_norms, _lemma_reports
from conftest import random_vector
from oracles import dense_union_check, operator_power

KERNEL = build_kernel(6, 2)

#: (name, call on (dec, f, g) with g bandlimited at 1.5, expected transforms)
CALLS = [
    ("jackson_check k=0", lambda dec, f, g: jackson_check(dec, f, 1.2, 2, 0, KERNEL), 1),
    ("jackson_check k=1", lambda dec, f, g: jackson_check(dec, f, 1.2, 2, 1, KERNEL), 1),
    ("lemma1_check", lambda dec, f, g: lemma1_check(dec, f, 1.5, 1, 2), 1),
    ("lemma2_check", lambda dec, f, g: lemma2_check(dec, f, 1.5, 1, 2), 1),
    ("modulus_inequality_checks k=0",
     lambda dec, f, g: modulus_inequality_checks(dec, f, 0.7, 2.0, 2, 0), 1),
    ("modulus_inequality_checks k=1",
     lambda dec, f, g: modulus_inequality_checks(dec, f, 0.7, 2.0, 2, 1), 1),
    ("modulus_inequality_checks k=2",
     lambda dec, f, g: modulus_inequality_checks(dec, f, 0.7, 2.0, 3, 2), 1),
    ("bernstein_check", lambda dec, f, g: bernstein_check(dec, g, 1.5, (0.5, 1.0, 7.0)), 1),
    ("riesz_identity_check", lambda dec, f, g: riesz_identity_check(dec, g, 1.5, 2), 1),
    ("bandwidth", lambda dec, f, g: bandwidth(dec, f), 1),
    ("equivalence_report", lambda dec, f, g: equivalence_report(dec, [f, g, 3 * f], 0.8, 2.0),
     1),
    ("best_approx", lambda dec, f, g: best_approx(dec, f, 1.5), 1),
    ("spectral_tail", lambda dec, f, g: spectral_tail(dec, f, 1.5), 1),
    ("dense_union_check", lambda dec, f, g: dense_union_check(dec, f, 0.1), 1),
    ("sup_scaled_best_approx", lambda dec, f, g: sup_scaled_best_approx(dec, f, 0.8), 1),
    ("modulus", lambda dec, f, g: modulus(dec, f, 0.7, 2), 1),
    ("besov_seminorm_sup", lambda dec, f, g: besov_seminorm_sup(dec, f, 1.5, 1, 2), 1),
    ("k_functional", lambda dec, f, g: k_functional(dec, f, 0.3, 2), 1),
    ("k_besov_norm", lambda dec, f, g: k_besov_norm(dec, f, BesovParams(alpha=0.8, q=2.0)), 1),
    ("band_decompose", lambda dec, f, g: band_decompose(dec, f), 1),
    ("pw_project", lambda dec, f, g: pw_project(dec, f, 1.5), 1),
    ("apply_multiplier", lambda dec, f, g: apply_multiplier(dec, np.cos, f), 1),
    ("operator_power", lambda dec, f, g: operator_power(dec, 2, f), 1),
    ("difference", lambda dec, f, g: difference(dec, f, 0.7, 2), 1),
    ("schrodinger_group", lambda dec, f, g: schrodinger_group(dec, 0.5 + 0.5j, f), 1),
    ("riesz_apply", lambda dec, f, g: riesz_apply(dec, f, RieszConfig(omega=1.5)), 1),
    ("q_apply", lambda dec, f, g: q_apply(dec, f, 1.5, 2, KERNEL), 1),
]


@pytest.mark.parametrize("name, call, expected", CALLS, ids=[c[0] for c in CALLS])
def test_one_transform_per_vector_argument(cycle16_dec, rng, transforms, name, call,
                                           expected):
    f = random_vector(rng, 16)
    g = pw_project(cycle16_dec, f, 1.5)
    transforms.clear()
    call(cycle16_dec, f, g)
    assert len(transforms) == expected


@pytest.mark.parametrize("flavor, q", [(flavor, q) for flavor in BESOV_FLAVORS
                                       for q in (2.0, math.inf)
                                       if flavor != "modulus" or q == math.inf])
def test_every_besov_flavor_transforms_once(cycle16_dec, rng, transforms, flavor, q):
    besov_norm(cycle16_dec, random_vector(rng, 16), BesovParams(alpha=0.8, q=q, flavor=flavor))
    assert len(transforms) == 1


def _axis(flavor):
    """Every ``(alpha, q)`` of ``flavor`` on a parameter axis."""
    alphas, qs = np.transpose([(alpha, q) for alpha in (0.7, 1.5) for q in (1.0, 2.0, math.inf)
                               if flavor != "modulus" or q == math.inf])
    return BesovParams(alpha=alphas, q=qs, flavor=flavor)


def test_norm_table_transforms_each_vector_once(cycle16_dec, rng, transforms):
    # one parameter-axis call per flavor, each one block transform
    fs = np.array([random_vector(rng, 16) for _ in range(3)])
    for count, flavor in enumerate(BESOV_FLAVORS, 1):
        besov_norm(cycle16_dec, fs[:, None], _axis(flavor))
        assert len(transforms) == count


def test_equivalence_ratios_transform_each_vector_once(cycle16_dec, rng, transforms):
    # every (alpha, q) of every vector from one block transform
    alphas, qs = np.transpose([(alpha, q) for alpha in (0.7, 1.5) for q in (1.0, 2.0, math.inf)])
    equivalence_report(cycle16_dec, [[random_vector(rng, 16)] for _ in range(3)], alphas, qs)
    assert len(transforms) == 1


#: (name, call on (dec, triples of 3 vectors, triples of 3 vectors bandlimited at 1.5))
BLOCK_HELPERS = [
    ("_besov_norms", lambda dec, fcs, gcs: [
        _besov_norms(dec, (fcs[0][:, None], fcs[1][:, None], fcs[2][:, None]), _axis(flavor))
        for flavor in BESOV_FLAVORS]),
    ("_lemma_reports", lambda dec, fcs, gcs: _lemma_reports(dec, fcs, 1.5, 1, 2)),
]


@pytest.mark.parametrize("name, call", BLOCK_HELPERS, ids=[c[0] for c in BLOCK_HELPERS])
def test_block_helpers_given_triples_transform_nothing(cycle16_dec, rng, transforms, name, call):
    fs = np.array([random_vector(rng, 16) for _ in range(3)])
    fcs = _coefficients(cycle16_dec, fs)
    gcs = _coefficients(cycle16_dec, pw_project(cycle16_dec, fs, 1.5))
    transforms.clear()
    call(cycle16_dec, fcs, gcs)
    assert len(transforms) == 0


#: (name, call on (dec, 3 vectors as a (3, N) block, the block bandlimited at 1.5))
BLOCK_CALLS = [
    ("jackson_check", lambda dec, fs, gs: jackson_check(dec, fs[:, None], [0.6, 1.2], 3, 1,
                                                        build_kernel(8, 3))),
    ("modulus_inequality_checks", lambda dec, fs, gs: modulus_inequality_checks(
        dec, fs, [0.7, 0.3, 1.1], [2.0, 0.5, 3.0], [2, 3, 1], [0, 2, 1])),
    ("bernstein_check", lambda dec, fs, gs: bernstein_check(dec, gs, 1.5, (0.5, 1.0, 7.0))),
    ("equivalence_report", lambda dec, fs, gs: equivalence_report(dec, fs, 0.8, 2.0)),
    ("lemma1_check", lambda dec, fs, gs: lemma1_check(dec, fs, 1.5, 1, 2)),
    ("best_approx", lambda dec, fs, gs: best_approx(dec, fs[:, None], [0.6, 1.2])),
    ("pw_project", lambda dec, fs, gs: pw_project(dec, fs, [0.6, 1.2, 1.8])),
    ("schrodinger_group", lambda dec, fs, gs: schrodinger_group(dec, [[0.5], [1j]], fs)),
]


@pytest.mark.parametrize("name, call", BLOCK_CALLS, ids=[c[0] for c in BLOCK_CALLS])
def test_block_calls_transform_once(cycle16_dec, rng, transforms, name, call):
    fs = np.array([random_vector(rng, 16) for _ in range(3)])
    gs = pw_project(cycle16_dec, fs, 1.5)
    transforms.clear()
    call(cycle16_dec, fs, gs)
    assert len(transforms) == 1


def test_synthesis_check_transforms_each_band_and_the_sum(cycle16_dec, rng, transforms):
    bands = band_decompose(cycle16_dec, random_vector(rng, 16)).bands
    transforms.clear()
    synthesis_check(cycle16_dec, bands, 0.8)
    assert len(bands) > 1 and len(transforms) == 2


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_power_coefficients_match_the_round_trip(cycle16_dec, random_dec, rng, k):
    # the measure of D^k f is nodes^k norms; the old route synthesized D^k f and transformed back
    for dec in (cycle16_dec, random_dec):
        f = 1e3 * random_vector(rng, dec.dim)
        _, c, e = _coefficients(dec, f)
        direct = _unscaled(_powered(_measure(dec, c), k)[1], e)
        round_trip = _measure(dec, spectral_transform(dec, operator_power(dec, k, f)))[1]
        assert np.linalg.norm(direct - round_trip) <= 1e-14 * np.linalg.norm(round_trip)
