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

import bandapprox
from bandapprox import (
    BesovParams,
    band_decompose,
    besov_norm,
    equivalence_report,
    pw_project,
    spectral_transform,
    synthesis_check,
)
from bandapprox.operators import _coefficients, _measure, _powered, _unscaled
from bandapprox.smoothness import BESOV_FLAVORS, _besov_norms, _lemma_reports
from conftest import _count_calls, random_vector
from oracles import operator_power
from public_calls import CALLS, KERNEL, TOOLS, prepare

#: the cases ``"<entry> k=<k>"`` of the entries whose registry call holds one k: k = 0 takes
#: no power of the measure, and k = 2 a power above the first
K_CASES = {
    **{f"jackson_check k={k}": lambda dec, f, p, k=k: bandapprox.jackson_check(
        dec, f, p + 0.1, 2, k, KERNEL) for k in (0, 1)},
    **{f"modulus_inequality_checks k={k}": lambda dec, f, p, m=m, k=k:
       bandapprox.modulus_inequality_checks(dec, f, p, 2.0, m, k)
       for m, k in ((2, 0), (2, 1), (3, 2))},
}


def _assert_transforms(monkeypatch, transforms, name, dec, f, p):
    """Registry entry ``name`` (or its case in ``K_CASES``) on the rows ``f`` and ``p``
    transforms once per call of its function (an entry may call it once per flavor or domain
    norm): the band sets of synthesis_check are one block, and their sum a vector it was never
    given (see below), and the coefficients of inverse_transform are no vector."""
    call, name = K_CASES.get(name), name.split(" k=")[0]
    f = prepare(name, dec, f, p)
    calls = [None] if name in TOOLS else _count_calls(monkeypatch, getattr(bandapprox, name))
    transforms.clear()
    (call or CALLS[name].call)(dec, f, p)
    per_call = {"inverse_transform": 0, "synthesis_check": 2}.get(name, 1)
    assert calls and len(transforms) == per_call * len(calls)


@pytest.mark.parametrize("name", sorted(CALLS) + list(K_CASES))
def test_one_transform_per_vector_argument(cycle16_dec, rng, monkeypatch, transforms, name):
    _assert_transforms(monkeypatch, transforms, name, cycle16_dec, random_vector(rng, 16), 1.5)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_block_calls_transform_once(cycle16_dec, rng, monkeypatch, transforms, name):
    # three rows, against an axis of two where the parameter broadcasts: one stacked transform
    rows = np.array([random_vector(rng, 16) for _ in range(3)])
    if CALLS[name].broadcasts:
        rows, p = rows[:, None], np.array([0.6, 1.5])
    else:
        p = 1.5
    _assert_transforms(monkeypatch, transforms, name, cycle16_dec, rows, p)


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
