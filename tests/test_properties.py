"""Generated properties: the documented laws on inputs that Hypothesis draws.

Each property runs a fixed number of derandomized examples, so tier-1 stays
reproducible.  A case is a decomposition with no eigensolver behind it
(``np.linalg.qr`` of a seeded Gaussian, N from 1 to 80, so across
``_E_BLOCK``), a spectrum of repeated values with or without a kernel, rows at
scales ``2^+-500`` and omegas at the group values and between them.  The laws: the
E route is its block definition, E = R, and a rotation of the basis inside each
eigenspace moves no coefficient tail and no Bernstein ratio beyond a few ulps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bandapprox import (
    SpectralDecomposition,
    bernstein_check,
    best_approx,
    pw_project,
    spectral_tail,
)
from bandapprox.harness import DEFAULT_TOLERANCES
from bandapprox.operators import _coefficients, _norm
from conftest import random_vector
from oracles import distances_by_blocks

PROFILE = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@st.composite
def cases(draw):
    """``(dec, rows, omegas)``: a decomposition, a block of rows and the omegas to cut at."""
    n = draw(st.integers(1, 80))
    groups = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # groups distinct values, the first 0 when there is a kernel (all of them: the spectrum
    # {0}), and a random split of n into their multiplicities
    values = np.cumsum(rng.uniform(0.1, 2.0, groups))
    if draw(st.booleans()):
        values -= values[0]
    split = np.sort(rng.choice(np.arange(1, n), groups - 1, replace=False))
    eigenvalues = np.repeat(values, np.diff(np.concatenate(([0], split, [n]))))
    dec = SpectralDecomposition(eigenvalues=eigenvalues,
                                eigenvectors=np.linalg.qr(rng.standard_normal((n, n)))[0])
    exponents = draw(st.lists(st.sampled_from([-500, 0, 500]), min_size=1, max_size=3))
    rows = np.array([2.0 ** x * random_vector(rng, n) for x in exponents])
    between = rng.uniform(0.0, 1.2 * values[-1], draw(st.integers(1, 8)))
    return dec, rows, np.concatenate(([0.0], values, between))


@PROFILE
@given(cases())
def test_e_route_is_its_block_definition(case):
    dec, rows, omegas = case
    expected = distances_by_blocks(dec, _coefficients(dec, rows[:, None]), omegas)
    np.testing.assert_array_equal(best_approx(dec, rows[:, None], omegas), expected)


@PROFILE
@given(cases())
def test_e_equals_r(case):
    dec, rows, omegas = case
    gaps = np.abs(best_approx(dec, rows[:, None], omegas)
                  - spectral_tail(dec, rows[:, None], omegas))
    assert np.all(gaps <= DEFAULT_TOLERANCES["e_equals_r"] * _norm(rows)[:, None])


def _rotated(dec, rng):
    """``dec`` with its basis turned by a random orthogonal block inside each eigenspace."""
    q = np.zeros((dec.dim, dec.dim))
    for group in dec.groups:
        block = np.ix_(group, group)
        q[block] = np.linalg.qr(rng.standard_normal((len(group), len(group))))[0]
    return SpectralDecomposition(eigenvalues=dec.eigenvalues, eigenvectors=dec.eigenvectors @ q)


@PROFILE
@given(cases(), st.integers(0, 2 ** 32 - 1))
def test_eigenspace_rotation_moves_no_tail_or_bernstein_ratio(case, seed):
    dec, rows, omegas = case
    turned = _rotated(dec, np.random.default_rng(seed))
    # a few ulps: the worst of the 100 examples moves a tail by 1.1 eps ||f||, a ratio by 3 eps
    bound = 8 * np.finfo(float).eps
    gaps = np.abs(spectral_tail(turned, rows[:, None], omegas)
                  - spectral_tail(dec, rows[:, None], omegas))
    assert np.all(gaps <= bound * _norm(rows)[:, None])
    omegas = omegas[omegas >= dec.eigenvalues[0]]  # each keeps an eigenspace: no zero row
    bands, s_list = pw_project(dec, rows[:, None], omegas), (0.0, 0.5, 1.0, 3.0)
    gaps = np.abs(bernstein_check(turned, bands, omegas, s_list).ratios
                  - bernstein_check(dec, bands, omegas, s_list).ratios)
    assert np.all(gaps <= bound)
