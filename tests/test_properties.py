"""Generated properties: the documented laws on inputs that Hypothesis draws.

Each property runs a fixed number of derandomized examples, so tier-1 stays
reproducible.  A case is a decomposition with no eigensolver behind it
(``np.linalg.qr`` of a seeded Gaussian, N from 1 to 80, so across
``_E_BLOCK``), a spectrum of repeated values with or without a kernel, rows at
scales ``2^+-500`` and omegas at the group values and between them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bandapprox import SpectralDecomposition, best_approx, spectral_tail
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
