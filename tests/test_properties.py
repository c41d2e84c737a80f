"""Generated properties: the documented laws on inputs that Hypothesis draws.

Each property runs a fixed number of derandomized examples, so tier-1 stays
reproducible.  A case is a decomposition with no eigensolver behind it
(``np.linalg.qr`` of a seeded Gaussian, N from 1 to 80, so across
``_E_BLOCK``), a spectrum of repeated values with or without a kernel, rows at
scales ``2^+-500`` and omegas at the group values and between them.  The laws: the
E route is its running-sum definition (``oracles.distances_by_running_sum``), E = R,
a rotation of the basis inside each eigenspace moves no coefficient tail and no
Bernstein ratio beyond a few ulps, and each element of a block call has the bits of
the call on its row and parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandapprox import (
    BandApproxError,
    SpectralDecomposition,
    bernstein_check,
    best_approx,
    modulus_inequality_checks,
    pw_project,
    spectral_tail,
)
from bandapprox.harness import DEFAULT_TOLERANCES
from bandapprox.operators import _coefficients, _norm
from conftest import random_vector
from oracles import distances_by_running_sum
from test_api_rules import BLOCK_CALLS

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
    expected = distances_by_running_sum(dec, _coefficients(dec, rows[:, None]), omegas)
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


#: (m, k) pairs of ``modulus_inequality_checks``; (3, 1), (3, 2) and (2, 2) share an ``m - k``
#: with another pair, so one shift scan takes several powers ``k``
MK_PAIRS = [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (2, 2), (4, 2)]


@pytest.mark.parametrize("name", sorted(set(BLOCK_CALLS) - {"equivalence_report"}))
@settings(PROFILE, max_examples=10)
@given(case=cases(), pairs=st.lists(st.sampled_from(MK_PAIRS), min_size=2, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_element_of_a_block_is_its_one_row_call(name, case, pairs, seed):
    # the block rule of the ``operators`` docstring: each row takes its own products, so the
    # element (i, j) of a call on rows (M, 1, N) against an axis of W parameters has the bits of
    # the call on row i and parameter j alone (one element per row for a call with no parameter).
    # Each example takes one ``BLOCK_CALLS`` entry, and ``modulus_inequality_checks`` on an axis
    # of mixed (m, k) pairs; ``equivalence_report`` takes its rows as one corpus, not as a block
    dec, rows, omegas = case
    rng = np.random.default_rng(seed)
    (m, k), s = np.array(pairs).T, rng.uniform(0.05, 3.0, len(pairs))

    def mixed(dec, f, j):  # trial j of the axis, at its own (m, k)
        return modulus_inequality_checks(dec, f, s[j], 2.0, m[j], k[j]).ratio_power

    calls = [(BLOCK_CALLS[name], rng.choice(omegas, 3)), (mixed, np.arange(len(pairs)))]
    for call, axis in calls:
        try:
            block = np.asarray(call(dec, rows[:, None], axis))
        except BandApproxError as err:  # refused for a row or a parameter, which alone is refused
            assert type(err) in {_bits(call, dec, row, p) for row in rows for p in axis}
            continue
        for i, j in np.ndindex(block.shape[:2]):
            assert _bits(call, dec, rows[i], axis[j]) == block[i, j].tobytes()


def _bits(call, dec, row, parameter):
    """The bytes of ``call`` on one row and one parameter, or the type of the error it raises."""
    try:
        return np.asarray(call(dec, row, parameter)).tobytes()
    except BandApproxError as err:
        return type(err)
