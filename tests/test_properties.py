"""Generated properties: the documented laws on inputs that Hypothesis draws.

Each property runs a fixed number of derandomized examples, so tier-1 stays
reproducible.  A case is a decomposition with no eigensolver behind it
(``np.linalg.qr`` of a seeded Gaussian, N from 1 to 80, so across ``_E_BLOCK``), a
spectrum of repeated values with or without a kernel, rows at scales ``2^0``,
``2^+-500`` and ``2^+-1000`` and maybe the zero row, and omegas at the group values
and between them.  The laws: the E route is its running-sum definition
(``oracles.distances_by_running_sum``), E = R, a rotation of the basis inside each
eigenspace moves no coefficient tail and no Bernstein ratio beyond a few ulps, and the
three rules of every call of the registry (``public_calls``): the block rule, the scale
rule and the typed-error rule.  The shift scan gives the bits of the scan from ``tau = 0``
(``oracles.running_modulus_from_zero``), at any ``s`` and for the seminorm.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandapprox import (
    NonFiniteError,
    SpectralDecomposition,
    bernstein_check,
    best_approx,
    modulus_inequality_checks,
    pw_project,
    spectral_tail,
)
from bandapprox.harness import DEFAULT_TOLERANCES
from bandapprox.operators import _coefficients, _measure, _norm, _scaled
from bandapprox.smoothness import _SCAN_PER_PERIOD, _moduli, _running_modulus, _seminorm_sup
from conftest import random_vector
from oracles import distances_by_running_sum, running_modulus_from_zero
from public_calls import BLOCK_NAMES, CALLS, check_block, check_finite, outcome, prepare

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
    exponents = draw(st.lists(st.sampled_from([-1000, -500, 0, 500, 1000]), min_size=1, max_size=3))
    rows = [2.0 ** x * random_vector(rng, n) for x in exponents]
    rows = np.array(rows + [np.zeros(n)] * draw(st.integers(0, 1)))  # and maybe the zero row
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
    rows = rows[np.any(rows != 0.0, axis=-1)]  # but that of the zero vector
    bands, s_list = pw_project(dec, rows[:, None], omegas), (0.0, 0.5, 1.0, 3.0)
    gaps = np.abs(bernstein_check(turned, bands, omegas, s_list).ratios
                  - bernstein_check(dec, bands, omegas, s_list).ratios)
    assert np.all(gaps <= bound)


#: (m, k) pairs of ``modulus_inequality_checks``; (3, 1), (3, 2) and (2, 2) share an ``m - k``
#: with another pair, so one shift scan takes several powers ``k``
MK_PAIRS = [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (2, 2), (4, 2)]


@pytest.mark.parametrize("name", BLOCK_NAMES)
@settings(PROFILE, max_examples=10)
@given(case=cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_each_element_of_a_block_is_its_one_row_call(name, case, seed):
    # the block rule of the ``operators`` docstring: each row takes its own products, so the
    # element (i, j) of a call on rows (M, 1, N) against an axis of W parameters has the bits of
    # the call on row i and parameter j alone (element i of a call on rows (M, N) against one
    # parameter), for every entry of the registry that takes a block
    dec, rows, omegas = case
    axis = CALLS[name].broadcasts
    p = np.random.default_rng(seed).choice(omegas, 3 if axis else None)
    check_block(name, dec, prepare(name, dec, rows[:, None] if axis else rows, p), p)


@settings(PROFILE, max_examples=40)
@given(case=cases(), pairs=st.lists(st.sampled_from(MK_PAIRS), min_size=2, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_trial_of_a_mixed_order_block_is_its_one_row_call(case, pairs, seed):
    # an axis of trials j, each at its own (m, k) and s, against every row
    dec, rows, _ = case
    (m, k), s = np.array(pairs).T, np.random.default_rng(seed).uniform(0.05, 3.0, len(pairs))
    check_block("modulus_inequality_checks", dec, rows[:, None], np.arange(len(pairs)),
                lambda dec, f, j: modulus_inequality_checks(dec, f, s[j], 2.0, m[j], k[j]))


def _scan_measure(dec, rows):
    """The nodes, the squared measure of each row above ``lambda = 0`` at its scale there
    (``_moduli``) and ``lambda_max``."""
    nodes, norms = _measure(dec, _coefficients(dec, rows)[1])
    return nodes, _scaled(np.where(nodes > 0.0, norms, 0.0))[0] ** 2, float(nodes[-1])


@settings(PROFILE, max_examples=60)
@given(case=cases(), m=st.integers(1, 4), count=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_the_modulus_scan_is_the_scan_from_zero(case, m, count, seed):
    # below pi / lambda_max every ||Delta_tau^m g|| rises, so the scan that starts there gives
    # the bits of the scan from 0: each row takes count values of s, drawn below pi / lambda_max,
    # at it, at the grid points 4m - 2 .. 4m + 1 around it and far past it; one more row has
    # all its mass at lambda_max, so its maximum lies at pi / lambda_max, on the grid
    dec, rows, _ = case
    nodes, mass, lam_max = _scan_measure(dec, rows)
    if lam_max == 0.0:
        return  # the spectrum {0}: no scan
    mass = np.vstack((mass[np.any(mass > 0.0, axis=-1)],  # the rows ``_moduli`` scans
                      np.eye(1, nodes.size, nodes.size - 1)))
    rng, top, step = (np.random.default_rng(seed), math.pi / lam_max,
                      2.0 * math.pi / (_SCAN_PER_PERIOD * m * lam_max))
    pool = [0.0, top, *(k * step for k in range(4 * m - 2, 4 * m + 2))]
    s_rows = np.sort([[(rng.uniform(0.0, top), rng.choice(pool),
                        rng.uniform(top, 40.0 * top))[rng.integers(3)]
                       for _ in range(count)] for _ in mass], axis=-1)
    np.testing.assert_array_equal(_running_modulus(nodes, mass, s_rows, m),
                                  running_modulus_from_zero(nodes, mass, s_rows, m))


@settings(PROFILE, max_examples=30)
@given(case=cases(), m=st.integers(1, 4), share=st.floats(0.2, 0.9))
def test_the_seminorm_scan_is_the_scan_from_zero(case, m, share):
    dec, rows, _ = case
    nodes, mass, lam_max = _scan_measure(dec, rows)
    if lam_max == 0.0:
        return
    np.testing.assert_array_equal(_running_modulus(nodes, mass, None, m, share * m),
                                  running_modulus_from_zero(nodes, mass, None, m, share * m))


@settings(PROFILE, max_examples=40)
@given(case=cases(), m=st.integers(1, 3), n=st.integers(0, 1), share=st.floats(0.1, 0.9),
       j=st.sampled_from([None, -1100, 1100]) | st.integers(-1100, 1100),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_kernel_moves_no_difference(case, m, n, share, j, seed):
    # (e^{i tau D} - I)^m vanishes on ker D: the lambda = 0 group's norm scaled by 2^j (kept
    # below the largest double), or set to 0 (j = None), changes no bit of a modulus or a
    # seminorm, however far it passes the other groups; each case's spectrum is shifted to
    # start at 0, so each has a kernel
    dec, rows, _ = case
    dec = SpectralDecomposition(eigenvalues=dec.eigenvalues - dec.eigenvalues[0],
                                eigenvectors=dec.eigenvectors)
    _, c, e = _coefficients(dec, rows)
    nodes, norms = _measure(dec, c)
    moved = norms.copy()
    moved[:, 0] = 0.0 if j is None else np.ldexp(
        norms[:, 0], np.minimum(j, 1024 - np.frexp(norms[:, 0])[1]))
    s = np.random.default_rng(seed).uniform(0.0, 3.0, (len(rows), 3))

    def sides(groups):
        return (_moduli((nodes, groups), e, s, m),
                _seminorm_sup((nodes, groups), e, n + share * m, n, m))

    for x, y in zip(sides(moved), sides(norms)):
        np.testing.assert_array_equal(x, y)


def _ldexp(x, j):
    """``x 2^j`` entry by entry, as complex (both parts scaled), inf past the largest double."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.array(x, complex, ndmin=1).view(float), j).view(complex).reshape(
            np.shape(x))


def _normal(x) -> np.ndarray:
    """Whether each entry of ``x`` (both parts of a complex one) is zero or a normal double."""
    parts = np.abs([np.real(x), np.imag(x)])
    return np.all((parts == 0.0) | ((parts >= np.finfo(float).tiny) & (parts < np.inf)), axis=0)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(PROFILE, max_examples=10)
@given(case=cases(), j=st.sampled_from([-3, 3]) | st.integers(-2200, 2200),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_power_of_two_scale_comes_back_exactly(name, case, j, seed):
    # the scale rule of the ``operators`` docstring: f enters at a power-of-two scale and every
    # result gets its 2^e back exactly, so a field of degree d in f of the call on 2^j f is
    # 2^(j d) times that on f, bit for bit, wherever the values and the entries of 2^j f are
    # normal doubles (a ratio, of degree 0, where every value of degree 1 is), and past the
    # largest double the call raises NonFiniteError.  j is clipped to keep 2^j f normal, so
    # the clip reaches both ends of the double range
    dec, rows, omegas = case
    rng = np.random.default_rng(seed)
    p = float(rng.choice(omegas))
    f = prepare(name, dec, rows[rng.integers(len(rows))], p)
    parts = np.abs([f.real, f.imag])
    if not np.any(parts):
        return  # the zero vector: refused, or the same zeros at every scale
    top, low = np.frexp(parts.max())[1], np.frexp(parts[parts > 0.0].min())[1]
    j = int(np.clip(j, -1021 - low, 1024 - top))
    base, scaled = (outcome(CALLS[name].call, dec, x, p) for x in (f, _ldexp(f, j)))
    if isinstance(base, type):  # refused at scale 1: past the largest double, or at every scale
        assert scaled is base or base is NonFiniteError, (base, scaled)
        return
    degrees = {key: CALLS[name].degree_of(key) for key in base}
    expected = {key: _ldexp(value, j * degrees[key]) for key, value in base.items()
                if degrees[key] is not None}
    past = any(np.any(~np.isfinite(x)) for x in expected.values())
    norm = np.linalg.norm(np.ldexp(parts, -top)) * 2.0 ** (top + j - 1024)  # ||2^j f|| 2^-1024
    # a value past the largest double raises NonFiniteError, and so may one formed of ||f||
    refused = scaled is NonFiniteError
    assert refused == past or (refused and norm >= 1.0), scaled
    if not refused:
        assert not isinstance(scaled, type), scaled
        ok = {key: _normal(base[key]) & _normal(x) for key, x in expected.items()}
        whole = all(np.all(ok[key]) for key in ok if degrees[key] == 1)
        for key, x in expected.items():
            if degrees[key] == 1 or whole:
                np.testing.assert_array_equal(np.asarray(scaled[key])[ok[key]], x[ok[key]],
                                              err_msg=key)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(PROFILE, max_examples=10)
@given(case=cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_every_call_gives_finite_numbers_or_a_typed_error(name, case, seed):
    # the typed-error rule: on N = 1, the spectrum {0}, full degeneracy, kernels of every size,
    # the zero row and rows at 2^+-1000, each call returns finite numbers or raises a
    # BandApproxError (a RuntimeWarning fails, as in every test)
    dec, rows, omegas = case
    p = float(np.random.default_rng(seed).choice(omegas))
    check_finite(name, dec, rows, p)
