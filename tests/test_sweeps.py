"""Parameter sweeps in one pass per vector and blocks of vectors, bit for bit against the
per-call functions.

``besov_norm`` and ``k_besov_norm`` take a parameter axis: the numeric fields
of ``BesovParams`` broadcast against the rows of ``f``, and one call computes
once what its elements share (the distances per route and base, ``K`` per
``r``, the seminorm per ``(alpha, r)``); ``equivalence_report`` does the same
for the frame ratios of every ``(alpha, q)`` it is given.  Sharing must not
move a single bit: every element equals the call on its row and scalar
parameters alone (0 ulp), on every operator family, for the zero vector and
at scales 1e+-150.  Each element is also rebuilt from the per-omega
``best_approx`` or ``spectral_tail`` calls of its own route and base, and the
E route, which carries each row's block base (v less its full-block products)
through the call and takes the cuts inside a block as one running sum, from its
definition taken one element at a time (``oracles.distances_by_running_sum``),
bit for bit at every chunk size; it is the masked-block route it replaced
(``oracles.distances_by_masked_blocks``) and one synthesis per element
(``oracles.distances_by_element``) within N eps ||f|| (the same products
summed in another order).

The shift scan, the K path, the seminorm and the norm take a block of vectors
(``_moduli``, ``_running_modulus``, ``_k_functional_values``, ``_seminorm_sup``, ``_norm``),
each through the spectral measure of its rows (``_measure``) where it sums per eigenspace,
and the lq, discrete and integral norms a rows x terms table (``_lq_norm``,
``_discrete_norm``, ``_integral_norm``); every row of a block equals the same helper called
with that row alone, 0 ulp.  The public
functions take a block ``f`` of shape ``(..., N)`` with parameters broadcast
against its rows; every element of a block call equals the call on that row
and those parameters alone, field by field, whatever the rest of the block
holds: every entry of the registry ``public_calls.CALLS`` on every family here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    BesovParams,
    MembershipViolationError,
    NotBandlimitedError,
    SpectralDecomposition,
    ZeroVectorError,
    band_decompose,
    bernstein_check,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    eigh,
    equivalence_report,
    frame_norm,
    k_besov_norm,
    k_functional,
    modulus_inequality_checks,
    pw_project,
    spectral_tail,
    synthesis_check,
)
from bandapprox import paley_wiener
from bandapprox.harness import build_operator, load_edge_list, parse_operator_arg
from bandapprox.operators import _coefficients, _measure, _norm
from bandapprox.paley_wiener import _band_edges, _band_powers, _lq_norm, _step_nodes
from bandapprox.smoothness import (
    BESOV_FLAVORS,
    _discrete_norm,
    _integral_norm,
    _k_functional_values,
    _moduli,
    _running_modulus,
    _seminorm_sup,
)
from conftest import random_vector
from oracles import distances_by_element, distances_by_masked_blocks, distances_by_running_sum
from public_calls import AXIS_NAMES, BLOCK_NAMES, CALLS, check_block, prepare

#: cycle, path, random PSD, raw_D with eigenvalues on the base-2 band edges, N = 1,
#: the spectrum {0}, the fully degenerate complete graph, and (as "disconnected")
#: a triangle beside a single edge
SPECS = (("cycle:16", RAW_L), ("path:9", RAW_L), ("random:12:3", RAW_L),
         ("diag:0,0.5,1,2,3.5,7", RAW_D), ("diag:2", RAW_D), ("diag:0,0", RAW_D),
         ("complete:6", RAW_L), ("disconnected", RAW_L))

ALPHAS = (0.7, 1.5)
QS = (1.0, 2.0, math.inf)
BASES = (2.0, 1.5)

#: the ``(alpha, q, a)`` of every flavor
COMBOS = {flavor: [(alpha, q, a) for alpha in ALPHAS for q in QS for a in BASES
                   if flavor != "modulus" or q == math.inf] for flavor in BESOV_FLAVORS}


def _axis(flavor):
    """One ``BesovParams`` holding every ``(alpha, q, a)`` of ``flavor`` as arrays."""
    alphas, qs, bases = np.transpose(COMBOS[flavor])
    return BesovParams(alpha=alphas, q=qs, a=bases, flavor=flavor)


def _column(flavor, norm=besov_norm, *args):
    """``norm`` on ``(dec, f, j)`` at the elements ``j`` of ``_axis(flavor)``."""
    alphas, qs, bases = np.transpose(COMBOS[flavor])
    return lambda dec, f, j: norm(dec, f, BesovParams(alpha=alphas[j], q=qs[j], a=bases[j],
                                                      flavor=flavor), *args)


@pytest.fixture(scope="module", params=SPECS, ids=[text for text, _ in SPECS])
def dec(request, tmp_path_factory):
    text, kind = request.param
    if text == "disconnected":
        path = tmp_path_factory.mktemp("graph") / "graph.txt"
        path.write_text("0 1\n1 2\n2 0\n3 4\n")
        return eigh(load_edge_list(str(path), kind=kind))
    return eigh(build_operator(parse_operator_arg(text, kind=kind)))


def _vectors(rng, dim):
    f = random_vector(rng, dim)
    return np.array([f, 1e150 * f, 1e-150 * f, np.zeros(dim)])


def test_norm_table_matches_besov_norm(dec, rng):
    # one parameter-axis call per flavor: every vector at every (alpha, q, a), and row i against
    # element i of the axis, each element reading its own row's shared data
    vectors = _vectors(rng, dec.dim)
    for flavor, combos in COMBOS.items():
        check_block("besov_norm", dec, vectors[:, None], np.arange(len(combos)), _column(flavor))
        check_block("besov_norm", dec, vectors, np.array([1, 0, len(combos) - 1, 2]),
                    _column(flavor))


def _by_definition(dec, f, p):
    """The norm of ``p`` with every distance or seminorm from its own public call."""
    distance = best_approx if p.flavor.endswith("_E") else spectral_tail
    if p.flavor == "modulus":
        tail = besov_seminorm_sup(dec, f, p.alpha, 0, p.r)
    elif p.flavor.startswith("integral"):
        nodes = _step_nodes(dec)
        tail = _integral_norm(nodes, np.array([distance(dec, f, w) for w in nodes[:-1]]),
                              p.alpha, p.q)
    else:
        edges = _band_edges(dec, p.a)[:-1]
        tail = _discrete_norm(np.array([distance(dec, f, w) for w in edges]), p.alpha, p.q, p.a)
    return _norm(f) + tail


def test_norm_table_reads_each_column_off_its_own_route_and_base(dec, rng):
    # E and R agree to rounding, so only bit equality shows an element read off the wrong route
    vectors = _vectors(rng, dec.dim)
    for flavor, combos in COMBOS.items():
        if flavor != "k_functional":
            expected = [[_by_definition(dec, f, BesovParams(alpha=alpha, q=q, a=a, flavor=flavor))
                         for alpha, q, a in combos] for f in vectors]
            np.testing.assert_array_equal(besov_norm(dec, vectors[:, None], _axis(flavor)),
                                          expected)


@pytest.mark.parametrize("domain_norm", ["seminorm", "graph"])
def test_norm_table_matches_k_besov_norm(dec, rng, domain_norm):
    check_block("k_besov_norm", dec, _vectors(rng, dec.dim)[:, None],
                np.arange(len(COMBOS["k_functional"])),
                _column("k_functional", k_besov_norm, domain_norm))


@pytest.mark.parametrize("a", BASES)
def test_equivalence_ratios_match_equivalence_report(dec, rng, a):
    vectors = _vectors(rng, dec.dim)[:3]
    combos = [(alpha, q) for alpha in ALPHAS for q in QS]
    alphas, qs = np.transpose(combos)
    rep = equivalence_report(dec, vectors[:, None], alphas, qs, a)
    assert rep.ratios.shape == (len(vectors), len(combos))
    np.testing.assert_array_equal(rep.ratio_lo, rep.ratios.min(axis=0))
    np.testing.assert_array_equal(rep.ratio_hi, rep.ratios.max(axis=0))
    for column, (alpha, q) in zip(rep.ratios.T, combos):
        np.testing.assert_array_equal(column, equivalence_report(dec, vectors, alpha, q, a).ratios)
        for f, ratio in zip(vectors, column):
            assert ratio == equivalence_report(dec, f, alpha, q, a).ratio_lo


def _shifts(dec):
    """Per-row shifts: unsorted, with a repeat and s = 0, and a different largest s per row."""
    top = dec.lambda_max or 1.0
    low = dec.min_positive_eigenvalue or 1.0
    base = [1.0 / low, 0.3 / top, 0.0, 4.0 / top, 0.3 / top, 2.5 / low, 0.05 / top]
    return np.array([[s * (1.0 + 0.37 * i) for s in base] for i in range(4)])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_scan_block_rows_match_one_row_scans(dec, rng, m):
    _, c, e = _coefficients(dec, _vectors(rng, dec.dim))
    s_values = _shifts(dec)
    block = _moduli(_measure(dec, c), e, s_values, m)
    assert block.shape == s_values.shape
    for c_i, e_i, s_i, row in zip(c, e, s_values, block):
        np.testing.assert_array_equal(row, _moduli(_measure(dec, c_i), e_i, s_i, m))
    # one s axis broadcast against every row, as the Jackson chain passes it
    shared = _moduli(_measure(dec, c), e, s_values[1], m)
    for c_i, e_i, row in zip(c, e, shared):
        np.testing.assert_array_equal(row, _moduli(_measure(dec, c_i), e_i, s_values[1], m))


def test_norm_block_rows_match_one_row_norms(dec, rng):
    v, c, e = _coefficients(dec, _vectors(rng, dec.dim))
    for x in (v, c, 1e-200 * v, np.ones_like(v)):
        for e_x in (e, e + 3, 0):
            block = _norm(x, e_x)
            assert block.shape == (len(x),)
            for row, x_i, e_i in zip(block.tolist(), x, np.broadcast_to(e_x, len(x)).tolist()):
                assert row == _norm(x_i, e_i)
    # one vector's norm is the sum np.linalg.norm takes, at a power-of-two scale
    for v_i in v:
        assert _norm(v_i) == float(np.linalg.norm(v_i))
    # rows of any leading shape
    np.testing.assert_array_equal(_norm(v.reshape(2, 2, -1), e.reshape(2, 2)),
                                  _norm(v, e).reshape(2, 2))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("domain_norm", ["seminorm", "graph"])
def test_k_path_block_rows_match_one_row_paths(dec, rng, r, domain_norm):
    # eigenvectors of the first and last eigenvalue have other scales on the path than the rest
    vectors = np.concatenate((_vectors(rng, dec.dim), dec.eigenvectors[:, [0, -1]].T))
    _, c, e = _coefficients(dec, vectors)
    ts = np.exp(np.linspace(math.log(1e-9), math.log(1e9), 37))
    values, d = _k_functional_values(_measure(dec, c), e, ts, r, domain_norm)
    for f, c_i, e_i, row, d_i in zip(vectors, c, e, values, d):
        one, d_one = _k_functional_values(_measure(dec, c_i[None]), [e_i], ts, r, domain_norm)
        np.testing.assert_array_equal(row, one[0])
        assert d_i == d_one[0]
        for t, value in zip(ts[::9], row[::9]):
            assert math.ldexp(value, int(d_i)) == k_functional(dec, f, t, r, domain_norm)


@pytest.mark.parametrize("alpha,n,r", [(1.5, 1, 2), (0.8, 0, 2), (0.5, 0, 1)])
def test_seminorm_block_rows_match_besov_seminorm_sup(dec, rng, alpha, n, r):
    vectors = _vectors(rng, dec.dim)
    _, c, e = _coefficients(dec, vectors)
    expected = [besov_seminorm_sup(dec, f, alpha, n, r) for f in vectors]
    np.testing.assert_array_equal(_seminorm_sup(_measure(dec, c), e, alpha, n, r), expected)


def test_composite_checks_match_their_one_vector_calls(dec, rng):
    # an axis of trials, each at its own row, s, a and (m, k); the lemma checks and the Jackson
    # chain are registry entries, run by test_block_rows_match_one_row_calls on every family
    vectors = _vectors(rng, dec.dim)
    trials = [(f, s, a, m, k) for f, s, a, (m, k)
              in zip([*vectors] * 3, [0.4, 2.0, 7.5] * 4, [0.5, 3.0] * 6,
                     [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (2, 2)] * 2)]
    rep = modulus_inequality_checks(dec, *(np.array(column) for column in zip(*trials)))
    for i, trial in enumerate(trials):
        one = modulus_inequality_checks(dec, *trial)
        assert (rep.ratio_power[i], rep.ratio_scale[i]) == (one.ratio_power, one.ratio_scale)


#: unsorted, with a repeat and s = 0
BERNSTEIN_S = (2.0, 0.5, 7.0, 0.0, 0.5, 1.0)


def _bandlimited_rows(dec, rng):
    """``(f, omega)``: a random vector projected onto PW_omega at 0, at every eigenvalue, between
    eigenvalues and above ``lambda_max``, each at the scales 1, 1e150 and 1e-150."""
    nodes = _step_nodes(dec)
    omegas = [*nodes, *(0.5 * (nodes[:-1] + nodes[1:])), 1.5 * nodes[-1] + 1.0]
    rows = []
    for omega in omegas:
        f = pw_project(dec, random_vector(rng, dec.dim), omega)
        if np.any(f):  # PW_0 is {0} without a kernel mode
            rows += [(scale * f, float(omega)) for scale in (1.0, 1e150, 1e-150)]
    return rows


def _bernstein(dec, f, omega):
    return bernstein_check(dec, f, omega, BERNSTEIN_S)


def test_bernstein_block_rows_match_bernstein_check(dec, rng):
    f, omegas = map(np.array, zip(*_bandlimited_rows(dec, rng)))
    # the whole block, reversed, every third row, and one row beside copies of another
    for order in (slice(None), slice(None, None, -1), slice(None, None, 3), [-1] + [0] * 5):
        check_block("bernstein_check", dec, f[order], omegas[order], _bernstein)


def test_bernstein_block_raises_as_its_one_row_call(dec, rng):
    f, omegas = map(np.array, zip(*_bandlimited_rows(dec, rng)))
    bad = [(np.zeros(dec.dim), omegas[0], ZeroVectorError)]
    if dec.lambda_max > 0.0:  # a random vector has mass above half the smallest eigenvalue
        bad.append((random_vector(rng, dec.dim), 0.5 * dec.min_positive_eigenvalue,
                    NotBandlimitedError))
    for g, omega, error in bad:
        with pytest.raises(error):
            _bernstein(dec, g, omega)
        middle = len(f) // 2  # the block raises it, and its other rows keep the block rule
        check_block("bernstein_check", dec, np.insert(f, middle, g, axis=0),
                    np.insert(omegas, middle, omega), _bernstein)


#: every entry of the registry that takes a block, against one parameter for all rows, and
#: (as "name param") each entry whose parameter broadcasts, against one parameter per row
ROW_CASES = BLOCK_NAMES + [f"{name} {CALLS[name].param}" for name in AXIS_NAMES
                           if name in BLOCK_NAMES]


@pytest.mark.parametrize("case", ROW_CASES)
def test_block_rows_match_one_row_calls(dec, rng, case):
    # rows at 1e+-150, the zero row and another vector; each field of each row its one-row call's
    name, per_row = case.split()[0], " " in case
    vectors = np.concatenate((_vectors(rng, dec.dim), [random_vector(rng, dec.dim)]))
    p = (np.array([0.0, 0.5, 1.0, 2.0, 0.7]) if per_row else 0.7) * (dec.lambda_max or 1.0)
    check_block(name, dec, prepare(name, dec, vectors, p), p)


@pytest.mark.parametrize("case", BLOCK_NAMES + ["bandwidth probe"])
def test_widened_rows_match_one_row_calls(dec, rng, case):
    # the same rows as a block of two axes; bandwidth with no probe (p = 0) and with one
    name, vectors = case.split()[0], _vectors(rng, dec.dim).reshape(2, 2, -1)
    p = 0.0 if case == "bandwidth" else 0.7 * (dec.lambda_max or 1.0)
    check_block(name, dec, prepare(name, dec, vectors, p), p)


@pytest.fixture(scope="module")
def random256_dec():
    """random_psd:256, decomposed by LAPACK (the library's Jacobi solver takes seconds here)."""
    w, v = np.linalg.eigh(build_operator(parse_operator_arg("random:256")).entries)
    return SpectralDecomposition(eigenvalues=np.sqrt(np.maximum(w, 0.0)), eigenvectors=v)


def _assert_element_synthesis_agrees(dec, fc, omegas, got, oracle=distances_by_element):
    """``got``, the E route at ``omegas``, against one synthesis over all N columns per element
    (or the masked-block route): the same products summed in another order, so within
    N eps ||f|| at every N; the running sum subtracts the terms of a partial block one at a
    time, where a synthesis adds them in a matrix product, so not bit for bit even at
    N <= ``_E_BLOCK`` (at N = 256 the two differ by at most about 2e-16 ||f||)."""
    bound = dec.dim * np.finfo(float).eps * _norm(fc[0], fc[2])
    assert np.all(np.abs(got - oracle(dec, fc, omegas)) <= bound)


def _assert_e_route_matches_the_element_loop(dec, vectors):
    """``best_approx`` and the E flavors of every row of ``vectors`` at 0 ulp from the running
    sum taken one element at a time, and near the per-element synthesis."""
    nodes = _step_nodes(dec)
    omegas = np.concatenate((nodes, 0.5 * (nodes[:-1] + nodes[1:]), [1.5 * nodes[-1] + 1.0]))
    fc = _coefficients(dec, vectors[:, None])
    expected = distances_by_running_sum(dec, fc, omegas)
    np.testing.assert_array_equal(best_approx(dec, vectors[:, None], omegas), expected)
    _assert_element_synthesis_agrees(dec, fc, omegas, expected)
    for f, row in zip(vectors, expected):
        np.testing.assert_array_equal(best_approx(dec, f, omegas), row)
    for alpha, q, a in COMBOS["discrete_E"]:
        edges = _band_edges(dec, a)[:-1]
        integral, discrete = [], []
        for f in vectors:
            fc = _coefficients(dec, f)
            integral.append(_norm(f) + _integral_norm(
                nodes, distances_by_running_sum(dec, fc, nodes[:-1]), alpha, q))
            discrete.append(_norm(f) + _discrete_norm(
                distances_by_running_sum(dec, fc, edges), alpha, q, a))
        np.testing.assert_array_equal(
            besov_norm(dec, vectors, BesovParams(alpha=alpha, q=q, flavor="integral_E")), integral)
        np.testing.assert_array_equal(
            besov_norm(dec, vectors, BesovParams(alpha=alpha, q=q, a=a, flavor="discrete_E")),
            discrete)


@pytest.mark.parametrize("chunk", [None, 3], ids=["default", "3-elements"])
def test_e_route_matches_the_element_loop(dec, rng, monkeypatch, chunk):
    if chunk is not None:  # chunks of 3 elements, so every block crosses several boundaries
        monkeypatch.setattr(paley_wiener, "_E_CHUNK_ENTRIES", chunk * dec.dim)
    _assert_e_route_matches_the_element_loop(dec, _vectors(rng, dec.dim))


def test_e_route_matches_the_element_loop_at_n256(random256_dec, rng):
    # 8 full blocks of 32 columns: the block bases b_0 .. b_8 of the 4 rows carried together, and
    # 16 sums of each row per chunk, so the running sum of every block crosses two boundaries
    _assert_e_route_matches_the_element_loop(random256_dec, _vectors(rng, 256))


def test_e_route_crosses_a_chunk_boundary_at_its_own_size(dec, rng):
    f = random_vector(rng, dec.dim)
    omegas = rng.uniform(0.0, 1.2 * dec.lambda_max, paley_wiener._E_CHUNK_ENTRIES // dec.dim + 5)
    np.testing.assert_array_equal(best_approx(dec, f, omegas),
                                  distances_by_running_sum(dec, _coefficients(dec, f), omegas))


def _synthetic_dec(n, basis="qr"):
    """Eigenvalues 1, ..., n, so ``omega = m`` keeps the first m, and a basis that needs no
    eigensolver: ``np.linalg.qr`` of a Gaussian seeded by n, or the identity."""
    vectors = (np.eye(n) if basis == "identity"
               else np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0])
    return SpectralDecomposition(eigenvalues=np.arange(1.0, n + 1.0), eigenvectors=vectors)


W = paley_wiener._E_BLOCK


@pytest.mark.parametrize("chunk", [None, 3, 1], ids=["default", "3-elements", "1-element"])
@pytest.mark.parametrize("basis", ["qr", "identity"])
@pytest.mark.parametrize("n", [W - 1, W, W + 1, 2 * W, 2 * W + 1, 100])
def test_e_route_is_its_block_definition(monkeypatch, n, basis, chunk):
    # every cut from 0 through N, the multiples of W among them; rows at 2^+-1000, the zero row,
    # and a row whose upper half is 2^-600 of its lower half: in the identity basis its
    # residuals there are 2^-600 relative, so their squares underflow and the norm is re-taken
    # at its own scale (with a QR basis round-off of the synthesis dominates them)
    if chunk is not None:  # a block base and 2 terms (or 1) per piece of the running sum; one
        # entry of N per chunk is the size at N > 8192, where the rows once split into more
        # chunks than there were rows
        monkeypatch.setattr(paley_wiener, "_E_CHUNK_ENTRIES", chunk * n)
    dec, f = _synthetic_dec(n, basis), random_vector(np.random.default_rng(n + 1), n)
    upper = np.arange(n) >= n // 2
    vectors = np.array([f, 2.0 ** 1000 * f, 2.0 ** -1000 * f, np.zeros(n),
                        np.where(upper, 2.0 ** -600 * f, f)])
    omegas, fc = np.arange(n + 1.0), _coefficients(dec, vectors[:, None])
    got = best_approx(dec, vectors[:, None], omegas)
    np.testing.assert_array_equal(got, distances_by_running_sum(dec, fc, omegas))
    for i, row in enumerate(vectors):
        np.testing.assert_array_equal(best_approx(dec, row, omegas), got[i])
    # the element oracle takes no norm again, so the last row is left out
    _assert_element_synthesis_agrees(dec, _coefficients(dec, vectors[:4, None]), omegas, got[:4])
    if basis == "identity":  # the re-take: each tail at its own scale, as the R route has it
        tails = got[4, n // 2:n]
        assert np.all(tails > 0.0) and np.all(tails < 2.0 ** -590)
        np.testing.assert_allclose(got, spectral_tail(dec, vectors[:, None], omegas),
                                   rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("n", [W - 1, W, W + 1, 2 * W, 2 * W + 1, 100, 256])
def test_e_route_is_near_the_masked_block_route(n):
    # the running sum against the route it replaced, which masked the partial block of each cut
    # in one product: every cut from 0 through N, rows at 2^+-1000 and the zero row
    dec, f = _synthetic_dec(n), random_vector(np.random.default_rng(n + 2), n)
    vectors = np.array([f, 2.0 ** 1000 * f, 2.0 ** -1000 * f, np.zeros(n)])
    omegas, fc = np.arange(n + 1.0), _coefficients(dec, vectors[:, None])
    _assert_element_synthesis_agrees(dec, fc, omegas, best_approx(dec, vectors[:, None], omegas),
                                     distances_by_masked_blocks)


def test_e_route_at_n1024_stays_in_the_chunk_bound():
    # one vector at all 1,025 step nodes of a synthetic N = 1024 decomposition: the route holds
    # its stacked full-block products and a piece of running sums of _E_CHUNK_ENTRIES complex
    # entries each, with the products that form them, never N^2 entries (16 MiB here)
    dec = _synthetic_dec(1024)
    f = random_vector(np.random.default_rng(1024), 1024)
    nodes = _step_nodes(dec)
    tracemalloc.start()
    try:
        got = best_approx(dec, f, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 16 * paley_wiener._E_CHUNK_ENTRIES
    assert np.max(np.abs(got - spectral_tail(dec, f, nodes))) <= 1e-14 * np.linalg.norm(f)


def _terms(rng, width):
    """Rows of nonnegative terms: random, at 1e+-150, with zeros, all zero, and one term."""
    x = rng.uniform(0.0, 3.0, width)
    sparse = np.where(np.arange(width) % 2 == 0, 0.0, x)
    return np.array([x, 1e150 * x, 1e-150 * x, sparse, np.zeros(width), np.eye(width)[-1]])


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, math.inf])
def test_norm_table_rows_match_one_row_norms(rng, q):
    # one reduction over the last axis of the table; the root a Python float power per row
    nodes = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 7.0])
    table = _terms(rng, 5)
    calls = {"_lq_norm": lambda t: _lq_norm(t, q),
             "_discrete_norm": lambda t: _discrete_norm(t, 0.7, q, 1.5),
             "_integral_norm": lambda t: _integral_norm(nodes, t, 1.3, q)}
    for name, call in calls.items():
        block = call(table)
        assert block.shape == (len(table),), name
        assert block.tolist() == [call(row) for row in table], name
        assert all(isinstance(call(row), float) for row in table), name
        # rows of any leading shape
        np.testing.assert_array_equal(call(table.reshape(2, 3, -1)), block.reshape(2, 3))
    assert _lq_norm(np.zeros((3, 0)), q).tolist() == [0.0] * 3 and _lq_norm(np.zeros(0), q) == 0.0


def test_band_decompose_block_rows_match_one_row_calls(dec, rng):
    # the fields of a block split are its rows' by the block rule (test_block_rows_match_one_
    # row_calls); so are its band norms and frame norm, and one vector's bands are a tuple
    vectors = _vectors(rng, dec.dim)
    block, ones = band_decompose(dec, vectors), [band_decompose(dec, f) for f in vectors]
    assert isinstance(ones[0].bands, tuple)
    np.testing.assert_array_equal(block.band_norms(), [one.band_norms() for one in ones])
    np.testing.assert_array_equal(frame_norm(block, 0.7, 2.0),
                                  [frame_norm(one, 0.7, 2.0) for one in ones])


def test_synthesis_block_rows_match_one_row_calls(dec, rng):
    # canonical band sets are the registry's (test_block_rows_match_one_row_calls); here
    # non-orthogonal ones, every band a random vector projected onto its edge, at 1 and 1e150
    canonical = band_decompose(dec, _vectors(rng, dec.dim)).bands
    edges = _band_powers(2.0, canonical.shape[1])
    squashed = pw_project(dec, [[random_vector(rng, dec.dim) for _ in edges]] * 2, edges)
    check_block("synthesis_check", dec, np.concatenate((squashed, 1e150 * squashed)), 0.8)
    assert synthesis_check(dec, canonical[3], 0.8).ratio == 0.0  # the zero vector's bands


def test_synthesis_block_names_the_band_outside_its_edge(dec, rng):
    if dec.lambda_max <= 1.0:
        pytest.skip("every vector lies in PW_1")
    bands = band_decompose(dec, _vectors(rng, dec.dim)).bands.copy()
    bands[2, 0] = dec.eigenvectors[:, -1]  # lambda_max > 1 = a^0: outside band 0
    with pytest.raises(MembershipViolationError, match=r"band \(2, 0\) "):
        synthesis_check(dec, bands, 0.8)
    with pytest.raises(MembershipViolationError, match=r"band 0 "):
        synthesis_check(dec, bands[2], 0.8)


def test_running_modulus_rows_match_one_row_scans(dec, rng):
    # each row its own ascending s, its own largest s (so its own last scan point), s = 0 and
    # a repeat: the bins of a row are filled from its own samples and refined maxima alone
    if dec.lambda_max == 0.0:
        pytest.skip("every difference vanishes on the spectrum {0}")
    _, c, e = _coefficients(dec, np.array([random_vector(rng, dec.dim) for _ in range(4)]))
    nodes, norms = _measure(dec, c)
    mass = norms ** 2
    s_rows = np.sort(_shifts(dec), axis=-1)
    for m in (1, 2, 3):
        block = _running_modulus(nodes, mass, s_rows, m)
        assert block.shape == s_rows.shape
        for g, s, row in zip(mass, s_rows, block):
            np.testing.assert_array_equal(row, _running_modulus(nodes, g[None], s[None], m)[0])
