"""Parameter sweeps in one pass per vector and blocks of vectors, bit for bit against the
per-call functions.

``smoothness._besov_norms`` computes each vector's spectral data once and
reads every ``(alpha, q, flavor)`` off it; ``equivalence_report`` does the
same for the frame ratios of every ``(alpha, q)`` it is given.  Sharing must
not move a single bit: every entry equals the public function called on its
own (0 ulp), on every operator family, for the zero vector and at scales
1e+-150.  Since the public norms are the table's one-by-one calls, each
column is also rebuilt from the per-omega ``best_approx`` or
``spectral_tail`` calls of its own route and base.

The shift scan, the K path, the seminorm and the norm take a block of vectors
(``_moduli``, ``_k_functional_values``, ``_seminorm_sup``, ``_norm``); every row of a
block equals the same helper called with that row alone, 0 ulp.  The public
functions take a block ``f`` of shape ``(..., N)`` with parameters broadcast
against its rows; every element of a block call equals the call on that row
and those parameters alone, field by field, whatever the rest of the block
holds.
"""

import math

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    BesovParams,
    NotBandlimitedError,
    RieszConfig,
    ZeroVectorError,
    apply_multiplier,
    bernstein_check,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    build_kernel,
    eigh,
    equivalence_report,
    inverse_transform,
    jackson_check,
    k_besov_norm,
    k_functional,
    lemma1_check,
    lemma2_check,
    modulus_inequality_checks,
    pw_project,
    riesz_apply,
    schrodinger_group,
    spectral_tail,
    spectral_transform,
)
from bandapprox.harness import build_operator, load_edge_list, parse_operator_arg
from bandapprox.operators import _coefficients, _norm
from bandapprox.paley_wiener import _band_powers, _step_nodes, band_count
from bandapprox.smoothness import (
    BESOV_FLAVORS,
    _besov_norms,
    _discrete_norm,
    _integral_norm,
    _k_functional_values,
    _moduli,
    _seminorm_sup,
)
from conftest import random_vector

#: cycle, path, random PSD, raw_D with eigenvalues on the base-2 band edges, N = 1,
#: the spectrum {0}, the fully degenerate complete graph, and (as "disconnected")
#: a triangle beside a single edge
SPECS = (("cycle:16", RAW_L), ("path:9", RAW_L), ("random:12:3", RAW_L),
         ("diag:0,0.5,1,2,3.5,7", RAW_D), ("diag:2", RAW_D), ("diag:0,0", RAW_D),
         ("complete:6", RAW_L), ("disconnected", RAW_L))

ALPHAS = (0.7, 1.5)
QS = (1.0, 2.0, math.inf)
BASES = (2.0, 1.5)

PARAMS = [BesovParams(alpha=alpha, q=q, a=a, flavor=flavor)
          for flavor in BESOV_FLAVORS for alpha in ALPHAS for q in QS for a in BASES
          if flavor != "modulus" or q == math.inf]


@pytest.fixture(params=SPECS, ids=[text for text, _ in SPECS])
def dec(request, tmp_path):
    text, kind = request.param
    if text == "disconnected":
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n2 0\n3 4\n")
        return eigh(load_edge_list(str(path), kind=kind))
    return eigh(build_operator(parse_operator_arg(text, kind=kind)))


def _vectors(rng, dim):
    f = random_vector(rng, dim)
    return np.array([f, 1e150 * f, 1e-150 * f, np.zeros(dim)])


def test_norm_table_matches_besov_norm(dec, rng):
    vectors = _vectors(rng, dec.dim)
    expected = [[besov_norm(dec, f, p) for p in PARAMS] for f in vectors]
    np.testing.assert_array_equal(_besov_norms(dec, _coefficients(dec, vectors), PARAMS),
                                  expected)
    # the public norm of a block is the table's column
    for p, column in zip(PARAMS[::7], np.transpose(expected)[::7]):
        np.testing.assert_array_equal(besov_norm(dec, vectors, p), column)


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
        edges = _band_powers(p.a, band_count(dec.lambda_max, p.a))
        tail = _discrete_norm(np.array([distance(dec, f, w) for w in edges]), p.alpha, p.q, p.a)
    return _norm(f) + tail


def test_norm_table_reads_each_column_off_its_own_route_and_base(dec, rng):
    # E and R agree to rounding, so only bit equality shows a column read off the wrong route
    vectors = _vectors(rng, dec.dim)
    params = [p for p in PARAMS if p.flavor != "k_functional"]
    expected = [[_by_definition(dec, f, p) for p in params] for f in vectors]
    np.testing.assert_array_equal(_besov_norms(dec, _coefficients(dec, vectors), params),
                                  expected)


@pytest.mark.parametrize("domain_norm", ["seminorm", "graph"])
def test_norm_table_matches_k_besov_norm(dec, rng, domain_norm):
    vectors = _vectors(rng, dec.dim)
    params = [p for p in PARAMS if p.flavor == "k_functional"]
    expected = [[k_besov_norm(dec, f, p, domain_norm) for p in params] for f in vectors]
    np.testing.assert_array_equal(
        _besov_norms(dec, _coefficients(dec, vectors), params, domain_norm), expected)
    np.testing.assert_array_equal(k_besov_norm(dec, vectors, params[0], domain_norm),
                                  np.transpose(expected)[0])


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
    block = _moduli(dec, c, e, s_values, m)
    assert block.shape == s_values.shape
    for c_i, e_i, s_i, row in zip(c, e, s_values, block):
        np.testing.assert_array_equal(row, _moduli(dec, c_i, e_i, s_i, m))
    # one s axis broadcast against every row, as the Jackson chain passes it
    shared = _moduli(dec, c, e, s_values[1], m)
    for c_i, e_i, row in zip(c, e, shared):
        np.testing.assert_array_equal(row, _moduli(dec, c_i, e_i, s_values[1], m))


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
    vectors = _vectors(rng, dec.dim)
    _, c, e = _coefficients(dec, vectors)
    ts = np.exp(np.linspace(math.log(1e-9), math.log(1e9), 37))
    values, d = _k_functional_values(dec, c, e, ts, r, domain_norm)
    for f, c_i, e_i, row, d_i in zip(vectors, c, e, values, d):
        one, d_one = _k_functional_values(dec, c_i[None], [e_i], ts, r, domain_norm)
        np.testing.assert_array_equal(row, one[0])
        assert d_i == d_one[0]
        for t, value in zip(ts[::9], row[::9]):
            assert math.ldexp(value, int(d_i)) == k_functional(dec, f, t, r, domain_norm)


@pytest.mark.parametrize("alpha,n,r", [(1.5, 1, 2), (0.8, 0, 2), (0.5, 0, 1)])
def test_seminorm_block_rows_match_besov_seminorm_sup(dec, rng, alpha, n, r):
    vectors = _vectors(rng, dec.dim)
    _, c, e = _coefficients(dec, vectors)
    expected = [besov_seminorm_sup(dec, f, alpha, n, r) for f in vectors]
    np.testing.assert_array_equal(_seminorm_sup(dec, c, e, alpha, n, r), expected)


def test_composite_checks_match_their_one_vector_calls(dec, rng):
    vectors = _vectors(rng, dec.dim)
    trials = [(f, s, a, m, k) for f, s, a, (m, k)
              in zip([*vectors] * 3, [0.4, 2.0, 7.5] * 4, [0.5, 3.0] * 6,
                     [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (2, 2)] * 2)]
    rep = modulus_inequality_checks(dec, *(np.array(column) for column in zip(*trials)))
    for i, trial in enumerate(trials):
        one = modulus_inequality_checks(dec, *trial)
        assert (rep.ratio_power[i], rep.ratio_scale[i]) == (one.ratio_power, one.ratio_scale)
    for check in (lemma1_check, lemma2_check):
        rep = check(dec, vectors, 1.5, 1, 2)
        for i, f in enumerate(vectors):
            one = check(dec, f, 1.5, 1, 2)
            assert (rep.lhs[i], rep.rhs[i], rep.ratio[i]) == (one.lhs, one.rhs, one.ratio)
    if dec.lambda_max > 0.0:
        omegas = [0.4 * dec.lambda_max, 1.3 * dec.lambda_max]
        kernel = build_kernel(6, 2)
        rep = jackson_check(dec, vectors[:, None], omegas, 2, 1, kernel)
        for i, f in enumerate(vectors):
            for j, omega in enumerate(omegas):
                one = vars(jackson_check(dec, f, omega, 2, 1, kernel))
                assert {key: value if key == "constant" else value[i, j]
                        for key, value in vars(rep).items()} == one


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


def _assert_same_report(rep, one):
    assert (rep.omega, rep.s_values, rep.max_ratio) == (one.omega, one.s_values, one.max_ratio)
    np.testing.assert_array_equal(rep.ratios, one.ratios)


def test_bernstein_block_rows_match_bernstein_check(dec, rng):
    rows = _bandlimited_rows(dec, rng)
    expected = [bernstein_check(dec, f, omega, BERNSTEIN_S) for f, omega in rows]
    # the whole block, reversed, every third row, and one row beside copies of another
    for order in (range(len(rows)), range(len(rows) - 1, -1, -1), range(0, len(rows), 3),
                  [len(rows) - 1] + [0] * 5):
        block = [rows[i] for i in order]
        rep = bernstein_check(dec, np.array([f for f, _ in block]), [w for _, w in block],
                              BERNSTEIN_S)
        assert rep.ratios.shape == (len(block), len(BERNSTEIN_S))
        for j, i in enumerate(order):
            one = expected[i]
            assert (rep.omega[j], rep.max_ratio[j]) == (one.omega, one.max_ratio)
            assert rep.s_values == one.s_values
            np.testing.assert_array_equal(rep.ratios[j], one.ratios)


def test_bernstein_block_raises_as_its_one_row_call(dec, rng):
    rows = _bandlimited_rows(dec, rng)
    vectors, omegas = [f for f, _ in rows], [w for _, w in rows]
    middle = len(rows) // 2
    bad = [(np.zeros(dec.dim), omegas[middle], ZeroVectorError)]
    if dec.lambda_max > 0.0:  # a random vector has mass above half the smallest eigenvalue
        bad.append((random_vector(rng, dec.dim), 0.5 * dec.min_positive_eigenvalue,
                    NotBandlimitedError))
    for f, omega, error in bad:
        with pytest.raises(error):
            bernstein_check(dec, f, omega, BERNSTEIN_S)
        with pytest.raises(error):
            bernstein_check(dec, np.array(vectors[:middle] + [f] + vectors[middle:]),
                            omegas[:middle] + [omega] + omegas[middle:], BERNSTEIN_S)


#: public block calls on (dec, rows f, one parameter per row), against their 1-row calls
ROW_CALLS = {
    "spectral_transform": lambda dec, f, w: spectral_transform(dec, f),
    "inverse_transform": lambda dec, f, w: inverse_transform(dec, f),
    "apply_multiplier": lambda dec, f, w: apply_multiplier(
        dec, lambda lam: np.cos(np.multiply.outer(w, lam)), f),
    "pw_project": lambda dec, f, w: pw_project(dec, f, w),
    "schrodinger_group": lambda dec, f, w: schrodinger_group(dec, w - 0.3j, f),
    "best_approx": lambda dec, f, w: best_approx(dec, f, w),
    "spectral_tail": lambda dec, f, w: spectral_tail(dec, f, w),
    "riesz_apply": lambda dec, f, w: riesz_apply(dec, f, RieszConfig(omega=1.5)),
}


@pytest.mark.parametrize("name", sorted(ROW_CALLS))
def test_block_rows_match_one_row_calls(dec, rng, name):
    vectors = np.concatenate((_vectors(rng, dec.dim), [random_vector(rng, dec.dim)]))
    omegas = np.array([0.0, 0.5, 1.0, 2.0, 0.7]) * (dec.lambda_max or 1.0)
    block = ROW_CALLS[name](dec, vectors, omegas)
    assert block.shape[0] == len(vectors)
    for row, f, omega in zip(block, vectors, omegas):
        np.testing.assert_array_equal(row, ROW_CALLS[name](dec, f, omega))
