"""Parameter sweeps in one pass per vector, bit for bit against the per-call functions.

``smoothness._besov_norms`` computes each vector's spectral data once and
reads every ``(alpha, q, flavor)`` off it; ``decomposition._equivalence_ratios``
does the same for the frame ratios.  Sharing must not move a single bit:
every entry equals the public function called on its own (0 ulp), on every
operator family, for the zero vector and at scales 1e+-150.  Since the
public norms are the table's one-by-one calls, each column is also rebuilt
from the per-omega ``best_approx`` or ``spectral_tail`` calls of its own
route and base.
"""

import math

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    BesovParams,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    eigh,
    equivalence_report,
    k_besov_norm,
    spectral_tail,
)
from bandapprox.decomposition import _equivalence_ratios
from bandapprox.harness import build_operator, load_edge_list, parse_operator_arg
from bandapprox.operators import _norm
from bandapprox.paley_wiener import _band_powers, _step_nodes, band_count
from bandapprox.smoothness import BESOV_FLAVORS, _besov_norms, _discrete_norm, _integral_norm
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
    return [f, 1e150 * f, 1e-150 * f, np.zeros(dim)]


def test_norm_table_matches_besov_norm(dec, rng):
    vectors = _vectors(rng, dec.dim)
    expected = [[besov_norm(dec, f, p) for p in PARAMS] for f in vectors]
    np.testing.assert_array_equal(_besov_norms(dec, vectors, PARAMS), expected)


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
    np.testing.assert_array_equal(_besov_norms(dec, vectors, params), expected)


@pytest.mark.parametrize("domain_norm", ["seminorm", "graph"])
def test_norm_table_matches_k_besov_norm(dec, rng, domain_norm):
    vectors = _vectors(rng, dec.dim)
    params = [p for p in PARAMS if p.flavor == "k_functional"]
    expected = [[k_besov_norm(dec, f, p, domain_norm) for p in params] for f in vectors]
    np.testing.assert_array_equal(_besov_norms(dec, vectors, params, domain_norm), expected)


@pytest.mark.parametrize("a", BASES)
def test_equivalence_ratios_match_equivalence_report(dec, rng, a):
    vectors = _vectors(rng, dec.dim)[:3]
    combos = [(alpha, q) for alpha in ALPHAS for q in QS]
    ratios = _equivalence_ratios(dec, vectors, combos, a)
    assert ratios.shape == (len(vectors), len(combos))
    for column, (alpha, q) in zip(ratios.T, combos):
        np.testing.assert_array_equal(column, equivalence_report(dec, vectors, alpha, q, a).ratios)

