"""The shared spectral paths against independent oracles.

``modulus`` reads ``Omega_m(f, s)`` off the uncapped running-maximum shift
scan; its oracle is the former capped grid search, compared wherever the
cap does not bind.  Band-edge distances at every step node come from one
transform and are compared with an explicit projector, and the coefficient tails
read off the spectral measure with the element loop they replaced.  The R side takes the
measure alone, so a closed-form measure, with no basis, feeds it as ``_measure`` does.
"""

import math
import time

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    InvalidParamsError,
    SymmetricOperator,
    besov_seminorm_sup,
    eigh,
    modulus,
    smoothness,
    spectral_tail,
)
from bandapprox.harness import build_operator, parse_operator_arg
from bandapprox.operators import _coefficients, _measure, _unscaled
from bandapprox.paley_wiener import _band_edges, _distances, _step_nodes, _tails
from bandapprox.smoothness import (
    MAX_SCAN_ENTRIES,
    _k_functional_values,
    _moduli,
    _seminorm_sup,
)
from conftest import random_vector
from oracles import (
    cycle_decomposition,
    cycle_measure,
    distance_by_projector,
    modulus_capped_grid,
    modulus_dense_scan,
    tails_by_element,
)

REL = 1e-12

#: cycle/path (degenerate), random PSD, a spectrum containing 0, N = 1, {0}
SPECS = (("cycle:8", RAW_L), ("cycle:16", RAW_L), ("path:16", RAW_L),
         ("random:32:3", RAW_L), ("diag:0,0.5,2,3", RAW_D), ("diag:2", RAW_D),
         ("diag:0,0", RAW_D))

#: shifts in units of 1 / lambda_max; the capped grid stays below its cap
S_SCALED = (0.05, 0.9, 3.0, 25.0)


def _dec(text, kind=RAW_D):
    return eigh(build_operator(parse_operator_arg(text, kind=kind)))


@pytest.fixture(params=SPECS, ids=[text for text, _ in SPECS])
def case(request, rng):
    dec = _dec(*request.param)
    return dec, random_vector(rng, dec.dim)


class TestModulusAgainstCappedGrid:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_every_family(self, case, m):
        dec, f = case
        lam_max = dec.lambda_max if dec.lambda_max > 0 else 1.0
        for scaled in S_SCALED:
            s = scaled / lam_max
            assert 8 * m * s * dec.lambda_max / (2 * math.pi) + 1 < 8192
            new = modulus(dec, f, s, m)
            old = modulus_capped_grid(dec, f, s, m)
            assert abs(new - old) <= REL * abs(old)

    def test_zero_shift_and_trivial_spectrum(self, rng):
        dec = _dec("diag:0,0")
        f = random_vector(rng, 2)
        assert modulus(dec, f, 5.0, 2) == 0.0
        assert modulus(_dec("diag:1,2"), f, 0.0, 3) == 0.0
        assert modulus(dec, f, 5.0, 0) == pytest.approx(np.linalg.norm(f), rel=REL)

    def test_no_cap_on_long_shifts(self):
        # the capped grid would need ~254k points here but stopped at 8192
        rng = np.random.default_rng(3)
        spectrum = np.concatenate(([0.0, 0.01], rng.uniform(1.0, 100.0, 14)))
        dec = eigh(SymmetricOperator(np.diag(spectrum), kind=RAW_D))
        f = random_vector(rng, dec.dim)
        m, s = 2, 1000.0
        assert 8 * m * s * dec.lambda_max / (2 * math.pi) > 8192
        new = modulus(dec, f, s, m)
        assert new >= modulus_dense_scan(dec, f, s, m) * (1.0 - REL)

    def test_scan_limit_raises(self, cycle16_dec, rng):
        f = random_vector(rng, 16)
        s = MAX_SCAN_ENTRIES * 2 * math.pi / (8 * cycle16_dec.lambda_max)
        with pytest.raises(InvalidParamsError, match="MAX_SCAN_ENTRIES"):
            modulus(cycle16_dec, f, s, 1)

    def test_seminorm_scan_limit_raises(self, monkeypatch):
        # a seminorm row scans until tau^-beta 2^r ||g|| reaches its best value: past 32,704
        # points at beta = 0.02 here, so a limit of 2^12 entries (819 points at N = 5) raises
        dec, f, alpha = _dec("diag:0.001,0.01,0.5,3,10"), np.ones(5), 0.02
        expected = besov_seminorm_sup(dec, f, alpha, 0, 1)
        monkeypatch.setattr(smoothness, "MAX_SCAN_ENTRIES", 1 << 12)
        assert besov_seminorm_sup(dec, f, 0.5, 0, 1) > 0.0  # stops in its first 64 points
        with pytest.raises(InvalidParamsError, match="MAX_SCAN_ENTRIES"):
            besov_seminorm_sup(dec, f, alpha, 0, 1)
        monkeypatch.undo()
        assert besov_seminorm_sup(dec, f, alpha, 0, 1) == expected

    @pytest.mark.parametrize("s", [-1.0, math.nan, math.inf])
    def test_rejects_bad_shift(self, diag_dec, rng, s):
        with pytest.raises(InvalidParamsError):
            modulus(diag_dec, random_vector(rng, 3), s, 2)


class TestDistancesAgainstProjector:
    def test_every_step_node(self, case):
        dec, f = case
        nodes = _step_nodes(dec)
        expected = np.array([distance_by_projector(dec, f, w) for w in nodes])
        scale = 1.0 + np.linalg.norm(f)
        _, c, e = fc = _coefficients(dec, f)
        for got in (_distances(dec, fc, nodes), _tails(dec, _measure(dec, c), nodes) * 2.0 ** e):
            assert np.max(np.abs(got - expected)) <= REL * scale

    def test_nodes_are_zero_and_distinct_eigenvalues(self):
        np.testing.assert_array_equal(_step_nodes(_dec("diag:0,1,1,3")), [0.0, 1.0, 3.0])
        np.testing.assert_array_equal(_step_nodes(_dec("diag:2,2")), [0.0, 2.0])


@pytest.mark.parametrize("text", ["cycle:16", "path:12", "complete:6", "diag:0,0.5,1,2,3.5,7"])
def test_tails_match_the_element_loop(text, rng):
    # the tails off the measure against the per-element np.linalg.norm loop, at every step node
    # and band edge (complete:6 has one eigenspace of multiplicity 5), with rows at 2^+-1000, the
    # zero row, one whose upper half is 1e-9 of its lower half (its tails there would be lost in
    # total - prefix) and one where it is 2^-600: in the identity basis of the diagonal its tails
    # there would lose their squares to underflow, and hypot forms none
    dec = _dec(text, RAW_D if text.startswith("diag") else RAW_L)
    f, upper = random_vector(rng, dec.dim), np.arange(dec.dim) >= dec.dim // 2
    vectors = np.array([f, 2.0 ** 1000 * f, 2.0 ** -1000 * f, np.zeros(dec.dim),
                        np.where(upper, 1e-9 * f, f), np.where(upper, 2.0 ** -600 * f, f)])
    omegas = np.concatenate((_step_nodes(dec), _band_edges(dec, 2.0), _band_edges(dec, 1.5)))
    got = spectral_tail(dec, vectors[:, None], omegas)
    np.testing.assert_allclose(got, tails_by_element(dec, _coefficients(dec, vectors[:, None]),
                                                     omegas), rtol=4 * np.finfo(float).eps, atol=0.0)
    if text.startswith("diag"):
        retaken = got[5, (omegas >= dec.eigenvalues[dec.dim // 2 - 1]) & (omegas < dec.lambda_max)]
        assert retaken.size and np.all((retaken > 0.0) & (retaken < 2.0 ** -590))


def _r_side(dec, measure, e):
    """The tails at every step node, the moduli at ``S_SCALED / lambda_max``, the seminorm and
    ``K(t)`` of each row of ``measure`` (of ``f 2^-e``), each at the scale of ``f``."""
    (nodes, norms), s_values = measure, np.array(S_SCALED) / measure[0][-1]
    k_vals, d = _k_functional_values(measure, e, np.logspace(-4.0, 2.0, 7), 1, "seminorm")
    tails = _tails(dec, (nodes, norms[:, None]), _step_nodes(dec))
    return {"tails": _unscaled(tails, e[:, None]), "K": _unscaled(k_vals, d[:, None]),
            **{f"moduli {m}": _moduli(measure, e, s_values, m) for m in (1, 2)},
            "seminorm": _seminorm_sup(measure, e, 1.5, 1, 2)}


def test_closed_form_measure_matches_the_decomposition(rng):
    # cycle:64 pooled by the DFT, with no basis: the R side fed from it reads what it reads fed
    # from _measure of the coefficients in the real Fourier basis (the Jacobi basis carries the
    # solver's 1e-12 tolerance into the eigenspace norms)
    dec = cycle_decomposition(64)
    v, c, e = _coefficients(dec, np.array([random_vector(rng, 64) for _ in range(4)]))
    exact, ours = _r_side(dec, cycle_measure(64, v), e), _r_side(dec, _measure(dec, c), e)
    for name, value in ours.items():
        np.testing.assert_allclose(exact[name], value, rtol=1e-13, atol=0.0, err_msg=name)


def test_a_circle_measure_needs_no_basis():
    # the circle's eigenvalues 0, 1, 2, ... with norms (1 + k)^-1.5 on 10^4 nodes, whose basis
    # would hold 10^8 entries: K(t) and the moduli take under a second each
    k = np.arange(10_000, dtype=np.float64)
    measure, e = (k, ((1.0 + k) ** -1.5)[None]), np.zeros(1, int)
    for call in (lambda: _k_functional_values(measure, e, np.logspace(-6.0, 2.0, 9), 1, "graph"),
                 lambda: _moduli(measure, e, np.array(S_SCALED) / k[-1], 2)):
        start = time.perf_counter()
        assert np.all(np.isfinite(call()[0]))
        assert time.perf_counter() - start < 1.0
