"""Extreme scales of ``f``: distances, l^q sums and norms taken at a power-of-two scale.

At ``1e160`` the square of an entry of ``f`` overflows and at ``1e-160``
and ``1e-300`` it underflows.  Every value of every call of the registry
(``public_calls.CALLS``) is still homogeneous in ``f`` of its degree, to 1e-12
(bit for bit under ``2^j``: ``test_properties.py``).  A band or
step weight past the largest double (``alpha = 600``) adds nothing against
a zero term and raises ``NonFiniteError`` against a nonzero one; a band edge past it
is ``inf``, which keeps the whole spectrum.  A result
taken at a power-of-two scale that passes the largest double once its ``2^e``
is back raises ``NonFiniteError`` too, with no ``RuntimeWarning``, while
values near the bottom of the double range keep their bits.  A tail whose squares
underflow is taken at its own scale, and a power that every value needs past the
largest double raises ``NonFiniteError`` naming it.
"""

import math
from operator import attrgetter

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    BesovParams,
    NonFiniteError,
    RieszConfig,
    SpectralDecomposition,
    band_decompose,
    bandwidth,
    bernstein_check,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    build_kernel,
    eigh,
    equivalence_report,
    frame_norm,
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
    spectral_tail,
    SymmetricOperator,
    sup_scaled_best_approx,
    synthesis_check,
)
from bandapprox.cli import main
from bandapprox.harness import build_operator, parse_operator_arg, save_vector
from bandapprox.paley_wiener import _step_nodes
from conftest import random_vector
from oracles import dense_union_check, operator_power
from public_calls import CALLS, check_homogeneous

SCALES = (1e150, 1e-150, 1e160, 1e-160, 1e-300)
#: the decimal scales of the homogeneity checks of every registry call
DECIMAL_SCALES = (1e100, 1e-100) + SCALES
TOL = 1e-12


def _off(scaled, base, scale=1.0) -> float:
    """Largest relative deviation of ``scaled`` from ``scale * base``, elementwise."""
    scaled, base = np.atleast_1d(scaled), np.atleast_1d(base) * scale
    return float(np.max(np.abs(scaled / base - 1.0)))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("flavor", ["integral_E", "discrete_E", "integral_R", "discrete_R"])
def test_besov_flavors_one_homogeneous(cycle16_dec, rng, scale, q, flavor):
    f = random_vector(rng, 16)
    params = BesovParams(alpha=0.8, q=q, flavor=flavor)
    assert _off(besov_norm(cycle16_dec, scale * f, params),
                besov_norm(cycle16_dec, f, params), scale) <= TOL


@pytest.mark.parametrize("scale", DECIMAL_SCALES)
def test_values_one_homogeneous(cycle16_dec, rng, scale):
    # scales that are no power of two, so f is rounded: to TOL, not bit for bit
    f = random_vector(rng, 16)
    for name in CALLS:
        check_homogeneous(name, cycle16_dec, f, scale, 1)
    frame = [frame_norm(band_decompose(cycle16_dec, g), 0.7, 1.5) for g in (scale * f, f)]
    assert _off(frame[0], frame[1], scale) <= TOL


@pytest.mark.parametrize("scale", DECIMAL_SCALES)
def test_ratios_scale_invariant(cycle16_dec, rng, scale):
    f = random_vector(rng, 16)
    for name in CALLS:
        check_homogeneous(name, cycle16_dec, f, scale, 0)


def test_bernstein_ratio_beyond_the_largest_double():
    # ||D^7 f|| of 1e303 f is near 7^7 1e303; the ratio is taken at the scale of f, where
    # it was the quotient of two unscaled norms and raised a bare OverflowError
    dec = eigh(SymmetricOperator(np.diag([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), kind=RAW_D))
    f = pw_project(dec, np.ones(6), 7.0)
    base = bernstein_check(dec, f, 7.0, (0.5, 7.0)).ratios
    assert _off(bernstein_check(dec, 1e303 * f, 7.0, (0.5, 7.0)).ratios, base) <= TOL
    # ||f|| itself passes the largest double, where the unscaled quotient raised NonFiniteError;
    # the alternating vector spans lambda = 2 of cycle:8, so every ratio at omega = 2 is 1
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    ratios = bernstein_check(dec, 1e308 * np.array([1.0, -1.0] * 4), 2.0, (0.0, 0.5, 7.0)).ratios
    assert _off(ratios, np.ones(3)) <= TOL


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_bandwidth_at_the_ends_of_the_double_range(cycle16_dec, rng, scale):
    # ||D^40 f|| passes 1e308 at 1e300; its log-sum-exp stays finite either way
    f = random_vector(rng, 16)
    rep, base = bandwidth(cycle16_dec, scale * f), bandwidth(cycle16_dec, f)
    ks = np.arange(1, 41)
    assert _off(rep.k_sequence, base.k_sequence * np.exp(math.log(scale) / ks)) <= TOL
    assert _off(rep.sup_ratio, base.sup_ratio, scale) <= TOL
    assert rep.omega_f == base.omega_f


def test_sup_ratio_kept_apart_from_its_power_of_two(cycle16_dec, rng):
    # at probe 1e-8 omega_f the ratio of f passes the largest double and that of 2^-400 f does
    # not; at the row's scale it is 2^d times a number below 2 until 2^(d + e) is back
    f = random_vector(rng, 16)
    probe = 1e-8 * bandwidth(cycle16_dec, f).omega_f
    with pytest.raises(NonFiniteError):
        bandwidth(cycle16_dec, f, probe_omega=probe)
    ratios = [bandwidth(cycle16_dec, 2.0 ** j * f, probe_omega=probe).sup_ratio
              for j in (-400, -600)]
    assert 1e100 < ratios[0] < np.inf and ratios[1] == 2.0 ** -200 * ratios[0]


def test_norm_beyond_largest_double_is_a_typed_error(tmp_path, capsys):
    # ||f|| = sqrt(8) 1e308 is no double: NonFiniteError, not a bare OverflowError
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    f = np.full(8, 1e308)
    params = BesovParams(alpha=0.8, q=2.0, flavor="discrete_E")
    for call in (lambda: besov_norm(dec, f, params),
                 lambda: k_besov_norm(dec, f, params),
                 lambda: equivalence_report(dec, [f], 0.8, 2.0)):
        with pytest.raises(NonFiniteError):
            call()
    path = tmp_path / "f.csv"
    save_vector(str(path), f)
    assert main(["besov", "--op", "cycle:8", "--vector", str(path), "--alpha", "0.8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_multipliers_at_the_largest_scale():
    # the constant vector spans the kernel of cycle:8; its unscaled transform
    # overflowed to inf+nanj and every multiplier returned NaN.  Its projection is that of
    # f 2^-1023 with the 2^1023 back, bit for bit (the error at scale 1 is bounded below)
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    f = np.full(8, 1e308)
    np.testing.assert_array_equal(pw_project(dec, f, 1.0),
                                  np.ldexp(pw_project(dec, np.ldexp(f, -1023), 1.0).real, 1023))
    for out in (riesz_apply(dec, f, RieszConfig(omega=1.0)),
                q_apply(dec, f, 1.0, 2, build_kernel(6, 2)),
                operator_power(dec, 1, f)):
        assert np.all(np.isfinite(out))
    # the alternating vector has lambda = lambda_max = 2: D^2 of it is 4e308 [1, -1, ...]
    with pytest.raises(NonFiniteError):
        operator_power(dec, 2, 1e308 * np.array([1.0, -1.0] * 4))


def test_projection_error_is_held_by_the_orthogonality_of_the_basis():
    # the constant vector of cycle:8 at scale 1 keeps its kernel eigenspace: P u - u is the
    # rounding of the basis, held to half its largest deviation from orthonormality (1e-15 on
    # the Jacobi basis, whose ||V^T V - I||_max is 2.0e-15: P u - u is 1.0e-15 there)
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    u, basis = np.ldexp(np.full(8, 1e308), -1023), dec.eigenvectors
    bound = 0.5 * np.max(np.abs(basis.T @ basis - np.eye(8)))
    assert np.max(np.abs(pw_project(dec, u, 1.0) - u)) / u[0] <= bound <= 1e-15


@pytest.mark.parametrize("omega, s", [(1e300, 2.0), (1e200, 7.0)])
def test_bernstein_bound_beyond_the_largest_double_gives_ratio_zero(omega, s):
    # omega^s was a float power, which raised a bare OverflowError
    dec = eigh(SymmetricOperator(np.diag([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), kind=RAW_D))
    rep = bernstein_check(dec, np.ones(6), omega, [s])
    assert rep.ratios.tolist() == [0.0] and rep.max_ratio == 0.0


ALPHA = 600.0

#: (name, call on (dec, f), value at f = e_1) of each function whose band or step weights
#: a^{k alpha}, s^alpha pass the largest double at alpha = 600 on diag(0, 0.5, 1, 2, 3.5, 7)
WEIGHT_CALLS = [
    *[(f"besov_norm {flavor} q={q}",
       lambda dec, f, p=BesovParams(alpha=ALPHA, q=q, flavor=flavor): besov_norm(dec, f, p), 1.0)
      for flavor in ("integral_E", "integral_R", "discrete_E", "discrete_R")
      for q in (2.0, math.inf)],
    ("sup_scaled_best_approx", lambda dec, f: sup_scaled_best_approx(dec, f, ALPHA), 2.0 ** -600),
    ("lemma1_check lhs", lambda dec, f: lemma1_check(dec, f, ALPHA, 599, 2).lhs, 2.0 ** -600),
    ("frame_norm", lambda dec, f: frame_norm(band_decompose(dec, f), ALPHA, 2.0), 1.0),
    ("equivalence_report", lambda dec, f: equivalence_report(dec, f, ALPHA, 2.0).ratios.tolist(),
     [2.0]),
    ("synthesis_check", lambda dec, f: attrgetter("lhs", "rhs")(
        synthesis_check(dec, band_decompose(dec, f).bands, ALPHA)), (0.0, 1.0)),
]


@pytest.mark.parametrize("name, call, expected", WEIGHT_CALLS, ids=[c[0] for c in WEIGHT_CALLS])
def test_weights_beyond_the_largest_double(name, call, expected):
    # a zero term adds zero against an infinite weight (it was 0 * inf = NaN, or the float
    # power raised a bare OverflowError); a nonzero one is a typed error, as _norm raises
    dec = eigh(SymmetricOperator(np.diag([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), kind=RAW_D))
    assert call(dec, dec.eigenvectors[:, 1]) == expected
    with pytest.raises(NonFiniteError):
        call(dec, np.ones(6))


def test_a_base_whose_square_passes_the_largest_double():
    # on diag(0, 1, 1e305) at a = 1e300 the edges are 1, 1e300 and a^2 = inf, the first that keeps
    # the spectrum; band_count's float power a^2 raised a bare OverflowError in both calls
    dec = eigh(SymmetricOperator(np.diag([0.0, 1.0, 1e305]), kind=RAW_D))
    f = np.ones(3)
    split = band_decompose(dec, f, 1e300)
    np.testing.assert_array_equal(split.band_edges, [1.0, 1e300, math.inf])
    np.testing.assert_allclose(split.band_norms(), [math.sqrt(2.0), 0.0, 1.0], rtol=1e-15)
    # ||f|| + (E(f, 1)^2 + (a^alpha E(f, a))^2)^(1/2) = sqrt(3) + (1 + 1e300)^(1/2) = 1e150
    for flavor in ("discrete_E", "discrete_R"):
        params = BesovParams(alpha=0.5, q=2.0, a=1e300, flavor=flavor)
        assert besov_norm(dec, f, params) == pytest.approx(1e150, rel=1e-15)


#: calls whose result, taken at a power-of-two scale, passes the largest double once its
#: ``2^e`` is back, or is formed past it from values that came back finite, on cycle:8 at
#: ``g = 1e308 (1, -1, ...)`` (the Besov norms at ``g / 3``, the Jackson chain at ``g / 8``,
#: lemma 2 at ``g / 20 + 5e307``, whose right side read inf and its ratio 0);
#: they returned inf with or without a RuntimeWarning, or raised a bare OverflowError;
#: ``oracles.dense_union_check``, one ``spectral_tail`` call at every step node, returned 2.0
PAST_THE_DOUBLES = {
    "best_approx": lambda dec, g: best_approx(dec, g, 0.0),
    "spectral_tail": lambda dec, g: spectral_tail(dec, g, 0.0),
    "modulus": lambda dec, g: modulus(dec, g, 1.0, 2),
    "besov_seminorm_sup": lambda dec, g: besov_seminorm_sup(dec, g, 1.5, 0, 2),
    "k_functional": lambda dec, g: k_functional(dec, g, 1e3, 1),
    "dense_union_check": lambda dec, g: dense_union_check(dec, g, 1.0),
    "k_besov_norm": lambda dec, g: k_besov_norm(dec, g / 3, BesovParams(alpha=0.5, q=2.0)),
    "besov_norm k_functional": lambda dec, g: besov_norm(
        dec, g / 3, BesovParams(alpha=0.5, q=2.0, flavor="k_functional")),
    # ||f|| + seminorm, both finite
    "besov_norm modulus": lambda dec, g: besov_norm(
        dec, g / 3, BesovParams(alpha=0.5, q=math.inf, flavor="modulus")),
    # const * moduli / omega^k
    "jackson_check": lambda dec, g: jackson_check(dec, g / 8, 1.0, 2, 0, build_kernel(6, 2)),
    # ||D^k f||^(1/k) and the sup ratio, from their logarithms
    "bandwidth": lambda dec, g: bandwidth(dec, g),
    # ||f|| + sup_s s^alpha E(f, s), both finite
    "lemma2_check": lambda dec, g: lemma2_check(dec, g / 20 + 5e307, 1.5, 1, 2),
}


@pytest.mark.parametrize("name", sorted(PAST_THE_DOUBLES))
def test_results_past_the_largest_double_raise(name):
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    g = 1e308 * np.array([1.0, -1.0] * 4)
    with pytest.raises(NonFiniteError):
        PAST_THE_DOUBLES[name](dec, g)


#: values near the bottom of the double range, kept bit for bit by the scale each R-side helper
#: takes on the eigenspace norms it squares (``operators._scaled`` of the ``_measure``, which
#: forms no square): (call on the raw_D diag(0, 0.5, 1, 2, 3.5, 7)
#: decomposition at ``scale``, value); f = ones(6), except for the K-functional of
#: ``u_0 + 1e-250 u_5``.  Without that rescale the K value and the Jackson bound read 0.  The
#: seminorm and the modulus ratio are their values at scale 1 (44.01510843453259 * 1e-300 to
#: rounding, and 0.3279262877402335), which the dilation law gives; the shift scan's Newton
#: step underflowed here and read 0.3286796695357632.  The Jackson bound carries the exact
#: constant ``jackson_C[m=2,k=1,n=6]``; the quadrature's, 1.7e-13 high, read 636.6360546097943.
RANGE_GUARDS = {
    "besov_seminorm_sup": (1e-200, lambda dec, f: besov_seminorm_sup(dec, f, 1.5, 1, 2),
                           4.401510843453258e-299),
    "modulus_inequality_checks": (
        1e-200, lambda dec, f: modulus_inequality_checks(dec, f, 1e200, 2.0, 2, 1).ratio_power,
        0.3279262877402335),
    "jackson_check": (1e-200, lambda dec, f: jackson_check(
        dec, f, 3e-200, 2, 1, build_kernel(6, 2)).bound, 636.6360546096878),
    "k_functional": (1.0, lambda dec, f: k_functional(
        dec, dec.eigenvectors[:, 0] + 1e-250 * dec.eigenvectors[:, 5], 1e-3, 1),
        7.000000000000002e-253),
}


@pytest.mark.parametrize("name", sorted(RANGE_GUARDS))
def test_values_near_the_bottom_of_the_double_range(name):
    scale, call, expected = RANGE_GUARDS[name]
    dec = eigh(SymmetricOperator(scale * np.diag([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), kind=RAW_D))
    assert call(dec, np.ones(6)) == expected


def _diag6():
    """raw_D diag(0, 0.5, 1, 2, 3.5, 7): e_1 and e_5 are the eigenvectors of 0.5 and 7."""
    return eigh(SymmetricOperator(np.diag([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), kind=RAW_D))


def test_tails_whose_squares_underflow():
    # the mass 1e-250 above omega = 4 was squared at the scale of f and read 0, so the first
    # step node with a tail <= 1e-300 was 0.5; each tail is now at its own scale, at every node
    dec = _diag6()
    f = dec.eigenvectors[:, 1] + 1e-250 * dec.eigenvectors[:, 5]
    for distance in (best_approx, spectral_tail):
        assert abs(distance(dec, f, 4.0) / 1e-250 - 1.0) <= TOL
    tails = spectral_tail(dec, f, _step_nodes(dec))  # 0, 0.5, 1, 2, 3.5, 7
    assert tails[0] == 1.0 and tails[-1] == 0.0
    np.testing.assert_allclose(tails[1:-1], 1e-250, rtol=TOL, atol=0.0)
    assert dense_union_check(dec, f, 1e-300) == 7.0


@pytest.mark.parametrize("flavor", ["integral_E", "integral_R"])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_integral_weight_past_the_largest_double_against_an_underflowed_power(flavor, q):
    # E(f, s) = 1e-250 on [3.5, 7), where the weight 7^(alpha q) - 3.5^(alpha q) passes the
    # largest double; at q = 2 the power (1e-250 2^-1)^2 underflowed to 0 at the scale of the
    # row, the weight zeroed it, and the norm read 1.0 (about 3.6e255 is true)
    dec = _diag6()
    f = dec.eigenvectors[:, 1] + 1e-250 * dec.eigenvectors[:, 5]
    with pytest.raises(NonFiniteError, match=r"s\^\(alpha q\)"):
        besov_norm(dec, f, BesovParams(alpha=ALPHA, q=q, flavor=flavor))


@pytest.mark.parametrize("flavor", ["integral_E", "integral_R"])
def test_integral_terms_far_below_the_largest(flavor):
    # E(f, s) is 1 on [0, 0.5) and 1e-33 on [0.5, 2): scaled by its largest distance, the row's
    # power (1e-33)^10 underflowed, and the norm read 1.0 (both flavors).  The terms
    # ((s_{i+1}^(alpha q) - s_i^(alpha q)) / (alpha q))^(1/q) E_i are reduced at the scale of the
    # largest term; the true value is 1.00253629368603295... (mpmath, 50 digits)
    dec = eigh(SymmetricOperator(np.diag([0.0, 0.5, 1.0, 2.0]), kind=RAW_D))
    f = dec.eigenvectors[:, 1] + 1e-33 * dec.eigenvectors[:, 3]
    value = besov_norm(dec, f, BesovParams(alpha=102.0, q=10.0, flavor=flavor))
    assert abs(value / 1.0025362936860330 - 1.0) <= TOL


def test_bernstein_ratio_at_powers_past_the_largest_double():
    # lambda^{2s} passed the largest double from s = 183 on and raised NonFiniteError; the
    # Bernstein norm weighs (lambda/omega)^s <= 1, and 1 on the eigenvector of omega
    dec = _diag6()
    rep = bernstein_check(dec, dec.eigenvectors[:, 5], 7.0, (183, 400))
    assert rep.ratios.tolist() == [1.0, 1.0] and rep.max_ratio == 1.0


#: weights past the largest double at f = e_1 of diag(0, 0.5, 1, 2, 3.5, 7), each of which
#: raised a bare error (in the comment); (call, the power its NonFiniteError names)
POWERS_PAST_THE_DOUBLES = {
    # ValueError (math domain error): log(1e-12 / lambda_max^{2r}) with lambda_max^{2r} = inf
    "besov_norm k_functional r=183": (lambda dec, f: besov_norm(dec, f, BesovParams(
        alpha=182.5, q=2.0, r=183, flavor="k_functional")), r"7\.0\^366"),
    # OverflowError: the float power lambda_max^r of the t-grid (gone with the grid: now the
    # path's lambda_max^2r)
    "besov_norm k_functional r=400": (lambda dec, f: besov_norm(dec, f, BesovParams(
        alpha=399.5, q=2.0, r=400, flavor="k_functional")), r"7\.0\^800"),
    # IndexError: s^(n - alpha) = inf against a difference norm 0 made the scan bound NaN; now
    # the weight tau^-600 at the first point of the scan
    "besov_seminorm_sup": (lambda dec, f: besov_seminorm_sup(dec, f, 600, 0, 601), r"\^-600"),
    "lemma1_check": (lambda dec, f: lemma1_check(dec, f, 600, 0, 601), r"\^-600"),
    # a RuntimeWarning, then an unnamed NonFiniteError, and a bare IndexError: (2 sin)^1200
    "modulus r=600": (lambda dec, f: modulus(dec, f, 20.0, 600), r"4\^600"),
    "besov_seminorm_sup r=600": (lambda dec, f: besov_seminorm_sup(dec, f, 1.5, 0, 600),
                                 r"4\^600"),
}


@pytest.mark.parametrize("name", sorted(POWERS_PAST_THE_DOUBLES))
def test_powers_past_the_largest_double_are_typed_errors(name):
    dec = _diag6()
    call, power = POWERS_PAST_THE_DOUBLES[name]
    with pytest.raises(NonFiniteError, match=power):
        call(dec, dec.eigenvectors[:, 1])


@pytest.mark.parametrize("r", [1, 8, 64, 134, 182])
def test_k_path_in_log_x(r):
    # e_5 (lambda = 7) at alpha = r - 1/2, q = 2: K(t) = min(t 7^r, 1), so the norm is
    # 1 + 7^(r - 1/2) (r + r/(2r - 1))^(1/2); s w and (1 + s w)^2 overflowed from r = 63 on
    # (RuntimeWarnings, the t-grid's clamp kept the value 1.0) and raised an unnamed
    # NonFiniteError from r = 134
    dec = _diag6()
    params = BesovParams(alpha=r - 0.5, q=2.0, r=r, flavor="k_functional")
    value = besov_norm(dec, dec.eigenvectors[:, 5], params)
    both = besov_norm(dec, dec.eigenvectors[:, 1] + dec.eigenvectors[:, 5], params)
    assert abs(value / (1.0 + 7.0 ** (r - 0.5) * math.sqrt(r + r / (2 * r - 1))) - 1.0) <= TOL
    assert math.isfinite(both) and both >= value * (1.0 - TOL)  # K(f, t) >= K(P f, t)


#: the k_functional flavor of e_1 + c e_5 at alpha = 181.5, r = 182, by (c, q): ||f|| plus the
#: integral of (t^-theta K)^2 dt/t (q = 2) or the sup of t^-theta K (q = inf), taken along the
#: Tikhonov path with 30-digit mpmath (mp.quad on 81 and on 161 breakpoints across the gap,
#: which agree to 18 digits; mp.findroot at the peak)
K_NORMS_IN_THE_GAP = {(1e-100, 2.0): 3.280404023414881627e54,
                      (1e-100, math.inf): 2.4282548374432316027e53,
                      (1e-150, 2.0): 3.28050402341488165e4, (1e-150, math.inf): 2.429254837443231618e3}


@pytest.mark.parametrize("c, q", sorted(K_NORMS_IN_THE_GAP))
def test_k_path_where_its_sums_pass_below_the_normal_range(c, q):
    # in the middle of the gap between 0.5^364 and 7^364, sum |c|^2 x/(1+x)^2 is about
    # 1e-308.5 at c = 1e-100: it emitted "overflow encountered in divide" and raised an unnamed
    # NonFiniteError at q = 2, and returned 2.43e53 with the warning at q = inf (at c = 1e-150,
    # "divide by zero encountered in log"); there the sums are now taken as logs, each at its
    # own scale, and no warning escapes
    dec = _diag6()
    f = dec.eigenvectors[:, 1] + c * dec.eigenvectors[:, 5]
    value = besov_norm(dec, f, BesovParams(alpha=181.5, q=q, r=182, flavor="k_functional"))
    assert abs(value / K_NORMS_IN_THE_GAP[c, q] - 1.0) <= 1e-10


@pytest.mark.parametrize("c", [1.0, 1e-150, 1e-160, 1e-165, 1e-300])
def test_a_difference_never_reads_the_kernel(c):
    # (e^{i tau D} - I)^m vanishes on ker D, so e_0 + c e_5 has the moduli and seminorms of
    # c e_5, bit for bit, and Omega_m(c e_5, 1) = 2^m c (7 tau / 2 = pi at tau = pi / 7); a
    # row was squared at the scale of all its mass, so with the kernel's the square of e_5
    # underflowed: the modulus read 5.6e-6 low at c = 1e-160 and 0.0 at 1e-165, as did the
    # seminorm at 1e-165
    dec = _diag6()
    f, g = dec.eigenvectors[:, 0] + c * dec.eigenvectors[:, 5], c * dec.eigenvectors[:, 5]
    for m in (1, 2, 3):
        assert modulus(dec, f, 1.0, m) == modulus(dec, g, 1.0, m)
        assert modulus(dec, f, 1.0, m) == pytest.approx(2.0 ** m * c, rel=TOL)
    for alpha, n, r in ((0.5, 0, 1), (1.5, 1, 2)):
        assert besov_seminorm_sup(dec, f, alpha, n, r) == besov_seminorm_sup(dec, g, alpha, n, r)


@pytest.mark.parametrize("j", [100, -100])
def test_lemma1_ratio_at_power_of_two_scales(j):
    # both sides of lemma 1 have degree alpha in the scale of D, so the ratio does not move;
    # "vanishing" was decided at ||f|| alone, and L 2^-100 read 0.0 (0.358 at scale 1)
    op = build_operator(parse_operator_arg("cycle:16"))
    dec, scaled = eigh(op), eigh(SymmetricOperator(op.entries * 2.0 ** j, kind=RAW_L))
    f = random_vector(np.random.default_rng(7), 16)
    ratio = lemma1_check(dec, f, 1.5, 1, 2).ratio
    assert ratio > 0.0 and abs(lemma1_check(scaled, f, 1.5, 1, 2).ratio / ratio - 1.0) <= TOL


def test_lemma1_ratio_of_finite_sides_whose_scale_passes_the_largest_double():
    # lhs 4.0e307 and rhs 9.29e307 are finite, but their scale ||f|| lambda_max^alpha is not:
    # decided in unscaled doubles, "both sides vanish" held and the ratio read 0.0
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    f = 1e308 * np.array([1.0, -1.0] * 4) / 20 + 5e307
    rep = lemma1_check(dec, f, 1.5, 1, 2)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    assert rep.ratio == lemma1_check(dec, f * 2.0 ** -100, 1.5, 1, 2).ratio
    assert rep.ratio == pytest.approx(0.4307568591698, rel=1e-12)


@pytest.mark.parametrize("j", [0, 1020, 1021, 1022, 1023])
def test_modulus_ratios_of_one_eigenvalue_up_to_the_largest_double(j):
    # N = 1, f = 2^j (0.64042265 + 0.10490012i) (drawn by the scale property): the growth side
    # (1 + a)^m Omega_m(f, s) passed the largest double, so ratio_scale read 0.0 at 2^1021 and
    # 2^1022, and at 2^1023, where Omega_m(f, a s) does too, the call raised NonFiniteError;
    # every side is now taken at the row's power of two
    dec = SpectralDecomposition(eigenvalues=np.array([1.31022721]), eigenvectors=np.eye(1))
    f = np.array([0.64042265 + 0.10490012j])
    rep, base = (modulus_inequality_checks(d, x, 1.27868255, 2.0, 2, 1) for d, x in (
        (dec, np.ldexp(f.real, j) + 1j * np.ldexp(f.imag, j)), (dec, f)))
    assert vars(rep) == vars(base)
    assert rep.ratio_scale == pytest.approx(0.20121937095400, rel=1e-12)


@pytest.mark.parametrize("j", [200, -200, 600, -600])
def test_dilation_law_at_power_of_two_scales(j):
    # L 2^j has D 2^{j/2} = c D with the same basis, so Omega_m(f, s; c D) = Omega_m(f, c s; D),
    # the seminorm scales by c^alpha and the modulus and Jackson ratios do not move; the shift
    # scan's Newton steps, taken in x = tau lambda_max, are the same at every scale (in units of
    # tau they underflowed, 9.6e-4 off at 2^-600), and Jacobi rotates L 2^j at one scale
    op = build_operator(parse_operator_arg("cycle:16"))
    dec, scaled = eigh(op), eigh(SymmetricOperator(op.entries * 2.0 ** j, kind=RAW_L))
    c, kernel = 2.0 ** (j // 2), build_kernel(6, 2)
    f = random_vector(np.random.default_rng(7), 16)
    pairs = [(modulus(scaled, f, s / c, m), modulus(dec, f, s, m))
             for s in (0.3, 2.0, 9.0) for m in (1, 2, 3)]
    pairs += [(besov_seminorm_sup(scaled, f, alpha, n, r),
               c ** alpha * besov_seminorm_sup(dec, f, alpha, n, r))
              for alpha, n, r in ((1.5, 1, 2), (0.8, 0, 2), (0.5, 0, 1))]
    pairs += [(vars(modulus_inequality_checks(scaled, f, s / c, 2.0, m, k)),
               vars(modulus_inequality_checks(dec, f, s, 2.0, m, k)))
              for s, m, k in ((0.7, 2, 1), (3.0, 3, 0), (1.5, 3, 2))]
    pairs += [(vars(jackson_check(scaled, f, c * omega, 2, k, kernel)),
               vars(jackson_check(dec, f, omega, 2, k, kernel)))
              for omega, k in ((0.5, 0), (1.2, 1))]
    for got, expected in pairs:
        if isinstance(expected, dict):
            got, expected = list(got.values()), list(expected.values())
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
