"""Extreme scales of ``f``: distances, l^q sums and norms taken at a power-of-two scale.

At ``1e160`` the square of an entry of ``f`` overflows and at ``1e-160``
and ``1e-300`` it underflows.  Every value below is still 1-homogeneous in
``f``, and every ratio is independent of its scale, to 1e-12.  A band or
step weight past the largest double (``alpha = 600``) adds nothing against
a zero term and raises ``NonFiniteError`` against a nonzero one.  A result
taken at a power-of-two scale that passes the largest double once its ``2^e``
is back raises ``NonFiniteError`` too, with no ``RuntimeWarning``, while
values near the bottom of the double range keep their bits.
"""

import math
import warnings
from operator import attrgetter

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    BesovParams,
    NonFiniteError,
    RieszConfig,
    band_decompose,
    bandwidth,
    bernstein_check,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    build_kernel,
    dense_union_check,
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
    operator_power,
    pw_project,
    q_apply,
    riesz_apply,
    riesz_identity_check,
    spectral_tail,
    SymmetricOperator,
    sup_scaled_best_approx,
    synthesis_check,
)
from bandapprox.cli import main
from bandapprox.harness import build_operator, parse_operator_arg, save_vector
from conftest import random_vector

SCALES = (1e150, 1e-150, 1e160, 1e-160, 1e-300)
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


@pytest.mark.parametrize("scale", SCALES)
def test_values_one_homogeneous(cycle16_dec, rng, scale):
    dec = cycle16_dec
    f = random_vector(rng, 16)
    for value in (lambda g: best_approx(dec, g, 1.0),
                  lambda g: spectral_tail(dec, g, 1.0),
                  lambda g: sup_scaled_best_approx(dec, g, 0.8),
                  lambda g: bandwidth(dec, g).sup_ratio,
                  lambda g: band_decompose(dec, g).band_norms(),
                  lambda g: frame_norm(band_decompose(dec, g), 0.7, 1.5),
                  lambda g: synthesis_check(dec, band_decompose(dec, g).bands, 0.7).lhs):
        assert _off(value(scale * f), value(f), scale) <= TOL


@pytest.mark.parametrize("scale", SCALES)
def test_ratios_scale_invariant(cycle16_dec, rng, scale):
    dec = cycle16_dec
    f = random_vector(rng, 16)
    g = pw_project(dec, f, 1.5)
    kernel = build_kernel(6, 2)
    for ratio in (lambda h: bernstein_check(dec, h, 1.5, (0.5, 1.0, 2.0)).ratios,
                  lambda h: equivalence_report(dec, [h], 0.7, 2.0).ratios,
                  lambda h: [jackson_check(dec, h, 1.2, 2, 1, kernel).ratio_best,
                             jackson_check(dec, h, 1.2, 2, 1, kernel).ratio_q],
                  lambda h: [lemma1_check(dec, h, 1.5, 1, 2).ratio,
                             lemma2_check(dec, h, 1.5, 1, 2).ratio],
                  lambda h: bandwidth(dec, h).omega_f):
        assert _off(ratio(scale * g), ratio(g)) <= TOL
    # a residual relative to ||f||, near 1e-8 at this truncation: compared absolutely
    residuals = [riesz_identity_check(dec, h, 1.5, power=2).residual for h in (scale * g, g)]
    assert abs(residuals[0] - residuals[1]) <= TOL


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
    # overflowed to inf+nanj and every multiplier returned NaN
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    f = np.full(8, 1e308)
    assert _off(pw_project(dec, f, 1.0), f) <= 1e-15
    for out in (riesz_apply(dec, f, RieszConfig(omega=1.0)),
                q_apply(dec, f, 1.0, 2, build_kernel(6, 2)),
                operator_power(dec, 1, f)):
        assert np.all(np.isfinite(out))
    # the alternating vector has lambda = lambda_max = 2: D^2 of it is 4e308 [1, -1, ...]
    with pytest.raises(NonFiniteError):
        operator_power(dec, 2, 1e308 * np.array([1.0, -1.0] * 4))


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


#: calls whose result, taken at a power-of-two scale, passes the largest double once its
#: ``2^e`` is back, on cycle:8 at ``g = 1e308 (1, -1, ...)`` (the K norms at ``g / 3``); they
#: returned inf with a RuntimeWarning, raised a bare OverflowError, or (dense_union_check)
#: returned 2.0
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
}


@pytest.mark.parametrize("name", sorted(PAST_THE_DOUBLES))
def test_results_past_the_largest_double_raise(name):
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    g = 1e308 * np.array([1.0, -1.0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError):
            PAST_THE_DOUBLES[name](dec, g)


#: values near the bottom of the double range, kept bit for bit by the rescale of each
#: spectral measure (``operators._scaled_mag2``): (call on the raw_D diag(0, 0.5, 1, 2, 3.5, 7)
#: decomposition at ``scale``, value); f = ones(6), except for the K-functional of
#: ``u_0 + 1e-250 u_5``.  Without that rescale the K value and the Jackson bound read 0.
RANGE_GUARDS = {
    "besov_seminorm_sup": (1e-200, lambda dec, f: besov_seminorm_sup(dec, f, 1.5, 1, 2),
                           4.40061197320528e-299),
    "modulus_inequality_checks": (
        1e-200, lambda dec, f: modulus_inequality_checks(dec, f, 1e200, 2.0, 2, 1).ratio_power,
        0.3286796695357632),
    "jackson_check": (1e-200, lambda dec, f: jackson_check(
        dec, f, 3e-200, 2, 1, build_kernel(6, 2)).bound, 636.6360546097943),
    "k_functional": (1.0, lambda dec, f: k_functional(
        dec, dec.eigenvectors[:, 0] + 1e-250 * dec.eigenvectors[:, 5], 1e-3, 1),
        7.000000000000002e-253),
}


@pytest.mark.parametrize("name", sorted(RANGE_GUARDS))
def test_values_near_the_bottom_of_the_double_range(name):
    scale, call, expected = RANGE_GUARDS[name]
    dec = eigh(SymmetricOperator(scale * np.diag([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]), kind=RAW_D))
    assert call(dec, np.ones(6)) == expected
