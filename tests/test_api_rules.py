"""Two rules of the public API: the block shape rule and integer difference orders.

A vector argument ``f`` may be a block of shape ``(..., N)``; the numeric
parameters of the call broadcast against ``f.shape[:-1]`` as NumPy
broadcasts, and the result takes the broadcast shape.  A 1-D ``f`` with
scalar parameters returns a float or a report of floats, as before.  A
ragged block is a typed error, not NumPy's bare ValueError.  The
m-th difference is defined for integer m only, so every entry point that
takes a difference order rejects any other with a typed error.
"""

import math

import numpy as np
import pytest

from bandapprox import (
    BandApproxError,
    BesovParams,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParamsError,
    KernelOrderMismatchError,
    RieszConfig,
    apply_multiplier,
    bandwidth,
    bernstein_check,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    build_kernel,
    difference,
    eigh,
    equivalence_report,
    inverse_transform,
    jackson_check,
    jackson_constant,
    lemma1_check,
    lemma2_check,
    modulus,
    modulus_inequality_checks,
    operator_power,
    pw_project,
    q_apply,
    q_symbol,
    riesz_apply,
    schrodinger_group,
    shift_coefficients,
    spectral_tail,
    spectral_transform,
)
from bandapprox.harness import build_operator, parse_operator_arg
from conftest import random_vector

KERNEL = build_kernel(8, 2)

#: (name, call on (dec, f, omega)) for every public function the shape rule covers; each
#: call's parameter broadcasts against the rows of ``f``
BLOCK_CALLS = {
    "spectral_transform": lambda dec, f, w: spectral_transform(dec, f),
    "inverse_transform": lambda dec, f, w: inverse_transform(dec, f),
    "apply_multiplier": lambda dec, f, w: apply_multiplier(
        dec, lambda lam: np.cos(np.multiply.outer(w, lam)), f),
    "pw_project": lambda dec, f, w: pw_project(dec, f, w),
    "schrodinger_group": lambda dec, f, w: schrodinger_group(dec, w + 0.5j, f),
    "best_approx": lambda dec, f, w: best_approx(dec, f, w),
    "spectral_tail": lambda dec, f, w: spectral_tail(dec, f, w),
    "bernstein_check": lambda dec, f, w: bernstein_check(
        dec, pw_project(dec, f, 1.0), w + 1.0, (0.5, 2.0)).max_ratio,
    "modulus_inequality_checks": lambda dec, f, w: modulus_inequality_checks(
        dec, f, w, 2.0, 2, 1).ratio_scale,
    "jackson_check": lambda dec, f, w: jackson_check(dec, f, w + 0.1, 2, 1, KERNEL).ratio_q,
    "lemma1_check": lambda dec, f, w: lemma1_check(dec, f, 1.5, 1, 2).ratio,
    "lemma2_check": lambda dec, f, w: lemma2_check(dec, f, 1.5, 1, 2).ratio,
    "equivalence_report": lambda dec, f, w: equivalence_report(dec, f, w + 0.5, 2.0).ratios,
}

#: calls that take ``f`` as a block but no parameter to broadcast against it
NO_PARAMETER = ("spectral_transform", "inverse_transform", "lemma1_check", "lemma2_check")


@pytest.mark.parametrize("name", sorted(BLOCK_CALLS))
def test_shapes_that_do_not_broadcast_raise_dimension_mismatch(cycle16_dec, rng, name):
    block = np.array([random_vector(rng, 16) for _ in range(3)])
    with pytest.raises(DimensionMismatchError):
        BLOCK_CALLS[name](cycle16_dec, block[:, :5] if name in NO_PARAMETER else block,
                          np.array([0.6, 1.2]))


@pytest.mark.parametrize("name", sorted(set(BLOCK_CALLS) - {"equivalence_report"}))
def test_an_empty_block_gives_an_empty_result(cycle16_dec, name):
    out = BLOCK_CALLS[name](cycle16_dec, np.zeros((0, 16)), 0.9)
    assert isinstance(out, np.ndarray) and out.shape[0] == 0


@pytest.mark.parametrize("vectors", [[], np.zeros((0, 16))], ids=["list", "block"])
def test_an_empty_corpus_is_still_rejected(cycle16_dec, vectors):
    with pytest.raises(InvalidParamsError):
        equivalence_report(cycle16_dec, vectors, 0.8, 2.0)


@pytest.mark.parametrize("name", sorted(set(BLOCK_CALLS) - set(NO_PARAMETER)))
def test_rows_against_a_parameter_axis_give_a_grid(cycle16_dec, rng, name):
    # f of shape (M, 1, N) against omega of shape (W,): one result per vector and omega
    block = np.array([random_vector(rng, 16) for _ in range(3)])
    omegas = np.array([0.6, 1.2, 1.9, 0.3])
    grid = BLOCK_CALLS[name](cycle16_dec, block[:, None], omegas)
    assert grid.shape[:2] == (3, 4)
    for i, f in enumerate(block):
        for j, omega in enumerate(omegas):
            np.testing.assert_array_equal(grid[i, j], BLOCK_CALLS[name](cycle16_dec, f, omega))


def test_one_vector_keeps_its_return_types(cycle16_dec, rng):
    f = random_vector(rng, 16)
    g = pw_project(cycle16_dec, f, 1.0)
    assert type(best_approx(cycle16_dec, f, 0.9)) is float
    assert type(spectral_tail(cycle16_dec, f, 0.9)) is float
    assert type(besov_norm(cycle16_dec, f, BesovParams(alpha=0.8, q=2.0))) is float
    rep = bernstein_check(cycle16_dec, g, 1.0, (0.5, 2.0))
    assert (type(rep.omega), type(rep.max_ratio), rep.ratios.shape) == (float, float, (2,))
    rep = modulus_inequality_checks(cycle16_dec, f, 0.7, 2.0, 2, 1)
    assert {type(x) for x in vars(rep).values()} == {float}
    rep = jackson_check(cycle16_dec, f, 1.2, 2, 1, KERNEL)
    assert {type(x) for x in vars(rep).values()} == {float}
    for check in (lemma1_check, lemma2_check):
        assert {type(x) for x in vars(check(cycle16_dec, f, 1.5, 1, 2)).values()} == {float}
    rep = equivalence_report(cycle16_dec, f, 0.8, 2.0)
    assert (type(rep.ratio_lo), type(rep.ratio_hi), rep.ratios.shape) == (float, float, (1,))
    # a list of vectors is a corpus, as before
    rep = equivalence_report(cycle16_dec, [f, 2 * f], 0.8, 2.0)
    assert (type(rep.ratio_lo), rep.ratios.shape) == (float, (2,))


#: functions built on ``apply_multiplier``, each called on (dec, f)
MULTIPLIERS = {
    "riesz_apply": lambda dec, f: riesz_apply(dec, f, RieszConfig(omega=1.5)),
    "q_apply": lambda dec, f: q_apply(dec, f, 1.5, 2, KERNEL),
    "difference": lambda dec, f: difference(dec, f, 0.7, 2),
    "operator_power": lambda dec, f: operator_power(dec, 1.5, f),
}


@pytest.mark.parametrize("name", sorted(MULTIPLIERS))
def test_multiplier_blocks_equal_their_row_calls(cycle16_dec, random_dec, rng, name):
    for dec in (cycle16_dec, random_dec):
        f = random_vector(rng, dec.dim)
        block = np.array([f, 1e150 * f, 1e-150 * f, np.zeros(dec.dim), random_vector(rng, dec.dim)])
        out = MULTIPLIERS[name](dec, block)
        assert out.shape == block.shape
        for row, vector in zip(out, block):
            np.testing.assert_array_equal(row, MULTIPLIERS[name](dec, vector))


#: every entry point of a difference order, called with the order ``m`` on (dec, f)
ORDER_CALLS = {
    "build_kernel": (KernelOrderMismatchError, lambda dec, f, m: build_kernel(6, m)),
    "shift_coefficients": (KernelOrderMismatchError, lambda dec, f, m: shift_coefficients(m)),
    "q_symbol": (KernelOrderMismatchError,
                 lambda dec, f, m: q_symbol(KERNEL, 1.0, m, dec.eigenvalues)),
    "q_apply": (KernelOrderMismatchError, lambda dec, f, m: q_apply(dec, f, 1.0, m, KERNEL)),
    "jackson_constant": (IndexOutOfRangeError, lambda dec, f, m: jackson_constant(KERNEL, m, 0)),
    "jackson_check": (IndexOutOfRangeError,
                      lambda dec, f, m: jackson_check(dec, f, 1.0, m, 0, KERNEL)),
    "besov_seminorm_sup": (InvalidParamsError,
                           lambda dec, f, m: besov_seminorm_sup(dec, f, 1.2, 0, m)),
    "lemma1_check": (InvalidParamsError, lambda dec, f, m: lemma1_check(dec, f, 1.2, 0, m)),
    "lemma2_check": (InvalidParamsError, lambda dec, f, m: lemma2_check(dec, f, 1.2, 0, m)),
    "modulus_inequality_checks": (InvalidParamsError, lambda dec, f, m: modulus_inequality_checks(
        dec, f, 0.7, 2.0, m, 0)),
    "difference": (InvalidParamsError, lambda dec, f, m: difference(dec, f, 0.7, m)),
    "modulus": (InvalidParamsError, lambda dec, f, m: modulus(dec, f, 0.7, m)),
    "BesovParams": (InvalidParamsError,
                    lambda dec, f, m: BesovParams(alpha=0.8, q=math.inf, r=m, flavor="modulus")),
}


@pytest.mark.parametrize("m", [1.5, 2.0])
@pytest.mark.parametrize("name", sorted(ORDER_CALLS))
def test_difference_orders_must_be_integers(name, m):
    # cycle:8 and f = default_rng(0).standard_normal(8), where calls like these once ran or
    # died with a bare TypeError
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    f = np.random.default_rng(0).standard_normal(8)
    error, call = ORDER_CALLS[name]
    assert issubclass(error, BandApproxError)
    with pytest.raises(error):
        call(dec, f, m)


#: inputs that died with NumPy's bare ValueError (cycle:8): a ragged block, and an array
#: for a parameter that took scalars.  Each (call on (dec, f, p), error) raises ``error``, or
#: (error None) broadcasts ``p`` against the rows of ``f`` as ``schrodinger_group`` does ``z``
INPUT_FAULTS = {
    "best_approx ragged block": (lambda dec, f, p: best_approx(dec, [f, f[:5]], p),
                                 DimensionMismatchError),
    "bandwidth ragged block": (lambda dec, f, p: bandwidth(dec, [f, f[:5]], probe_omega=p),
                               DimensionMismatchError),
    "operator_power s": (lambda dec, f, p: operator_power(dec, p, f), None),
    "operator_power negative s": (lambda dec, f, p: operator_power(dec, p - 1.0, f),
                                  InvalidParamsError),
    "q_apply omega": (lambda dec, f, p: q_apply(dec, f, p, 2, KERNEL), None),
    "q_symbol omega": (lambda dec, f, p: q_symbol(KERNEL, p, 2, dec.eigenvalues), None),
    "q_symbol omega quadrature": (
        lambda dec, f, p: q_symbol(KERNEL, p, 2, dec.eigenvalues, method="quadrature"), None),
}


@pytest.mark.parametrize("name", sorted(INPUT_FAULTS))
def test_ragged_blocks_and_array_parameters(name):
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    f = np.random.default_rng(0).standard_normal(8)
    call, error = INPUT_FAULTS[name]
    axis = np.array([0.5, 1.0, 2.0])
    if error is not None:
        with pytest.raises(error):
            call(dec, f, axis)
        return
    out = call(dec, f, axis)
    assert out.shape == (3, 8)
    for row, p in zip(out, axis.tolist()):
        if name.endswith("quadrature"):  # its panels follow the largest |xi| of the call
            np.testing.assert_allclose(row, call(dec, f, p), rtol=0.0, atol=1e-13)
        else:
            np.testing.assert_array_equal(row, call(dec, f, p))
