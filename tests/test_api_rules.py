"""Two rules of the public API: the block shape rule and integer difference orders.

A vector argument ``f`` may be a block of shape ``(..., N)``; the numeric
parameters of the call broadcast against ``f.shape[:-1]`` as NumPy
broadcasts, and the result takes the broadcast shape.  A 1-D ``f`` with
scalar parameters returns a float or a report of floats, as before.  A
ragged block is a typed error, not NumPy's bare ValueError.  The block rules
run over the registry of public calls (``public_calls.CALLS``).  The
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
    InvalidBaseError,
    InvalidParamsError,
    KernelOrderMismatchError,
    RieszConfig,
    band_decompose,
    bandwidth,
    bernstein_check,
    besov_seminorm_sup,
    best_approx,
    build_kernel,
    difference,
    eigh,
    equivalence_report,
    frame_norm,
    jackson_check,
    jackson_constant,
    k_functional,
    lemma1_check,
    lemma2_check,
    modulus,
    modulus_inequality_checks,
    pw_project,
    q_apply,
    q_symbol,
    riesz_apply,
    riesz_identity_check,
    schrodinger_group,
    spectral_tail,
    sup_scaled_best_approx,
    synthesis_check,
)
from bandapprox.harness import build_operator, parse_operator_arg
from conftest import random_vector
from oracles import operator_power, q_symbol_by_quadrature
from public_calls import AXIS_NAMES, BLOCK_NAMES, CALLS, check_block, fields, prepare

KERNEL = build_kernel(8, 2)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_shapes_that_do_not_broadcast_raise_dimension_mismatch(cycle16_dec, rng, name):
    # 3 rows against an axis of 2 where the parameter broadcasts, else rows of length 5
    f = prepare(name, cycle16_dec, np.array([random_vector(rng, 16) for _ in range(3)]), 1.2)
    p = np.array([0.6, 1.2]) if CALLS[name].broadcasts else 0.6
    with pytest.raises(DimensionMismatchError):
        CALLS[name].call(cycle16_dec, f if CALLS[name].broadcasts else f[..., :5], p)


@pytest.mark.parametrize("name", BLOCK_NAMES)
def test_an_empty_block_gives_an_empty_result(cycle16_dec, name):
    f = prepare(name, cycle16_dec, np.zeros((0, 16)), 0.9)
    values = fields(CALLS[name].call(cycle16_dec, f, 0.9))
    assert any(isinstance(x, np.ndarray) and x.shape[:1] == (0,) for x in values.values())


@pytest.mark.parametrize("vectors", [[], np.zeros((0, 16))], ids=["list", "block"])
def test_an_empty_corpus_is_still_rejected(cycle16_dec, vectors):
    with pytest.raises(InvalidParamsError, match="at least one vector"):
        equivalence_report(cycle16_dec, vectors, 0.8, 2.0)


def test_an_empty_parameter_axis_is_named(cycle16_dec, rng):
    # a vector was given, so the refusal names the empty axis of (alpha, q), not the corpus
    for alpha, q in (([], 2.0), (0.8, []), ([], [])):
        with pytest.raises(InvalidParamsError, match=r"empty axis of \(alpha, q\)"):
            equivalence_report(cycle16_dec, random_vector(rng, 16), alpha, q)


@pytest.mark.parametrize("name", AXIS_NAMES)
def test_rows_against_a_parameter_axis_give_a_grid(cycle16_dec, rng, name):
    # f of shape (M, 1, N) against omega of shape (W,): one result per vector and omega
    block = np.array([random_vector(rng, 16) for _ in range(3)])
    omegas = np.array([0.6, 1.2, 1.9, 0.3])
    if name in BLOCK_NAMES:
        check_block(name, cycle16_dec, prepare(name, cycle16_dec, block[:, None], omegas), omegas)
        return
    call = CALLS[name].call  # a corpus, whose ratios are the grid
    grid = call(cycle16_dec, block[:, None], omegas).ratios
    assert grid.tolist() == [[call(cycle16_dec, f, p).ratios[0] for p in omegas] for f in block]


def test_one_vector_keeps_its_return_types(cycle16_dec, rng):
    # one vector and one number per parameter: every field a Python float (or int), not a
    # NumPy scalar, or an array of the call's own axes
    f = random_vector(rng, 16)
    for name, entry in CALLS.items():
        for key, value in fields(entry.call(cycle16_dec, prepare(name, cycle16_dec, f, 0.9),
                                            0.9)).items():
            assert np.ndim(value) or type(value) in (float, int), (name, key, type(value))
    rep = bernstein_check(cycle16_dec, pw_project(cycle16_dec, f, 1.0), 1.0, (0.5, 2.0))
    assert rep.ratios.shape == (2,)
    assert bandwidth(cycle16_dec, f).k_sequence.shape == (40,)
    assert equivalence_report(cycle16_dec, f, 0.8, 2.0).ratios.shape == (1,)
    # a list of vectors is a corpus, as before
    rep = equivalence_report(cycle16_dec, [f, 2 * f], 0.8, 2.0)
    assert (type(rep.ratio_lo), rep.ratios.shape) == (float, (2,))


#: every entry point of a difference order, called with the order ``m`` on (dec, f)
ORDER_CALLS = {
    "build_kernel": (KernelOrderMismatchError, lambda dec, f, m: build_kernel(6, m)),
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
#: for a parameter that took scalars; and the ``omega`` of ``riesz_identity_check``, which
#: took one number (an array raised InvalidConfigError).  Each (call on (dec, f, p), error)
#: raises ``error``, or (error None) broadcasts ``p`` against the rows of ``f`` as
#: ``schrodinger_group`` does ``z``
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
        lambda dec, f, p: q_symbol_by_quadrature(KERNEL, p, 2, dec.eigenvalues), None),
    "RieszConfig omega": (lambda dec, f, p: riesz_apply(dec, f, RieszConfig(omega=p)), None),
    "riesz_identity_check omega": (lambda dec, f, p: riesz_identity_check(
        dec, pw_project(dec, f, 2.0), p + 2.0).residual, None),
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
    assert out.shape == (3,) + np.shape(call(dec, f, 1.0))
    for row, p in zip(out, axis.tolist()):
        if name.endswith("quadrature"):  # its panels follow the largest |xi| of the call
            np.testing.assert_allclose(row, call(dec, f, p), rtol=0.0, atol=1e-13)
        else:
            np.testing.assert_array_equal(row, call(dec, f, p))


#: parameters that take one number, each given an array on (dec, f, p) with
#: p = (0.5, 1.0), shifted where the parameter needs more; (call, typed error).  Each died
#: with a bare ValueError or TypeError on cycle:8, or (difference at N = 2) broadcast p
#: against the spectrum
SCALAR_ONLY = {
    "modulus s": (lambda dec, f, p: modulus(dec, f, p, 2), InvalidParamsError),
    "k_functional t": (lambda dec, f, p: k_functional(dec, f, p, 1), InvalidParamsError),
    "difference tau": (lambda dec, f, p: difference(dec, f, p, 2), InvalidParamsError),
    "besov_seminorm_sup alpha": (lambda dec, f, p: besov_seminorm_sup(dec, f, p, 0, 2),
                                 InvalidParamsError),
    "sup_scaled_best_approx alpha": (lambda dec, f, p: sup_scaled_best_approx(dec, f, p),
                                     InvalidParamsError),
    "frame_norm alpha": (lambda dec, f, p: frame_norm(band_decompose(dec, f), p, 2.0),
                         InvalidParamsError),
    "synthesis_check alpha": (lambda dec, f, p: synthesis_check(
        dec, band_decompose(dec, f).bands, p), InvalidParamsError),
    "lemma1_check alpha": (lambda dec, f, p: lemma1_check(dec, f, p + 1.0, 1, 2),
                           InvalidParamsError),
    "lemma2_check alpha": (lambda dec, f, p: lemma2_check(dec, f, p + 1.0, 1, 2),
                           InvalidParamsError),
    "bandwidth probe_omega": (lambda dec, f, p: bandwidth(dec, f, probe_omega=p),
                              InvalidParamsError),
    "band_decompose a": (lambda dec, f, p: band_decompose(dec, f, p + 1.5), InvalidBaseError),
    "equivalence_report a": (lambda dec, f, p: equivalence_report(dec, f, 0.8, 2.0, p + 1.5),
                             InvalidBaseError),
}


@pytest.mark.parametrize("name", sorted(SCALAR_ONLY))
def test_scalar_parameters_reject_arrays_with_a_typed_error(name):
    # RieszConfig and riesz_identity_check take an axis of omega (see INPUT_FAULTS)
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    f = np.random.default_rng(0).standard_normal(8)
    call, error = SCALAR_ONLY[name]
    with pytest.raises(error, match=name.split()[-1]):
        call(dec, f, np.array([0.5, 1.0]))


#: every parameter axis, called with a ragged list ``p`` on (dec, f, p); each died with
#: NumPy's bare ValueError (inhomogeneous shape) on cycle:8
RAGGED_AXES = {
    "best_approx omega": lambda dec, f, p: best_approx(dec, f, p),
    "spectral_tail omega": lambda dec, f, p: spectral_tail(dec, f, p),
    "pw_project omega": lambda dec, f, p: pw_project(dec, f, p),
    "bernstein_check omega": lambda dec, f, p: bernstein_check(dec, f, p, (1.0,)),
    "q_apply omega": lambda dec, f, p: q_apply(dec, f, p, 2, KERNEL),
    "q_symbol omega": lambda dec, f, p: q_symbol(KERNEL, p, 2, dec.eigenvalues),
    "jackson_check omega": lambda dec, f, p: jackson_check(dec, f, p, 2, 0, KERNEL),
    "operator_power s": lambda dec, f, p: operator_power(dec, p, f),
    "schrodinger_group z": lambda dec, f, p: schrodinger_group(dec, p, f),
    "modulus_inequality_checks s": lambda dec, f, p: modulus_inequality_checks(
        dec, f, p, 2.0, 2, 1),
    "equivalence_report q": lambda dec, f, p: equivalence_report(dec, f, 0.8, p),
    "BesovParams alpha": lambda dec, f, p: BesovParams(alpha=p, q=2.0),
    "RieszConfig omega": lambda dec, f, p: RieszConfig(omega=p),
}


@pytest.mark.parametrize("name", sorted(RAGGED_AXES))
def test_ragged_parameter_lists_raise_dimension_mismatch(name):
    dec = eigh(build_operator(parse_operator_arg("cycle:8")))
    f = np.random.default_rng(0).standard_normal(8)
    with pytest.raises(DimensionMismatchError, match="one shape"):
        RAGGED_AXES[name](dec, f, [0.5, [1.0, 2.0]])
