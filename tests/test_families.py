"""Every public ``(dec, f, ...)`` function on the fully degenerate complete graph and on a
disconnected graph: each call returns finite numbers or raises a typed ``BandApproxError``.

complete:6 has the spectrum {0, sqrt 6} (five copies of sqrt 6); the triangle beside an
edge has a two-dimensional kernel and the eigenvalues sqrt 2 and sqrt 3 (twice).
"""

import inspect

import numpy as np
import pytest

import bandapprox as ba
from bandapprox import RAW_L, BandApproxError, BesovParams, RieszConfig, eigh
from bandapprox.harness import build_operator, load_edge_list, parse_operator_arg
from conftest import random_vector
from oracles import dense_union_check, operator_power


def _omega(dec):
    return 0.5 * dec.lambda_max


def _bandlimited(dec, f):
    return ba.pw_project(dec, f, _omega(dec))


#: one call per public function whose first parameter is the decomposition
CALLS = {
    "apply_multiplier": lambda dec, f: ba.apply_multiplier(dec, lambda lam: np.exp(-lam), f),
    "schrodinger_group": lambda dec, f: ba.schrodinger_group(dec, 0.3 + 0.2j, f),
    "spectral_transform": lambda dec, f: ba.spectral_transform(dec, f),
    "inverse_transform": lambda dec, f: ba.inverse_transform(dec, f),
    "bandwidth": lambda dec, f: ba.bandwidth(dec, f),
    "bernstein_check": lambda dec, f: ba.bernstein_check(dec, _bandlimited(dec, f), _omega(dec),
                                                         (0.5, 2.0)),
    "best_approx": lambda dec, f: ba.best_approx(dec, f, _omega(dec)),
    "pw_project": lambda dec, f: ba.pw_project(dec, f, _omega(dec)),
    "spectral_tail": lambda dec, f: ba.spectral_tail(dec, f, _omega(dec)),
    "besov_norm": lambda dec, f: [ba.besov_norm(dec, f, BesovParams(alpha=0.7, q=q, flavor=fl))
                                  for fl in ba.smoothness.BESOV_FLAVORS
                                  for q in (2.0, np.inf) if fl != "modulus" or q == np.inf],
    "besov_seminorm_sup": lambda dec, f: ba.besov_seminorm_sup(dec, f, 1.5, 1, 2),
    "difference": lambda dec, f: ba.difference(dec, f, 0.7, 2),
    "k_besov_norm": lambda dec, f: [ba.k_besov_norm(dec, f, BesovParams(alpha=0.7, q=2.0), dn)
                                    for dn in ("seminorm", "graph")],
    "k_functional": lambda dec, f: [ba.k_functional(dec, f, 0.5, 2, dn)
                                    for dn in ("seminorm", "graph")],
    "lemma1_check": lambda dec, f: ba.lemma1_check(dec, f, 1.5, 1, 2),
    "lemma2_check": lambda dec, f: ba.lemma2_check(dec, f, 1.5, 1, 2),
    "modulus": lambda dec, f: ba.modulus(dec, f, 2.0, 2),
    "modulus_inequality_checks": lambda dec, f: ba.modulus_inequality_checks(dec, f, 1.0, 2.0,
                                                                             3, 1),
    "sup_scaled_best_approx": lambda dec, f: ba.sup_scaled_best_approx(dec, f, 0.7),
    "jackson_check": lambda dec, f: ba.jackson_check(dec, f, _omega(dec), 2, 1,
                                                     ba.build_kernel(6, 2)),
    "q_apply": lambda dec, f: ba.q_apply(dec, f, _omega(dec), 2, ba.build_kernel(6, 2)),
    "riesz_apply": lambda dec, f: ba.riesz_apply(dec, f, RieszConfig(omega=_omega(dec))),
    "riesz_identity_check": lambda dec, f: ba.riesz_identity_check(dec, _bandlimited(dec, f),
                                                                   _omega(dec)),
    "band_decompose": lambda dec, f: ba.band_decompose(dec, f),
    "equivalence_report": lambda dec, f: ba.equivalence_report(dec, [f], 0.7, 2.0),
    "synthesis_check": lambda dec, f: ba.synthesis_check(dec, ba.band_decompose(dec, f).bands,
                                                         0.8),
}


#: the test tools built on them (``tests/oracles.py``), called the same way
TOOL_CALLS = {
    "operator_power": lambda dec, f: operator_power(dec, 1.5, f),
    "dense_union_check": lambda dec, f: dense_union_check(dec, f, 1e-3),
}


def test_every_public_function_of_a_decomposition_is_called():
    public = {name for name, obj in vars(ba).items()
              if inspect.isfunction(obj) and not name.startswith("_")
              and next(iter(inspect.signature(obj).parameters), None) == "dec"}
    assert public == set(CALLS)


def _all_finite(result) -> bool:
    if isinstance(result, (tuple, list)):
        return all(_all_finite(x) for x in result)
    if hasattr(result, "__dict__"):  # a report or decomposition
        return all(_all_finite(x) for x in vars(result).values())
    values = np.asarray(result)
    return values.dtype.kind not in "fc" or bool(np.all(np.isfinite(values)))


@pytest.fixture(params=["complete:6", "disconnected"])
def dec(request, tmp_path):
    if request.param == "disconnected":
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n2 0\n3 4\n")  # a triangle beside an edge
        return eigh(load_edge_list(str(path), kind=RAW_L))
    return eigh(build_operator(parse_operator_arg(request.param, kind=RAW_L)))


@pytest.mark.parametrize("name", sorted(CALLS | TOOL_CALLS))
@pytest.mark.parametrize("zero", [False, True], ids=["f", "zero"])
def test_finite_or_typed_error(dec, rng, name, zero):
    f = np.zeros(dec.dim) if zero else random_vector(rng, dec.dim)
    try:
        result = (CALLS | TOOL_CALLS)[name](dec, f)
    except BandApproxError:
        return
    assert _all_finite(result), result
