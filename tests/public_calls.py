"""The one registry of the public calls of a decomposition and a vector.

``CALLS[name]`` holds one entry per public function whose first parameter is the
decomposition, and one per test tool built like them (``TOOLS``, from ``oracles``):

* ``call(dec, f, p)``: the function on ``f`` and one parameter ``p >= 0``, which the entry
  maps into the domain of its argument ``param`` (``None``: the call takes none);
* ``broadcasts``: whether ``p`` may be an axis that broadcasts against the rows of ``f`` (the
  block shape rule of ``operators``), or takes one number;
* ``needs``: the input, made from any rows by :func:`prepare`: any vector, one band-limited
  at ``p`` (``pw_project``), or the band sets of ``band_decompose``;
* ``degree``: the degree in ``f`` of the result, or of each field it names (the others 0):
  1 or 0 where the field is positively homogeneous, ``None`` where it is not.

The API rules read it: the block rule (:func:`check_block`), the scale rule
(``test_properties.py``; :func:`check_homogeneous` at decimal scales) and the typed-error rule
(:func:`check_finite`).
"""

from typing import Callable, NamedTuple

import numpy as np

import bandapprox as ba
from bandapprox import BandApproxError, BesovParams, RieszConfig
from bandapprox.smoothness import BESOV_FLAVORS
from oracles import dense_union_check, operator_power

KERNEL = ba.build_kernel(6, 2)

#: every flavor of ``besov_norm``, each at a q it is defined for
FLAVORS = [(flavor, np.inf if flavor == "modulus" else 2.0) for flavor in BESOV_FLAVORS]


class Call(NamedTuple):
    call: Callable
    param: str | None = None
    broadcasts: bool = False
    needs: str = "vector"
    degree: object = 1

    def degree_of(self, key):
        """The degree in ``f`` of the result field ``key``."""
        return self.degree.get(key, 0) if isinstance(self.degree, dict) else self.degree


def _unit(p):
    """``p / (1 + p)``: a parameter in ``[0, 1)``, for an argument of a bounded range."""
    return p / (1.0 + p)


def _each(call, cases):
    """``call`` on each of ``cases`` (flavors, domain norms), stacked on a last axis."""
    return np.stack([call(x) for x in cases], axis=-1)


CALLS = {
    "spectral_transform": Call(lambda dec, f, p: ba.spectral_transform(dec, f)),
    "inverse_transform": Call(lambda dec, f, p: ba.inverse_transform(dec, f)),
    "apply_multiplier": Call(lambda dec, f, p: ba.apply_multiplier(
        dec, lambda lam: np.cos(np.multiply.outer(p, lam)), f), "w", True),
    "schrodinger_group": Call(lambda dec, f, p: ba.schrodinger_group(dec, p + 0.5j, f), "z", True),
    "difference": Call(lambda dec, f, p: ba.difference(dec, f, p, 2), "tau"),
    "operator_power": Call(lambda dec, f, p: operator_power(dec, p, f), "s", True),
    "pw_project": Call(lambda dec, f, p: ba.pw_project(dec, f, p), "omega", True),
    "best_approx": Call(lambda dec, f, p: ba.best_approx(dec, f, p), "omega", True),
    "spectral_tail": Call(lambda dec, f, p: ba.spectral_tail(dec, f, p), "omega", True),
    "dense_union_check": Call(lambda dec, f, p: dense_union_check(dec, f, 1e-3), degree=None),
    # p = 0: no probe, so each row's ratios are at its own omega_f
    "bandwidth": Call(lambda dec, f, p: ba.bandwidth(dec, f, 12, p or None), "probe_omega",
                      degree={"sup_ratio": 1, "k_sequence": None, "final_gap": None}),
    "bernstein_check": Call(lambda dec, f, p: ba.bernstein_check(dec, f, p, (0.5, 2.0)), "omega",
                            True, "bandlimited", 0),
    "riesz_identity_check": Call(lambda dec, f, p: ba.riesz_identity_check(dec, f, p, 1, 100),
                                 "omega", True, "bandlimited", 0),
    "riesz_apply": Call(lambda dec, f, p: ba.riesz_apply(dec, f, RieszConfig(p + 0.1, 100)),
                        "omega", True),
    "q_apply": Call(lambda dec, f, p: ba.q_apply(dec, f, p + 0.1, 2, KERNEL), "omega", True),
    "jackson_check": Call(lambda dec, f, p: ba.jackson_check(dec, f, p + 0.1, 2, 1, KERNEL),
                          "omega", True, degree=dict.fromkeys(("best", "q_error", "bound",
                                                               "link_gap"), 1)),
    "modulus": Call(lambda dec, f, p: ba.modulus(dec, f, p, 2), "s"),
    "modulus_inequality_checks": Call(lambda dec, f, p: ba.modulus_inequality_checks(
        dec, f, p, 2.0, 2, 1), "s", True, degree=0),
    "besov_seminorm_sup": Call(lambda dec, f, p: ba.besov_seminorm_sup(
        dec, f, 1.5 + _unit(p), 1, 2), "alpha"),
    "lemma1_check": Call(lambda dec, f, p: ba.lemma1_check(dec, f, 1.5 + _unit(p), 1, 2), "alpha",
                         degree={"lhs": 1, "rhs": 1}),
    "lemma2_check": Call(lambda dec, f, p: ba.lemma2_check(dec, f, 1.5 + _unit(p), 1, 2), "alpha",
                         degree={"lhs": 1, "rhs": 1}),
    "sup_scaled_best_approx": Call(lambda dec, f, p: ba.sup_scaled_best_approx(
        dec, f, 0.5 + _unit(p)), "alpha"),
    "k_functional": Call(lambda dec, f, p: _each(lambda norm: ba.k_functional(
        dec, f, p + 0.1, 2, norm), ("seminorm", "graph")), "t"),
    "k_besov_norm": Call(lambda dec, f, p: _each(lambda norm: ba.k_besov_norm(
        dec, f, BesovParams(0.5 + _unit(p), 2.0), norm), ("seminorm", "graph")), "alpha", True),
    "besov_norm": Call(lambda dec, f, p: _each(lambda flavor_q: ba.besov_norm(dec, f, BesovParams(
        0.5 + _unit(p), flavor_q[1], flavor=flavor_q[0])), FLAVORS), "alpha", True),
    "band_decompose": Call(lambda dec, f, p: ba.band_decompose(dec, f), degree={"bands": 1}),
    "synthesis_check": Call(lambda dec, f, p: ba.synthesis_check(dec, f, 0.5 + _unit(p)), "alpha",
                            needs="bands", degree={"lhs": 1, "rhs": 1, "sup_band": 1}),
    # the rows of f are one corpus, not a block
    "equivalence_report": Call(lambda dec, f, p: ba.equivalence_report(
        dec, f, 0.5 + _unit(p), 2.0), "alpha", True, degree=0),
}

#: the entries that take a block of rows ``(..., N)`` (``equivalence_report`` takes a corpus)
BLOCK_NAMES = sorted(set(CALLS) - {"equivalence_report"})

#: the entries whose ``p`` broadcasts against the rows
AXIS_NAMES = sorted(name for name in CALLS if CALLS[name].broadcasts)

#: the test tools among the entries
TOOLS = {"operator_power", "dense_union_check"}


def prepare(name, dec, f, p):
    """The input of entry ``name`` made from rows ``f`` (and ``p``, which broadcasts against
    them where the entry's does): ``f`` itself, its projection onto PW_p, or its band sets."""
    needs = CALLS[name].needs
    if needs == "bandlimited":
        return ba.pw_project(dec, f, p)
    return np.asarray(ba.band_decompose(dec, f).bands) if needs == "bands" else f


def fields(result) -> dict:
    """The fields of a result by name: a report's, or ``{"": result}`` for an array or float."""
    return dict(vars(result)) if hasattr(result, "__dict__") else {"": result}


def outcome(call, dec, f, p):
    """The fields of ``call`` on ``f`` and ``p``, or the type of the ``BandApproxError`` raised."""
    try:
        return fields(call(dec, f, p))
    except BandApproxError as err:
        return type(err)


def check_finite(name, dec, f, p):
    """The typed-error rule on entry ``name``: on the rows ``f`` (prepared here) and ``p``, it
    returns finite numbers in every float or complex field, or raises a ``BandApproxError``."""
    values = outcome(CALLS[name].call, dec, prepare(name, dec, f, p), p)
    assert isinstance(values, type) or all(np.asarray(x).dtype.kind not in "fc" or np.all(
        np.isfinite(x)) for x in values.values()), values


def check_block(name, dec, f, p, call=None):
    """The block rule on entry ``name`` (or on ``call``, one of its function's calls): on the
    prepared block ``f`` and ``p`` (one number, or an axis that broadcasts against the rows of
    ``f``), each element of every field has the bits of the call on its row and parameter
    alone.  A block with a refused element raises the error of one of those calls, and its rows
    without one keep the rule as a block."""
    call = call or CALLS[name].call
    rows = np.shape(f)[:np.ndim(f) - (2 if CALLS[name].needs == "bands" else 1)]
    lead = np.broadcast_shapes(rows, np.shape(p))
    inputs, axis = np.broadcast_to(f, lead + np.shape(f)[len(rows):]), np.broadcast_to(p, lead)
    ones = {i: outcome(call, dec, inputs[i], axis[i][()]) for i in np.ndindex(lead)}
    block = outcome(call, dec, f, p)
    if isinstance(block, type):
        assert block in ones.values(), (block, [x for x in ones.values() if isinstance(x, type)])
        kept = [k for k in range(lead[0] if lead else 0)
                if not any(isinstance(one, type) for i, one in ones.items() if i[0] == k)]
        if kept and len(kept) < lead[0]:
            check_block(name, dec, inputs[kept], axis[kept] if np.ndim(p) else p, call)
        return
    for i, one in ones.items():
        assert not isinstance(one, type), (i, one)
        for key, value in one.items():
            got = np.broadcast_to(np.asarray(block[key]), lead + np.shape(value))[i]
            assert got.tobytes() == np.asarray(value).tobytes(), (i, key, got, value)


def check_homogeneous(name, dec, f, scale, degree, call=None, tol=1e-12):
    """Every field of degree ``degree`` of entry ``name`` (or ``call``) on ``scale f`` is
    ``scale^degree`` times that on ``f`` to ``tol``, and at degree 0, a ratio or a relative
    residual near rounding, to ``tol`` absolutely."""
    if not isinstance(CALLS[name].degree, dict) and CALLS[name].degree != degree:
        return  # no field of that degree
    call, g = call or CALLS[name].call, prepare(name, dec, f, 0.9)
    base, scaled = (fields(call(dec, x, 0.9)) for x in (g, scale * g))
    for key, value in base.items():
        if CALLS[name].degree_of(key) == degree:
            np.testing.assert_allclose(scaled[key], np.multiply(value, scale ** degree), rtol=tol,
                                       atol=tol * (degree == 0), err_msg=f"{name} {key}")
