"""Every public ``(dec, f, ...)`` call of the registry (``public_calls.CALLS``) on the fully
degenerate complete graph and on a disconnected graph: each call returns finite numbers or
raises a typed ``BandApproxError``.

complete:6 has the spectrum {0, sqrt 6} (five copies of sqrt 6); the triangle beside an
edge has a two-dimensional kernel and the eigenvalues sqrt 2 and sqrt 3 (twice).  The same
rule holds on the decompositions Hypothesis draws (``test_properties.py``).
"""

import numpy as np
import pytest

from bandapprox import RAW_L, eigh
from bandapprox.harness import build_operator, load_edge_list, parse_operator_arg
from conftest import random_vector
from public_calls import CALLS, check_finite


@pytest.fixture(scope="module", params=["complete:6", "disconnected"])
def dec(request, tmp_path_factory):
    if request.param == "disconnected":
        path = tmp_path_factory.mktemp("graph") / "graph.txt"
        path.write_text("0 1\n1 2\n2 0\n3 4\n")  # a triangle beside an edge
        return eigh(load_edge_list(str(path), kind=RAW_L))
    return eigh(build_operator(parse_operator_arg(request.param, kind=RAW_L)))


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("zero", [False, True], ids=["f", "zero"])
def test_finite_or_typed_error(dec, rng, name, zero):
    f, p = np.zeros(dec.dim) if zero else random_vector(rng, dec.dim), 0.5 * dec.lambda_max
    check_finite(name, dec, f, p)
