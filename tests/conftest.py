import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bandapprox import RAW_D, SymmetricOperator, approx_operators, eigh, operators, smoothness
from bandapprox.harness import OperatorSpec, build_operator


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def diag_dec():
    """D = diag(1, 2, 3), given directly."""
    return eigh(SymmetricOperator(np.diag([1.0, 2.0, 3.0]), kind=RAW_D))


@pytest.fixture(scope="session")  # a decomposition is read-only, so tests may share one
def cycle16_dec():
    return eigh(build_operator(OperatorSpec(builtin="cycle", size=16)))


@pytest.fixture(scope="session")
def random_dec():
    op = build_operator(OperatorSpec(builtin="random_psd", size=12, seed=99))
    return eigh(op)


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _count_calls(monkeypatch, original, note=lambda *args, **kwargs: None) -> list:
    """A list that grows by ``note(*args, **kwargs)`` on every call of ``original``.

    Every module-level binding of the function across ``bandapprox.*`` is
    wrapped, the ``from .module import`` copies included, so calls from
    any layer count.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(note(*args, **kwargs))
        return original(*args, **kwargs)

    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "bandapprox" or name.startswith("bandapprox.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.fixture
def transforms(monkeypatch):
    """The coefficient transforms (``operators._coefficients``, which ``spectral_transform``
    calls too), counted as in ``_count_calls``."""
    return _count_calls(monkeypatch, operators._coefficients)


@pytest.fixture
def syntheses(monkeypatch):
    """The ``operators._synthesize`` calls (every ``phi(D) f``), counted as in ``_count_calls``."""
    return _count_calls(monkeypatch, operators._synthesize)


@pytest.fixture
def q_symbols(monkeypatch):
    """The ``q_symbol`` calls, counted as in ``_count_calls``."""
    return _count_calls(monkeypatch, approx_operators.q_symbol)


@pytest.fixture
def k_functionals(monkeypatch):
    """The ``smoothness._k_path`` calls (Tikhonov paths), counted as in ``_count_calls``."""
    return _count_calls(monkeypatch, smoothness._k_path)


@pytest.fixture
def scans(monkeypatch):
    """The ``smoothness._running_modulus`` calls (shift scans), counted as in ``_count_calls``."""
    return _count_calls(monkeypatch, smoothness._running_modulus)


@pytest.fixture
def scan_work(monkeypatch):
    """The work of the shift scans and the K path, counted as in ``_count_calls``: ``newton``
    holds the size of each start array passed to ``smoothness._clipped_newton``, ``objective``
    the size of each array its objective is evaluated at, ``norms`` one entry per
    ``smoothness._difference_norms`` call."""
    objective, newton = [], smoothness._clipped_newton

    def evaluated(fn, x, *args):
        return newton(lambda t: objective.append(np.size(t)) or fn(t), x, *args)

    monkeypatch.setattr(smoothness, "_clipped_newton", evaluated)
    return SimpleNamespace(
        newton=_count_calls(monkeypatch, evaluated, lambda fn, x, *_: np.size(x)),
        objective=objective, norms=_count_calls(monkeypatch, smoothness._difference_norms))
