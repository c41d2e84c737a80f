import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bandapprox import RAW_D, SymmetricOperator, approx_operators, eigh, operators, smoothness
from bandapprox.harness import OperatorSpec, build_operator


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def diag_dec():
    """D = diag(1, 2, 3), given directly."""
    return eigh(SymmetricOperator(np.diag([1.0, 2.0, 3.0]), kind=RAW_D))


@pytest.fixture
def cycle16_dec():
    return eigh(build_operator(OperatorSpec(builtin="cycle", size=16)))


@pytest.fixture
def random_dec():
    op = build_operator(OperatorSpec(builtin="random_psd", size=12, seed=99))
    return eigh(op)


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _count_calls(monkeypatch, original) -> list:
    """A list that grows by one on every call of ``original``.

    Every module-level binding of the function across ``bandapprox.*`` is
    wrapped, the ``from .module import`` copies included, so calls from
    any layer count.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "bandapprox" or name.startswith("bandapprox.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.fixture
def transforms(monkeypatch):
    """The ``spectral_transform`` calls, counted as in ``_count_calls``."""
    return _count_calls(monkeypatch, operators.spectral_transform)


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
