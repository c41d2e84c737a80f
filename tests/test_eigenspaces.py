"""One notion of an eigenspace: ``eigh`` gives each group one value, and no scalar sees the basis.

``PW_omega`` is defined by the spectral projector of ``D``, so an eigenspace is all in or
all out of every cut.  ``eigh`` joins eigenvalues within ``eps_group = GROUP_TOL_FACTOR
lambda_max`` of their predecessor into one group and gives the group one value, its first
entry plus the mean offset from it (0 for the group of a kernel mode); ``groups`` are the
runs of equal values.  Three laws follow, each tested here:

* closed-form spectra: each group of cycle:N, path:N and complete:N holds one exact value,
  within 1e-14 lambda_max of the closed form, with the closed-form multiplicity;
* dilation: ``2^j A`` has the same groups and values ``2^j`` (raw_D) or ``2^{j/2}`` (raw_L)
  times the unscaled ones, exactly, as Jacobi rotates ``A 2^j`` at one scale and
  ``eps_group`` is relative to ``lambda_max``;
* rotation: any orthonormal basis of each eigenspace gives the same spectral projectors,
  so every public scalar of ``f`` is the same, to rounding, when the eigenvectors are
  rotated inside each group, also at ``omega`` and band edges equal to group values, where a
  cut inside an eigenspace would depend on the basis (0.13 ||f|| for ``best_approx`` on
  cycle:16 when the two copies of a pair were rounded apart).
"""

import math

import numpy as np
import pytest

from bandapprox import (
    RAW_D,
    RAW_L,
    BesovParams,
    SpectralDecomposition,
    SymmetricOperator,
    band_decompose,
    bandwidth,
    bernstein_check,
    besov_norm,
    besov_seminorm_sup,
    best_approx,
    build_kernel,
    eigh,
    equivalence_report,
    jackson_check,
    k_functional,
    lemma1_check,
    lemma2_check,
    modulus,
    pw_project,
    spectral_tail,
    synthesis_check,
)
from bandapprox.harness import build_operator, parse_operator_arg
from bandapprox.operators import GROUP_TOL_FACTOR
from bandapprox.smoothness import BESOV_FLAVORS
from conftest import random_vector


def _closed_form(family: str, n: int) -> np.ndarray:
    """The eigenvalues of D = L^{1/2} of the graph Laplacian, ascending."""
    k = np.arange(n)
    if family == "cycle":  # 2 - 2 cos(2 pi k / N) = 4 sin^2(pi k / N)
        values = 2.0 * np.abs(np.sin(np.pi * k / n))
    elif family == "path":  # 2 - 2 cos(pi k / N)
        values = 2.0 * np.sin(np.pi * k / (2 * n))
    else:  # complete: N I - J has 0 once and N, N - 1 times
        values = np.where(k == 0, 0.0, math.sqrt(n))
    return np.sort(values)


@pytest.mark.parametrize("family, n", [("cycle", 5), ("cycle", 16), ("cycle", 64), ("path", 9),
                                       ("path", 33), ("complete", 6), ("complete", 12)])
def test_closed_form_spectra_and_multiplicities(family, n):
    dec = eigh(build_operator(parse_operator_arg(f"{family}:{n}")))
    closed = _closed_form(family, n)
    # the closed-form multiplicities: cycle values 2|sin(pi k / N)| come in pairs k, N - k
    _, sizes = np.unique(np.round(closed, 12), return_counts=True)
    assert [len(group) for group in dec.groups] == sizes.tolist()
    for group in dec.groups:
        values = dec.eigenvalues[list(group)]
        assert np.all(values == values[0]), group  # one exact value per eigenspace
    assert np.max(np.abs(dec.eigenvalues - closed)) <= 1e-14 * dec.lambda_max
    assert abs(dec.eps_group / (GROUP_TOL_FACTOR * dec.lambda_max) - 1.0) <= 1e-14


@pytest.mark.parametrize("j", [100, -100, 600, -600])
def test_groups_follow_a_dilation(j):
    # diag(0, 0.5, 1, 1, 2) 2^-100 had one group, and 2^100 four, when eps_group was
    # GROUP_TOL_FACTOR max(1, lambda_max)
    diag = np.diag([0.0, 0.5, 1.0, 1.0, 2.0])
    cycle = build_operator(parse_operator_arg("cycle:16")).entries
    for matrix, kind, factor in ((diag, RAW_D, 2.0 ** j), (cycle, RAW_L, 2.0 ** (j // 2))):
        dec = eigh(SymmetricOperator(matrix, kind=kind))
        scaled = eigh(SymmetricOperator(matrix * 2.0 ** j, kind=kind))
        assert scaled.groups == dec.groups
        np.testing.assert_array_equal(scaled.eigenvalues, factor * dec.eigenvalues)
        assert scaled.eps_group == factor * dec.eps_group
    assert len(eigh(SymmetricOperator(diag * 2.0 ** j, kind=RAW_D)).groups) == 4


def test_the_kernel_group_keeps_zero():
    # 5e-10 passes the PSD clamp (1e-10) but lies within eps_group = 1e-9 of the kernel mode;
    # the group's mean, 2.5e-10, made PW_0 empty (best_approx(e_0, 0) read 1.0) and K of a
    # kernel vector 2.5e-10
    dec = eigh(SymmetricOperator(np.diag([0.0, 5e-10, 1.0]), kind=RAW_D))
    assert dec.eigenvalues.tolist() == [0.0, 0.0, 1.0] and dec.groups == ((0, 1), (2,))
    f = np.array([1.0, 0.0, 0.0])
    assert best_approx(dec, f, 0.0) == 0.0 and k_functional(dec, f, 1.0, 1) == 0.0


def test_a_decomposition_derives_its_groups():
    # the constructor takes no partition, so none can contradict the eigenvalues
    dec = SpectralDecomposition(eigenvalues=[0.0, 1.0, 1.0, 2.0], eigenvectors=np.eye(4))
    assert dec.groups == ((0,), (1, 2), (3,))
    assert eigh(SymmetricOperator(np.zeros((0, 0)), kind=RAW_D)).groups == ()
    with pytest.raises(TypeError):
        SpectralDecomposition(eigenvalues=[0.0, 1.0], eigenvectors=np.eye(2), groups=((0, 1),))


def _rotated(dec: SpectralDecomposition, rng) -> SpectralDecomposition:
    """``dec`` with its eigenvectors rotated by a random orthogonal block inside each group."""
    basis = dec.eigenvectors.copy()
    for group in map(list, dec.groups):
        rotation, _ = np.linalg.qr(rng.standard_normal((len(group), len(group))))
        basis[:, group] = basis[:, group] @ rotation
    return SpectralDecomposition(eigenvalues=dec.eigenvalues, eigenvectors=basis, kind=dec.kind,
                                 eps_group=dec.eps_group)


KERNEL = build_kernel(6, 2)


def _scalars(dec, f, nodes, bases, inputs) -> dict:
    """Every public scalar of ``f`` on ``dec``, at the group values ``nodes`` and the ``bases``:
    name -> (values, True for a distance, compared times ||f||).  ``inputs`` holds what the
    checks take besides ``f`` (projections and bands), made once with the original basis."""
    positive = nodes[nodes > 0.0]
    out = {
        "best_approx": (best_approx(dec, f, nodes), True),
        "spectral_tail": (spectral_tail(dec, f, nodes), True),
        "pw_project norm": (np.linalg.norm(pw_project(dec, f, nodes), axis=-1), True),
        "bernstein_check": (bernstein_check(dec, inputs["projected"], positive,
                                            (0.5, 1.0, 7.0)).ratios, False),
        "bandwidth": (bandwidth(dec, np.vstack((f, inputs["projected"]))).omega_f, False),
        "modulus": ([modulus(dec, f, s, m) for s in (0.3, 1.0, 4.0) for m in (1, 2)], False),
        "k_functional": ([k_functional(dec, f, t, r, norm) for t in (0.05, 1.0, 20.0)
                          for r in (1, 2) for norm in ("seminorm", "graph")], False),
        "besov_seminorm_sup": ([besov_seminorm_sup(dec, f, alpha, n, r)
                                for alpha, n, r in ((1.5, 1, 2), (0.8, 0, 2))], False),
    }
    for a in bases:
        for flavor in BESOV_FLAVORS:
            alphas, qs = ((0.7, 1.5, 0.9), (math.inf,) * 3) if flavor == "modulus" else (
                (0.7, 1.5, 0.9), (1.0, 2.0, math.inf))
            out[f"besov_norm {flavor} a={a}"] = (besov_norm(dec, f, BesovParams(
                alpha=alphas, q=qs, a=a, flavor=flavor)), False)
        out[f"equivalence_report a={a}"] = (equivalence_report(dec, f, 0.8, 2.0, a).ratios, False)
        rep = synthesis_check(dec, inputs[a], 0.8, a)
        out[f"synthesis_check a={a}"] = ([rep.lhs, rep.rhs], False)
        out[f"band norms a={a}"] = (band_decompose(dec, f, a).band_norms(), True)
    for check in (lemma1_check, lemma2_check):
        rep = check(dec, f, 1.5, 1, 2)
        out[check.__name__] = ([rep.lhs, rep.rhs, rep.ratio], False)
    rep = jackson_check(dec, f, positive, 2, 1, KERNEL)
    out["jackson_check bound"] = (rep.bound, False)
    out["jackson_check distances"] = ([rep.best, rep.q_error, rep.link_gap], True)
    return out


@pytest.mark.parametrize("text, kind", [("cycle:16", RAW_L), ("complete:12", RAW_L),
                                        ("diag:0,0.5,1,1,2", RAW_D)])
def test_scalars_do_not_see_a_rotation_inside_an_eigenspace(text, kind):
    rng = np.random.default_rng(11)
    dec = eigh(build_operator(parse_operator_arg(text, kind=kind)))
    rotated = _rotated(dec, rng)
    f = random_vector(rng, dec.dim)
    norm_f = float(np.linalg.norm(f))
    nodes = dec.eigenvalues[[group[0] for group in dec.groups]]  # cuts at the group values
    # band edges a^1 on group values: the largest, and the smallest above 1
    bases = sorted({float(nodes[-1]), float(nodes[nodes > 1.0][0])})
    inputs = {"projected": pw_project(dec, f, nodes[nodes > 0.0]),
              **{a: band_decompose(dec, f, a).bands for a in bases}}
    want, got = _scalars(dec, f, nodes, bases, inputs), _scalars(rotated, f, nodes, bases, inputs)
    for name, (expected, distance) in want.items():
        expected, value = np.asarray(expected, float), np.asarray(got[name][0], float)
        gap = np.abs(value - expected)
        assert np.all(gap <= 1e-12 * np.maximum(np.abs(expected), norm_f if distance else 0.0)), (
            f"{name}: {expected} -> {value}")
