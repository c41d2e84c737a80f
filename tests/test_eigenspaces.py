"""One notion of an eigenspace: ``eigh`` gives each group one value, one rule cuts, and no scalar
sees the basis.

``PW_omega`` is defined by the spectral projector of ``D``, so an eigenspace is all in or
all out of every cut.  ``eigh`` joins eigenvalues within ``eps_group = GROUP_TOL_FACTOR
lambda_max`` of their predecessor into one group and gives the group one value, its first
entry plus the mean offset from it (0 for the group of a kernel mode); ``groups`` are the
runs of equal values.  Every cut keeps ``lambda <= omega + eps_group`` (``_pw_prefix``), so a
threshold that equals a group value in exact arithmetic keeps its eigenspace, however the
solver rounded it.  These laws follow, each tested here:

* closed-form spectra: each group of cycle:N, path:N and complete:N holds one exact value,
  within 1e-14 lambda_max of the closed form, with the closed-form multiplicity;
* dilation: ``2^j A`` has the same groups and values ``2^j`` (raw_D) or ``2^{j/2}`` (raw_L)
  times the unscaled ones, exactly, as Jacobi rotates ``A 2^j`` at one scale and
  ``eps_group`` is relative to ``lambda_max``;
* rotation: any orthonormal basis of each eigenspace gives the same spectral projectors,
  so every public scalar of ``f`` is the same, to rounding, when the eigenvectors are
  rotated inside each group, also at ``omega`` and band edges equal to group values, where a
  cut inside an eigenspace would depend on the basis (0.13 ||f|| for ``best_approx`` on
  cycle:16 when the two copies of a pair were rounded apart);
* cuts at exact eigenvalues: E, R and the bands equal their closed forms on cycle:16,
  path:12 and complete:N at thresholds and band edges that are eigenvalues;
* relabelling: the nodes of a graph renumbered give a second solve whose group values differ
  from the first in the last bits, and the cuts do not see it.
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
    sup_scaled_best_approx,
    synthesis_check,
)
from bandapprox.harness import DEFAULT_TOLERANCES, build_operator, parse_operator_arg
from bandapprox.operators import GROUP_TOL_FACTOR
from bandapprox.paley_wiener import _step_nodes
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
    with pytest.raises(TypeError):
        SpectralDecomposition(eigenvalues=[0.0, 1.0], eigenvectors=np.eye(2), groups=((0, 1),))


def _rotated(dec: SpectralDecomposition, rng) -> SpectralDecomposition:
    """``dec`` with its eigenvectors rotated by a random orthogonal block inside each group."""
    basis = dec.eigenvectors.copy()
    for group in map(list, dec.groups):
        rotation, _ = np.linalg.qr(rng.standard_normal((len(group), len(group))))
        basis[:, group] = basis[:, group] @ rotation
    return SpectralDecomposition(eigenvalues=dec.eigenvalues, eigenvectors=basis, kind=dec.kind)


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


def _dft_masses(f: np.ndarray) -> np.ndarray:
    """``|c|^2`` of the real ``f`` on the eigenspaces ``k = 0 .. N/2`` of cycle:N, whose values
    ``2 sin(pi k / N)`` ascend with ``k``: ``|DFT_k f|^2 / N``, with ``k`` and ``N - k`` pooled."""
    n = len(f)
    power = np.abs(np.fft.fft(f)) ** 2 / n
    return np.array([power[k] + (power[n - k] if 0 < k < n - k else 0.0)
                     for k in range(n // 2 + 1)])


def _dct_masses(f: np.ndarray) -> np.ndarray:
    """``|c_k|^2`` of ``f`` on path:N, ``k = 0 .. N-1`` with values ``2 sin(pi k / (2N))``: the
    orthonormal DCT-II basis ``cos(pi k (j + 1/2) / N)``."""
    n = len(f)
    basis = np.cos(np.pi * np.outer(np.arange(n) + 0.5, np.arange(n)) / n)
    basis[:, 0] /= math.sqrt(2.0)
    return (f @ basis) ** 2 * (2.0 / n)


F16 = np.random.default_rng(0).standard_normal(16)
F12 = np.random.default_rng(0).standard_normal(12)

#: (operator, f, omega, closed-form masses, index of the last eigenspace omega keeps): omega
#: equals that eigenspace's value in exact arithmetic, or is the double nearest it (which lies
#: above sqrt(2), so it keeps k = 4 of cycle:16).  The last-bit cut read 0.617, 2.313 and 1.817
EXACT_CUTS = [
    ("cycle:16", F16, 2.0, _dft_masses(F16), 8),
    ("cycle:16", F16, math.sqrt(2.0), _dft_masses(F16), 4),
    ("path:12", F12, 2.0 * math.sin(5.0 * math.pi / 24.0), _dct_masses(F12), 5),
]


@pytest.mark.parametrize("text, f, omega, masses, last", EXACT_CUTS,
                         ids=["cycle:16 at 2", "cycle:16 at sqrt 2", "path:12 at 2 sin(5pi/24)"])
def test_cuts_at_exact_eigenvalues(text, f, omega, masses, last):
    dec = eigh(build_operator(parse_operator_arg(text)))
    exact = math.sqrt(sum(masses[last + 1:]))
    norm_f = float(np.linalg.norm(f))
    for distance in (best_approx, spectral_tail):
        value = distance(dec, f, omega)
        assert abs(value - exact) <= 1e-13 * norm_f, (distance.__name__, value, exact)
    projected = pw_project(dec, f, omega)
    assert abs(np.linalg.norm(projected) - math.sqrt(sum(masses[:last + 1]))) <= 1e-13 * norm_f


def test_exact_cut_values():
    # the closed forms themselves: f in PW_2 of cycle:16, and the two thresholds above
    assert sum(_dft_masses(F16)[9:]) == 0.0
    assert math.sqrt(sum(_dft_masses(F16)[5:])) == pytest.approx(1.8660455123200, abs=1e-12)
    assert math.sqrt(sum(_dct_masses(F12)[6:])) == pytest.approx(0.74404311462, abs=1e-10)
    assert sum(_dft_masses(F16)) == pytest.approx(float(np.sum(F16 ** 2)), rel=1e-14)
    assert sum(_dct_masses(F12)) == pytest.approx(float(np.sum(F12 ** 2)), rel=1e-14)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 10, 12, 16, 17])
def test_complete_graph_cut_at_its_eigenvalue(n):
    # complete:N has 0 and sqrt(N): PW at omega = sqrt(N) (the double nearest) is everything
    dec = eigh(build_operator(parse_operator_arg(f"complete:{n}")))
    f = np.random.default_rng(n).standard_normal(n)
    norm_f = float(np.linalg.norm(f))
    assert spectral_tail(dec, f, math.sqrt(n)) == 0.0
    assert best_approx(dec, f, math.sqrt(n)) <= 1e-13 * norm_f
    assert np.linalg.norm(pw_project(dec, f, math.sqrt(n)) - f) <= 1e-13 * norm_f
    # and PW_0 is the constants
    assert best_approx(dec, f, 0.0) == pytest.approx(np.linalg.norm(f - f.mean()), rel=1e-13)


def test_band_edges_at_exact_eigenvalues():
    # a = 2 on cycle:16: the top eigenvalue 2 = 2 sin(pi/2) sits on the edge a^1, which
    # keeps it, so the bands are [0, 1] and (1, 2] (the parent's cut added (2, 4], of norm
    # 0.617, as the solver rounds lambda_max to 2 + 4e-15)
    dec = eigh(build_operator(parse_operator_arg("cycle:16")))
    split = band_decompose(dec, F16, 2.0)
    np.testing.assert_array_equal(split.band_edges, [1.0, 2.0])
    assert spectral_tail(dec, F16, 2.0) == 0.0  # f lies in PW_2
    masses = _dft_masses(F16)  # 2 sin(pi k / 16) <= 1 for k <= 2
    expected = [math.sqrt(sum(masses[:3])), math.sqrt(sum(masses[3:]))]
    assert np.max(np.abs(split.band_norms() - expected)) <= 1e-13 * np.linalg.norm(F16)


def _cut_scalars(dec, f, nodes, bases) -> dict:
    """The cut scalars of ``f`` on ``dec``: at every group value in ``nodes`` and at the band
    edges of every base in ``bases``."""
    out = {"pw_project norm": np.linalg.norm(pw_project(dec, f, nodes), axis=-1),
           "best_approx": best_approx(dec, f, nodes),
           "spectral_tail": spectral_tail(dec, f, nodes)}
    for a in bases:
        out[f"band norms a={a}"] = band_decompose(dec, f, a).band_norms()
    return out


def _solver_error(matrix, dec) -> float:
    """``rho + eta``: the residual ``||A V - V Lambda||_2`` of the solve ``dec`` of the Laplacian
    ``matrix`` (``Lambda`` the squares of the values of ``D``) and its ``||V^T V - I||_2``."""
    basis = dec.eigenvectors
    return (np.linalg.norm(matrix @ basis - basis * dec.eigenvalues ** 2, 2)
            + np.linalg.norm(basis.T @ basis - np.eye(len(basis)), 2))


def test_cuts_do_not_see_a_relabelling():
    """Relabel the nodes of cycle:16 by a permutation ``P``, solve again, and rotate the basis.

    Exact law.  ``L' = P L P^T`` has the eigenpairs ``(lambda, P u)``, so its spectral
    projectors are ``E'_omega = P E_omega P^T``.  Then ``pw_project(L', P f) = P pw_project(L, f)``,
    and its norm, ``E``, ``R`` and every band norm (the norm of ``(E_{a^k} - E_{a^{k-1}}) f``) are
    the same for ``P f`` on ``L'`` as for ``f`` on ``L``.  A rotation ``V_g -> V_g Q`` inside each
    eigenspace leaves each projector ``V_g V_g^T`` as it is, so it moves none of them either.

    The cut.  The second solve rounds each group value apart from the first by about 1e-14,
    far inside ``eps_group = 2e-9``, and the next group lies more than ``eps_group`` above, so
    ``lambda <= omega + eps_group`` keeps the same eigenspaces in both solves at every group
    value ``omega`` and every band edge.  The parent's cut, decided by the last bit, moved
    ``||pw_project||`` by 0.20 to 0.53 ``||f||``.

    What is left is each solve's own error.  A solve with residual ``rho = ||A V - V Lambda||_2``
    and ``eta = ||V^T V - I||_2`` has kept columns whose projector lies within ``rho / delta + eta``
    of ``E_omega`` (Davis-Kahan sin Theta, to first order), where ``delta`` is the gap of ``L``
    across the cut, at least the smallest gap ``4 cos^2(7 pi / 16)`` of the closed-form values
    ``4 sin^2(pi k / 16)`` less ``rho``.  A norm of ``E_omega f`` or ``f - E_omega f`` moves by at
    most the projector's move times ``||f||``, and a band norm by twice that: the bound below.  The
    solver's residual, up to 6e-12 here, moves ``E`` by up to 1.1e-12 ``||f||`` and a band norm by
    2.4e-12 ``||f||``; ``||pw_project||`` stays within 1e-12 ``||f||``.  Each move is also held
    under a fixed ceiling just above what was seen, 1e-12 ``||f||`` for ``||pw_project||`` and
    5e-12 ``||f||`` for the rest, so a worse solver cannot widen it; 1e-12 for all of them waits
    for a solver with a smaller residual (ROADMAP item 2).
    """
    op = build_operator(parse_operator_arg("cycle:16"))
    dec = eigh(op)
    rng = np.random.default_rng(25)
    f = rng.standard_normal(16)
    norm_f = float(np.linalg.norm(f))
    nodes = dec.eigenvalues[[group[0] for group in dec.groups]]
    bases = (2.0, float(nodes[nodes > 1.0][0]))  # a^1 on the top and on the first group above 1
    want, error = _cut_scalars(dec, f, nodes, bases), _solver_error(op.entries, dec)
    gap = 4.0 * math.cos(7.0 * math.pi / 16.0) ** 2
    for _ in range(20):
        perm = rng.permutation(16)
        matrix = op.entries[np.ix_(perm, perm)]
        relabelled = _rotated(eigh(SymmetricOperator(matrix)), rng)
        errors = error + _solver_error(matrix, relabelled)
        bound = 2.0 * errors / (gap - errors) * norm_f
        got = _cut_scalars(relabelled, f[perm], nodes, bases)
        for name, expected in want.items():
            ceiling = (1e-12 if name == "pw_project norm" else 5e-12) * norm_f
            assert got[name].shape == expected.shape, (name, perm)
            assert np.max(np.abs(got[name] - expected)) <= min(bound, ceiling), (name, perm)


def test_step_integrals_take_the_jumps_at_the_group_values():
    # the cut rule drops the group at 3e-9 of raw_D diag(0, 3e-9, 1) already at 3e-9 - eps_group
    # = 2e-9, so best_approx(e_1, s) is 0 from there; the integral and sup flavors integrate the
    # exact-arithmetic step function, whose jump sits at 3e-9 (_step_nodes), so the supremum of
    # s E(e_1, s) reads 3e-9, not the 2e-9 of best_approx
    dec = eigh(SymmetricOperator(np.diag([0.0, 3e-9, 1.0]), kind=RAW_D))
    f = np.array([0.0, 1.0, 0.0])
    assert dec.groups == ((0,), (1,), (2,)) and dec.eps_group == 1e-9
    assert best_approx(dec, f, [1.9e-9, 2e-9, 3e-9]).tolist() == [1.0, 0.0, 0.0]
    np.testing.assert_array_equal(_step_nodes(dec), [0.0, 3e-9, 1.0])
    assert sup_scaled_best_approx(dec, f, 1.0) == 3e-9
    assert besov_norm(dec, f, BesovParams(alpha=1.0, q=math.inf, flavor="integral_E")) == 1.0 + 3e-9


def test_bernstein_ratio_of_a_group_kept_above_omega():
    # omega = lambda_k - eps_group / 2 keeps the group at lambda_k, where (lambda/omega)^7 is
    # 1 + 7 eps_group / (2 lambda_k) (1 + 1.8e-8 at lambda_1 of cycle:16): lambda/omega is
    # clamped at 1, so the ratio stays within the bernstein tolerance
    dec = eigh(build_operator(parse_operator_arg("cycle:16")))
    for group in dec.groups[1:]:
        omega = float(dec.eigenvalues[group[0]]) - dec.eps_group / 2.0
        rep = bernstein_check(dec, dec.eigenvectors[:, group[0]], omega, (0.5, 1.0, 7.0))
        assert abs(rep.max_ratio - 1.0) <= DEFAULT_TOLERANCES["bernstein"], (group, rep.ratios)
    # omega = 0 keeps a group within eps_group = 1e-9 above 0: lambda/omega = inf, clamped
    tiny = eigh(SymmetricOperator(np.diag([5e-10, 1.0]), kind=RAW_D))
    rep = bernstein_check(tiny, [1.0, 0.0], 0.0, (0.0, 1.0, 7.0))
    assert tiny.eigenvalues[0] == 5e-10 and rep.ratios.tolist() == [1.0, 1.0, 1.0]
