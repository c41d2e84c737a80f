"""Paley-Wiener subspaces: projections, best approximation, bandwidth.

``PW_omega`` is the span of eigenvectors with eigenvalue in the closed
interval ``[0, omega]``.  The distance from ``f`` to ``PW_omega`` (best
approximation) is computed two independent ways: as the Euclidean norm of
``f`` minus its orthogonal projection, and as the coefficient-tail norm
above ``omega``.  The two must agree to near machine precision; keeping
both routes makes that identity a real check instead of a tautology.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBaseError,
    InvalidParamsError,
    NegativeOmegaError,
    NotBandlimitedError,
    ZeroVectorError,
)
from .operators import (
    SpectralDecomposition,
    _is_int,
    _norm,
    _scaled,
    _scaled_mag2,
    apply_multiplier,
    as_vector,
    spectral_transform,
)

#: relative tail below which a vector counts as a member of PW_omega
BANDLIMITED_TOL = 1e-12
#: default coefficient threshold (relative to ||f||) defining the support
SUPPORT_TOL = 1e-12
#: largest top band index a base may produce; bases closer to 1 are rejected
MAX_BANDS = 100_000


def band_count(lambda_max: float, a: float) -> int:
    """Smallest ``k >= 0`` with ``a^k >= lambda_max``: the top dyadic band edge.

    The bands ``[0, 1], (1, a], ..., (a^{k-1}, a^k]`` then cover the
    spectrum.  The closed form ``ceil(log lambda_max / log a)`` is
    corrected with the defining comparison ``a^k < lambda_max``, so the
    count is exact.  Raises :class:`InvalidBaseError` when ``a <= 1`` or
    when ``k`` would exceed :data:`MAX_BANDS`, instead of truncating.
    """
    if not (a > 1.0):
        raise InvalidBaseError(f"base must be > 1, got {a}")
    if not (lambda_max > 1.0):
        return 0
    k = math.ceil(math.log(lambda_max) / math.log(a))
    while a ** k < lambda_max:
        k += 1
    while a ** (k - 1) >= lambda_max:
        k -= 1
    if k > MAX_BANDS:
        raise InvalidBaseError(
            f"base {a} needs {k} bands to reach lambda_max = {lambda_max}, "
            f"more than MAX_BANDS = {MAX_BANDS}")
    return k


def _band_powers(a: float, count: int, x: float = 1.0) -> np.ndarray:
    """``a^(k x)`` for k = 0 .. count-1: band edges at ``x = 1``, weights at ``x = alpha``.

    Scalar powers, the ones :func:`band_count` compares with; an array
    power may differ from them in the last bit and move an eigenvalue
    that sits on an edge into the next band.
    """
    return np.array([a ** (k * x) for k in range(count)])


def _check_q(q: float) -> None:
    """Reject an exponent outside ``[1, inf]``, the range where ``_lq_norm`` is a norm."""
    if not (q >= 1.0):
        raise InvalidParamsError(f"q must be in [1, inf], got {q}")


def _lq_norm(terms: np.ndarray, q: float) -> float:
    """``(sum terms^q)^{1/q}`` at a power-of-two scale; the max at ``q = inf``, 0 without terms."""
    if not terms.size:
        return 0.0
    if q == math.inf:
        return float(np.max(terms))
    scaled, e = _scaled(terms)
    return math.ldexp(float(np.sum(scaled ** q) ** (1.0 / q)), e)


def _omega_value(omega) -> float:
    value = float(omega)
    if not (value >= 0.0):
        raise NegativeOmegaError(f"omega must be >= 0, got {omega}")
    return value


@dataclass(frozen=True, eq=False)
class BandwidthReport:
    """Support edge of a vector plus the power-norm diagnostics.

    ``k_sequence[k-1]`` holds ``||D^k f||^{1/k}``; for unit vectors the
    sequence increases toward ``omega_f`` (power-mean monotonicity), for
    general vectors it approaches ``omega_f`` from above or below depending
    on ``||f||``.  With finitely many eigenvalues the limit and the limit
    inferior of the sequence coincide, so a single sequence serves both
    characterizations.  ``sup_ratio`` is ``sup_k omega^{-k} ||D^k f||`` at
    the probe band edge: bounded by ``||f||`` when the probe is >= omega_f,
    growing geometrically when it is smaller.
    """

    omega_f: float
    k_sequence: np.ndarray
    sup_ratio: float
    probe_omega: float
    tol_support: float
    final_gap: float


def _step_nodes(dec: SpectralDecomposition) -> np.ndarray:
    """0 followed by the distinct eigenvalues: the jump points of E(f, .)."""
    uniq = np.unique(dec.eigenvalues)
    if uniq.size == 0:
        return np.array([0.0])
    return uniq if uniq[0] == 0.0 else np.concatenate(([0.0], uniq))


def _distances(dec: SpectralDecomposition, f, omegas, route: str) -> np.ndarray:
    """Distance from ``f`` to PW_omega at every band edge in ``omegas``.

    One transform of ``f`` scaled by a power of two serves every edge.  Route
    ``"E"`` forms the residual ``f - V (masked c)`` in the vector domain and
    takes its norm; route ``"R"`` takes the norm of the coefficients above.
    """
    vec, e = _scaled(as_vector(f, dec.dim))
    c = spectral_transform(dec, vec)
    lam = dec.eigenvalues
    if route == "R":
        return np.ldexp([np.linalg.norm(c[lam > w]) for w in omegas], e)
    basis = dec.eigenvectors.astype(np.complex128)
    return np.ldexp([np.linalg.norm(vec - basis @ np.where(lam <= w, c, 0.0))
                     for w in omegas], e)


def pw_project(dec: SpectralDecomposition, f, omega) -> np.ndarray:
    """Orthogonal projection onto PW_omega: zero all coefficients above omega."""
    w = _omega_value(omega)
    return apply_multiplier(dec, lambda lam: lam <= w, f)


def best_approx(dec: SpectralDecomposition, f, omega) -> float:
    """Distance from ``f`` to PW_omega, via the projection residual in H."""
    return float(_distances(dec, f, [_omega_value(omega)], "E")[0])


def spectral_tail(dec: SpectralDecomposition, f, omega) -> float:
    """Coefficient-tail norm above omega; equals :func:`best_approx`."""
    return float(_distances(dec, f, [_omega_value(omega)], "R")[0])


def _in_pw(dec: SpectralDecomposition, f, omega: float) -> bool:
    """Whether ``f`` lies in PW_omega: tail above omega at most ``BANDLIMITED_TOL ||f||``."""
    vec = as_vector(f, dec.dim)
    return spectral_tail(dec, vec, omega) <= BANDLIMITED_TOL * _norm(vec)


def log_power_norms(dec: SpectralDecomposition, f, k_max: int) -> np.ndarray:
    """``log ||D^k f||`` for k = 1..k_max, computed in log-space.

    Uses a logsumexp over ``2k log(lambda_j) + 2 log|c_j|`` so that powers
    far beyond double-precision range still give finite logarithms.
    Entries are ``-inf`` when ``D^k f = 0``.
    """
    mag = np.abs(spectral_transform(dec, f))
    mask = (mag > 0.0) & (dec.eigenvalues > 0.0)
    out = np.full(k_max, -np.inf)
    if not np.any(mask):
        return out
    log_lam = np.log(dec.eigenvalues[mask])
    log_mag2 = 2.0 * np.log(mag[mask])
    for k in range(1, k_max + 1):
        terms = 2.0 * k * log_lam + log_mag2
        m = terms.max()
        out[k - 1] = 0.5 * (m + math.log(np.sum(np.exp(terms - m))))
    return out


def bandwidth(dec: SpectralDecomposition, f, tol_support: float = SUPPORT_TOL,
              k_max: int = 40, probe_omega: float | None = None) -> BandwidthReport:
    """Support edge ``omega_f`` of ``f`` and the ``||D^k f||^{1/k}`` diagnostics.

    ``omega_f`` is the largest eigenvalue whose coefficient exceeds
    ``tol_support * ||f||`` in magnitude.  ``probe_omega`` defaults to
    ``omega_f`` itself; ``k_max`` must be an integer ``>= 1``.
    """
    if not (_is_int(k_max) and k_max >= 1):
        raise InvalidParamsError(f"k_max must be an integer >= 1, got {k_max!r}")
    vec = as_vector(f, dec.dim)
    norm_f = _norm(vec)
    if norm_f == 0.0:
        raise ZeroVectorError("bandwidth of the zero vector is undefined")
    significant = np.abs(spectral_transform(dec, vec)) > tol_support * norm_f
    omega_f = float(dec.eigenvalues[significant].max()) if np.any(significant) else 0.0

    log_norms = log_power_norms(dec, vec, k_max)
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    k_sequence = np.exp(log_norms / ks)

    probe = omega_f if probe_omega is None else float(probe_omega)
    if probe > 0.0:
        sup_ratio = float(np.exp(np.max(log_norms - ks * math.log(probe))))
    else:
        # probe 0: every ratio is 0/0 with D^k f = 0, or +inf otherwise
        sup_ratio = 0.0 if np.all(np.isneginf(log_norms)) else math.inf
    return BandwidthReport(omega_f=omega_f, k_sequence=k_sequence,
                           sup_ratio=sup_ratio, probe_omega=probe,
                           tol_support=tol_support,
                           final_gap=float(omega_f - k_sequence[-1]))


@dataclass(frozen=True, eq=False)
class BernsteinReport:
    """Measured ratios ``||D^s f|| / (omega^s ||f||)`` for bandlimited f."""

    omega: float
    s_values: tuple
    ratios: np.ndarray
    max_ratio: float
    passed: bool


#: slack allowed on the Bernstein ratio
BERNSTEIN_TOL = 1e-10


def bernstein_check(dec: SpectralDecomposition, f, omega, s_list) -> BernsteinReport:
    """Verify ``||D^s f|| <= omega^s ||f||`` for each ``s`` in ``s_list``.

    Requires ``f`` in PW_omega (tail at most ``1e-12 ||f||``), otherwise
    raises :class:`NotBandlimitedError`.
    """
    w = _omega_value(omega)
    vec = as_vector(f, dec.dim)
    norm_f = _norm(vec)
    if norm_f == 0.0:
        raise ZeroVectorError("Bernstein check needs a nonzero vector")
    if not _in_pw(dec, vec, w):
        raise NotBandlimitedError(f"vector has spectral mass above omega={w}")
    mag2, e = _scaled_mag2(spectral_transform(dec, vec))
    ratios = []
    for s in s_list:
        power_norm = math.ldexp(
            math.sqrt(float(np.sum(np.power(dec.eigenvalues, 2.0 * s) * mag2))), e)
        if w > 0.0:
            ratios.append(power_norm / (w ** s * norm_f))
        else:
            # f in PW_0 means D^s f = 0 for s > 0; report 0 rather than 0/0
            ratios.append(0.0 if s > 0 else 1.0)
    ratios = np.array(ratios)
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    return BernsteinReport(omega=w, s_values=tuple(s_list), ratios=ratios,
                           max_ratio=max_ratio,
                           passed=bool(max_ratio <= 1.0 + BERNSTEIN_TOL))


def dense_union_check(dec: SpectralDecomposition, f, eps: float) -> float:
    """Smallest eigenvalue threshold ``omega`` with ``E(f, omega) <= eps``.

    Candidates are 0 and the distinct eigenvalues; existence is guaranteed
    because ``E(f, lambda_max) = 0``.
    """
    if not (eps > 0.0):
        raise InvalidParamsError(f"eps must be positive, got {eps}")
    nodes = _step_nodes(dec)
    tails = _distances(dec, f, nodes, "R")
    return float(nodes[np.argmax(tails <= eps)])

