"""Paley-Wiener subspaces: projections, best approximation, bandwidth.

``PW_omega`` is the span of eigenvectors with eigenvalue in ``[0, omega]``, a
prefix of the ascending spectrum cut in one place (``_pw_prefix``).  The
distance from ``f`` to ``PW_omega`` (best approximation) is computed two ways:
as the norm of ``f`` minus its orthogonal projection, and as the norm of the
coefficients above ``omega``.  The two must agree to near machine precision;
keeping both routes makes that identity a real check instead of a tautology.
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
    _basis_product,
    _broadcast,
    _coefficients,
    _is_int,
    _norm,
    _scaled,
    _scaled_mag2,
    _shaped,
    _unscaled,
    apply_multiplier,
    as_vector,
)

#: relative tail below which a vector counts as a member of PW_omega
BANDLIMITED_TOL = 1e-12
#: coefficient threshold (relative to ||f||) defining the support
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


def _power(x: float, y: float) -> float:
    """``x ** y``, or ``inf`` where it passes the largest double (a float power raises there)."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _band_powers(a: float, count: int, x: float = 1.0) -> np.ndarray:
    """``a^(k x)`` for k = 0 .. count-1: band edges at ``x = 1``, weights at ``x = alpha``.

    Scalar powers, the ones :func:`band_count` compares with; an array
    power may differ from them in the last bit and move an eigenvalue
    that sits on an edge into the next band.
    """
    return np.array([_power(a, k * x) for k in range(count)])


def _check_q(q: float) -> None:
    """Reject an exponent outside ``[1, inf]``, the range where ``_lq_norm`` is a norm."""
    if not (q >= 1.0):
        raise InvalidParamsError(f"q must be in [1, inf], got {q}")


def _lq_norm(terms: np.ndarray, q: float) -> float:
    """``(sum terms^q)^{1/q}`` at a power-of-two scale; the max at ``q = inf``, 0 without terms."""
    scaled, e = _scaled(terms)
    return _unscaled(float(np.max(scaled, initial=0.0) if q == math.inf else
                           np.sum(scaled ** q) ** (1.0 / q)), e)


def _omegas(omega) -> np.ndarray:
    """``omega`` as a float array, every entry checked ``>= 0``."""
    value = np.asarray(omega, dtype=np.float64)
    if not np.all(value >= 0.0):
        raise NegativeOmegaError(f"omega must be >= 0, got {omega}")
    return value


def _pw_prefix(dec: SpectralDecomposition, omega):
    """How many eigenvalues PW_omega keeps (``lambda <= omega``): the one place the cut is made."""
    return dec.eigenvalues.searchsorted(omega, side="right")


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
    final_gap: float


def _step_nodes(dec: SpectralDecomposition) -> np.ndarray:
    """0 and the distinct eigenvalues (the jump points of E(f, .)); the spectrum is ascending."""
    nodes = np.concatenate(([0.0], dec.eigenvalues))
    return nodes[np.append(True, nodes[1:] != nodes[:-1])]


def _distances(dec: SpectralDecomposition, fc, omegas, route: str) -> np.ndarray:
    """Distance from ``f`` to PW_omega, from its ``(v, c, e)``, at ``omegas`` broadcast against
    the rows of ``f``: route ``"E"`` takes the norm of the residual ``v - V (masked c)`` in
    the vector domain, route ``"R"`` the norm of the coefficients above."""
    v, c, e = fc
    shape, rows, (ends, e) = _broadcast(c, _pw_prefix(dec, omegas), e)
    v, c, j = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), np.arange(dec.dim)
    if route == "R":
        norms = [np.linalg.norm(c[i, end:]) for i, end in zip(rows.tolist(), ends.tolist())]
    else:  # one element at a time: a block of masked copies would be elements x N
        norms = [np.linalg.norm(v[i] - _basis_product(dec.eigenvectors, np.where(j < end, c[i], 0)))
                 for i, end in zip(rows.tolist(), ends.tolist())]
    return _unscaled(np.reshape(norms, shape), e.reshape(shape))


def pw_project(dec: SpectralDecomposition, f, omega) -> np.ndarray:
    """Orthogonal projection onto PW_omega: zero all coefficients above omega (broadcast
    against the rows of ``f``)."""
    ends = _pw_prefix(dec, _omegas(omega))
    return apply_multiplier(dec, lambda lam: np.arange(lam.size) < ends[..., None], f)


def best_approx(dec: SpectralDecomposition, f, omega):
    """Distance from ``f`` to PW_omega, via the projection residual in H: a float for one
    vector and one ``omega``, else an array of their broadcast shape."""
    return _shaped(_distances(dec, _coefficients(dec, f), _omegas(omega), "E"))


def spectral_tail(dec: SpectralDecomposition, f, omega):
    """Coefficient-tail norm above omega; equals :func:`best_approx`, shaped as it is."""
    return _shaped(_distances(dec, _coefficients(dec, f), _omegas(omega), "R"))


def _in_pw(dec: SpectralDecomposition, c, omega: float, norm_v) -> bool:
    """Whether ``f`` lies in PW_omega: the tail of its coefficients ``c 2^e`` above omega is at
    most ``BANDLIMITED_TOL ||f||``, given ``norm_v = ||f|| 2^-e``."""
    return np.linalg.norm(c[_pw_prefix(dec, omega):]) <= BANDLIMITED_TOL * norm_v


def bandwidth(dec: SpectralDecomposition, f, k_max: int = 40,
              probe_omega: float | None = None) -> BandwidthReport:
    """Support edge ``omega_f`` of ``f`` and the ``||D^k f||^{1/k}`` diagnostics.

    ``omega_f`` is the largest eigenvalue whose coefficient exceeds
    ``SUPPORT_TOL * ||f||`` in magnitude.  ``probe_omega`` defaults to
    ``omega_f`` itself and must be ``>= 0``; ``k_max`` must be an integer
    ``>= 1``.  ``||D^k f||`` sums over those coefficients only, the support
    ``omega_f`` counts: the round-off tail left above it (of a projection, or
    of a kernel mode on a graph) would grow like ``(lambda_max/omega_f)^k``.
    So ``sup_ratio <= ||f||`` whenever the probe is ``>= omega_f``.
    """
    if not (_is_int(k_max) and k_max >= 1):
        raise InvalidParamsError(f"k_max must be an integer >= 1, got {k_max!r}")
    v, c, e = _coefficients(dec, as_vector(f, dec.dim))
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        raise ZeroVectorError("bandwidth of the zero vector is undefined")
    significant = np.abs(c) > SUPPORT_TOL * norm_v
    omega_f = float(dec.eigenvalues[significant].max()) if np.any(significant) else 0.0

    # log ||D^k f|| = top + log(sum exp(2 (t - top))) / 2 over t = k log lambda_j + log |c_j|,
    # top = max t: finite far beyond the double range, -inf when D^k f = 0
    live = significant & (dec.eigenvalues > 0.0)
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    log_terms = ks[:, None] * np.log(dec.eigenvalues[live]) + np.log(np.abs(c[live]))
    top = log_terms.max(axis=1, initial=-math.inf)
    with np.errstate(divide="ignore"):  # log 0 = -inf without live terms
        shifted = 0.5 * np.log(np.sum(np.exp(2.0 * (log_terms - top[:, None])), axis=1))
    log_norms = top + shifted + int(e) * math.log(2.0)
    k_sequence = np.exp(log_norms / ks)

    probe = omega_f if probe_omega is None else float(_omegas(probe_omega))
    if probe > 0.0:
        sup_ratio = float(np.exp(np.max(log_norms - ks * math.log(probe))))
    else:
        # probe 0: every ratio is 0/0 with D^k f = 0, or +inf otherwise
        sup_ratio = 0.0 if np.all(np.isneginf(log_norms)) else math.inf
    return BandwidthReport(omega_f=omega_f, k_sequence=k_sequence,
                           sup_ratio=sup_ratio, probe_omega=probe,
                           final_gap=float(omega_f - k_sequence[-1]))


@dataclass(frozen=True, eq=False)
class BernsteinReport:
    """Measured ratios ``||D^s f|| / (omega^s ||f||)`` for bandlimited f."""

    omega: float
    s_values: tuple
    ratios: np.ndarray
    max_ratio: float


def bernstein_check(dec: SpectralDecomposition, f, omega, s_list) -> BernsteinReport:
    """Measure ``||D^s f|| / (omega^s ||f||)``, at most 1, for each ``s`` in ``s_list``.

    Requires ``f`` in PW_omega (tail at most ``1e-12 ||f||``), otherwise
    raises :class:`NotBandlimitedError`.  Every ``s`` must be finite and ``>= 0``.
    ``||D^s f||`` sums over ``lambda <= omega`` only, the part the inequality bounds:
    the admitted tail, round-off of a projection, would grow like ``(lambda_max/omega)^s``.
    The ratio is taken at the scale of ``f``, so it is finite wherever ``f`` is, and it is 0
    where ``omega^s`` passes the largest double.

    ``omega`` and ``max_ratio`` take the broadcast shape of ``omega`` and the rows of ``f``;
    ``ratios`` adds an axis over ``s``.
    """
    v, c, _ = _coefficients(dec, f)
    shape, rows, (ws,) = _broadcast(c, _omegas(omega))
    s_values = tuple(s_list)
    bad = [s for s in s_values if not 0.0 <= s < math.inf]
    if bad:
        raise InvalidParamsError(f"s must be finite and >= 0, got {bad[0]}")
    c, norms = c.reshape(-1, dec.dim), _norm(v.reshape(-1, dec.dim)).tolist()  # ||f|| 2^-e
    for row, w in zip(rows.tolist(), ws.tolist()):
        if norms[row] == 0.0:
            raise ZeroVectorError("Bernstein check needs a nonzero vector")
        if not _in_pw(dec, c[row], w, norms[row]):
            raise NotBandlimitedError(f"vector has spectral mass above omega={w}")
    groups = {}  # prefix length -> elements; None for omega = 0
    for i, (w, end) in enumerate(zip(ws.tolist(), _pw_prefix(dec, ws).tolist())):
        groups.setdefault(end if w > 0.0 else None, []).append(i)
    ratios = np.empty((len(ws), len(s_values)))
    zero = groups.pop(None, None)
    if zero:  # f in PW_0 means D^s f = 0 for s > 0; report 0 rather than 0/0
        ratios[zero] = [0.0 if s > 0 else 1.0 for s in s_values]
    lam = dec.eigenvalues[:max(groups, default=0)]
    table = np.array([np.power(lam, 2.0 * s) for s in s_values]).reshape(len(s_values), lam.size)
    for end, elements in groups.items():
        mag2, d = _scaled_mag2(c[rows[elements], :end])
        sums = (mag2[:, None] * table[:, :end]).sum(axis=-1)
        # omega^s ||f|| at the scale of c: the 2^e of f cancels from every ratio
        bounds = np.array([[_power(float(ws[i]), s) * norms[rows[i]] for s in s_values]
                           for i in elements])
        ratios[elements] = _unscaled(np.sqrt(sums) / bounds, d[:, None])
    # the ratios are nonnegative: the initial 0.0 only shows without any s
    return BernsteinReport(omega=_shaped(ws, shape), s_values=s_values,
                           ratios=ratios.reshape(shape + (len(s_values),)),
                           max_ratio=_shaped(ratios.max(axis=1, initial=0.0), shape))


def dense_union_check(dec: SpectralDecomposition, f, eps: float) -> float:
    """Smallest eigenvalue threshold ``omega`` with ``E(f, omega) <= eps``.

    Candidates are 0 and the distinct eigenvalues; existence is guaranteed
    because ``E(f, lambda_max) = 0``.
    """
    if not (eps > 0.0):
        raise InvalidParamsError(f"eps must be positive, got {eps}")
    nodes = _step_nodes(dec)
    tails = _distances(dec, _coefficients(dec, as_vector(f, dec.dim)), nodes, "R")
    return float(nodes[np.argmax(tails <= eps)])

