"""Moduli of continuity, K-functionals and Besov-type norms.

Smoothness of a vector relative to the operator ``D`` is measured three
equivalent ways:

* decay of the best approximation ``E(f, s)`` by bandlimited vectors,
  turned into integral/discrete norms.  Because the spectrum is finite,
  ``E(f, .)`` is a right-continuous step function constant between
  consecutive distinct eigenvalues, so the integral norms are evaluated
  in closed form with no quadrature error.  The distances at all band
  edges come from one coefficient transform;
* the Peetre K-functional between ``H`` and the domain of ``D^r``,
  minimized along the Tikhonov family ``g_s = (I + s D^{2r})^{-1} f``.
  That family traces the Pareto frontier of the two competing norms
  ``A(s) = ||f - g_s||`` and ``B(s) = ||D^r g_s||``, so
  ``K(t) = min_s A(s) + t B(s)`` is the lower envelope of the lines
  ``A(s) + t B(s)``.  The path is evaluated once on a log-s grid, the
  envelope is taken for every ``t`` in one broadcast minimum, and each
  ``t`` is refined by clipped Newton steps on the optimality condition
  ``s B(s) / A(s) = t`` inside its grid bracket;
* moduli of continuity built from the unitary group ``e^{itD}``.
  ``Omega_m(g, s)`` is the running maximum of ``||Delta_tau^m g||`` over
  ``tau <= s``, so one shift scan with every local maximum refined by
  clipped Newton steps serves both moduli: :func:`modulus` reads it at a
  single ``s`` and the modulus seminorm at all of its ``s`` at once.  The
  scan is sized from ``m lambda_max`` with no grid cap; a scan beyond
  :data:`MAX_SCAN_ENTRIES` raises instead of running for hours.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrderError, InvalidParamsError, NonPositiveTError
from .operators import (
    SpectralDecomposition,
    _norm,
    _scaled,
    _scaled_mag2,
    apply_multiplier,
    as_vector,
    operator_power,
    spectral_transform,
)
from .paley_wiener import _band_powers, _check_q, _distances, _lq_norm, _step_nodes, band_count

#: tolerance folded into inequality checks that involve a grid supremum
GRID_TOL = 1e-6

#: selectable smoothness-norm flavors
BESOV_FLAVORS = ("integral_E", "discrete_E", "integral_R", "discrete_R",
                 "k_functional", "modulus")


def _clipped_newton(fn, x, lo, hi, steps: int) -> tuple:
    """Newton steps from ``x`` clipped to the brackets ``[lo, hi]``, all brackets at once.

    ``fn(x)`` gives ``(objective, h, dh)``: ``h`` has the sign of the
    objective's slope and ``dh`` is its derivative.  A step moves to
    ``x - h / |dh|``, so it never heads uphill.  Returns the abscissa and
    value of the smallest objective evaluated; NaN (``dh = 0``) never wins.
    """
    best_x, best = x, np.full(np.shape(x), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps + 1):
            value, h, dh = fn(x)
            better = value < best
            best_x, best = np.where(better, x, best_x), np.where(better, value, best)
            x = np.clip(x - h / np.abs(dh), lo, hi)
    return best_x, best


@dataclass(frozen=True)
class BesovParams:
    """Smoothness parameters: exponent alpha, integrability q, order r, base a.

    ``q = math.inf`` selects the supremum forms.  ``r`` is only active for
    the K-functional and modulus flavors but is validated for all of them;
    if omitted, the smallest admissible order is chosen.
    """

    alpha: float
    q: float
    r: int | None = None
    a: float = 2.0
    flavor: str = "integral_E"

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf):
            raise InvalidParamsError(f"alpha must be in (0, inf), got {self.alpha}")
        _check_q(self.q)
        if not (self.a > 1.0):
            raise InvalidParamsError(f"base a must be > 1, got {self.a}")
        if self.flavor not in BESOV_FLAVORS:
            raise InvalidParamsError(f"unknown flavor {self.flavor!r}")
        r = self.r
        if r is None:
            r = math.floor(self.alpha) + 1 if self.q != math.inf else max(1, math.ceil(self.alpha))
            object.__setattr__(self, "r", r)
        if r < 1 or r != int(r):
            raise InvalidParamsError(f"r must be a positive integer, got {r}")
        if self.q == math.inf:
            if self.alpha > r:
                raise InvalidParamsError("need alpha <= r when q = inf")
        elif self.alpha >= r:
            raise InvalidParamsError("need alpha < r when q < inf")
        if self.flavor == "modulus":
            if self.q != math.inf:
                raise InvalidParamsError("modulus flavor is defined for q = inf only")
            if self.alpha >= r:
                raise InvalidParamsError("modulus flavor needs alpha < r")

    @property
    def is_sup(self) -> bool:
        return self.q == math.inf


# -- difference operator and modulus of continuity ----------------------------

def difference(dec: SpectralDecomposition, f, tau: float, m: int) -> np.ndarray:
    """m-th power of ``e^{i tau D} - I`` applied to ``f``.

    On coefficients this is multiplication by ``(e^{i tau lambda} - 1)^m``,
    which agrees with ``m`` successive first-order differences.
    """
    if m < 1:
        raise InvalidParamsError("difference order m must be >= 1")
    return apply_multiplier(dec, lambda lam: (np.exp(1j * tau * lam) - 1.0) ** m, f)


def _difference_norms(eigenvalues, mag2, taus, m):
    """||Delta_tau^m f|| for an array of shifts, from |coefficients|^2."""
    sins = 2.0 * np.abs(np.sin(np.outer(taus, eigenvalues) / 2.0))
    return np.sqrt(np.maximum(sins ** (2 * m) @ mag2, 0.0))


#: scan points per shortest period of ``||Delta_tau^m g||^2`` (frequency m lambda_max)
_SCAN_PER_PERIOD = 8

#: bound on scan points times dimension held in memory at once
_SCAN_CHUNK_ENTRIES = 1 << 20

#: clipped Newton steps refining each local maximum of a shift scan
_PEAK_NEWTON_STEPS = 6

#: largest shift scan, in scan points times dimension; at the 75-100 ns per
#: entry measured on a 2-vCPU host (refinement included) it takes 80-110 s
MAX_SCAN_ENTRIES = 1 << 30


def _running_modulus(eigenvalues, mag2, s_values, m: int) -> np.ndarray:
    """``Omega_m(g, s)`` at each of the ascending ``s_values`` from one shift scan.

    ``phi(tau) = ||Delta_tau^m g||`` is sampled at ``tau = k * step`` up to
    the last ``s``, with ``_SCAN_PER_PERIOD`` points per period
    ``2 pi / (m lambda_max)`` of its fastest component, in chunks so memory
    stays bounded.  Every interior local maximum ``tau_i`` of the scan is
    refined by ``_PEAK_NEWTON_STEPS`` Newton steps on the closed-form first
    and second derivatives of ``phi^2 = sum |c|^2 (2 - 2 cos tau lambda)^m``,
    clipped to ``[tau_{i-1}, tau_{i+1}]``; the best value evaluated counts.
    Every sampled point, refined maximum and ``phi(s)`` itself lands in the
    bin of the first ``s >= tau``; the running maximum over the bins is the
    modulus.  A scan of more than :data:`MAX_SCAN_ENTRIES` points times
    dimension raises :class:`InvalidParamsError`.
    """
    def neg_phi(taus):
        """``-phi`` and the slope and curvature of ``-phi^2``, via ``v = 2 - 2 cos(tau lambda)``."""
        x = np.outer(taus, eigenvalues)  # v'' = 2 lambda^2 cos x = lambda^2 (2 - v)
        sins = 2.0 * np.abs(np.sin(x / 2.0))
        v, dv = sins ** 2, 2.0 * eigenvalues * np.sin(x)
        d1 = v ** (m - 1) * dv
        d2 = (m - 1) * v ** max(m - 2, 0) * dv ** 2 + v ** (m - 1) * eigenvalues ** 2 * (2.0 - v)
        return -np.sqrt(np.maximum(sins ** (2 * m) @ mag2, 0.0)), -m * (d1 @ mag2), -m * (d2 @ mag2)

    step = 2.0 * math.pi / (_SCAN_PER_PERIOD * m * float(eigenvalues[-1]))
    n_scan = math.ceil(s_values[-1] / step) + 1
    if n_scan * eigenvalues.size > MAX_SCAN_ENTRIES:
        raise InvalidParamsError(
            f"shift scan up to s = {s_values[-1]} needs {n_scan} points at dimension "
            f"{eigenvalues.size}, more than MAX_SCAN_ENTRIES = {MAX_SCAN_ENTRIES}")
    # the last bin takes every tau beyond the last s
    bins = np.append(_difference_norms(eigenvalues, mag2, s_values, m), 0.0)
    chunk = max(16, _SCAN_CHUNK_ENTRIES // eigenvalues.size)
    for start in range(0, n_scan, chunk):
        # one point of overlap on each side, so every interior point sees its neighbours
        taus = np.arange(max(start - 1, 0), min(start + chunk + 1, n_scan)) * step
        vals = _difference_norms(eigenvalues, mag2, taus, m)
        peaks = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
        peak_taus, peak_vals = _clipped_newton(neg_phi, taus[peaks], taus[peaks - 1],
                                               taus[peaks + 1], _PEAK_NEWTON_STEPS)
        points = np.concatenate((taus, peak_taus))
        np.maximum.at(bins, np.searchsorted(s_values, points),
                      np.concatenate((vals, -peak_vals)))
    return np.maximum.accumulate(bins[:-1])


def _moduli(dec: SpectralDecomposition, f, s_values, m: int) -> np.ndarray:
    """``Omega_m(f, s)`` at each of the ``s_values``, in any order, from one transform and scan."""
    s_values = np.asarray(s_values, dtype=np.float64)
    bad = ~(np.isfinite(s_values) & (s_values >= 0.0))
    if np.any(bad):
        raise InvalidParamsError(f"s must be finite and >= 0, got {s_values[bad][0]}")
    if m < 0:
        raise InvalidParamsError("difference order m must be >= 0")
    mag2, e = _scaled_mag2(spectral_transform(dec, f))
    if m == 0:
        return np.full(s_values.shape, math.ldexp(math.sqrt(float(np.sum(mag2))), e))
    if not np.any(mag2 > 0.0) or not np.any(s_values > 0.0) or dec.lambda_max == 0.0:
        return np.zeros(s_values.shape)
    order = np.argsort(s_values)
    omega = np.empty(s_values.shape)
    omega[order] = _running_modulus(dec.eigenvalues, mag2, s_values[order], m)
    return np.ldexp(omega, e)


def modulus(dec: SpectralDecomposition, f, s: float, m: int) -> float:
    """Modulus of continuity: ``sup over |tau| <= s`` of the m-th difference norm.

    The objective is even in ``tau`` so only ``[0, s]`` is scanned, by the
    same running-maximum shift scan that serves :func:`besov_seminorm_sup`
    (see ``_running_modulus``); the scan is sized from ``m lambda_max``
    and has no cap.  ``m = 0`` is accepted and returns ``||f||`` (the
    zeroth difference is the identity).  ``s`` must be finite and ``>= 0``.
    """
    return float(_moduli(dec, f, [s], m)[0])


@dataclass(frozen=True, eq=False)
class ModulusInequalityReport:
    """Measured ratios for the two modulus inequalities.

    ``ratio_power``:  Omega_m(f, s) / (s^k Omega_{m-k}(D^k f, s))
    ``ratio_scale``:  Omega_m(f, a s) / ((1+a)^m Omega_m(f, s))
    Both should not exceed 1 up to the grid tolerance.
    """

    ratio_power: float
    ratio_scale: float
    vacuous_power: bool
    vacuous_scale: bool
    passed: bool


def _safe_ratio(num: float, den: float, scale: float):
    """Ratio with a vacuous flag when the denominator is numerically zero."""
    if den <= 1e-14 * scale:
        return (0.0, True) if num <= 1e-12 * scale else (math.inf, True)
    return num / den, False


def modulus_inequality_checks(dec: SpectralDecomposition, f, s: float,
                              a_scale: float, m: int, k: int) -> ModulusInequalityReport:
    """Check the power-transfer and scale-doubling modulus inequalities."""
    if not 0 <= k <= m:
        raise InvalidParamsError(f"need 0 <= k <= m, got k={k}, m={m}")
    if a_scale <= 0.0:
        raise InvalidParamsError("a_scale must be positive")
    vec = as_vector(f, dec.dim)
    norm_f = _norm(vec)

    lhs, lhs_scale = (float(v) for v in _moduli(dec, vec, [s, a_scale * s], m))
    # at k = 0 the right side is Omega_m(f, s) itself: reuse it, no second scan
    rhs = (s ** k) * modulus(dec, operator_power(dec, k, vec), s, m - k) if k > 0 else lhs
    ratio_power, vac_power = _safe_ratio(lhs, rhs, norm_f)

    rhs_scale = ((1.0 + a_scale) ** m) * lhs
    ratio_scale, vac_scale = _safe_ratio(lhs_scale, rhs_scale, norm_f)

    passed = (vac_power or ratio_power <= 1.0 + GRID_TOL) and \
             (vac_scale or ratio_scale <= 1.0 + GRID_TOL)
    return ModulusInequalityReport(ratio_power=ratio_power, ratio_scale=ratio_scale,
                                   vacuous_power=vac_power, vacuous_scale=vac_scale,
                                   passed=bool(passed))


# -- step-function machinery for the approximation norms ----------------------

def _step_values(dec: SpectralDecomposition, f, route: str) -> tuple:
    """(nodes, values): E(f, s) = values[i] on [nodes[i], nodes[i+1])."""
    nodes = _step_nodes(dec)
    return nodes, _distances(dec, f, nodes[:-1], route)


def sup_scaled_best_approx(dec: SpectralDecomposition, f, alpha: float,
                           route: str = "E") -> float:
    """``sup over s > 0`` of ``s^alpha E(f, s)``, exact for step functions.

    On each constancy interval the supremum of ``s^alpha * const`` sits at
    the right endpoint, so the global supremum is a finite maximum.
    ``alpha`` must lie in ``[0, inf)``: below 0 the supremum is infinite.
    """
    if not (0.0 <= alpha < math.inf):
        raise InvalidParamsError(f"alpha must be in [0, inf), got {alpha}")
    nodes, values = _step_values(dec, f, route)
    return _lq_norm(values * nodes[1:] ** alpha, math.inf)


def _integral_norm(dec, f, alpha, q, route):
    """Closed form of ``(integral of (s^alpha E(f,s))^q ds/s)^{1/q}`` over (0, inf)."""
    nodes, values = _step_values(dec, f, route)
    aq = alpha * q
    scaled, e = _scaled(values)
    pieces = scaled ** q * (nodes[1:] ** aq - nodes[:-1] ** aq) / aq
    return math.ldexp(float(np.sum(pieces)) ** (1.0 / q), e)


def _discrete_terms(dec, f, alpha, a, route):
    """Terms ``a^{k alpha} E(f, a^k)`` for k = 0 .. K-1, where ``a^K >= lambda_max``.

    Every later term vanishes, so the truncation is exact.
    """
    count = band_count(dec.lambda_max, a)
    return _band_powers(a, count, alpha) * _distances(dec, f, _band_powers(a, count), route)


def besov_norm(dec: SpectralDecomposition, f, params: BesovParams) -> float:
    """One of the equivalent smoothness norms, selected by ``params.flavor``.

    The E flavors measure the decay of the best approximation computed in
    the vector domain; the R flavors measure the coefficient tail.  The
    two families agree to near machine precision, which downstream checks
    exploit.  Integral flavors are exact (piecewise evaluation); discrete
    flavors truncate where the terms become identically zero.
    """
    vec = as_vector(f, dec.dim)
    norm_f = _norm(vec)
    flavor = params.flavor
    if flavor == "k_functional":
        return k_besov_norm(dec, vec, params)
    if flavor == "modulus":
        return norm_f + besov_seminorm_sup(dec, vec, params.alpha, 0, params.r)

    route = "E" if flavor.endswith("_E") else "R"
    if flavor.startswith("integral"):
        if params.is_sup:
            tail = sup_scaled_best_approx(dec, vec, params.alpha, route)
        else:
            tail = _integral_norm(dec, vec, params.alpha, params.q, route)
    else:
        tail = _lq_norm(_discrete_terms(dec, vec, params.alpha, params.a, route), params.q)
    return norm_f + tail


# -- Peetre K-functional -------------------------------------------------------

#: log-s grid points per unit of ``log s`` on the Tikhonov path
_PATH_GRID_DENSITY = 4

#: clipped Newton steps refining each ``t`` inside its grid bracket
_K_NEWTON_STEPS = 4

#: log-grid points ``t`` of the K-functional norm's quadrature
_K_GRID_POINTS = 200


def _k_functional_values(dec: SpectralDecomposition, f, ts, r: int,
                         domain_norm: str) -> tuple:
    """``(K(t) 2^-e, e)`` for every ``t`` in ``ts``: the lower envelope along the Tikhonov path.

    ``A(s)`` and ``B(s)`` are evaluated once on a log-s grid over
    ``[1e-12 / max w, 1e12 / min w]`` (``w > 0``) and ``min_s A + t B`` is
    taken for all ``t`` in one broadcast minimum.  With ``u = log s`` and
    ``x = s w``, ``dA^2/du = 2 sum |c|^2 x^2 / (1+x)^3 = -s dB^2/du``, so
    ``A + t B`` is stationary where ``g(u) = u + log(B / A) = log t``, and
    ``g`` increases (the frontier is convex).  Each ``t`` is bracketed on
    the grid values of ``g`` and refined by ``_K_NEWTON_STEPS`` clipped
    Newton steps; a ``t`` outside their range has its minimum at a path
    endpoint, ``g = f`` or ``g = projection onto ker W``, both candidates
    for every ``t``.  Only coefficients outside ``ker W`` enter, scaled by
    ``2^-e`` (see ``_scaled_mag2``).
    """
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all(ts > 0.0):
        raise NonPositiveTError(f"t must be > 0, got {ts[~(ts > 0.0)][0]}")
    if r < 1:
        raise InvalidParamsError("r must be a positive integer")
    if domain_norm not in ("seminorm", "graph"):
        raise InvalidParamsError(f"unknown domain_norm {domain_norm!r}")
    lam2r = dec.eigenvalues ** (2 * r)
    w = lam2r if domain_norm == "seminorm" else 1.0 + lam2r
    mag2, e = _scaled_mag2(np.where(w > 0.0, spectral_transform(dec, f), 0.0))
    if not np.any(mag2 > 0.0):
        return np.zeros(ts.shape), 0  # f in ker W: K(t) = 0 at g = f
    mag2_w = mag2 * w

    def path(log_s):
        """``A``, ``B`` and ``P = sum |c|^2 x^2 / (1+x)^3`` at each ``s = exp(log_s)``."""
        sw = np.exp(log_s)[:, None] * w
        one_sw = 1.0 + sw
        a_terms = mag2 * (sw / one_sw) ** 2
        b2 = np.sum(mag2_w / one_sw ** 2, axis=-1)
        return np.sqrt(np.sum(a_terms, axis=-1)), np.sqrt(b2), np.sum(a_terms / one_sw, axis=-1)

    # endpoints of the path: g = f (s -> 0) and g = projection onto ker W
    k_vals = np.minimum(ts * math.sqrt(float(np.sum(mag2_w))),
                        math.sqrt(float(np.sum(mag2[w > 0.0]))))
    w_pos = w[w > 0.0]
    lo = math.log(1e-12 / float(w_pos.max()))
    hi = math.log(1e12 / float(w_pos.min()))
    u = np.linspace(lo, hi, math.ceil(_PATH_GRID_DENSITY * (hi - lo)) + 1)
    a_u, b_u, _ = path(u)
    k_vals = np.minimum(k_vals, np.min(a_u + ts[:, None] * b_u, axis=1))

    g_u = u + np.log(b_u / a_u)
    j = np.searchsorted(g_u, np.log(ts))
    inside = (j > 0) & (j < u.size)
    j, t_in, log_t = j[inside], ts[inside], np.log(ts[inside])

    def line(log_s):
        """``A + t B``, ``g - log t`` and ``dg/du = 1 - P / A^2 - P / (s B^2)``."""
        a, b, p = path(log_s)
        return (a + t_in * b, log_s + np.log(b / a) - log_t,
                1.0 - p / a ** 2 - p / (np.exp(log_s) * b ** 2))

    # secant start inside each bracket g(u[j-1]) < log t <= g(u[j])
    start = u[j - 1] + (log_t - g_u[j - 1]) / (g_u[j] - g_u[j - 1]) * (u[j] - u[j - 1])
    _, refined = _clipped_newton(line, start, u[j - 1], u[j], _K_NEWTON_STEPS)
    k_vals[inside] = np.minimum(k_vals[inside], refined)
    return k_vals, e


def k_functional(dec: SpectralDecomposition, f, t: float, r: int,
                 domain_norm: str = "seminorm") -> float:
    """``inf over g`` of ``||f - g|| + t ||D^r g||`` (Peetre K-functional).

    The infimum is taken along the Tikhonov family
    ``g_s = (I + s W)^{-1} f`` with ``W = D^{2r}``, which traces the exact
    Pareto frontier of the pair of norms, so ``K(t)`` is the lower
    envelope of the lines ``A(s) + t B(s)`` over the path.  The envelope
    is read off a log-s grid and refined by clipped Newton steps on the
    optimality condition ``s B(s) / A(s) = t``; it is exact up to rounding.
    With ``domain_norm="graph"`` the second term is the graph norm
    ``(||g||^2 + ||D^r g||^2)^{1/2}`` and ``W = I + D^{2r}``.
    """
    values, e = _k_functional_values(dec, f, [t], r, domain_norm)
    return math.ldexp(float(values[0]), e)


def k_besov_norm(dec: SpectralDecomposition, f, params: BesovParams,
                 domain_norm: str = "seminorm") -> float:
    """Interpolation-space norm built from the K-functional.

    ``||f|| + (integral of (t^{-alpha/r} K(t, f))^q dt/t)^{1/q}`` by
    trapezoidal quadrature on a ``_K_GRID_POINTS`` (200) point log grid
    ``t in [1e-6 / lambda_max^r, 1e6]``.  Outside the grid
    ``K(t, f) <= min(||f||-type, t ||D^r f||)`` makes the tails negligible.
    ``K`` is evaluated for all grid ``t`` in one pass (see
    :func:`k_functional`) and integrated in units of a power of two, so no
    scale of ``f`` overflows.  This norm is a measurement (used in
    equivalence ratios), not a closed form.
    """
    vec = as_vector(f, dec.dim)
    norm_f = _norm(vec)
    if norm_f == 0.0:
        return 0.0
    r = params.r
    theta = params.alpha / r
    lam_max = dec.lambda_max
    if lam_max == 0.0:
        return norm_f  # K(t, f) = 0: take g = f, the seminorm vanishes
    t_min = 1e-6 / lam_max ** r
    t_max = 1e6
    u = np.linspace(math.log(t_min), math.log(t_max), _K_GRID_POINTS)
    ts = [math.exp(ui) for ui in u]  # scalar exp: array exp may differ in the last bit
    k_vals, e = _k_functional_values(dec, vec, ts, r, domain_norm)
    scaled = np.exp(-theta * u) * k_vals
    if params.is_sup:
        return norm_f + math.ldexp(float(np.max(scaled)), e)
    integral = float(np.trapezoid(scaled ** params.q, u))
    return norm_f + math.ldexp(integral ** (1.0 / params.q), e)


# -- modulus-based seminorm and the two inverse-theorem lemmas -----------------

#: log-grid shifts ``s`` at which the modulus seminorm is evaluated
_SEMINORM_GRID_POINTS = 512


def besov_seminorm_sup(dec: SpectralDecomposition, f, alpha: float, n: int, r: int) -> float:
    """``sup over s > 0`` of ``s^{n - alpha} Omega_r(D^n f, s)``.

    Evaluated on a log grid of ``_SEMINORM_GRID_POINTS`` (512) shifts
    spanning ``[0.01 / lambda_max, 100 / lambda_min_positive]``.  Outside
    that range the scaled modulus decays: for large ``s`` the factor
    ``s^{n-alpha}`` kills the bounded modulus, for small ``s`` the modulus
    itself is ``O(s^r)`` and ``r > alpha - n`` makes the product vanish.

    ``Omega_r(g, s)`` is the running maximum over ``tau <= s`` of
    ``phi(tau) = ||Delta_tau^r g||``, so the moduli at every grid ``s`` come
    from the single shift scan of :func:`modulus`.  The scan stops at the
    last ``s`` that can still matter: ``Omega_r(g, s) <= 2^r ||g||``, so
    once ``s^{n-alpha} 2^r ||g||`` falls below ``max_s s^{n-alpha} phi(s)``
    (a lower bound of the supremum) no larger ``s`` can attain it, and
    stopping there changes nothing.  A scan beyond
    :data:`MAX_SCAN_ENTRIES` raises :class:`InvalidParamsError`.
    """
    if n < 0 or r < 1:
        raise InvalidParamsError("need n >= 0 and r >= 1")
    if not (alpha > n):
        raise InvalidOrderError(f"need alpha > n, got alpha={alpha}, n={n}")
    vec = as_vector(f, dec.dim)
    g = operator_power(dec, n, vec) if n > 0 else vec
    mag2, e = _scaled_mag2(spectral_transform(dec, g))
    if not np.any(mag2 > 0.0):
        return 0.0
    lam_max = dec.lambda_max
    lam_min_pos = dec.min_positive_eigenvalue
    if lam_min_pos == 0.0:
        return 0.0  # spectrum is {0}: the group is trivial, all differences vanish
    hi = 100.0 / lam_min_pos
    s_grid = np.exp(np.linspace(math.log(0.01 / lam_max), math.log(hi),
                                _SEMINORM_GRID_POINTS))
    # scalar powers, bit for bit the per-s weights of the definition
    weights = np.array([s ** (n - alpha) for s in s_grid])
    floor = float(np.max(weights * _difference_norms(dec.eigenvalues, mag2, s_grid, r)))
    cap = 2.0 ** r * math.sqrt(float(np.sum(mag2)))
    # the relative margin keeps rounding in the two sides from dropping a live s
    live = int(np.flatnonzero(weights * cap >= floor * (1.0 - 1e-9))[-1]) + 1
    omega = _running_modulus(dec.eigenvalues, mag2, s_grid[:live], r)
    return math.ldexp(float(np.max(weights[:live] * omega)), e)


@dataclass(frozen=True, eq=False)
class LemmaReport:
    """Empirical constant for one of the two inverse-theorem inequalities."""

    lhs: float
    rhs: float
    ratio: float
    vacuous: bool
    passed: bool


def _lemma_orders_ok(alpha: float, n: int, r: int):
    if not (alpha - n > 0.0 and r > alpha - n):
        raise InvalidOrderError(
            f"need r > alpha - n > 0, got alpha={alpha}, n={n}, r={r}")


def lemma1_check(dec: SpectralDecomposition, f, alpha: float, n: int, r: int) -> LemmaReport:
    """Measure ``sup_s s^alpha E(f, s)`` against the modulus seminorm.

    The inequality direction says the sup is bounded by a constant times
    the seminorm; the returned ratio is that empirical constant.  Both
    sides zero is reported as a vacuous pass.
    """
    _lemma_orders_ok(alpha, n, r)
    vec = as_vector(f, dec.dim)
    lhs = sup_scaled_best_approx(dec, vec, alpha)
    rhs = besov_seminorm_sup(dec, vec, alpha, n, r)
    norm_f = _norm(vec)
    ratio, vacuous = _safe_ratio(lhs, rhs, norm_f)
    return LemmaReport(lhs=lhs, rhs=rhs, ratio=ratio, vacuous=vacuous,
                       passed=bool(math.isfinite(ratio)))


def lemma2_check(dec: SpectralDecomposition, f, alpha: float, n: int, r: int) -> LemmaReport:
    """Measure the modulus seminorm against ``||f|| + sup_s s^alpha E(f, s)``."""
    _lemma_orders_ok(alpha, n, r)
    vec = as_vector(f, dec.dim)
    lhs = besov_seminorm_sup(dec, vec, alpha, n, r)
    t_val = sup_scaled_best_approx(dec, vec, alpha)
    norm_f = _norm(vec)
    rhs = norm_f + t_val
    ratio, vacuous = _safe_ratio(lhs, rhs, norm_f)
    return LemmaReport(lhs=lhs, rhs=rhs, ratio=ratio, vacuous=vacuous,
                       passed=bool(math.isfinite(ratio)))
