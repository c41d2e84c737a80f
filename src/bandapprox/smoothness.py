"""Moduli of continuity, K-functionals and Besov-type norms.

Smoothness of a vector relative to the operator ``D`` is measured three
equivalent ways:

* decay of the best approximation ``E(f, s)`` by bandlimited vectors,
  turned into integral/discrete norms.  Because the spectrum is finite,
  ``E(f, .)`` is a right-continuous step function constant between
  consecutive distinct eigenvalues, so the integral norms are evaluated
  in closed form with no quadrature error.  The distances at all band
  edges come from one coefficient transform;
* the Peetre K-functional between ``H`` and the domain of ``D^r``: the
  lower envelope of the lines ``||f - g_s|| + t ||D^r g_s||`` along the
  Tikhonov family ``g_s = (I + s D^{2r})^{-1} f``, the Pareto frontier of
  the two norms (see ``_k_functional_values``);
* moduli of continuity built from the unitary group ``e^{itD}``:
  ``Omega_m(g, s)`` is the running maximum of ``||Delta_tau^m g||`` over
  ``tau <= s``, so one shift scan serves :func:`modulus` and the modulus
  seminorm (see ``_running_modulus``), with no grid cap.

The norms, the modulus inequalities and the lemmas take ``f`` as a block of rows (see
``operators``), with one shift scan per order and one K path per ``r``: the scan grid
and the log-s path do not depend on ``f``, and every sum over the eigenvalues is one
per row and point, so a row's bits do not depend on its block.  ``_besov_norms`` reads every
``(alpha, q, flavor)`` of a block off one pass per vector (the E or R distances per
route and base, ``K(t)`` per ``r``, the seminorm per ``(alpha, r)``);
:func:`besov_norm` and :func:`k_besov_norm` are its one-parameter calls.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidOrderError, InvalidParamsError, NonPositiveTError
from .operators import (
    SpectralDecomposition,
    _broadcast,
    _check_order,
    _coefficients,
    _is_int,
    _norm,
    _power_coefficients,
    _scaled,
    _scaled_mag2,
    _shaped,
    _unscaled,
    _weighted,
    apply_multiplier,
    as_vector,
)
from .paley_wiener import _band_powers, _check_q, _distances, _lq_norm, _step_nodes, band_count

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
        if not (_is_int(r) and r >= 1):
            raise InvalidParamsError(f"r must be a positive integer, got {r!r}")
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
    _check_order(m, 1)
    return apply_multiplier(dec, lambda lam: (np.exp(1j * tau * lam) - 1.0) ** m, f)


def _difference_norms(eigenvalues, mag2, taus, m):
    """``||Delta_tau^m g||`` from ``|c|^2`` (rows ``mag2``), each one sum over the last axis."""
    # one expression, so no sine array outlives its power
    powers = (2.0 * np.abs(np.sin(np.multiply.outer(taus, eigenvalues) / 2.0))) ** (2 * m)
    return np.sqrt(np.maximum(np.sum(powers * mag2, axis=-1), 0.0))


#: scan points per shortest period of ``||Delta_tau^m g||^2`` (frequency m lambda_max)
_SCAN_PER_PERIOD = 8

#: bound on scan points times dimension times rows held in memory at once
_SCAN_CHUNK_ENTRIES = 1 << 20

#: clipped Newton steps refining each local maximum of a shift scan
_PEAK_NEWTON_STEPS = 6

#: largest shift scan, in scan points times dimension; at the 75-100 ns per
#: entry measured on a 2-vCPU host (refinement included) it takes 80-110 s
MAX_SCAN_ENTRIES = 1 << 30


def _running_modulus(eigenvalues, mag2, s_rows, m: int) -> list:
    """``Omega_m(g_i, s)`` at each of the ascending ``s_rows[i]`` of every row ``mag2[i]``.

    ``phi(tau) = ||Delta_tau^m g||`` is sampled at ``tau = k * step`` up to the largest ``s``,
    with ``_SCAN_PER_PERIOD`` points per period ``2 pi / (m lambda_max)`` of its fastest
    component, in chunks so memory stays bounded.  Row ``i`` owns the points up to two past
    its last ``s`` (so a maximum just below any ``s`` is interior, and the row's values do not
    depend on its block).  Every interior local maximum ``tau_j`` of a row's points is refined
    by ``_PEAK_NEWTON_STEPS`` Newton steps on the closed-form first and second derivatives of
    ``phi^2 = sum |c|^2 (2 - 2 cos tau lambda)^m``, clipped to ``[tau_{j-1}, tau_{j+1}]``;
    the best value evaluated counts.  Every sampled point, refined maximum and ``phi(s)``
    lands in the row's bin of the first ``s >= tau``; the running maximum over the bins is
    the modulus.  A scan of more than :data:`MAX_SCAN_ENTRIES` points times dimension raises
    :class:`InvalidParamsError`.
    """
    def neg_phi(taus, weights):
        """``-phi`` and the slope and curvature of ``-phi^2``, via ``v = 2 - 2 cos(tau lambda)``."""
        x = np.multiply.outer(taus, eigenvalues)  # v'' = 2 lambda^2 cos x = lambda^2 (2 - v)
        sins = 2.0 * np.abs(np.sin(x / 2.0))
        v, dv = sins ** 2, 2.0 * eigenvalues * np.sin(x)
        d1 = v ** (m - 1) * dv
        d2 = (m - 1) * v ** max(m - 2, 0) * dv ** 2 + v ** (m - 1) * eigenvalues ** 2 * (2.0 - v)
        return (-np.sqrt(np.maximum(np.sum(sins ** (2 * m) * weights, axis=-1), 0.0)),
                -m * np.sum(d1 * weights, axis=-1), -m * np.sum(d2 * weights, axis=-1))

    step = 2.0 * math.pi / (_SCAN_PER_PERIOD * m * float(eigenvalues[-1]))
    ends = np.array([math.ceil(s[-1] / step) + 2 for s in s_rows])  # each row's own points
    n_scan = int(ends.max())
    if n_scan * eigenvalues.size > MAX_SCAN_ENTRIES:
        raise InvalidParamsError(
            f"shift scan up to s = {max(s[-1] for s in s_rows)} needs {n_scan} points at "
            f"dimension {eigenvalues.size}, more than MAX_SCAN_ENTRIES = {MAX_SCAN_ENTRIES}")
    # each row's last bin takes every tau beyond its last s
    bins = [np.append(_difference_norms(eigenvalues, g, s, m), 0.0) for g, s in zip(mag2, s_rows)]
    chunk = max(16, _SCAN_CHUNK_ENTRIES // (eigenvalues.size * len(s_rows)))
    for start in range(0, n_scan, chunk):
        # one point of overlap on each side, so every interior point sees its neighbours
        index = np.arange(max(start - 1, 0), min(start + chunk + 1, n_scan))
        taus = index * step
        vals = _difference_norms(eigenvalues, mag2, taus[:, None], m)  # points x rows
        at, row = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])
                             & (index[1:-1, None] < ends - 1))
        peak_taus, peak_vals = _clipped_newton(lambda t, w=mag2[row]: neg_phi(t, w), taus[at + 1],
                                               taus[at], taus[at + 2], _PEAK_NEWTON_STEPS)
        for i, (s, b) in enumerate(zip(s_rows, bins)):
            mine = row == i
            np.maximum.at(b, np.searchsorted(s, np.concatenate((taus, peak_taus[mine]))),
                          np.concatenate((vals[:, i], -peak_vals[mine])))
    return [np.maximum.accumulate(b[:-1]) for b in bins]


def _moduli(dec: SpectralDecomposition, c, e, s_values, m: int) -> np.ndarray:
    """``Omega_m(f_i, s)``, any ``m``, at ``s_values`` (broadcast) of each row ``c_i 2^{e_i}``."""
    s_values = np.asarray(s_values, dtype=np.float64)
    bad = ~(np.isfinite(s_values) & (s_values >= 0.0))
    if np.any(bad):
        raise InvalidParamsError(f"s must be finite and >= 0, got {s_values[bad][0]}")
    _check_order(m, 0)
    shape = c.shape[:-1] + s_values.shape[-1:]
    s_values = np.broadcast_to(s_values, shape).reshape(-1, shape[-1])
    mag2, e = _scaled_mag2(c.reshape(-1, c.shape[-1]), np.reshape(e, -1))
    omega = np.zeros(s_values.shape) + (np.sqrt(np.sum(mag2, axis=-1))[:, None] if m == 0 else 0)
    live = np.any(mag2 > 0.0, axis=-1) & np.any(s_values > 0.0, axis=-1)
    if m > 0 and dec.lambda_max > 0.0 and np.any(live):
        order = np.argsort(s_values[live], axis=-1)
        scans = _running_modulus(dec.eigenvalues, mag2[live],
                                 list(np.take_along_axis(s_values[live], order, axis=-1)), m)
        omega[live] = np.take_along_axis(np.array(scans), np.argsort(order, axis=-1), axis=-1)
    return _unscaled(omega, e[:, None]).reshape(shape)


def modulus(dec: SpectralDecomposition, f, s: float, m: int) -> float:
    """Modulus of continuity: ``sup over |tau| <= s`` of the m-th difference norm.

    The objective is even in ``tau``, so one shift scan of ``[0, s]`` (see
    ``_running_modulus``) gives it.  ``m = 0`` returns ``||f||`` (the
    zeroth difference is the identity).  ``s`` must be finite and ``>= 0``.
    """
    _, c, e = _coefficients(dec, as_vector(f, dec.dim))
    return float(_moduli(dec, c, e, [s], m)[0])


@dataclass(frozen=True, eq=False)
class ModulusInequalityReport:
    """Measured ratios for the two modulus inequalities.

    ``ratio_power``:  Omega_m(f, s) / (s^k Omega_{m-k}(D^k f, s))
    ``ratio_scale``:  Omega_m(f, a s) / ((1+a)^m Omega_m(f, s))
    The inequalities say both are at most 1.  A ratio is 0 when both of its
    sides vanish and ``inf`` when only the right side does.
    """

    ratio_power: float
    ratio_scale: float


def _safe_ratio(num: float, den: float, scale: float) -> float:
    """``num / den``, or 0 when both vanish next to ``scale`` and ``inf`` when only ``den`` does."""
    if den <= 1e-14 * scale:
        return 0.0 if num <= 1e-12 * scale else math.inf
    return num / den


def modulus_inequality_checks(dec: SpectralDecomposition, f, s, a_scale, m,
                              k) -> ModulusInequalityReport:
    """Measure the power-transfer and scale-doubling modulus inequalities, one trial per
    element of the broadcast shape of ``s``, ``a_scale``, ``m``, ``k`` and the rows of ``f``.

    One shift scan per order ``m`` gives ``Omega_m(f, s)`` and ``Omega_m(f, a s)``, one per
    order ``m - k`` gives ``Omega_{m-k}(D^k f, s)``; at ``k = 0`` that is ``Omega_m(f, s)``.
    """
    v, c, e = _coefficients(dec, f)
    shape, rows, params = _broadcast(c, s, a_scale, m, k)
    s_values, a_scales, orders, powers = (p.tolist() for p in params)
    for m, k, a_scale in zip(orders, powers, a_scales):
        _check_order(m, 0, k=k)
        if a_scale <= 0.0:
            raise InvalidParamsError("a_scale must be positive")
    norms = _norm(v.reshape(-1, dec.dim), np.ravel(e)).tolist()
    c, e = c.reshape(-1, dec.dim)[rows], np.ravel(e)[rows]
    lhs = np.empty((len(rows), 2))
    for m in set(orders):
        trials = [i for i, m_i in enumerate(orders) if m_i == m]
        lhs[trials] = _moduli(dec, c[trials], e[trials],
                              [[s_values[i], a_scales[i] * s_values[i]] for i in trials], m)
    rhs = lhs[:, 0].copy()
    for j in {m - k for m, k in zip(orders, powers) if k}:
        trials = [i for i, (m, k) in enumerate(zip(orders, powers)) if k and m - k == j]
        dk_c = np.array([_power_coefficients(dec, c[i], powers[i]) for i in trials])
        moduli = _moduli(dec, dk_c, e[trials], [[s_values[i]] for i in trials], j)[:, 0].tolist()
        rhs[trials] = [s_values[i] ** powers[i] * x for i, x in zip(trials, moduli)]
    ratios = [(_safe_ratio(left, right, norms[row]),
               _safe_ratio(left_a, (1.0 + a_i) ** m * left, norms[row]))
              for (left, left_a), right, row, a_i, m
              in zip(lhs.tolist(), rhs.tolist(), rows.tolist(), a_scales, orders)]
    return ModulusInequalityReport(*(_shaped(x, shape) for x in np.reshape(ratios, (-1, 2)).T))


# -- step-function machinery for the approximation norms ----------------------

def _integral_norm(nodes, values, alpha, q):
    """``(integral of (s^alpha E(f,s))^q ds/s)^{1/q}`` over (0, inf) in closed form; sup at q = inf.

    ``values[i]`` is ``E(f, .)`` on ``[nodes[i], nodes[i+1])``, where the supremum of
    ``s^alpha * const`` sits at the right end, so the sup is a finite maximum.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf weights (and inf - inf): _weighted
        if q == math.inf:
            return _lq_norm(_weighted(nodes[1:] ** alpha, values), math.inf)
        aq = alpha * q
        scaled, e = _scaled(values)
        pieces = _weighted(nodes[1:] ** aq - nodes[:-1] ** aq, scaled ** q) / aq
    return _unscaled(float(np.sum(pieces)) ** (1.0 / q), e)


def sup_scaled_best_approx(dec: SpectralDecomposition, f, alpha: float,
                           route: str = "E") -> float:
    """``sup over s > 0`` of ``s^alpha E(f, s)``, exact for step functions.

    ``alpha`` must lie in ``[0, inf)``: below 0 the supremum is infinite.
    """
    if not (0.0 <= alpha < math.inf):
        raise InvalidParamsError(f"alpha must be in [0, inf), got {alpha}")
    nodes = _step_nodes(dec)
    values = _distances(dec, _coefficients(dec, as_vector(f, dec.dim)), nodes[:-1], route)
    return _integral_norm(nodes, values, alpha, math.inf)


def _edge_distances(dec: SpectralDecomposition, fc, a: float, route: str) -> np.ndarray:
    """Distances to ``PW_{a^k}``, k < K with ``a^K >= lambda_max``: exact, as the rest vanish."""
    return _distances(dec, fc, _band_powers(a, band_count(dec.lambda_max, a)), route)


def _discrete_norm(distances: np.ndarray, alpha: float, q: float, a: float) -> float:
    """``(sum_k (a^{k alpha} d_k)^q)^{1/q}`` (the max at ``q = inf``) of band-edge distances."""
    return _lq_norm(_weighted(_band_powers(a, distances.size, alpha), distances), q)


def besov_norm(dec: SpectralDecomposition, f, params: BesovParams) -> float:
    """One of the equivalent smoothness norms, selected by ``params.flavor``.

    The E flavors measure the decay of the best approximation computed in
    the vector domain; the R flavors measure the coefficient tail.  The
    two families agree to near machine precision, which downstream checks
    exploit.  Integral flavors are exact (piecewise evaluation); discrete
    flavors truncate where the terms become identically zero.  A block ``f``
    gives one norm per row.
    """
    return _shaped(_besov_norms(dec, _coefficients(dec, f), [params])[..., 0])


def _besov_norms(dec: SpectralDecomposition, fc, params_list,
                 domain_norm: str = "seminorm") -> np.ndarray:
    """:func:`besov_norm` of every row of ``fc = (v, c, e)`` (``_coefficients`` of a block) for
    every ``BesovParams`` (a last axis), in one pass (see the module notes); a
    ``k_functional`` column measures ``K`` in ``domain_norm``, as :func:`k_besov_norm` does.
    """
    nodes = _step_nodes(dec)
    lam_max = dec.lambda_max
    v, c, e = fc
    lead = c.shape[:-1]
    v, c, e = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), np.ravel(e)

    @functools.cache
    def k_values(r):
        """``u = log t`` on the t-grid of order ``r`` (from 1e-6 if lambda_max = 0) and ``K(t)``."""
        u = np.linspace(math.log(1e-6 / (lam_max ** r if lam_max > 0.0 else 1.0)),
                        math.log(1e6), _K_GRID_POINTS)
        # scalar exp: array exp may differ in the last bit
        return u, _k_functional_values(dec, c, e, [math.exp(ui) for ui in u], r, domain_norm)

    seminorm = functools.cache(lambda alpha, r: _seminorm_sup(dec, c, e, alpha, 0, r))
    table = np.empty((len(c), len(params_list)))
    for i, (row, norm_f, fc) in enumerate(zip(table, _norm(v, e).tolist(), zip(v, c, e.tolist()))):
        # this vector's distances, each computed on first use
        step = functools.cache(lambda route: _distances(dec, fc, nodes[:-1], route))
        edges = functools.cache(lambda route, a: _edge_distances(dec, fc, a, route))
        for j, p in enumerate(params_list):
            route = "E" if p.flavor.endswith("_E") else "R"
            if p.flavor == "modulus":
                tail = float(seminorm(p.alpha, p.r)[i])
            elif p.flavor == "k_functional":
                u, (k_vals, d) = k_values(p.r)
                scaled = np.exp(-(p.alpha / p.r) * u) * k_vals[i]
                tail = _unscaled(float(np.max(scaled)) if p.is_sup else
                                 float(np.trapezoid(scaled ** p.q, u)) ** (1.0 / p.q), d[i])
            elif p.flavor.startswith("integral"):
                tail = _integral_norm(nodes, step(route), p.alpha, p.q)
            else:
                tail = _discrete_norm(edges(route, p.a), p.alpha, p.q, p.a)
            row[j] = norm_f + tail
    return table.reshape(lead + (len(params_list),))


# -- Peetre K-functional -------------------------------------------------------

#: log-s grid points per unit of ``log s`` on the Tikhonov path
_PATH_GRID_DENSITY = 4

#: clipped Newton steps refining each ``t`` inside its grid bracket
_K_NEWTON_STEPS = 4

#: log-grid points ``t`` of the K-functional norm's quadrature
_K_GRID_POINTS = 200


def _k_functional_values(dec: SpectralDecomposition, c, e, ts, r: int,
                         domain_norm: str) -> tuple:
    """``(K_i(t) 2^-d_i, d)`` for every ``t`` in ``ts``: the lower envelope along the Tikhonov path.

    From the coefficient rows ``c_i 2^{e_i}``, ``A(s)`` and ``B(s)`` are
    evaluated once on a log-s grid over ``[1e-12 / max w, 1e12 / min w]``
    (``w > 0``, so every row shares it) and ``min_s A + t B`` is taken for
    all ``t`` in one broadcast minimum.  With ``u = log s`` and ``x = s w``,
    ``dA^2/du = 2 sum |c|^2 x^2 / (1+x)^3 = -s dB^2/du``, so ``A + t B``
    is stationary where ``g(u) = u + log(B / A) = log t``, and ``g``
    increases (the frontier is convex).  Each ``(row, t)`` is bracketed on
    its grid values of ``g`` and refined by ``_K_NEWTON_STEPS`` clipped
    Newton steps; a ``t`` outside their range has its minimum at a path
    endpoint, ``g = f`` or ``g = projection onto ker W``, both candidates
    for every ``t``.  Only coefficients outside ``ker W`` enter, each row
    scaled by ``2^-d_i`` (see ``_scaled_mag2``).
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
    mag2, d = _scaled_mag2(np.where(w > 0.0, c, 0.0), e)
    live = np.any(mag2 > 0.0, axis=-1)
    k_vals, d = np.zeros((len(mag2), ts.size)), np.where(live, d, 0)
    if not np.any(live):
        return k_vals, d  # f in ker W: K(t) = 0 at g = f
    mag2 = mag2[live]

    def path(log_s, mag2):
        """``A``, ``B`` and ``P = sum |c|^2 x^2 / (1+x)^3`` at each ``s = exp(log_s)``."""
        sw = np.multiply.outer(np.exp(log_s), w)
        one_sw = 1.0 + sw
        a_terms = mag2 * (sw / one_sw) ** 2
        b2 = np.sum(mag2 * w / one_sw ** 2, axis=-1)
        return np.sqrt(np.sum(a_terms, axis=-1)), np.sqrt(b2), np.sum(a_terms / one_sw, axis=-1)

    # endpoints of the path: g = f (s -> 0) and g = projection onto ker W
    values = np.minimum(ts * np.sqrt(np.sum(mag2 * w, axis=-1))[:, None],
                        np.sqrt(np.sum(mag2.compress(w > 0.0, axis=-1), axis=-1))[:, None])
    w_pos = w[w > 0.0]
    lo = math.log(1e-12 / float(w_pos.max()))
    hi = math.log(1e12 / float(w_pos.min()))
    u = np.linspace(lo, hi, math.ceil(_PATH_GRID_DENSITY * (hi - lo)) + 1)
    a_u, b_u, _ = path(u, mag2[:, None])  # rows x grid
    g_u = u + np.log(b_u / a_u)
    log_ts = np.log(ts)
    # row by row: a rows x t x grid block would be large
    values = np.minimum(values, [np.min(a + ts[:, None] * b, axis=1) for a, b in zip(a_u, b_u)])
    j = np.array([np.searchsorted(g, log_ts) for g in g_u])
    row, col = np.nonzero((j > 0) & (j < u.size))
    j, t_in, log_t = j[row, col], ts[col], log_ts[col]

    def line(log_s):
        """``A + t B``, ``g - log t`` and ``dg/du = 1 - P / A^2 - P / (s B^2)``."""
        a, b, p = path(log_s, mag2[row])
        return (a + t_in * b, log_s + np.log(b / a) - log_t,
                1.0 - p / a ** 2 - p / (np.exp(log_s) * b ** 2))

    # secant start inside each bracket g(u[j-1]) < log t <= g(u[j])
    g_lo, g_hi = g_u[row, j - 1], g_u[row, j]  # the bracket of each (row, t)
    start = u[j - 1] + (log_t - g_lo) / (g_hi - g_lo) * (u[j] - u[j - 1])
    _, refined = _clipped_newton(line, start, u[j - 1], u[j], _K_NEWTON_STEPS)
    values[row, col] = np.minimum(values[row, col], refined)
    k_vals[live] = values
    return k_vals, d


def k_functional(dec: SpectralDecomposition, f, t: float, r: int,
                 domain_norm: str = "seminorm") -> float:
    """``inf over g`` of ``||f - g|| + t ||D^r g||`` (Peetre K-functional).

    The lower envelope along the Tikhonov family ``g_s = (I + s W)^{-1} f``
    with ``W = D^{2r}`` (see ``_k_functional_values``), exact up to
    rounding.  With ``domain_norm="graph"`` the second term is the graph
    norm ``(||g||^2 + ||D^r g||^2)^{1/2}`` and ``W = I + D^{2r}``.
    """
    _, c, e = _coefficients(dec, as_vector(f, dec.dim))
    values, d = _k_functional_values(dec, c[None], [e], [t], r, domain_norm)
    return _unscaled(float(values[0, 0]), d[0])


def k_besov_norm(dec: SpectralDecomposition, f, params: BesovParams,
                 domain_norm: str = "seminorm") -> float:
    """Interpolation-space norm built from the K-functional.

    ``||f|| + (integral of (t^{-alpha/r} K(t, f))^q dt/t)^{1/q}`` by
    trapezoidal quadrature on a ``_K_GRID_POINTS`` (200) point log grid
    ``t in [1e-6 / lambda_max^r, 1e6]``, or ``[1e-6, 1e6]`` on the spectrum
    {0}, where ``W = I`` for the graph norm.  Outside the grid
    ``K(t, f) <= min(||f||-type, t ||D^r f||)`` makes the tails negligible.
    ``K`` is evaluated for all grid ``t`` in one pass and integrated in units
    of a power of two, so no scale of ``f`` overflows.  ``params.flavor`` is
    ignored: this is the ``k_functional`` flavor of :func:`besov_norm`, with
    the second term measured in ``domain_norm``.
    """
    return _shaped(_besov_norms(dec, _coefficients(dec, f),
                                [replace(params, flavor="k_functional")], domain_norm)[..., 0])


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

    The moduli at every grid ``s`` come from one shift scan (see :func:`modulus`), which
    stops at the last ``s`` that can still matter: ``Omega_r(g, s) <= 2^r ||g||``, so once
    ``s^{n-alpha} 2^r ||g||`` falls below ``max_s s^{n-alpha} ||Delta_s^r g||`` (a lower
    bound of the supremum) no larger ``s`` can attain it.
    """
    _, c, e = _coefficients(dec, as_vector(f, dec.dim))
    return float(_seminorm_sup(dec, c[None], [e], alpha, n, r)[0])


def _seminorm_sup(dec: SpectralDecomposition, c, e, alpha: float, n: int, r: int) -> np.ndarray:
    """:func:`besov_seminorm_sup` of every row ``c_i 2^{e_i}`` of a block, from one shift scan."""
    _check_order(r, 1)
    if n < 0:
        raise InvalidParamsError(f"need n >= 0, got {n}")
    if not (alpha > n):
        raise InvalidOrderError(f"need alpha > n, got alpha={alpha}, n={n}")
    mag2, e = _scaled_mag2(_power_coefficients(dec, c, n), e)
    live, sup = np.any(mag2 > 0.0, axis=-1), np.zeros(len(mag2))
    lam_min_pos = dec.min_positive_eigenvalue
    if lam_min_pos == 0.0 or not np.any(live):
        return sup  # f = 0, or the spectrum is {0}: the group is trivial, all differences vanish
    mag2 = mag2[live]
    s_grid = np.exp(np.linspace(math.log(0.01 / dec.lambda_max), math.log(100.0 / lam_min_pos),
                                _SEMINORM_GRID_POINTS))
    # scalar powers, bit for bit the per-s weights of the definition
    weights = np.array([s ** (n - alpha) for s in s_grid])
    floor = np.max(weights * _difference_norms(dec.eigenvalues, mag2, s_grid[:, None], r).T,
                   axis=-1)
    cap = 2.0 ** r * np.sqrt(np.sum(mag2, axis=-1))
    # the relative margin keeps rounding in the two sides from dropping a live s
    ends = [int(np.flatnonzero(weights * cap_i >= floor_i * (1.0 - 1e-9))[-1]) + 1
            for cap_i, floor_i in zip(cap, floor)]
    omega = _running_modulus(dec.eigenvalues, mag2, [s_grid[:end] for end in ends], r)
    sup[live] = _unscaled([np.max(weights[:end] * row) for end, row in zip(ends, omega)], e[live])
    return sup


@dataclass(frozen=True, eq=False)
class LemmaReport:
    """Empirical constant for one of the two inverse-theorem inequalities."""

    lhs: float
    rhs: float
    ratio: float


def _lemma_reports(dec: SpectralDecomposition, fc, alpha: float, n: int, r: int) -> tuple:
    """The :func:`lemma1_check` and :func:`lemma2_check` reports of the rows of
    ``fc = (v, c, e)`` (``_coefficients`` of a block), from one shift scan."""
    if not (alpha - n > 0.0 and r > alpha - n):
        raise InvalidOrderError(f"need r > alpha - n > 0, got alpha={alpha}, n={n}, r={r}")
    v, c, e = fc
    shape, nodes = c.shape[:-1], _step_nodes(dec)
    v, c, e = fc = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), np.ravel(e)
    semis = _seminorm_sup(dec, c, e, alpha, n, r).tolist()
    sups = [_integral_norm(nodes, row, alpha, math.inf)  # sup_s s^alpha E(f, s) of each row
            for row in _distances(dec, fc, nodes[:-1, None], "E").T]
    sides = [(sup_e, semi, _safe_ratio(sup_e, semi, norm_f),  # lemma 1, then lemma 2
              semi, norm_f + sup_e, _safe_ratio(semi, norm_f + sup_e, norm_f))
             for sup_e, semi, norm_f in zip(sups, semis, _norm(v, e).tolist())]
    sides = [_shaped(x, shape) for x in np.reshape(sides, (-1, 6)).T]
    return LemmaReport(*sides[:3]), LemmaReport(*sides[3:])


def lemma1_check(dec: SpectralDecomposition, f, alpha: float, n: int, r: int) -> LemmaReport:
    """Measure ``sup_s s^alpha E(f, s)`` against the modulus seminorm.

    The inequality direction says the sup is bounded by a constant times
    the seminorm; the returned ratio is that empirical constant, 0 when
    both sides vanish.  A block ``f`` gives arrays, from one shift scan.
    """
    return _lemma_reports(dec, _coefficients(dec, f), alpha, n, r)[0]


def lemma2_check(dec: SpectralDecomposition, f, alpha: float, n: int, r: int) -> LemmaReport:
    """Measure the modulus seminorm against ``||f|| + sup_s s^alpha E(f, s)``, rows as in
    :func:`lemma1_check`."""
    return _lemma_reports(dec, _coefficients(dec, f), alpha, n, r)[1]
