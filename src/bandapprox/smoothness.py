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
  the two norms (see ``_k_path``), which also gives the K-functional norm
  between two closed-form ends, with no grid of ``t`` (:func:`k_besov_norm`);
* moduli of continuity built from the unitary group ``e^{itD}``:
  ``Omega_m(g, s)`` is the running maximum of ``||Delta_tau^m g||`` over
  ``tau <= s``, so one shift scan serves :func:`modulus` and, as the supremum
  of ``tau^{n-alpha} ||Delta_tau^r D^n f||``, the modulus seminorm (see
  ``_running_modulus``), with no grid of ``s`` and no grid cap.

The norms, the modulus inequalities and the lemmas take ``f`` as a block of rows (see
``operators``), with one shift scan per order and one K path per ``r``: the scan points and the
log-s path do not depend on ``f`` (a seminorm row stops on its own).  They see ``f`` through its
spectral measure (``operators._measure``, the norm of each eigenspace), squared at each row's own
scale, and every sum over its nodes is one per row and point, so a row's bits do not depend on
its block.  :func:`besov_norm` and :func:`k_besov_norm` also take a parameter axis (array fields
of one ``BesovParams``): ``_besov_norms`` evaluates every element of the broadcast shape once,
from what its elements share, computed once per call for the rows that need it (the E or R
distances per base, the K path per ``r``, the seminorm per ``(alpha, r)``), and reduces the
elements of each ``(alpha, q)`` as one rows x terms table.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidOrderError, InvalidParamsError, NonPositiveTError
from .operators import (
    SpectralDecomposition,
    _axis,
    _broadcast,
    _broadcast_shapes,
    _check_order,
    _check_scalar,
    _coefficients,
    _finite,
    _is_int,
    _measure,
    _norm,
    _powered,
    _scaled,
    _shaped,
    _unscaled,
    _weighted,
    apply_multiplier,
)
from .paley_wiener import _band_edges, _band_powers, _check_q, _distances, _lq_norm
from .paley_wiener import _step_nodes, _tails

#: selectable smoothness-norm flavors
BESOV_FLAVORS = ("integral_E", "discrete_E", "integral_R", "discrete_R",
                 "k_functional", "modulus")


def _clipped_newton(fn, x, lo, hi, steps: int) -> tuple:
    """Newton steps from ``x`` clipped to the brackets ``[lo, hi]``, all brackets at once.

    ``fn(x)`` gives ``(objective, h / |dh|)``: ``h`` has the sign of the
    objective's slope and ``dh`` is its derivative.  A step moves to
    ``x - h / |dh|``, so it never heads uphill.  Returns the abscissa and
    value of the smallest objective evaluated; NaN (``dh = 0``) never wins.
    """
    best_x, best = x, np.full(np.shape(x), np.inf)
    if not best.size:  # no bracket: no evaluation of fn
        return best_x, best
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps + 1):
            value, delta = fn(x)
            better = value < best
            best_x, best = np.where(better, x, best_x), np.where(better, value, best)
            x = np.clip(x - delta, lo, hi)
    return best_x, best


@dataclass(frozen=True)
class BesovParams:
    """Smoothness parameters: exponent alpha, integrability q, order r, base a, one flavor.

    ``q = math.inf`` selects the supremum forms.  ``r`` is only active for
    the K-functional and modulus flavors but is validated for all of them;
    if omitted, the smallest admissible order is chosen.  ``alpha``, ``q``,
    ``r`` and ``a`` may be arrays that broadcast against each other and
    against the rows of ``f``, one norm per element: each element is
    validated and takes its own default ``r``, and the fields are kept as
    read-only arrays (such params neither compare nor hash).
    """

    alpha: float
    q: float
    r: int | None = None
    a: float = 2.0
    flavor: str = "integral_E"

    def __post_init__(self):
        if self.flavor not in BESOV_FLAVORS:
            raise InvalidParamsError(f"unknown flavor {self.flavor!r}")
        fields = (self.alpha, self.q, self.r, self.a)
        if any(isinstance(x, (list, tuple, np.ndarray)) for x in fields):  # a parameter axis
            arrays = [_axis(x, None) for x in fields]
            shape = _broadcast_shapes(*(x.shape for x in arrays))
            r = np.reshape([BesovParams(*element, flavor=self.flavor).r for element in zip(
                *(np.broadcast_to(x, shape).ravel().tolist() for x in arrays))], shape)
            for name, x in zip(("alpha", "q", "r", "a"), (*arrays[:2], r, arrays[3])):
                x = x.astype(int if name == "r" else np.float64)
                x.flags.writeable = False
                object.__setattr__(self, name, x)
            return
        if not (0.0 < self.alpha < math.inf):
            raise InvalidParamsError(f"alpha must be in (0, inf), got {self.alpha}")
        _check_q(self.q)
        if not (self.a > 1.0):
            raise InvalidParamsError(f"base a must be > 1, got {self.a}")
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


# -- difference operator and modulus of continuity ----------------------------

def difference(dec: SpectralDecomposition, f, tau: float, m: int) -> np.ndarray:
    """m-th power of ``e^{i tau D} - I`` applied to ``f``.

    On coefficients this is multiplication by ``(e^{i tau lambda} - 1)^m``,
    which agrees with ``m`` successive first-order differences.
    """
    _check_order(m, 1)
    _check_scalar(tau, "tau")
    return apply_multiplier(dec, lambda lam: (np.exp(1j * tau * lam) - 1.0) ** m, f)


def _difference_norms(nodes, mass, taus, m):
    """``||Delta_tau^m g||`` from the spectral measure ``(nodes, mass)`` of ``g`` (``_measure``),
    each one sum over the last axis."""
    # one expression, so no sine array outlives its power
    powers = (2.0 * np.abs(np.sin(np.multiply.outer(taus, nodes) / 2.0))) ** (2 * m)
    return np.sqrt(np.maximum(np.sum(powers * mass, axis=-1), 0.0))


#: scan points per shortest period of ``||Delta_tau^m g||^2`` (frequency m lambda_max)
_SCAN_PER_PERIOD = 8

#: bound on scan points times nodes times rows held in memory at once
_SCAN_CHUNK_ENTRIES = 1 << 20

#: clipped Newton steps refining each local maximum of a shift scan
_PEAK_NEWTON_STEPS = 6

#: largest shift scan, in scan points times nodes (eigenspaces); at the 75-100 ns per
#: entry measured on a 2-vCPU host (refinement included) it takes 80-110 s
MAX_SCAN_ENTRIES = 1 << 30


def _running_modulus(nodes, mass, s_rows, m: int, beta: float = 0.0):
    """``Omega_m(g_i, s)`` at each of the ascending ``s_rows[i]`` of every row ``mass[i]`` of the
    spectral measures ``(nodes, mass)`` (``_measure``), or with ``beta > 0`` (no ``s_rows``) the
    seminorm ``sup_s s^-beta Omega_m(g_i, s)`` of each row.  Every sum runs over the G nodes.

    ``phi(tau) = ||Delta_tau^m g||`` is sampled at ``tau = k * step``, ``_SCAN_PER_PERIOD`` points
    per period ``2 pi / (m lambda_max)``, in chunks of 64 points doubling up to a memory bound.
    Each interior local maximum of a row's ``tau^-beta phi`` takes ``_PEAK_NEWTON_STEPS`` Newton
    steps on ``tau^-2beta phi^2`` within its neighbours, in ``x = tau lambda_max`` so no scale of
    ``D`` under- or overflows them; the best value evaluated counts.  A modulus row owns the
    points up to two past its last ``s``; each sample, refined maximum and ``phi(s)`` lands in
    its bin of the first ``s >= tau``, and the running maximum over the bins is the modulus.
    Each term of ``phi^2`` rises up to ``pi / lambda_max`` (point 4m), so a modulus scan starts
    there, with its neighbour 4m - 1, and each ``s`` up to it reads ``phi(s)`` from its bin.
    The seminorm is ``sup_tau tau^-beta phi`` (``s^-beta <= tau^-beta`` for ``tau <= s``); as
    ``phi <= 2^m ||g_perp||`` (``g_perp``: the part above ``lambda = 0``), a row stops at its
    first point where ``tau^-beta 2^m ||g_perp||`` is at most its best value.  A scan past
    :data:`MAX_SCAN_ENTRIES` points times nodes raises :class:`InvalidParamsError`, a weight
    ``tau^-beta`` or a power ``4^m`` past the largest double :class:`NonFiniteError`.
    """
    lam_max, limit = float(nodes[-1]), MAX_SCAN_ENTRIES // nodes.size
    nu, step = nodes / lam_max, 2.0 * math.pi / (_SCAN_PER_PERIOD * m * lam_max)
    with np.errstate(over="ignore"):  # tau^-beta is largest at the first point past 0
        _finite(np.float64(step) ** -beta, f"the weight tau^-beta = {step}^-{beta}")
        _finite(np.float64(4.0) ** m * np.sum(mass, axis=-1).max(initial=1.0),
                f"the power (2 sin)^(2m) = 4^{m} of the differences")

    def neg_phi(taus, weights):
        """``-tau^-beta phi`` and its Newton step in ``tau``, via ``u = (1 - cos(x nu)) / 2``."""
        theta = np.multiply.outer(taus, nodes)
        sins = 2.0 * np.abs(np.sin(theta / 2.0))
        u, du = (sins / 2.0) ** 2, nu * np.sin(theta) / 2.0  # u'' = nu^2 (1/2 - u)
        d1 = m * np.sum(u ** (m - 1) * du * weights, axis=-1)
        d2 = m * np.sum(((m - 1) * u ** max(m - 2, 0) * du ** 2
                         + u ** (m - 1) * nu ** 2 * (0.5 - u)) * weights, axis=-1)
        phi = np.sqrt(np.maximum(np.sum(sins ** (2 * m) * weights, axis=-1), 0.0))
        if beta:  # tau^-2beta phi^2 is stationary where d1 = 2 beta (phi^2 / 4^m) / x
            x, w = taus * lam_max, taus ** -beta
            t = np.sum(u ** m * weights, axis=-1) / x
            d1, d2 = d1 - 2.0 * beta * t, d2 - 2.0 * beta * (d1 - t) / x
            phi = np.where(w < math.inf, w * phi, math.nan)  # NaN never wins
        return -phi, -d1 / np.abs(d2) / lam_max

    if beta:  # each row runs until it stops
        ends, best = np.full(len(mass), np.iinfo(int).max), np.zeros(len(mass))
        cap = np.float64(2.0) ** m * np.sqrt(np.sum(mass[:, nodes > 0.0], axis=-1))
    else:  # each row owns its points up to two past its last s; its last bin takes the rest
        # (an end past the limit raises below, so the cap only keeps the count an integer)
        ends = (np.minimum(np.ceil(s_rows[:, -1] / step), limit) + 2).astype(int)
        bins = np.pad(_difference_norms(nodes, mass[:, None], s_rows, m), ((0, 0), (0, 1)))
    width = nodes.size if beta else max(nodes.size, s_rows.shape[1])  # points x s
    top = max(16, _SCAN_CHUNK_ENTRIES // (width * len(mass)))
    start, size = (0 if beta else 4 * m), min(64, top)  # pi / lambda_max is point 4m
    while (act := np.flatnonzero(ends > start + 1)).size:  # rows that own a point past start
        if start >= limit or not beta and ends.max() > limit:
            raise InvalidParamsError(f"shift scan past {limit} points: MAX_SCAN_ENTRIES / G")
        # one point of overlap on each side, so every interior point sees its neighbours
        index = np.arange(max(start - 1, 0), min(start + size + 1, ends[act].max()))
        taus = index * step
        vals = _difference_norms(nodes, mass[act], taus[:, None], m)  # points x rows
        if beta:
            with np.errstate(divide="ignore", invalid="ignore"):  # 1/0 at tau = 0, where phi = 0
                bounds = np.multiply.outer(weights := taus ** -beta, cap[act])  # NaN: no stop
            vals = _weighted(weights[:, None], vals)
        at, row = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])
                             & (index[1:-1, None] < ends[act] - 1))
        peak_taus, peak_vals = _clipped_newton(lambda t, w=mass[act[row]]: neg_phi(t, w),
                                               taus[at + 1], taus[at], taus[at + 2],
                                               _PEAK_NEWTON_STEPS)
        if beta:  # a point's value: its sample or the maximum refined from it
            np.maximum.at(vals, (at + 1, row), -peak_vals)
            own = (index >= start) & (index < start + size)
            running = np.maximum.accumulate(np.vstack((best[act], vals[own])), axis=0)[1:]
            stop = bounds[own] <= running
            last = np.where(done := stop.any(axis=0), stop.argmax(axis=0), len(running) - 1)
            best[act] = running[last, np.arange(act.size)]
            ends[act[done]] = start + last[done] + 1
        else:  # each sample and refined maximum into its row's bin, the count of its s below tau
            rows = np.concatenate((np.broadcast_to(act, vals.shape).ravel(), act[row]))
            points = np.concatenate((np.repeat(taus, act.size), peak_taus))
            np.maximum.at(bins, (rows, np.sum(s_rows[rows] < points[:, None], axis=-1)),
                          np.concatenate((vals.ravel(), -peak_vals)))
        start, size = start + size, min(2 * size, top)
    return best if beta else np.maximum.accumulate(bins[:, :-1], axis=-1)


def _moduli(measure, e, s_values, m: int) -> np.ndarray:
    """``Omega_m(f_i, s)``, any ``m``, at ``s_values`` (broadcast) of each row of a measure; at
    ``m >= 1`` from its groups above ``lambda = 0`` alone, at their scale (0, no scan, if none)."""
    s_values = np.asarray(s_values, dtype=np.float64)
    bad = ~(np.isfinite(s_values) & (s_values >= 0.0))
    if np.any(bad):
        raise InvalidParamsError(f"s must be finite and >= 0, got {s_values[bad][0]}")
    _check_order(m, 0)
    nodes, norms = measure
    shape = norms.shape[:-1] + s_values.shape[-1:]
    s_values = np.broadcast_to(s_values, shape).reshape(-1, shape[-1])
    mass, d = _scaled(np.where((nodes > 0.0) | (m == 0), norms, 0.0).reshape(-1, nodes.size))
    mass, e = mass ** 2, np.reshape(e, -1) + d
    omega = np.zeros(s_values.shape) + (np.sqrt(np.sum(mass, axis=-1))[:, None] if m == 0 else 0)
    live = np.any(mass > 0.0, axis=-1) & np.any(s_values > 0.0, axis=-1)
    if m > 0 and np.any(live):
        order = np.argsort(s_values[live], axis=-1)
        scans = _running_modulus(nodes, mass[live],
                                 np.take_along_axis(s_values[live], order, axis=-1), m)
        omega[live] = np.take_along_axis(scans, np.argsort(order, axis=-1), axis=-1)
    return _unscaled(omega, e[:, None]).reshape(shape)


def modulus(dec: SpectralDecomposition, f, s: float, m: int) -> float:
    """Modulus of continuity: ``sup over |tau| <= s`` of the m-th difference norm, per row.

    The objective is even in ``tau``, so one shift scan of ``[0, s]`` (see
    ``_running_modulus``) gives it.  ``m = 0`` returns ``||f||`` (the
    zeroth difference is the identity).  ``s`` must be finite and ``>= 0``.
    """
    _check_scalar(s, "s")
    _, c, e = _coefficients(dec, f)
    return _shaped(_moduli(_measure(dec, c), e, [s], m)[..., 0])


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


def _safe_ratio(num, den, scale) -> np.ndarray:
    """``num / den`` elementwise, or 0 where both vanish next to ``scale`` and ``inf`` where only
    ``den`` does; ``scale`` is the size of the two sides, with their degree in ``f`` and in the
    scale of ``D`` (where it could pass the largest double, all three are taken at the row's power
    of two).  The three broadcast as NumPy broadcasts."""
    num, den, scale = np.asarray(num), np.asarray(den), np.asarray(scale)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(den <= 1e-14 * scale, np.where(num <= 1e-12 * scale, 0.0, math.inf),
                        num / den)


def modulus_inequality_checks(dec: SpectralDecomposition, f, s, a_scale, m,
                              k) -> ModulusInequalityReport:
    """Measure the power-transfer and scale-doubling modulus inequalities, one trial per
    element of the broadcast shape of ``s``, ``a_scale``, ``m``, ``k`` and the rows of ``f``.

    One shift scan per order ``j`` gives ``Omega_j(f, s)`` and ``Omega_j(f, a s)`` where ``m = j``
    and ``Omega_j(D^k f, s)`` where ``m - k = j``, ``k > 0`` (at ``k = 0``: ``Omega_m(f, s)``).
    """
    v, c, _ = _coefficients(dec, f)
    shape, rows, params = _broadcast(c, s, a_scale, m, k)
    s_values, a_scales, orders, powers = (p.tolist() for p in params)
    for m, k, a_scale in zip(orders, powers, a_scales):
        _check_order(m, 0, k=k)
        if a_scale <= 0.0:
            raise InvalidParamsError("a_scale must be positive")
    # every side at its row's power of two 2^-e (``_moduli`` at e = 0), where none overflows
    norms = _norm(v.reshape(-1, dec.dim))[rows].tolist()
    nodes, groups = _measure(dec, c.reshape(-1, dec.dim)[rows])
    lhs, rhs = np.empty((len(rows), 2)), np.zeros(len(rows))
    for j in {*orders, *(m - k for m, k in zip(orders, powers) if k)}:
        own = [i for i, m in enumerate(orders) if m == j]
        down = [i for i, (m, k) in enumerate(zip(orders, powers)) if k and m - k == j]
        dk = _powered((nodes, groups[down]), params[3][down, None])[1]  # the measures of D^k f
        moduli = _moduli((nodes, np.vstack((groups[own], dk))), 0,
                         [[s_values[i], a_scales[i] * s_values[i]] for i in own]
                         + [[s_values[i]] * 2 for i in down], j)
        lhs[own], rhs[down] = moduli[:len(own)], moduli[len(own):, 0]
    rhs = [s ** k * x if k else left  # s^k Omega_{m-k}(D^k f, s), or Omega_m(f, s) at k = 0
           for s, k, x, left in zip(s_values, powers, rhs.tolist(), lhs[:, 0].tolist())]
    scales = [norm * min(2.0, s * dec.lambda_max) ** m  # each side is at most about this
              for norm, s, m in zip(norms, s_values, orders)]
    growth = [(1.0 + a_i) ** m * left for a_i, m, left in zip(a_scales, orders, lhs[:, 0].tolist())]
    ratios = _safe_ratio(lhs, np.column_stack([rhs, growth]), np.c_[scales])
    return ModulusInequalityReport(*(_shaped(x, shape) for x in ratios.T))


# -- step-function machinery for the approximation norms ----------------------

def _integral_norm(nodes, values, alpha, q):
    """``(integral of (s^alpha E(f,s))^q ds/s)^{1/q}`` over (0, inf) in closed form, sup at q = inf,
    of each row of ``values`` (``(..., K)``; a float for one row).

    ``values[..., i]`` is ``E(f, .)`` on ``[nodes[i], nodes[i+1])``, with the exact-arithmetic
    jumps of ``_step_nodes``; the sup of ``s^alpha * const`` sits at the right end, a finite
    maximum; below it each ``((s_{i+1}^(alpha q) - s_i^(alpha q)) / (alpha q))^(1/q) E_i`` goes
    to ``_lq_norm``, which scales each row by its largest term, so no term underflows beside it.
    A weight ``s^(alpha q)`` past the largest double raises :class:`NonFiniteError` against any
    nonzero distance."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf weights (and inf - inf)
        if q == math.inf:
            weights = nodes[1:] ** alpha
        else:
            aq = alpha * q
            steps = nodes[1:] ** aq - nodes[:-1] ** aq
            _finite(np.where(values == 0.0, 0.0, steps), f"the weight s^(alpha q) = s^{aq}")
            weights = (steps / aq) ** (1.0 / q)
        return _lq_norm(_weighted(weights, values), q)


def _scaled_e_sup(dec: SpectralDecomposition, fc, alpha: float):
    """:func:`sup_scaled_best_approx` of each row of ``fc`` (a float for one row)."""
    (v, c, e), nodes = fc, _step_nodes(dec)  # each row at every step node
    dists = _distances(dec, (v[..., None, :], c[..., None, :], np.expand_dims(e, -1)), nodes[:-1])
    return _integral_norm(nodes, dists, alpha, math.inf)


def sup_scaled_best_approx(dec: SpectralDecomposition, f, alpha: float) -> float:
    """``sup over s > 0`` of ``s^alpha E(f, s)``, exact for the step function of ``_step_nodes``.

    ``alpha`` must lie in ``[0, inf)``: below 0 the supremum is infinite.
    """
    _check_scalar(alpha, "alpha")
    if not (0.0 <= alpha < math.inf):
        raise InvalidParamsError(f"alpha must be in [0, inf), got {alpha}")
    return _shaped(_scaled_e_sup(dec, _coefficients(dec, f), alpha))


def _discrete_norm(distances: np.ndarray, alpha: float, q: float, a: float):
    """``(sum_k (a^{k alpha} d_k)^q)^{1/q}`` (the max at ``q = inf``) of the band-edge distances
    of each row of ``distances`` (``(..., K)``; a float for one row), as ``_lq_norm`` reduces."""
    return _lq_norm(_weighted(_band_powers(a, np.shape(distances)[-1], alpha), distances), q)


def besov_norm(dec: SpectralDecomposition, f, params: BesovParams) -> float:
    """One of the equivalent smoothness norms, selected by ``params.flavor``.

    The E flavors measure the decay of the best approximation computed in
    the vector domain; the R flavors measure the coefficient tail.  The
    two families agree to near machine precision, which downstream checks
    exploit.  Integral flavors are exact (piecewise evaluation); discrete
    flavors truncate where the terms become identically zero.  A block ``f``
    and array parameters give one norm per element of their broadcast shape.
    """
    return _shaped(_besov_norms(dec, _coefficients(dec, f), params))


def _besov_norms(dec: SpectralDecomposition, fc, params: BesovParams,
                 domain_norm: str = "seminorm") -> np.ndarray:
    """:func:`besov_norm` of the rows of ``fc = (v, c, e)`` (``_coefficients`` of a block) at
    every element of ``params`` broadcast against them, in one pass (see the module notes); the
    ``k_functional`` flavor measures ``K`` in ``domain_norm``, as :func:`k_besov_norm` does.
    """
    v, c, e = fc
    shape, rows, params_flat = _broadcast(c, params.alpha, params.q, params.r, params.a)
    alphas, qs, rs, bases = (p.tolist() for p in params_flat)
    v, c, e = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), np.ravel(e)
    flavor, nodes = params.flavor, _step_nodes(dec)
    groups, norms = (None, None) if flavor[-1] == "E" else _measure(dec, c)  # the R side's input
    # what elements share, once per key for the rows that need it: the seminorm per
    # (alpha, r), K per r, the distances at the band edges per base or at the step nodes
    keys = {"modulus": list(zip(alphas, rs)), "k_functional": rs, "discrete_E": bases,
            "discrete_R": bases}.get(flavor, [None] * len(rows))
    shared = {}  # the elements of each key, by their (alpha, q)
    for i, key in enumerate(keys):
        shared.setdefault(key, {}).setdefault((alphas[i], qs[i]), []).append(i)
    tails = np.empty(len(rows))
    for key, orders in shared.items():
        members = sum(orders.values(), [])
        sel, at = np.unique(rows[members], return_inverse=True)
        if flavor == "modulus":
            tails[members] = _seminorm_sup((groups, norms[sel]), e[sel], key[0], 0, key[1])[at]
            continue
        if flavor == "k_functional":  # one Tikhonov path of order r
            k_path = _k_path((groups, norms[sel]), e[sel], key, domain_norm)
        else:  # each row at the step nodes, or at the band edges below the top one (E vanishes)
            cuts, e_sel = nodes[:-1] if key is None else _band_edges(dec, key)[:-1], e[sel, None]
            dists = (_distances(dec, (v[sel, None], c[sel, None], e_sel), cuts) if flavor[-1] == "E"
                     else _unscaled(_tails(dec, (groups, norms[sel, None]), cuts), e_sel))
        for (alpha, q), i in orders.items():  # each read off one call for its rows
            j = np.searchsorted(sel, rows[i])
            if flavor == "k_functional":
                tails[i] = _k_norms(k_path, alpha / key, q)[j]
            elif key is None:
                tails[i] = _integral_norm(nodes, dists[j], alpha, q)
            else:
                tails[i] = _discrete_norm(dists[j], alpha, q, key)
    with np.errstate(over="ignore"):
        return _finite(_norm(v, e)[rows] + tails).reshape(shape)


# -- Peetre K-functional -------------------------------------------------------

#: log-s grid points per unit of ``log s`` on the Tikhonov path
_PATH_GRID_DENSITY = 4

#: clipped Newton steps refining each ``t`` in its grid bracket, or a maximum of ``t^-theta K``
_K_NEWTON_STEPS = 4


def _k_path(measure, e, r: int, domain_norm: str) -> tuple:
    """The Tikhonov path ``g_s = (I + s W)^{-1} f`` of every row of a measure of ``f 2^-e``.

    With ``W = D^{2r}`` (``I + D^{2r}`` for the graph norm), ``u = log s``, ``x = s w``,
    ``A = ||f - g_s||``, ``B = ||W^{1/2} g_s||`` and ``P = sum |c|^2 x^2 / (1+x)^3``, ``A + t B`` is
    stationary where ``g(u) = log(s B / A) = log t``, which increases (the frontier is convex)
    with ``g' = 1 - P/A^2 - P/(s B^2)``; each sum runs over the measure's nodes (``_measure``).
    Only the groups outside ``ker W`` enter, squared at ``2^-d_i``, each row's scale taken on
    them alone (``_scaled``); ``x/(1+x)`` and ``1/(1+x)`` come from ``log x = u + log w``,
    times the ``e^-m`` or ``e^-n`` that lifts the row's largest to 1/2 or more, and
    ``s B^2 = sum |c|^2 x/(1+x)^2``: no ``s w``, ``(1 + s w)^2`` or ``1/s`` is formed, so no sum
    under- or overflows.  Every row shares the grid ``u``, ``_PATH_GRID_DENSITY`` points per unit
    on ``[log(1e-12 / max w), log(1e12 / min w)]``.  Returns ``(live, d, path)``: the rows with
    ``K != 0``, ``d``, and (``None`` without such rows) ``(at, u, on_grid, ends)``:
    ``at(log_s, rows)`` and ``on_grid`` are ``(A, B, g, g')``, and ``ends`` are ``b0``, ``a_inf``,
    ``log t_lo`` and ``log t_hi`` (see :func:`k_besov_norm`).
    """
    if r < 1:
        raise InvalidParamsError("r must be a positive integer")
    if domain_norm not in ("seminorm", "graph"):
        raise InvalidParamsError(f"unknown domain_norm {domain_norm!r}")
    nodes, norms = measure
    with np.errstate(over="ignore"):
        lam2r = _finite(nodes ** (2 * r), f"lambda_max^2r = {nodes.max(initial=0.0)}^{2 * r}")
    w = lam2r if domain_norm == "seminorm" else 1.0 + lam2r
    mag2, d = _scaled(np.where(w > 0.0, norms, 0.0))
    mag2, live = mag2 ** 2, np.any(mag2 > 0.0, axis=-1)
    d = np.where(live, np.add(e, d), 0)
    if not np.any(live):
        return live, d, None  # f in ker W: K(t) = 0 at g = f
    mag2, w, log_w = mag2[np.ix_(live, w > 0.0)], w[w > 0.0], np.log(w[w > 0.0])  # C order
    top = np.max(np.where(mag2 > 0.0, log_w, -np.inf), axis=-1)  # each row's largest and
    bot = np.min(np.where(mag2 > 0.0, log_w, np.inf), axis=-1)  # smallest log w

    def at(log_s, p, top, bot):
        """``(A, B, g, g')`` at ``exp(log_s)`` of rows ``p``, live ``log w`` in ``[bot, top]``."""
        log_x = log_s[..., None] + log_w
        m, n = (np.minimum(x, 0.0)[..., None] for x in (log_s + top, -log_s - bot))
        den = 1.0 + np.exp(-np.abs(log_x))
        ly, lz = np.minimum(log_x, m) - m, np.minimum(-log_x, n) - n  # log(y den), log(z den)
        y, z = np.exp(ly) / den, np.exp(lz) / den  # x/(1+x) e^-m and 1/(1+x) e^-n
        s2, sz, s2z = (np.vecdot(p, v) for v in (y * y, y * z, y * y * z))
        m, n, low = m[..., 0], n[..., 0], np.minimum(s2, sz) < np.finfo(float).tiny
        with np.errstate(all="ignore"):  # a NaN or inf only where a sum is below normal
            out = (np.exp(m) * np.sqrt(s2), np.exp((m + n - log_s) / 2.0) * np.sqrt(sz),
                   (log_s - m + n + np.log(sz / s2)) / 2.0,
                   1.0 - s2z * (np.exp(n) / s2 + np.exp(m) / sz))
            if np.any(low):  # a range guard: there each sum as its log, at its own scale
                ly, lz = ly - np.log(den), lz - np.log(den)  # log y, log z
                s2, sz, s2z = ((h := x.max(-1)) + np.log(np.exp(x - h[..., None]).sum(-1))
                               for x in (np.log(p) + v for v in (2 * ly, ly + lz, 2 * ly + lz)))
                out = tuple(np.where(low, x, o) for x, o in zip((np.exp(m + s2 / 2.0), np.exp(
                    (m + n - log_s + sz) / 2.0), (log_s - m + n + sz - s2) / 2.0,
                    1.0 - np.exp(s2z + n - s2) - np.exp(s2z + m - sz)), out))
        return out

    w_hat, k = _scaled(np.where(mag2 > 0.0, w, 0.0))  # w 2^-k, each row's own k
    b2 = np.sum(mag2 * w_hat, axis=-1)
    down = np.exp(np.minimum(bot[:, None] - log_w, 0.0))  # w_bot / w
    ends = (_unscaled(np.sqrt(b2 * 2.0 ** (k % 2)), k // 2), np.sqrt(np.sum(mag2, axis=-1)),
            (np.log(b2 / np.sum(mag2 * w_hat ** 2, axis=-1)) - k * math.log(2.0)) / 2.0,
            (np.log(np.sum(mag2 * down, axis=-1) / np.sum(mag2, axis=-1)) - bot) / 2.0)
    lo, hi = math.log(1e-12) - float(log_w.max()), math.log(1e12) - float(log_w.min())
    u = np.linspace(lo, hi, math.ceil(_PATH_GRID_DENSITY * (hi - lo)) + 1)
    on_grid = np.empty((4, len(mag2), u.size))
    for ends_w in set(zip(top.tolist(), bot.tolist())):  # rows with the same shifts share y, z
        rows = np.flatnonzero((top == ends_w[0]) & (bot == ends_w[1]))
        on_grid[:, rows] = at(u, mag2[rows, None], *ends_w)
    return live, d, (lambda log_s, i: at(log_s, mag2[i], top[i], bot[i]), u, on_grid, ends)


def _k_functional_values(measure, e, ts, r: int, domain_norm: str) -> tuple:
    """``(K_i(t) 2^-d_i, d)`` for every ``t`` in ``ts``: each ``(row, t)`` bracketed on the grid
    values of ``g = log t`` and refined on ``A + t B``; the path's ends ``t b0`` (``g = f``) and
    ``a_inf`` (the projection onto ``ker W``) are candidates for every ``t``."""
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all(ts > 0.0):
        raise NonPositiveTError(f"t must be > 0, got {ts[~(ts > 0.0)][0]}")
    live, d, path = _k_path(measure, e, r, domain_norm)
    k_vals = np.zeros((len(live), ts.size))
    if path is None:
        return k_vals, d
    at, u, (_, _, g_u, _), (b0, a_inf, _, _) = path
    values = np.minimum(ts * b0[:, None], a_inf[:, None])
    log_ts = np.log(ts)
    j = np.array([np.searchsorted(g, log_ts) for g in g_u])
    row, col = np.nonzero((j > 0) & (j < u.size))
    j, t_in, log_t = j[row, col], ts[col], log_ts[col]

    def line(log_s):
        """``A + t B`` and the step ``(g - log t) / |g'|``."""
        a, b, g, dg = at(log_s, row)
        return a + t_in * b, (g - log_t) / np.abs(dg)

    # secant start inside each bracket g(u[j-1]) < log t <= g(u[j])
    g_lo, g_hi = g_u[row, j - 1], g_u[row, j]  # the bracket of each (row, t)
    start = u[j - 1] + (log_t - g_lo) / (g_hi - g_lo) * (u[j] - u[j - 1])
    _, refined = _clipped_newton(line, start, u[j - 1], u[j], _K_NEWTON_STEPS)
    values[row, col] = np.minimum(values[row, col], refined)
    k_vals[live] = values
    return k_vals, d


def _k_norms(k_path: tuple, theta: float, q: float) -> np.ndarray:
    """The K part of :func:`k_besov_norm` of each row of a ``_k_path``, at ``theta = alpha / r``;
    each term relative to the row's largest ``t^-theta K``, so no power overflows."""
    live, d, path = k_path
    out = np.zeros(len(live))
    if path is not None:
        at, u, (a, b, g, dg), (b0, a_inf, log_t_lo, log_t_hi) = path
        ends = b0 * np.exp((1.0 - theta) * log_t_lo), a_inf * np.exp(-theta * log_t_hi)
        f = np.exp(-theta * g) * (a + np.exp(g) * b)  # F = t^-theta K along the path
        top = np.maximum(np.maximum(*ends), np.max(f, axis=-1))
        if q == math.inf:  # each interior local maximum refined to t B / K = theta, the root of
            # h = 2g - u - log(theta / (1 - theta)), h' = 2g' - 1 (at theta = 1, F only falls)
            c = math.log(theta / (1.0 - theta)) if theta < 1.0 else math.inf
            row, k = np.nonzero((f[:, 1:-1] > f[:, :-2]) & (f[:, 1:-1] >= f[:, 2:]))

            def peak(log_s):
                """``-F`` and the step ``-h / |h'|``."""
                a, b, g, dg = at(log_s, row)
                return (-np.exp(-theta * g) * (a + np.exp(g) * b),
                        (log_s + c - 2.0 * g) / np.abs(2.0 * dg - 1.0))

            _, peaks = _clipped_newton(peak, u[k + 1], u[k], u[k + 2], _K_NEWTON_STEPS)
            np.maximum.at(top, row, -peaks)
        else:
            sums = ((ends[0] / top) ** q / (q * (1.0 - theta)) + (ends[1] / top) ** q / (q * theta)
                    + (u[1] - u[0]) * np.sum((f / top[:, None]) ** q * dg, axis=-1))
            top = top * [x ** (1.0 / q) for x in sums.tolist()]
        out[live] = top
    return _unscaled(out, d)


def k_functional(dec: SpectralDecomposition, f, t: float, r: int,
                 domain_norm: str = "seminorm") -> float:
    """``inf over g`` of ``||f - g|| + t ||D^r g||`` (Peetre K-functional).

    The lower envelope along the Tikhonov family ``g_s = (I + s W)^{-1} f``
    with ``W = D^{2r}`` (see ``_k_functional_values``), exact up to
    rounding.  With ``domain_norm="graph"`` the second term is the graph
    norm ``(||g||^2 + ||D^r g||^2)^{1/2}`` and ``W = I + D^{2r}``.  One value per row of ``f``.
    """
    _check_scalar(t, "t")
    _, c, e = _coefficients(dec, f)
    values, d = _k_functional_values(_measure(dec, c.reshape(-1, dec.dim)), np.reshape(e, -1),
                                     [t], r, domain_norm)
    return _shaped(_unscaled(values[:, 0], d), c.shape[:-1])


def k_besov_norm(dec: SpectralDecomposition, f, params: BesovParams,
                 domain_norm: str = "seminorm") -> float:
    """Interpolation-space norm built from the K-functional, with no grid of ``t``.

    ``||f|| + (integral over t > 0 of (t^-theta K(t, f))^q dt/t)^{1/q}``, ``theta = alpha / r``, or
    ``||f|| + sup t^-theta K`` at ``q = inf``.  With ``b0 = ||W^{1/2} f||`` and
    ``a_inf = ||f_perp||`` (``f`` outside ``ker W``; ``W = I + D^{2r}`` for the graph norm),
    ``K = t b0`` up to ``t_lo = b0 / ||W f||`` and ``a_inf`` from
    ``t_hi = ||W^{-1/2} f_perp|| / a_inf`` on, so the ends are
    ``b0^q t_lo^{q(1-theta)} / (q(1-theta))`` and ``a_inf^q t_hi^{-q theta} / (q theta)``.
    Between, along the Tikhonov path (see the module notes), ``K = A + t B`` and ``dt/t = g' du``:
    the trapezoid sum ``h sum (t^-theta K)^q g'`` on the path's grid, whose integrand is analytic
    and decays exponentially at both ends, converges exponentially (Trefethen & Weideman, SIAM
    Rev. 2014).  Off the grid every ``x = s w`` is at most 1e-12 or at least 1e12, so ``t`` and
    ``t^-theta K`` are within a factor ``1 + 1e-12`` of their value at ``t_lo`` or ``t_hi``: the
    path left out is at most about ``1e-12 q`` of the integral, and the K part reads low by at
    most about 1e-12 relative.  At ``q = inf`` the sup is the largest of the end values and the
    path, its local maxima refined by Newton steps.  ``params.flavor`` is ignored: this is the
    ``k_functional`` flavor of :func:`besov_norm`, with the second term measured in ``domain_norm``.
    """
    return _shaped(_besov_norms(dec, _coefficients(dec, f), replace(params, flavor="k_functional"),
                                domain_norm))


# -- modulus-based seminorm and the two inverse-theorem lemmas -----------------

def besov_seminorm_sup(dec: SpectralDecomposition, f, alpha: float, n: int, r: int) -> float:
    """``sup over s > 0`` of ``s^{n - alpha} Omega_r(D^n f, s)``, for ``n < alpha < n + r``.

    As ``Omega_r(g, s)`` is the supremum of ``||Delta_tau^r g||`` over ``tau <= s``, this is the
    supremum of ``tau^{n - alpha} ||Delta_tau^r D^n f||``, which one shift scan takes exactly (see
    ``_running_modulus``) for every row of ``f``; at ``r <= alpha - n`` it is infinite
    (``||Delta_tau^r g|| ~ tau^r``).
    """
    _check_scalar(alpha, "alpha")
    _, c, e = _coefficients(dec, f)
    return _shaped(_seminorm_sup(_measure(dec, c), e, alpha, n, r))


def _seminorm_sup(measure, e, alpha: float, n: int, r: int) -> np.ndarray:
    """:func:`besov_seminorm_sup` of every row of the measure ``(nodes, norms)`` (``(..., G)``) of
    ``f 2^-e``, from one shift scan of the measure of ``D^n f``, each row read as in ``_moduli``."""
    _check_order(r, 1)
    if n < 0:
        raise InvalidParamsError(f"need n >= 0, got {n}")
    if not (n < alpha < n + r):
        raise InvalidOrderError(f"need n < alpha < n + r, got alpha={alpha}, n={n}, r={r}")
    nodes, norms = _powered(measure, n)
    mass, d = _scaled(np.where(nodes > 0.0, norms, 0.0).reshape(-1, nodes.size))
    semis, live = np.zeros(len(mass)), np.any(mass > 0.0, axis=-1)
    if np.any(live):
        semis[live] = _running_modulus(nodes, mass[live] ** 2, None, r, alpha - n)
    return _unscaled(semis.reshape(norms.shape[:-1]), np.add(e, d.reshape(norms.shape[:-1])))


@dataclass(frozen=True, eq=False)
class LemmaReport:
    """Empirical constant for one of the two inverse-theorem inequalities."""

    lhs: float
    rhs: float
    ratio: float


def _lemma_reports(dec: SpectralDecomposition, fc, alpha: float, n: int, r: int) -> tuple:
    """The :func:`lemma1_check` and :func:`lemma2_check` reports of the rows of
    ``fc = (v, c, e)`` (``_coefficients`` of a block), from one shift scan."""
    _check_scalar(alpha, "alpha")
    v, c, e = fc
    semis = _seminorm_sup(_measure(dec, c), e, alpha, n, r)
    sups, norm = _scaled_e_sup(dec, fc, alpha), _norm(v)  # ||f|| 2^-e
    sup, semi = (_unscaled(x, -e) for x in (sups, semis))  # the ratios' sides at 2^-e too
    with np.errstate(over="ignore"):  # lemma 1's sides have degree alpha in the scale of D;
        # capped, so ||f|| = 0 gives a scale of 0, not 0 * inf = NaN
        power = min(float(np.float64(dec.lambda_max) ** alpha), np.finfo(float).max)
        bound = np.add(_unscaled(norm, e), sups)  # lemma 2's right side
        sides = (sups, semis, _safe_ratio(sup, semi, np.multiply(norm, power)),
                 semis, bound, _safe_ratio(semi, np.add(norm, sup), norm))
    sides = [_shaped(x, c.shape[:-1]) for x in sides]
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
    :func:`lemma1_check`; a right side past the largest double raises :class:`NonFiniteError`."""
    report = _lemma_reports(dec, _coefficients(dec, f), alpha, n, r)[1]
    _finite(report.rhs, "lemma 2's right side ||f|| + sup_s s^alpha E(f, s)")
    return report
