"""Independent oracles shared by the test modules.

Each oracle recomputes a quantity by a route different from the library
implementation: brute-force grids, piecewise quadrature, closed forms,
or repeated operator application.  They stay deliberately dumb.
"""

import math

import mpmath
import numpy as np

from bandapprox import (
    InvalidParamsError,
    SpectralDecomposition,
    apply_multiplier,
    best_approx,
    schrodinger_group,
    spectral_tail,
    spectral_transform,
)
from bandapprox.approx_operators import _centered_bspline
from bandapprox.operators import (
    _JACOBI_TOL,
    _axis,
    _basis_product,
    _broadcast,
    _coefficients,
    _measure,
    _norm,
    _scaled,
    _unscaled,
    _weighted,
)
from bandapprox import paley_wiener
from bandapprox.paley_wiener import _pw_prefix
from bandapprox.smoothness import (
    _PEAK_NEWTON_STEPS,
    _SCAN_CHUNK_ENTRIES,
    _SCAN_PER_PERIOD,
    _clipped_newton,
    _difference_norms,
    _k_functional_values,
)


def difference_by_composition(dec, f, tau, m):
    """m successive applications of (e^{i tau D} - I) in the vector domain."""
    g = np.asarray(f, dtype=np.complex128)
    for _ in range(m):
        g = schrodinger_group(dec, tau, g) - g
    return g


def k_functional_bruteforce(dec, f, t, r, grid=401):
    """2-D grid minimization of ||f - g|| + t ||D^r g|| at N = 2.

    The optimal g shrinks each coefficient by a real factor in [0, 1], so
    a grid over the two shrink factors plus one local refinement pass is
    an upper bound accurate to ~1e-6 relative.
    """
    assert dec.dim == 2
    c = spectral_transform(dec, f)
    mag = np.abs(c)
    lam_r = dec.eigenvalues ** r

    def objective(t1, t2):
        a = np.sqrt((mag[0] * (1 - t1)) ** 2 + (mag[1] * (1 - t2)) ** 2)
        b = np.sqrt((lam_r[0] * t1 * mag[0]) ** 2 + (lam_r[1] * t2 * mag[1]) ** 2)
        return a + t * b

    lo1, hi1, lo2, hi2 = 0.0, 1.0, 0.0, 1.0
    best = math.inf
    for _ in range(3):
        th1 = np.linspace(lo1, hi1, grid)
        th2 = np.linspace(lo2, hi2, grid)
        t1, t2 = np.meshgrid(th1, th2, indexing="ij")
        values = objective(t1, t2)
        i, j = np.unravel_index(np.argmin(values), values.shape)
        best = min(best, float(values[i, j]))
        span1 = (hi1 - lo1) / (grid - 1)
        span2 = (hi2 - lo2) / (grid - 1)
        lo1, hi1 = max(0.0, th1[i] - span1), min(1.0, th1[i] + span1)
        lo2, hi2 = max(0.0, th2[j] - span2), min(1.0, th2[j] + span2)
    return best


def besov_integral_by_quadrature(dec, f, alpha, q, total_points=10_000):
    """Log-grid Gauss-Legendre quadrature of the integral approximation norm.

    Integrates ``(s^alpha E(f, s))^q ds/s`` piecewise between consecutive
    distinct eigenvalues, evaluating E by projection at every node (the
    closed form is never consulted).  The head piece below the first
    positive eigenvalue is truncated in log-s where the integrand is
    negligible.
    """
    uniq = np.unique(dec.eigenvalues)
    positive = uniq[uniq > 0]
    if positive.size == 0:
        return 0.0
    aq = alpha * q
    edges = [math.log(positive[0]) - 45.0 / aq] + [math.log(v) for v in positive]
    per_piece = max(8, total_points // (len(edges) - 1))
    x, w = np.polynomial.legendre.leggauss(per_piece)
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (right + left)
        half = 0.5 * (right - left)
        u = mid + half * x
        vals = np.array([best_approx(dec, f, math.exp(ui)) for ui in u])
        total += float(np.sum(w * half * (np.exp(alpha * u) * vals) ** q))
    return total ** (1.0 / q)


def uniform_bspline_by_lists(n, y):
    """The uniform B-spline of order n on knots 0..n by Cox-de Boor over Python lists, one
    array per first knot: the library's stacked recursion, written out spline by spline."""
    y = np.asarray(y, dtype=np.float64)
    vals = [np.where((i <= y) & (y < i + 1), 1.0, 0.0) for i in range(n)]
    for d in range(1, n):
        vals = [((y - i) * vals[i] + (i + d + 1 - y) * vals[i + 1]) / d
                for i in range(n - d)]
    return vals[0]


def kernel_norm_const_closed_form(n):
    """Normalization constant via the B-spline value: n^{n-1} / (pi M_n(0))."""
    return n ** (n - 1) / (math.pi * float(_centered_bspline(n, 0.0)))


# -- the kernel by quadrature: composite Gauss-Legendre, independent of the closed forms ----

def _sinc(u):
    """sin(u)/u with a series switchover near the removable singularity."""
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < 1e-3
    safe = np.where(small, 1.0, u)
    u2 = u * u
    series = 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0 * (1.0 - u2 / 72.0)))
    return np.where(small, series, np.sin(safe) / safe)


def _kernel_profile(n, t):
    """(sin(t/n)/t)^n, the unnormalized kernel; nonnegative for even n."""
    t = np.asarray(t, dtype=np.float64)
    return float(n) ** (-n) * _sinc(t / n) ** n


def kernel_values(kernel, t):
    """The kernel ``h(t) = norm_const (sin(t/n)/t)^n``; ``h(0) = norm_const n^{-n}``."""
    return kernel.norm_const * _kernel_profile(kernel.n, t)


def _composite_gauss(t_max, panel_len, nodes_per_panel):
    """Gauss-Legendre nodes/weights tiling [0, t_max]."""
    panels = max(1, math.ceil(t_max / panel_len))
    edges = np.linspace(0.0, t_max, panels + 1)
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _sin_power_fourier(n):
    """Mean and cosine coefficients of sin(u)^n for even n.

    sin^n u = mean + sum_l gamma_l cos(2 l u), l = 1..n/2.
    """
    mean = math.comb(n, n // 2) / 2.0 ** n
    gammas = np.array([2.0 * (-1.0) ** l * math.comb(n, n // 2 - l) / 2.0 ** n
                       for l in range(1, n // 2 + 1)])
    return mean, gammas


def half_moment_by_quadrature(n, p, refine=1):
    """``integral over (0, inf)`` of ``(sin(t/n)/t)^n t^p``, for ``n - p >= 2``.

    Composite Gauss-Legendre up to T plus an analytic tail: beyond T the
    oscillation ``sin(t/n)^n`` is split into its mean and finitely many
    cosines; the mean integrates exactly against ``t^{p-n}`` and each
    cosine term gets a two-step integration by parts whose remainder is
    O(T^{p-n-1}).  ``refine = 2`` doubles the range and the nodes per panel and halves the
    panel length.  ``nodes ** p`` overflows for ``p`` from about 74 on.
    """
    q = n - p
    t_max = max(2000.0, 200.0 * n) * refine
    panel_len = min(n * math.pi / 2.0, 8.0) / refine
    nodes, weights = _composite_gauss(t_max, panel_len, 16 * refine)
    main = float(np.sum(weights * _kernel_profile(n, nodes) * nodes ** p))

    # tail: psi(t) t^p = sin(t/n)^n t^{p-n}, so integrate sin^n against t^{-q}
    mean, gammas = _sin_power_fourier(n)
    tail = mean * t_max ** (1 - q) / (q - 1)
    for l, gamma in enumerate(gammas, start=1):
        b = 2.0 * l / n
        tail += gamma * (-math.sin(b * t_max) * t_max ** (-q) / b
                         + q * math.cos(b * t_max) * t_max ** (-q - 1) / b ** 2)
    return main + tail


def kernel_symbol_by_quadrature(kernel, xi):
    """The kernel transform by oscillatory quadrature of ``2 a psi(t) cos(xi t)``, not by its
    B-spline closed form."""
    x = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    xi_max = float(np.max(np.abs(x))) if x.size else 0.0
    n = kernel.n
    t_max = (2.0 * kernel.norm_const / ((n - 1) * 1e-10)) ** (1.0 / (n - 1))
    t_max = min(max(t_max, 500.0), 1e5)
    panel_len = min(n * math.pi / 2.0, 8.0 / (1.0 + xi_max))
    nodes, weights = _composite_gauss(t_max, panel_len, 16)
    psi_w = weights * _kernel_profile(n, nodes)
    vals = 2.0 * kernel.norm_const * (np.cos(np.outer(x, nodes)) @ psi_w)
    return vals.reshape(np.shape(xi)) if np.ndim(xi) else float(vals[0])


def half_moment_mpmath(n, p, dps=50):
    """Gradshteyn & Ryzhik 3.827 for ``integral over (0, inf)`` of ``(sin(t/n)/t)^n t^p``
    (``approx_operators._half_moment``), summed in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        q = n - p
        total = mpmath.fsum((-1) ** k * math.comb(n, k) * mpmath.mpf(n - 2 * k) ** (q - 1)
                            * (mpmath.log(n - 2 * k) if p % 2 else mpmath.pi / 2)
                            for k in range(n // 2))
        return (-1) ** (p // 2) * total / (2 ** (n - 1) * mpmath.factorial(q - 1)
                                           * mpmath.mpf(n) ** (q - 1))


def half_moment_quadosc(n, p, dps=16):
    """``integral over (0, inf)`` of ``(sin(t/n)/t)^n t^p`` by ``mpmath.quadosc`` at ``dps``
    digits; unreliable at small ``p`` for large ``n`` (0.2 off at ``n = 80, p = 1``)."""
    with mpmath.workdps(dps):
        return mpmath.quadosc(lambda t: mpmath.sin(t / n) ** n * t ** (p - n),
                              [0, mpmath.inf], omega=mpmath.mpf(1) / n)


def modulus_dense_scan(dec, f, s, m, points=200_001):
    """Modulus by a very dense uniform scan (no refinement)."""
    c = spectral_transform(dec, f)
    mag2 = np.abs(c) ** 2
    taus = np.linspace(0.0, s, points)
    return float(np.max(_difference_norms(dec.eigenvalues, mag2, taus, m)))


# -- per-point search routines the library replaced by array passes ------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo, hi, iters):
    """Scalar golden-section maximization; returns the best evaluated value."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    best = max(f1, f2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        best = max(best, f1, f2)
    return best


def _golden_min(fn, lo, hi, iters):
    return -_golden_max(lambda x: -fn(x), lo, hi, iters)


def _golden_max_many(fn, lo, hi, iters):
    """Golden-section maximization on many brackets ``[lo[i], hi[i]]`` at once.

    ``fn`` maps an array with one abscissa per bracket to the values
    there.  Returns the best evaluated abscissa and value per bracket.
    Stops before ``iters`` steps once no bracket has a float strictly
    inside: later steps would only revisit evaluated abscissae.
    """
    a = np.array(lo, dtype=np.float64)
    b = np.array(hi, dtype=np.float64)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    p1 = np.stack((x1, fn(x1)))  # (abscissa, value) of the two interior points
    p2 = np.stack((x2, fn(x2)))
    best = np.where(p2[1] > p1[1], p2, p1)
    for _ in range(iters):
        if np.all(np.nextafter(a, b) >= b):
            break
        up = p1[1] < p2[1]  # the maximum lies in [x1, b]
        a, b = np.where(up, (p1[0], b), (a, p2[0]))
        kept = np.where(up, p2, p1)
        new_x = np.where(up, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        new = np.stack((new_x, fn(new_x)))
        p1, p2 = np.where(up, kept, new), np.where(up, new, kept)
        best = np.where(new[1] > best[1], new, best)
    return best[0], best[1]


def running_modulus_golden(eigenvalues, mag2, s_values, m, iters=90):
    """The library's shift scan with every local maximum refined by golden section.

    Same scan points (8 per period ``2 pi / (m lambda_max)``, up to two past
    the last ``s``) and binning as ``smoothness._running_modulus``, in one
    piece, with 90 golden-section steps per peak in place of the clipped
    Newton steps.
    """
    def phi(taus):
        return _difference_norms(eigenvalues, mag2, taus, m)

    step = 2.0 * math.pi / (8 * m * float(eigenvalues[-1]))
    taus = np.arange(math.ceil(s_values[-1] / step) + 2) * step
    vals = phi(taus)
    peaks = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    peak_taus, peak_vals = _golden_max_many(phi, taus[peaks - 1], taus[peaks + 1], iters)
    bins = np.append(phi(s_values), 0.0)
    np.maximum.at(bins, np.searchsorted(s_values, np.concatenate((taus, peak_taus))),
                  np.concatenate((vals, peak_vals)))
    return np.maximum.accumulate(bins[:-1])


def running_modulus_from_zero(nodes, mass, s_rows, m, beta=0.0):
    """``smoothness._running_modulus`` as it scanned before it knew where a maximum can lie.

    Every scan, modulus (``beta = 0``) or seminorm, samples from ``tau = 0``, in chunks of 64
    points doubling up to the library's memory bound, with the library's Newton refinement,
    bins and stop rule; it checks no weight, power or scan size.  The modulus scan now starts
    at ``pi / lambda_max``, so this holds it to the scan it replaced, bit for bit.
    """
    lam_max = float(nodes[-1])
    nu, step = nodes / lam_max, 2.0 * math.pi / (_SCAN_PER_PERIOD * m * lam_max)

    def neg_phi(taus, weights):
        theta = np.multiply.outer(taus, nodes)
        sins = 2.0 * np.abs(np.sin(theta / 2.0))
        u, du = (sins / 2.0) ** 2, nu * np.sin(theta) / 2.0
        d1 = m * np.sum(u ** (m - 1) * du * weights, axis=-1)
        d2 = m * np.sum(((m - 1) * u ** max(m - 2, 0) * du ** 2
                         + u ** (m - 1) * nu ** 2 * (0.5 - u)) * weights, axis=-1)
        phi = np.sqrt(np.maximum(np.sum(sins ** (2 * m) * weights, axis=-1), 0.0))
        if beta:
            x, w = taus * lam_max, taus ** -beta
            t = np.sum(u ** m * weights, axis=-1) / x
            d1, d2 = d1 - 2.0 * beta * t, d2 - 2.0 * beta * (d1 - t) / x
            phi = np.where(w < math.inf, w * phi, math.nan)
        return -phi, -d1 / np.abs(d2) / lam_max

    if beta:
        ends, best = np.full(len(mass), np.iinfo(int).max), np.zeros(len(mass))
        cap = np.float64(2.0) ** m * np.sqrt(np.sum(mass[:, nodes > 0.0], axis=-1))
    else:
        ends = (np.ceil(s_rows[:, -1] / step) + 2).astype(int)
        bins = np.pad(_difference_norms(nodes, mass[:, None], s_rows, m), ((0, 0), (0, 1)))
    width = nodes.size if beta else max(nodes.size, s_rows.shape[1])
    top = max(16, _SCAN_CHUNK_ENTRIES // (width * len(mass)))
    start, size = 0, min(64, top)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while (act := np.flatnonzero(ends > start)).size:
            index = np.arange(max(start - 1, 0), min(start + size + 1, ends[act].max()))
            taus = index * step
            vals = _difference_norms(nodes, mass[act], taus[:, None], m)
            if beta:
                bounds = np.multiply.outer(weights := taus ** -beta, cap[act])
                vals = _weighted(weights[:, None], vals)
            at, row = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])
                                 & (index[1:-1, None] < ends[act] - 1))
            peak_taus, peak_vals = _clipped_newton(lambda t, w=mass[act[row]]: neg_phi(t, w),
                                                   taus[at + 1], taus[at], taus[at + 2],
                                                   _PEAK_NEWTON_STEPS)
            if beta:
                np.maximum.at(vals, (at + 1, row), -peak_vals)
                own = (index >= start) & (index < start + size)
                running = np.maximum.accumulate(np.vstack((best[act], vals[own])), axis=0)[1:]
                stop = bounds[own] <= running
                last = np.where(done := stop.any(axis=0), stop.argmax(axis=0), len(running) - 1)
                best[act] = running[last, np.arange(act.size)]
                ends[act[done]] = start + last[done] + 1
            else:
                rows = np.concatenate((np.broadcast_to(act, vals.shape).ravel(), act[row]))
                points = np.concatenate((np.repeat(taus, act.size), peak_taus))
                np.maximum.at(bins, (rows, np.sum(s_rows[rows] < points[:, None], axis=-1)),
                              np.concatenate((vals.ravel(), -peak_vals)))
            start, size = start + size, min(2 * size, top)
    return best if beta else np.maximum.accumulate(bins[:, :-1], axis=-1)


def k_functional_golden(dec, f, t, r, domain_norm="seminorm", search_iters=100):
    """K(t) by one golden-section search in log s over the whole Tikhonov path."""
    mag2 = np.abs(spectral_transform(dec, f)) ** 2
    if not np.any(mag2 > 0.0):
        return 0.0
    lam2r = dec.eigenvalues ** (2 * r)
    w = lam2r if domain_norm == "seminorm" else 1.0 + lam2r

    def objective(log_s):
        s = math.exp(log_s)
        a2 = float(np.sum(mag2 * (s * w / (1.0 + s * w)) ** 2))
        b2 = float(np.sum(mag2 * w / (1.0 + s * w) ** 2))
        return math.sqrt(max(a2, 0.0)) + t * math.sqrt(max(b2, 0.0))

    w_pos = w[w > 0.0]
    candidates = [t * math.sqrt(float(np.sum(mag2 * w))),
                  math.sqrt(float(np.sum(mag2[w > 0.0])))]
    if w_pos.size:
        lo = math.log(1e-12 / float(w_pos.max()))
        hi = math.log(1e12 / float(w_pos.min()))
        candidates.append(_golden_min(objective, lo, hi, search_iters))
    return min(candidates)


def k_besov_norm_dense(dec, f, params, domain_norm="seminorm", density=64, levels=4,
                       sup_points=4097):
    """K-functional Besov norm from the library's ``K(t)``: a trapezoid in ``v = log t`` on nodes
    that follow the Tikhonov path, with Richardson extrapolation, and the closed-form ends.

    With ``W = D^{2r}`` (``I + D^{2r}`` for the graph norm), ``b0 = ||W^{1/2} f||``,
    ``a_inf = ||f_perp||`` (``f`` outside ``ker W``), ``t_lo = b0 / ||W f||`` and
    ``t_hi = ||W^{-1/2} f_perp|| / a_inf``, ``K(t) = t b0`` up to ``t_lo`` and ``a_inf`` from
    ``t_hi`` on, so with ``theta = alpha / r`` those ends of ``integral (t^-theta K)^q dt/t`` are
    ``b0^q t_lo^{q(1-theta)} / (q(1-theta))`` and ``a_inf^q t_hi^{-q theta} / (q theta)``.  Between,
    ``K`` bends sharply in ``v`` where ``d v / d log s`` is small: Romberg on a uniform grid in
    ``v`` was 2e-10 off at 2^14 points (complete:12, graph norm), and a tanh-sinh rule 3e-13 off at
    14,337 (raw_D ``diag:0,0.01,0.3,1,4,10``, ``r = 2``).  So the nodes are
    ``v_k = log(s B / A)`` at ``u_k = log s_k``, ``density`` per unit on
    ``[log(1e-18 / max w), log(1e18 / min w)]`` (``A``, ``B`` from ``s w`` directly, not the
    library's logs), between ``log t_lo`` and ``log t_hi``: off that range every ``x = s w`` is
    below 1e-18 or above 1e18, so the nodes miss at most 1e-18 of ``v`` at each end, which the
    sum takes at its end values.  ``K`` is the library's at those ``t`` (all at once,
    ``smoothness._k_functional_values``).  The map ``u -> v`` is smooth, so the trapezoid sum's
    error is a series in ``h^2`` (``h = 1 / density``), and Romberg's diagonal over ``levels``
    halvings of the density removes one term per level.  Tolerance: the diagonal converges
    faster than geometrically, so the difference of its last two entries bounds the error of
    the last; the oracle asserts it is below 1e-13 of the integral, so the norm is good to
    about 1e-13 / q relative, inside the 1e-12 its tests allow.  At ``q = inf`` the sup of
    ``t^-theta K`` is the largest of the two end values and ``sup_points`` uniform samples in
    ``v``, the best refined by a golden-section search between its neighbours.
    """
    vec = np.asarray(f, dtype=np.complex128)
    norm_f = float(np.linalg.norm(vec))
    lam2r = dec.eigenvalues ** (2 * params.r)
    w = lam2r if domain_norm == "seminorm" else 1.0 + lam2r
    mag2 = np.abs(spectral_transform(dec, vec)) ** 2
    p, w = mag2[w > 0.0], w[w > 0.0]
    if not np.any(p > 0.0):
        return norm_f
    theta, q = params.alpha / params.r, params.q
    b0, a_inf = math.sqrt(np.sum(p * w)), math.sqrt(np.sum(p))
    t_lo, t_hi = b0 / math.sqrt(np.sum(p * w * w)), math.sqrt(np.sum(p / w)) / a_inf
    ends = b0 * t_lo ** (1.0 - theta), a_inf * t_hi ** -theta  # t^-theta K at t_lo and t_hi
    _, c, e = _coefficients(dec, vec)

    def scaled_k(v):
        """``t^-theta K(t)`` at ``t = e^v``."""
        values, d = _k_functional_values(_measure(dec, c[None]), [e], np.exp(v), params.r,
                                         domain_norm)
        return np.exp(-theta * v) * _unscaled(values[0], d[0])

    if q == math.inf:
        v = np.linspace(math.log(t_lo), math.log(max(t_hi, t_lo)), sup_points)
        samples = scaled_k(v)
        k = int(np.argmax(samples))
        peak = _golden_max(lambda x: float(scaled_k(np.array([x]))[0]),
                           v[max(k - 1, 0)], v[min(k + 1, v.size - 1)], 90)
        return norm_f + max(*ends, float(samples.max()), peak)
    lo, hi = math.log(1e-18 / w.max()), math.log(1e18 / w.min())
    u = np.linspace(lo, hi, math.ceil(density * (hi - lo) / 2 ** levels) * 2 ** levels + 1)
    x = np.multiply.outer(np.exp(u), w)
    a2, b2 = np.sum(p * (x / (1.0 + x)) ** 2, axis=-1), np.sum(p * w / (1.0 + x) ** 2, axis=-1)
    v = np.clip(u + np.log(b2 / a2) / 2.0, math.log(t_lo), math.log(max(t_hi, t_lo)))
    y = scaled_k(v) ** q
    table = []
    for level in range(levels + 1):
        stride = 2 ** (levels - level)
        vs, ys = v[::stride], y[::stride]
        row = [float(np.sum((ys[1:] + ys[:-1]) / 2.0 * np.diff(vs)))
               + (vs[0] - math.log(t_lo)) * ys[0] + (math.log(max(t_hi, t_lo)) - vs[-1]) * ys[-1]]
        for j, prev in enumerate(table[-1] if table else []):  # Richardson: h^(2j + 2) out
            row.append(row[j] + (row[j] - prev) / (4.0 ** (j + 1) - 1.0))
        table.append(row)
    total = ends[0] ** q / (q * (1.0 - theta)) + ends[1] ** q / (q * theta) + table[-1][-1]
    assert abs(table[-1][-1] - table[-2][-1]) <= 1e-13 * total, (table[-2:], total)
    return norm_f + total ** (1.0 / q)


def modulus_capped_grid(dec, f, s, m, sup_grid=512, refine_depth=3):
    """The modulus search the library used before its uncapped shift scan.

    A uniform grid of ``max(sup_grid, 8 m periods + 1)`` points on [0, s],
    capped at 8192, then one golden-section refinement around the best
    grid point.  The cap makes it a lower bound when ``s lambda_max`` is
    large.
    """
    mag2 = np.abs(spectral_transform(dec, f)) ** 2
    if not np.any(mag2 > 0.0):
        return 0.0
    if s == 0.0 or m == 0:
        return math.sqrt(float(np.sum(mag2))) if m == 0 else 0.0
    lam_max = dec.lambda_max
    if lam_max == 0.0:
        return 0.0
    eigenvalues = dec.eigenvalues
    periods = s * lam_max / (2.0 * math.pi)
    n_grid = int(min(8192, max(sup_grid, 8 * m * periods + 1)))
    taus = np.linspace(0.0, s, n_grid)
    vals = _difference_norms(eigenvalues, mag2, taus, m)
    i_best = int(np.argmax(vals))
    lo = taus[max(0, i_best - 1)]
    hi = taus[min(n_grid - 1, i_best + 1)]

    def g(tau):
        return float(_difference_norms(eigenvalues, mag2, np.array([tau]), m)[0])

    refined = _golden_max(g, lo, hi, iters=30 * refine_depth)
    return max(float(vals[i_best]), refined)


def besov_seminorm_sup_per_s(dec, f, alpha, n, r, grid_points=512):
    """Modulus seminorm with a separate capped-grid modulus search at each grid s."""
    vec = np.asarray(f, dtype=np.complex128)
    g = operator_power(dec, n, vec) if n > 0 else vec
    mag2 = np.abs(spectral_transform(dec, g)) ** 2
    if not np.any(mag2 > 0.0) or dec.min_positive_eigenvalue == 0.0:
        return 0.0
    hi = 100.0 / dec.min_positive_eigenvalue
    s_grid = np.exp(np.linspace(math.log(0.01 / dec.lambda_max), math.log(hi), grid_points))
    best = 0.0
    for s in s_grid:
        omega_r = modulus_capped_grid(dec, g, float(s), r)
        best = max(best, s ** (n - alpha) * omega_r)
    return best


def seminorm_golden(dec, f, alpha, n, r, per_period=32, chunk=4096, iters=90):
    """``sup_tau tau^-beta ||Delta_tau^r D^n f||``, ``beta = alpha - n``: the modulus seminorm.

    A dense scan of ``tau^-beta phi(tau)`` (``per_period`` points per period
    ``2 pi / (r lambda_max)``, four times the library's), each local maximum refined by
    golden section, stopped by the library's rule: no ``tau`` past a point with
    ``tau^-beta 2^r ||g_perp|| <= best`` can do better (``g_perp``: ``D^n f`` above 0).
    """
    beta = alpha - n
    mag2 = np.abs(spectral_transform(dec, f) * dec.eigenvalues ** n) ** 2
    cap = 2.0 ** r * math.sqrt(float(np.sum(mag2[dec.eigenvalues > 0.0])))
    if cap == 0.0:
        return 0.0

    def weighted(taus):
        return taus ** -beta * _difference_norms(dec.eigenvalues, mag2, taus, r)

    step = 2.0 * math.pi / (per_period * r * dec.lambda_max)
    best, start = 0.0, 1
    while start == 1 or (start * step) ** -beta * cap > best:
        taus = np.arange(start - 1, start + chunk + 1) * step
        vals = np.append(0.0, weighted(taus[1:])) if start == 1 else weighted(taus)
        peaks = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
        _, refined = _golden_max_many(weighted, taus[peaks - 1], taus[peaks + 1], iters)
        best = max(best, float(np.max(vals)), float(np.max(refined, initial=0.0)))
        start += chunk
    return best


def distance_by_projector(dec, f, omega):
    """``||f - P f||`` with the explicit projector ``P = V_w V_w^T`` onto PW_omega."""
    basis = dec.eigenvectors[:, dec.eigenvalues <= omega]
    vec = np.asarray(f, dtype=np.complex128)
    return float(np.linalg.norm(vec - basis @ (basis.T @ vec)))


def riesz_symbol_direct(lam, cfg):
    """All 2K+1 terms of the Riesz series from one N x (2K+1) phase matrix."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    k = np.arange(-cfg.k_trunc, cfg.k_trunc + 1)
    half = k - 0.5
    signs = np.where(k % 2 == 0, -1.0, 1.0)
    coefs = (cfg.omega / math.pi ** 2) * signs / half ** 2
    phases = np.exp(1j * (math.pi / cfg.omega) * np.outer(lam, half))
    return phases @ coefs


def riesz_symbol_paired(lam, cfg):
    """The paired baby-step/giant-step sum of ``approx_operators.riesz_symbol`` with every phase
    taken directly: ``b + Q`` exponentials per distinct point and band edge (``b = ceil(sqrt K)``,
    ``Q = ceil(K / b)``), each ``e^{i theta x}`` from its own argument."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    k_trunc = cfg.k_trunc
    b = math.isqrt(k_trunc - 1) + 1
    n_giant = -(-k_trunc // b)
    r = np.arange(b, 0, -1)  # descending, so each sum adds its largest term last
    k = r[:, None] + b * np.arange(n_giant)
    t = np.where(k > k_trunc, np.inf, np.where(k % 2 == 0, -1.0, 1.0) * (k - 0.5) ** 2)
    t_unpaired = (1.0 if k_trunc % 2 else -1.0) * (k_trunc + 0.5) ** 2  # k = -K
    bits, inverse = np.unique(lam.ravel().view(np.int64), return_inverse=True)
    points = np.resize(bits, max(bits.size, 2)).view(np.float64)
    baby_grid = np.outer(points, r - 0.5)
    giant_grid = np.outer(points, b * np.arange(1, n_giant))
    unpaired_grid = points * (-k_trunc - 0.5)
    out = np.empty((np.size(cfg.omega), points.size), dtype=np.complex128)
    for row, omega in zip(out, np.ravel(cfg.omega).tolist()):
        scale, weight = math.pi / omega, omega / math.pi ** 2
        steps = np.exp(1j * scale * baby_grid) @ (weight / t)
        paired = (steps[:, 0] + np.sum(steps[:, 1:] * np.exp(1j * scale * giant_grid),
                                       axis=1)).imag
        row[:] = 2j * paired + weight / t_unpaired * np.exp(1j * scale * unpaired_grid)
    return out[:, inverse].reshape(np.shape(cfg.omega) + lam.shape)


def riesz_symbol_mpmath(lam, omega, k_trunc):
    """The truncated Riesz series at one float ``lam`` in 30-digit arithmetic.

    Sums all 2K+1 terms from k = -K upward; each phase is the previous one
    times ``e^{i theta}``, a recurrence whose rounding stays far below
    double precision at this working precision.
    """
    with mpmath.workdps(30):
        theta = mpmath.pi * mpmath.mpf(lam) / mpmath.mpf(omega)
        phase = mpmath.expj(theta * (-k_trunc - mpmath.mpf(0.5)))
        step = mpmath.expj(theta)
        total = mpmath.mpc(0)
        for k in range(-k_trunc, k_trunc + 1):
            half = mpmath.mpf(2 * k - 1) / 2
            total += (1 if k % 2 else -1) * phase / (half * half)
            phase *= step
        return complex(total * mpmath.mpf(omega) / mpmath.pi ** 2)


def distances_by_element(dec, fc, omegas):
    """The E distances one element at a time, each residual ``v - V (masked c)`` synthesized on
    its own over all N columns and measured by ``np.linalg.norm``: the E route of
    ``paley_wiener._distances`` sums the same products in another order, and the two agree
    within ``N eps ||f||`` (``tests/test_sweeps.py``)."""
    v, c, e = fc
    shape, rows, (ends, e) = _broadcast(c, _pw_prefix(dec, omegas), e)
    v, c, j = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), np.arange(dec.dim)
    norms = [np.linalg.norm(v[i] - _basis_product(dec.eigenvectors, np.where(j < end, c[i], 0)))
             for i, end in zip(rows.tolist(), ends.tolist())]
    return _unscaled(np.reshape(norms, shape), e.reshape(shape))


def cycle_measure(n, f):
    """The spectral measure ``(nodes, norms)`` of the rows of ``f`` (``(..., n)``) under cycle:n,
    in closed form and with no basis: the unitary DFT coefficients k and n - k of each row pooled
    into the eigenspace of ``D = L^{1/2}`` at ``2 sin(pi k / n)``, k = 0 .. n // 2."""
    k = np.arange(n // 2 + 1)
    a = np.abs(np.fft.fft(np.asarray(f, dtype=np.complex128), axis=-1, norm="ortho"))
    pair = np.where((k == 0) | (2 * k == n), 0.0, a[..., (n - k) % n])  # k = 0, n/2: one mode
    return 2.0 * np.sin(np.pi * k / n), np.hypot(a[..., k], pair)


def cycle_decomposition(n):
    """cycle:n (n even) decomposed in closed form, with no eigensolver: the group values of
    :func:`cycle_measure` on the real Fourier basis, the constant, the cosine and sine of each
    frequency 0 < k < n/2, and the alternating vector."""
    j, k = np.arange(n), np.arange(1, n // 2)
    waves = np.outer(j, k) * (2.0 * np.pi / n)
    pairs = math.sqrt(2.0 / n) * np.stack((np.cos(waves), np.sin(waves)), axis=-1).reshape(n, -1)
    basis = np.column_stack((np.full(n, n ** -0.5), pairs, (-1.0) ** j / math.sqrt(n)))
    values = cycle_measure(n, np.zeros(n))[0]
    return SpectralDecomposition(np.repeat(values, [1] + [2] * (n // 2 - 1) + [1]), basis)


def laplacian_by_loop(num_nodes, edges):
    """The graph Laplacian of the weighted edges ``(u, v, w)``, one edge and one entry at a time."""
    lap = np.zeros((num_nodes, num_nodes))
    for u, v, w in edges:
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


def tails_by_element(dec, fc, omegas):
    """The R distances one element at a time, each tail ``||c[end:]||`` by ``np.linalg.norm`` at
    the scale of ``c``: one below ``2^-480`` (its squares may have underflowed) is taken again at
    its own power-of-two scale (``_norm``).  The coefficient route before the library read the
    tails off the spectral measure, whose eigenspace norms it sums by ``hypot``."""
    _, c, e = fc
    shape, rows, (ends, e) = _broadcast(c, _pw_prefix(dec, omegas), e)
    c, norms = c.reshape(-1, dec.dim), []
    for i, end in zip(rows.tolist(), ends.tolist()):
        norm = np.linalg.norm(c[i, end:])
        norms.append(_norm(c[i, end:]) if norm < 2.0 ** -480 and end < dec.dim else norm)
    return _unscaled(np.reshape(norms, shape), e.reshape(shape))


def distances_by_masked_blocks(dec, fc, omegas):
    """The E route's block definition before it became a running sum, one element at a time:
    with ``W = _E_BLOCK`` and ``k = end // W``, the prefix ``P_k`` summed block by block in a
    Python loop (``P_0 = 0``), the partial block masked below the cut, the residual
    ``v - (P_k + partial)``, its norm and the re-take below ``2^-480`` at its own scale.  Each
    masked block cost O(N W) per cut; ``paley_wiener._distances`` agrees with it within
    ``N eps ||f||`` (``tests/test_sweeps.py``)."""
    w, (v, c, e) = paley_wiener._E_BLOCK, fc
    shape, rows, (ends, e) = _broadcast(c, _pw_prefix(dec, omegas), e)
    v, c, basis = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), dec.eigenvectors
    norms = []
    for i, end in zip(rows.tolist(), ends.tolist()):
        prefix, k = np.zeros(dec.dim, complex), end // w
        for b in range(k):
            prefix = prefix + _basis_product(basis[:, b * w:(b + 1) * w], c[i, b * w:(b + 1) * w])
        cols = slice(k * w, (k + 1) * w)
        z = np.where(np.arange(dec.dim)[cols] < end, c[i, cols], 0)
        r = v[i] - (prefix + _basis_product(basis[:, cols], z))
        norm = math.sqrt(np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag))
        norms.append(_norm(r) if norm < 2.0 ** -480 and end < dec.dim else norm)
    return _unscaled(np.reshape(norms, shape), e.reshape(shape))


def distances_by_running_sum(dec, fc, omegas):
    """The E route of ``paley_wiener._distances`` by its definition, one element at a time: with
    ``W = _E_BLOCK`` and ``k = end // W``, the block base ``b_k`` from ``b_0 = v`` by subtracting
    the full-block products ``V[:, bW:(b+1)W] c[bW:(b+1)W]`` block by block, then the terms
    ``t_j = V[:, j] c_j`` of the partial block subtracted column by column in a Python loop,
    ``j = kW .. end - 1``; the norm of the residual and the re-take below ``2^-480`` at its own
    scale."""
    w, (v, c, e) = paley_wiener._E_BLOCK, fc
    shape, rows, (ends, e) = _broadcast(c, _pw_prefix(dec, omegas), e)
    v, c, basis = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), dec.eigenvectors
    norms = []
    for i, end in zip(rows.tolist(), ends.tolist()):
        r = v[i].copy()
        for b in range(end // w):
            r = r - _basis_product(basis[:, b * w:(b + 1) * w], c[i, b * w:(b + 1) * w])
        for j in range(end // w * w, end):
            t = np.empty(dec.dim, complex)
            t.real, t.imag = basis[:, j] * c[i, j].real, basis[:, j] * c[i, j].imag
            r = r - t
        norm = math.sqrt(np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag))
        norms.append(_norm(r) if norm < 2.0 ** -480 and end < dec.dim else norm)
    return _unscaled(np.reshape(norms, shape), e.reshape(shape))


def q_symbol_by_shifts(kernel, omega, m, lam, transform=None):
    """The Q symbol ``sum_j b_j h_transform(j lam / omega)`` of ``approx_operators.q_symbol`` one
    shift at a time: a kernel transform per shift ``j`` (``transform``, by default the closed
    form ``kernel.symbol``), the terms added by Python's ``sum`` in ``j`` order; of shape
    ``omega.shape + lam.shape`` for a 1-D ``lam``."""
    transform = kernel.symbol if transform is None else transform
    omega = np.asarray(omega, dtype=np.float64)
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    return sum((-1.0) ** (j + 1) * math.comb(m, j) * transform(j * lam / omega[..., None])
               for j in range(1, m + 1))


def q_symbol_mpmath(n, m, lam, omega, dps=80):
    """The Q symbol of the order-``n`` kernel at one point ``lam``, exactly: the B-spline
    transform of each shift by its truncated-power sum and the integer weights
    ``(-1)^{j+1} C(m, j)``, at ``dps`` digits, from the doubles ``lam`` and ``omega``."""
    def bspline(x):  # the centered B-spline of order n at x, as Uniform sums
        return sum((-1) ** k * math.comb(n, k) * (x + mpmath.mpf(n) / 2 - k) ** (n - 1)
                   for k in range(n + 1) if x + mpmath.mpf(n) / 2 - k > 0)

    with mpmath.workdps(dps):
        xis = [j * mpmath.mpf(lam) / mpmath.mpf(omega) for j in range(1, m + 1)]
        total = sum((-1) ** (j + 1) * math.comb(m, j) * bspline(n * xi / 2)
                    for j, xi in enumerate(xis, start=1) if abs(xi) < 1)
        return float(total / bspline(0))


def q_symbol_by_quadrature(kernel, omega, m, lam):
    """:func:`q_symbol_by_shifts` with each kernel transform by oscillatory quadrature
    (``kernel_symbol_by_quadrature``), not by its closed form."""
    return q_symbol_by_shifts(kernel, omega, m, lam,
                              lambda xi: kernel_symbol_by_quadrature(kernel, xi))


def operator_power(dec, s, f):
    """Apply ``D^s`` for real ``s >= 0`` (``D^0`` is the identity); ``s`` broadcasts against the
    rows of ``f``, one scalar power per value (an array exponent may round differently)."""
    s = _axis(s)
    if not np.all(s >= 0):
        raise InvalidParamsError(f"power must be nonnegative, got {s}")
    return apply_multiplier(dec, lambda lam: np.reshape(
        [np.power(lam, x) for x in s.ravel().tolist()], s.shape + lam.shape), f)


def dense_union_check(dec, f, eps):
    """The first step node ``omega`` (0 or a group value) with ``E(f, omega) <= eps``, per row of
    ``f``: the density of the union of the ``PW_omega``, read off one ``spectral_tail`` call at
    every step node.  Such a node exists for every ``eps >= 0``, as ``E(f, lambda_max) = 0``."""
    nodes = np.union1d(0.0, dec.eigenvalues)
    tails = spectral_tail(dec, np.expand_dims(f, -2), nodes)
    first = nodes[np.argmax(tails <= eps, axis=-1)]
    return float(first) if first.ndim == 0 else first


def jacobi_eigh_row_column(matrix, tol=_JACOBI_TOL, max_sweeps=100):
    """``operators._jacobi_eigh`` by the two-sided rotation: each step turns rows p and q of
    ``A``, then its columns p and q, then the columns p and q of ``V``, all on NumPy arrays.
    The same cyclic order, scaling, stopping rule, sort and sign rule."""
    n = len(matrix)
    (a, e), v = _scaled(np.array(matrix, dtype=np.float64).ravel()), np.eye(n)
    a = a.reshape(n, n)
    threshold = tol * float(np.linalg.norm(a))
    sweeps = 0
    while np.linalg.norm(a - np.diag(a.diagonal())) > threshold:  # the off-diagonal norm
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("Jacobi iteration failed to converge")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # rotate rows/columns p and q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]

    w = _unscaled(a.diagonal().copy(), e)
    order = np.argsort(w, kind="stable")
    w, v = w[order], v[:, order]
    # deterministic sign: largest-magnitude component of each column positive
    signs = np.where(v[np.abs(v).argmax(axis=0), np.arange(n)] < 0, -1.0, 1.0) if n else 1.0
    return w, v * signs
