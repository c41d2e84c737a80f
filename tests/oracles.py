"""Independent oracles shared by the test modules.

Each oracle recomputes a quantity by a route different from the library
implementation: brute-force grids, piecewise quadrature, closed forms,
or repeated operator application.  They stay deliberately dumb.
"""

import math

import mpmath
import numpy as np

from bandapprox import best_approx, operator_power, schrodinger_group, spectral_transform
from bandapprox.approx_operators import _centered_bspline
from bandapprox.smoothness import _difference_norms


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


def kernel_norm_const_closed_form(n):
    """Normalization constant via the B-spline value: n^{n-1} / (pi M_n(0))."""
    return n ** (n - 1) / (math.pi * float(_centered_bspline(n, 0.0)))


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

    Same scan points (8 per period ``2 pi / (m lambda_max)``) and binning as
    ``smoothness._running_modulus``, in one piece, with 90 golden-section
    steps per peak in place of the clipped Newton steps.
    """
    def phi(taus):
        return _difference_norms(eigenvalues, mag2, taus, m)

    step = 2.0 * math.pi / (8 * m * float(eigenvalues[-1]))
    taus = np.arange(math.ceil(s_values[-1] / step) + 1) * step
    vals = phi(taus)
    peaks = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    peak_taus, peak_vals = _golden_max_many(phi, taus[peaks - 1], taus[peaks + 1], iters)
    bins = np.append(phi(s_values), 0.0)
    np.maximum.at(bins, np.searchsorted(s_values, np.concatenate((taus, peak_taus))),
                  np.concatenate((vals, peak_vals)))
    return np.maximum.accumulate(bins[:-1])


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


def k_besov_norm_golden(dec, f, params, grid_points=200, domain_norm="seminorm"):
    """K-functional Besov norm with one separate golden search per grid t."""
    vec = np.asarray(f, dtype=np.complex128)
    norm_f = float(np.linalg.norm(vec))
    if norm_f == 0.0:
        return 0.0
    r = params.r
    if dec.lambda_max == 0.0:
        return norm_f
    u = np.linspace(math.log(1e-6 / dec.lambda_max ** r), math.log(1e6), grid_points)
    k_vals = np.array([k_functional_golden(dec, vec, math.exp(ui), r, domain_norm)
                       for ui in u])
    scaled = np.exp(-(params.alpha / r) * u) * k_vals
    if params.is_sup:
        return norm_f + float(np.max(scaled))
    return norm_f + float(np.trapezoid(scaled ** params.q, u)) ** (1.0 / params.q)


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
