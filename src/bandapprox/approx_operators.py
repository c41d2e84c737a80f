"""Riesz interpolation and kernel-smoothed quasi-interpolation operators.

Two bounded operators built from the unitary group ``e^{itD}``:

* the Riesz interpolation series, a weighted sum of group shifts whose
  spectral symbol converges to ``i*lambda`` on a band ``[0, omega]``; on
  bandlimited vectors its powers reproduce ``(iD)^n``;
* the quasi-interpolation operator: an even nonnegative kernel
  ``h(t) = a (sin(t/n)/t)^n`` of exponential type one is integrated
  against combinations of group shifts.  Its spectral symbol is a sum of
  dilated kernel transforms, which vanish beyond the band, so the
  operator maps every vector into ``PW_omega`` with Jackson-type error
  control through the modulus of continuity, which :func:`jackson_check`
  measures for a block of vectors at an axis of band edges in one call.

The kernel transform has two independent evaluators that must agree:
oscillatory quadrature (composite Gauss-Legendre with an analytic tail
correction) and a closed form, since the transform of a sinc power is a
scaled uniform B-spline supported on [-1, 1].
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidParamsError,
    KernelOrderMismatchError,
    NegativeOmegaError,
    NotBandlimitedError,
    OddOrderError,
    OrderTooSmallError,
)
from .operators import (
    SpectralDecomposition,
    _basis_product,
    _broadcast,
    _check_order,
    _coefficients,
    _is_int,
    _norm,
    _power_coefficients,
    _shaped,
    apply_multiplier,
    as_vector,
)
from .paley_wiener import _distances, _in_pw
from .smoothness import _moduli, _safe_ratio

# -- small numerics ------------------------------------------------------------

def _sinc(u):
    """sin(u)/u with a series switchover near the removable singularity."""
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < 1e-3
    safe = np.where(small, 1.0, u)
    u2 = u * u
    series = 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0 * (1.0 - u2 / 72.0)))
    return np.where(small, series, np.sin(safe) / safe)


def _kernel_profile(n: int, t):
    """(sin(t/n)/t)^n, the unnormalized kernel; nonnegative for even n."""
    t = np.asarray(t, dtype=np.float64)
    return float(n) ** (-n) * _sinc(t / n) ** n


def _uniform_bspline(n: int, y):
    """Uniform B-spline of order n (degree n-1) on knots 0..n, Cox-de Boor.

    All recurrence weights are nonnegative on the support, so the
    evaluation is numerically stable for any order.
    """
    y = np.asarray(y, dtype=np.float64)
    vals = [np.where((i <= y) & (y < i + 1), 1.0, 0.0) for i in range(n)]
    for d in range(1, n):
        vals = [((y - i) * vals[i] + (i + d + 1 - y) * vals[i + 1]) / d
                for i in range(n - d)]
    return vals[0]


def _centered_bspline(n: int, x):
    """Density of the sum of n iid Uniform[-1/2, 1/2] variables at x."""
    return _uniform_bspline(n, np.asarray(x, dtype=np.float64) + n / 2.0)


def _composite_gauss(t_max: float, panel_len: float, nodes_per_panel: int):
    """Gauss-Legendre nodes/weights tiling [0, t_max]."""
    panels = max(1, math.ceil(t_max / panel_len))
    edges = np.linspace(0.0, t_max, panels + 1)
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _sin_power_fourier(n: int):
    """Mean and cosine coefficients of sin(u)^n for even n.

    sin^n u = mean + sum_l gamma_l cos(2 l u), l = 1..n/2.
    """
    mean = math.comb(n, n // 2) / 2.0 ** n
    gammas = np.array([2.0 * (-1.0) ** l * math.comb(n, n // 2 - l) / 2.0 ** n
                       for l in range(1, n // 2 + 1)])
    return mean, gammas


def _psi_moment(n: int, p: int, refine: int = 1) -> float:
    """``integral over (0, inf)`` of ``(sin(t/n)/t)^n t^p``.

    Composite Gauss-Legendre up to T plus an analytic tail: beyond T the
    oscillation ``sin(t/n)^n`` is split into its mean and finitely many
    cosines; the mean integrates exactly against ``t^{p-n}`` and each
    cosine term gets a two-step integration by parts whose remainder is
    O(T^{p-n-1}).  Requires tail exponent n - p >= 2.
    """
    q = n - p
    if q < 2:
        raise OrderTooSmallError(
            f"moment p={p} needs kernel order n >= p + 2, got n={n}")
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

# -- the kernel ----------------------------------------------------------------

class ApproxKernel:
    """Normalized kernel ``h(t) = a (sin(t/n)/t)^n`` for even order n >= 4.

    Even, nonnegative, unit mass, and of exponential type one: its
    transform vanishes outside [-1, 1].  ``norm_const`` is ``a``, fixed by
    quadrature so the mass is 1.  Supports difference orders up to n - 3.
    """

    def __init__(self, n: int, norm_const: float):
        self.n = int(n)
        self.norm_const = float(norm_const)
        self._bspline_center = float(_centered_bspline(self.n, 0.0))
        self._moments: dict[int, float] = {}

    def __repr__(self):
        return f"ApproxKernel(n={self.n}, norm_const={self.norm_const!r})"

    def h(self, t):
        """Kernel values; ``h(0) = norm_const * n^{-n}``."""
        return self.norm_const * _kernel_profile(self.n, t)

    def symbol(self, xi):
        """Closed-form transform: a scaled B-spline, exactly 0 for |xi| >= 1."""
        x = np.asarray(xi, dtype=np.float64)
        return _centered_bspline(self.n, self.n * x / 2.0) / self._bspline_center

    def symbol_quadrature(self, xi):
        """Transform by oscillatory quadrature of ``2 a psi(t) cos(xi t)``."""
        x = np.atleast_1d(np.asarray(xi, dtype=np.float64))
        xi_max = float(np.max(np.abs(x))) if x.size else 0.0
        n = self.n
        t_max = (2.0 * self.norm_const / ((n - 1) * 1e-10)) ** (1.0 / (n - 1))
        t_max = min(max(t_max, 500.0), 1e5)
        panel_len = min(n * math.pi / 2.0, 8.0 / (1.0 + xi_max))
        nodes, weights = _composite_gauss(t_max, panel_len, 16)
        psi_w = weights * _kernel_profile(n, nodes)
        vals = 2.0 * self.norm_const * (np.cos(np.outer(x, nodes)) @ psi_w)
        return vals.reshape(np.shape(xi)) if np.ndim(xi) else float(vals[0])

    def moment(self, p: int) -> float:
        """``integral of h(t) |t|^p dt``; finite for p <= n - 2."""
        if p not in self._moments:
            self._moments[p] = 2.0 * self.norm_const * _psi_moment(self.n, p)
        return self._moments[p]


_KERNEL_CACHE: dict[int, ApproxKernel] = {}

#: mass-normalization verification tolerance for build_kernel
KERNEL_MASS_TOL = 1e-8


def build_kernel(n: int, m: int) -> ApproxKernel:
    """Construct and validate the kernel of order ``n`` for difference order ``m``.

    ``n`` must be even and at least ``m + 3``.  The normalization constant
    comes from quadrature; it is verified against a refined quadrature
    (doubled range and node count) and the moment of order ``m`` is
    computed to confirm finiteness; a constant beyond the doubles raises InvalidParamsError.
    """
    if n != int(n) or int(n) % 2 != 0:
        raise OddOrderError(f"kernel order must be even, got {n}")
    n = int(n)
    _check_order(m, 1, KernelOrderMismatchError)
    if n < m + 3:
        raise OrderTooSmallError(f"kernel order n={n} must be >= m + 3 = {m + 3}")
    if n not in _KERNEL_CACHE:
        with np.errstate(divide="ignore", over="ignore"):
            a = 1.0 / (2.0 * np.float64(_psi_moment(n, 0)))
        if not 0.0 < a < math.inf:  # (sin(t/n)/t)^n underflows, and the mass with it
            raise InvalidParamsError(f"kernel order n={n} too large: constant {float(a)!r}")
        refined = _psi_moment(n, 0, refine=2)
        mass_refined = 2.0 * a * refined
        if abs(mass_refined - 1.0) > KERNEL_MASS_TOL:
            raise RuntimeError(
                f"kernel mass normalization unstable: refined mass {mass_refined!r}")
        _KERNEL_CACHE[n] = ApproxKernel(n=n, norm_const=a)
    kernel = _KERNEL_CACHE[n]
    if not math.isfinite(kernel.moment(m)):
        raise RuntimeError(f"kernel moment of order {m} is not finite")
    return kernel


def kernel_symbol(kernel: ApproxKernel, xi, method: str = "bspline"):
    """Evaluate the kernel transform by either of the two interchangeable routes."""
    if method == "bspline":
        return kernel.symbol(xi)
    if method == "quadrature":
        return kernel.symbol_quadrature(xi)
    raise InvalidParamsError(f"unknown method {method!r}")


# -- Riesz interpolation operator ----------------------------------------------

def _trigamma(x: float) -> float:
    """``psi_1(x)``, ``x > 0``: ``1/x^2 + psi_1(x + 1)`` (smallest terms first) up to ``x >= 20``,
    then ``1/x + 1/(2x^2) + sum_{j=1..5} B_2j / x^(2j+1)`` (DLMF 5.15.8; A&S 6.4.12)."""
    if x < 20.0:
        return 1.0 / (x * x) + _trigamma(x + 1.0)
    series = 0.0
    for b2j in (5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6):  # B_10 down to B_2
        series = b2j + series / (x * x)
    return (1.0 + (0.5 + series / x) / x) / x


@dataclass(frozen=True)
class RieszConfig:
    """Band edge and symmetric truncation order of the interpolation series."""

    omega: float
    k_trunc: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.omega < math.inf):
            raise InvalidConfigError(f"omega must be finite and > 0, got {self.omega}")
        if not (_is_int(self.k_trunc) and self.k_trunc >= 1):
            raise InvalidConfigError(f"k_trunc must be an integer >= 1, got {self.k_trunc!r}")

    @property
    def tail_bound(self) -> float:
        """Operator-norm bound on the dropped part of the series (trigamma tails)."""
        k = self.k_trunc
        return float(self.omega / math.pi ** 2 * (_trigamma(k + 0.5) + _trigamma(k + 1.5)))


def _riesz_coefs(k, omega: float):
    """Series weights ``c_k = (omega / pi^2) (-1)^{k+1} / (k - 1/2)^2``."""
    return (omega / math.pi ** 2) * np.where(k % 2 == 0, -1.0, 1.0) / (k - 0.5) ** 2


def riesz_symbol(lam, cfg: RieszConfig) -> np.ndarray:
    """Truncated spectral symbol of the interpolation series at points ``lam``.

    Converges to ``i * lam`` for ``|lam| <= omega`` as the truncation grows;
    its modulus never exceeds ``omega``.

    The series ``sum_{k=-K}^{K} c_k e^{i theta (k - 1/2)}`` with
    ``theta = pi lam / omega`` is summed with about ``2 N sqrt K``
    exponentials in O(N sqrt K + K) memory.  Since ``c_{1-k} = -c_k``, the
    terms ``k`` and ``1 - k`` pair to ``2i c_k sin(theta (k - 1/2))``, which
    leaves ``k = -K`` unpaired.  The paired sum over ``k = b q + r``
    (``b = ceil(sqrt K)``, ``r = 1..b``) is one GEMM of the baby steps
    ``e^{i theta (r - 1/2)}`` against the coefficient block, weighted by the
    giant steps ``e^{i theta b q}`` (Paterson-Stockmeyer).  The split starts
    at ``k = 1``, so the dominant terms (``q = 0``) keep their directly
    computed phase; they are summed smallest first and added after the
    rest, which keeps the band-edge value within a few ulps of ``omega``.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    k_trunc = cfg.k_trunc
    scale = math.pi / cfg.omega
    b = math.isqrt(k_trunc - 1) + 1
    n_giant = -(-k_trunc // b)
    r = np.arange(b, 0, -1)  # descending, so each sum adds its largest term last
    k = r[:, None] + b * np.arange(n_giant)
    block = np.where(k <= k_trunc, _riesz_coefs(k, cfg.omega), 0.0)
    baby = np.exp(1j * scale * np.outer(lam, r - 0.5))
    giant = np.exp(1j * scale * np.outer(lam, b * np.arange(1, n_giant)))
    steps = baby @ block
    paired = (steps[:, 0] + np.sum(steps[:, 1:] * giant, axis=1)).imag
    unpaired = np.exp(1j * scale * (lam * (-k_trunc - 0.5)))
    return 2j * paired + _riesz_coefs(-k_trunc, cfg.omega) * unpaired


def riesz_apply(dec: SpectralDecomposition, f, cfg: RieszConfig) -> np.ndarray:
    """Apply the truncated Riesz interpolation operator as a diagonal multiplier."""
    return apply_multiplier(dec, lambda lam: riesz_symbol(lam, cfg), f)


@dataclass(frozen=True, eq=False)
class RieszIdentityReport:
    """Relative residual of ``(iD)^n f`` against ``n`` powers of the series."""

    residual: float
    tail_bound: float
    k_trunc: int
    omega: float
    power: int


def riesz_identity_check(dec: SpectralDecomposition, f, omega: float, power: int = 1,
                         k_trunc: int = 10_000) -> RieszIdentityReport:
    """Residual ``||(iD)^n f - R^n f|| / ||f||`` for bandlimited ``f``.

    The residual shrinks as the truncation grows (empirically like 1/K);
    the analytic tail bound of the truncation is attached to the report.
    """
    if not (_is_int(power) and power >= 1):
        raise InvalidParamsError(f"power must be an integer >= 1, got {power!r}")
    cfg = RieszConfig(omega=omega, k_trunc=k_trunc)
    v, c, e = _coefficients(dec, as_vector(f, dec.dim))
    norm_f = _norm(v, e)
    residual = 0.0
    if norm_f > 0.0:
        if not _in_pw(dec, c, omega, np.linalg.norm(v)):
            raise NotBandlimitedError(f"vector has spectral mass above omega={omega}")
        rho = riesz_symbol(dec.eigenvalues, cfg)
        residual = _norm((1j * dec.eigenvalues) ** power * c - rho ** power * c, e) / norm_f
    return RieszIdentityReport(residual=residual, tail_bound=cfg.tail_bound,
                               k_trunc=k_trunc, omega=omega, power=power)


# -- quasi-interpolation operator ------------------------------------------------

def shift_coefficients(m: int) -> np.ndarray:
    """Weights ``b_j = (-1)^{j+1} C(m, j)`` of the group shifts; they sum to 1."""
    _check_order(m, 1, KernelOrderMismatchError)
    return np.array([(-1.0) ** (j + 1) * math.comb(m, j) for j in range(1, m + 1)])


def q_symbol(kernel: ApproxKernel, omega: float, m: int, lam,
             method: str = "bspline") -> np.ndarray:
    """Spectral symbol ``sum_j b_j h_transform(j lam / omega)`` of the Q operator, of shape
    ``omega.shape + lam.shape`` for a 1-D ``lam``."""
    omega = np.asarray(omega, dtype=np.float64)
    if not np.all(omega > 0.0):
        raise NegativeOmegaError(f"omega must be > 0, got {omega}")
    _check_order(m, 1, KernelOrderMismatchError)
    if kernel.n < m + 3:
        raise KernelOrderMismatchError(
            f"kernel order n={kernel.n} too small for m={m} (needs n >= m + 3)")
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    return sum(bj * kernel_symbol(kernel, j * lam / omega[..., None], method)
               for j, bj in enumerate(shift_coefficients(m), start=1))


def q_apply(dec: SpectralDecomposition, f, omega: float, m: int,
            kernel: ApproxKernel, method: str = "bspline") -> np.ndarray:
    """Quasi-interpolation of ``f`` into PW_omega.

    Evaluated through the spectral symbol (exact up to the kernel-transform
    evaluation); ``method="quadrature"`` switches the transform to the
    oscillatory-quadrature route, which serves as the validation oracle.
    The zero-eigenvalue component passes through unchanged because the
    shift weights sum to 1 and the transform is 1 at the origin.  ``omega``
    broadcasts against the rows of ``f``.
    """
    return apply_multiplier(dec, lambda lam: q_symbol(kernel, omega, m, lam, method), f)


# -- Jackson machinery -----------------------------------------------------------


def jackson_constant(kernel: ApproxKernel, m: int, k: int) -> float:
    """``integral of h(t) |t|^k (1 + |t|)^m dt``; finiteness needs ``n >= k + m + 2``.

    The exponent ``m`` dominates the proof's ``m - k``, so the direct estimate stays valid.
    """
    _check_order(m, 0, IndexOutOfRangeError, k)
    if kernel.n < k + m + 2:
        raise OrderTooSmallError(
            f"kernel order n={kernel.n} too small for moment k + m = {k + m}")
    return float(sum(math.comb(m, i) * kernel.moment(k + i) for i in range(m + 1)))


@dataclass(frozen=True, eq=False)
class JacksonReport:
    """Both links of the direct-estimate chain, as measured ratios.

    ``E <= ||Qf - f|| <= (C / omega^k) * Omega_{m-k}(D^k f, 1/omega)``;
    ``ratio_best`` and ``ratio_q`` divide the first and second quantities
    by the right-hand side, ``link_gap`` is ``E - ||Qf - f||`` (<= 0 up to
    rounding).  A vanishing bound gives a ratio of 0 when the error
    vanishes too and ``inf`` otherwise, instead of raising.
    """

    best: float
    q_error: float
    bound: float
    constant: float
    ratio_best: float
    ratio_q: float
    link_gap: float


def jackson_check(dec: SpectralDecomposition, f, omega, m: int, k: int,
                  kernel: ApproxKernel) -> JacksonReport:
    """Measure the direct-estimate chain of ``f`` at the band edge ``omega``.

    ``omega`` broadcasts against the rows of ``f`` (shape ``(..., N)``), and the report's
    numbers take the broadcast shape.  Each Q symbol is evaluated once per entry of
    ``omega``, and one shift scan gives the moduli of every row at its every ``1/omega``:
    the grid depends on ``m - k`` and ``lambda_max`` only, so they equal one scan per edge.
    """
    _check_order(m, 0, IndexOutOfRangeError, k)
    v, c, e = fc = _coefficients(dec, f)
    omega = np.asarray(omega, dtype=np.float64)
    symbols = np.array([q_symbol(kernel, w, m, dec.eigenvalues) for w in omega.ravel().tolist()])
    const = jackson_constant(kernel, m, k)
    shape, rows, (edge,) = _broadcast(c, np.arange(omega.size).reshape(omega.shape))
    ws = omega.ravel()[edge]
    v, c, e = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), np.ravel(e)
    moduli = np.empty(len(rows))
    if len(rows):  # each row's edges, as one row of shifts of the scan
        order = np.argsort(rows, kind="stable")
        moduli[order] = _moduli(dec, _power_coefficients(dec, c, k), e,
                                (1.0 / ws[order]).reshape(len(c), -1), m - k).ravel()
    q_errs = _norm(_basis_product(dec.eigenvectors, symbols.reshape(-1, dec.dim)[edge] * c[rows])
                   - v[rows], e[rows]).tolist()
    best = _distances(dec, fc, omega, "E").ravel().tolist()
    bounds = (const * moduli / ws ** k).tolist()
    scales = _norm(v, e)[rows].tolist()
    return JacksonReport(
        best=_shaped(best, shape), q_error=_shaped(q_errs, shape), bound=_shaped(bounds, shape),
        constant=const,
        ratio_best=_shaped(list(map(_safe_ratio, best, bounds, scales)), shape),
        ratio_q=_shaped(list(map(_safe_ratio, q_errs, bounds, scales)), shape),
        link_gap=_shaped(np.subtract(best, q_errs), shape))
