"""Riesz interpolation and kernel-smoothed quasi-interpolation operators.

Two bounded operators built from the unitary group ``e^{itD}``:

* the Riesz interpolation series, a weighted sum of group shifts whose
  spectral symbol converges to ``i*lambda`` on a band ``[0, omega]``; on
  bandlimited vectors its powers reproduce ``(iD)^n``, at an axis of band edges;
* the quasi-interpolation operator: an even nonnegative kernel
  ``h(t) = a (sin(t/n)/t)^n`` of exponential type one is integrated
  against combinations of group shifts.  Its spectral symbol is a sum of
  dilated kernel transforms, which vanish beyond the band, so the
  operator maps every vector into ``PW_omega`` with Jackson-type error
  control through the modulus of continuity, which :func:`jackson_check`
  measures for a block of vectors at an axis of band edges in one call.

The kernel's constants are closed forms: its transform is a scaled
uniform B-spline supported on [-1, 1], since the kernel is a sinc power,
and its mass and moments are the finite sums of Gradshteyn & Ryzhik 3.827,
summed exactly.  The tests check both against quadrature.
"""

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidOrderError,
    InvalidParamsError,
    KernelOrderMismatchError,
    NegativeOmegaError,
    OddOrderError,
    OrderTooSmallError,
)
from .operators import (
    SpectralDecomposition,
    _axis,
    _basis_product,
    _broadcast,
    _check_order,
    _coefficients,
    _finite,
    _is_int,
    _measure,
    _norm,
    _powered,
    _shaped,
    apply_multiplier,
)
from .paley_wiener import _distances, _require_pw
from .smoothness import _moduli, _safe_ratio

# -- the kernel ----------------------------------------------------------------

#: pi to 60 digits, for the even moments
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _uniform_bspline(n: int, y):
    """Uniform B-spline of order n (degree n-1) on knots 0..n, Cox-de Boor.

    All recurrence weights are nonnegative on the support, so the evaluation is numerically
    stable for any order.  Degree d is a stack ``(n - d, *y.shape)``, one row per first knot.
    """
    y = np.asarray(y, dtype=np.float64)
    i = np.arange(n).reshape(-1, *[1] * y.ndim)  # the first knot of each spline in the stack
    vals = np.where((i <= y) & (y < i + 1), 1.0, 0.0)
    for d in range(1, n):
        vals = ((y - i[:-d]) * vals[:-1] + (i[:-d] + d + 1 - y) * vals[1:]) / d
    return vals[0]


def _centered_bspline(n: int, x):
    """Density of the sum of n iid Uniform[-1/2, 1/2] variables at x."""
    return _uniform_bspline(n, np.asarray(x, dtype=np.float64) + n / 2.0)


def _half_moment(n: int, p: int) -> float:
    """``integral over (0, inf)`` of ``(sin(t/n)/t)^n t^p`` for even ``n``, ``0 <= p <= n - 2``,
    rounded once to a double.

    With ``t = n u`` and ``q = n - p`` it is ``n^{1-q} integral sin^n u / u^q du``.  Expanding
    ``sin^n u`` in the cosines ``cos((n - 2k) u)`` and integrating by parts ``q - 1`` times
    gives (Gradshteyn & Ryzhik 3.827) ``(-1)^{floor(p/2)} / (2^{n-1} (q-1)!)`` times
    ``sum_{k < n/2} (-1)^k C(n, k) (n - 2k)^{q-1} w_k``, where ``w_k`` is ``pi/2`` for even
    ``p`` (Dirichlet's integral) and ``ln(n - 2k)`` for odd ``p`` (Frullani's).  The sum
    cancels far below its terms, so its coefficients stay exact integers and the logarithms
    carry as many digits as the largest coefficient, plus 30.
    """
    q = n - p
    coefs = [(-1) ** k * math.comb(n, k) * (n - 2 * k) ** (q - 1) for k in range(n // 2)]
    with localcontext() as ctx:
        ctx.prec = len(str(max(map(abs, coefs)))) + 30
        if p % 2:
            total = sum(c * Decimal(n - 2 * k).ln() for k, c in enumerate(coefs))
        else:
            total = _PI * sum(coefs) / 2
        return float((-1) ** (p // 2) * total
                     / (2 ** (n - 1) * math.factorial(q - 1) * n ** (q - 1)))


class ApproxKernel:
    """Normalized kernel ``h(t) = a (sin(t/n)/t)^n`` for even order n >= 4.

    Even, nonnegative, unit mass, and of exponential type one: its
    transform vanishes outside [-1, 1].  ``norm_const`` is ``a``, which
    makes the mass 1.  The mass and the moments are the closed forms of
    :func:`_half_moment`.  Supports difference orders up to n - 3.
    """

    def __init__(self, n: int, norm_const: float):
        self.n = int(n)
        self.norm_const = float(norm_const)
        self._bspline_center = float(_centered_bspline(self.n, 0.0))
        self._moments: dict[int, float] = {}

    def __repr__(self):
        return f"ApproxKernel(n={self.n}, norm_const={self.norm_const!r})"

    def symbol(self, xi):
        """Closed-form transform: a scaled B-spline, exactly 0 for |xi| >= 1."""
        x = np.asarray(xi, dtype=np.float64)
        return _centered_bspline(self.n, self.n * x / 2.0) / self._bspline_center

    def moment(self, p: int) -> float:
        """``integral of h(t) |t|^p dt`` for an integer ``0 <= p <= n - 2``, where it is finite."""
        if not (_is_int(p) and p >= 0):
            raise InvalidOrderError(f"moment order must be an integer >= 0, got {p!r}")
        if p > self.n - 2:
            raise OrderTooSmallError(f"moment p={p} needs kernel order n >= p + 2, got n={self.n}")
        p = int(p)
        if p not in self._moments:
            self._moments[p] = 2.0 * self.norm_const * _half_moment(self.n, p)
        return self._moments[p]


_KERNEL_CACHE: dict[int, ApproxKernel] = {}


def build_kernel(n: int, m: int) -> ApproxKernel:
    """Construct the kernel of order ``n`` for difference order ``m``.

    ``n`` must be even and at least ``m + 3``.  The normalization constant is
    ``1 / (2 integral_0^inf (sin(t/n)/t)^n dt)``, from the closed form of the mass; from
    ``n = 144`` it is no finite double, and InvalidParamsError is raised.
    """
    if n != int(n) or int(n) % 2 != 0:
        raise OddOrderError(f"kernel order must be even, got {n}")
    n = int(n)
    _check_order(m, 1, KernelOrderMismatchError)
    if n < m + 3:
        raise OrderTooSmallError(f"kernel order n={n} must be >= m + 3 = {m + 3}")
    if n not in _KERNEL_CACHE:
        with np.errstate(divide="ignore", over="ignore"):
            a = 0.5 / np.float64(_half_moment(n, 0))
        if not 0.0 < a < math.inf:  # (sin(t/n)/t)^n underflows, and the mass with it
            raise InvalidParamsError(f"kernel order n={n} too large: constant {float(a)!r}")
        _KERNEL_CACHE[n] = ApproxKernel(n=n, norm_const=a)
    return _KERNEL_CACHE[n]


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
    """Band edge and symmetric truncation order of the interpolation series; ``omega`` may be an
    axis against the rows of ``f``, kept read-only; such a config neither compares nor hashes."""

    omega: float
    k_trunc: int = 10_000

    def __post_init__(self):
        omega = _axis(self.omega)
        if not np.all((0.0 < omega) & (omega < math.inf)):
            raise InvalidConfigError(f"omega must be finite and > 0, got {self.omega}")
        if not (_is_int(self.k_trunc) and self.k_trunc >= 1):
            raise InvalidConfigError(f"k_trunc must be an integer >= 1, got {self.k_trunc!r}")
        if omega.ndim:  # an axis of band edges: a read-only view of a copy
            object.__setattr__(self, "omega", np.broadcast_to(omega.copy(), omega.shape))

    @property
    def tail_bound(self):
        """Operator-norm bound on the dropped part of the series (trigamma tails), per omega."""
        k = self.k_trunc
        return _shaped(self.omega / math.pi ** 2 * (_trigamma(k + 0.5) + _trigamma(k + 1.5)))


@functools.lru_cache(maxsize=16)
def _riesz_tables(k_trunc: int) -> tuple:
    """``(t, t_{-K})``, ``t_k = (-1)^{k+1} (k - 1/2)^2`` (``inf`` past ``K``) at ``k = b q + r``:
    ``b = ceil(sqrt K)``, ``r = b..1`` down (a sum adds its largest term last), ``q`` across."""
    b = math.isqrt(k_trunc - 1) + 1
    k = np.arange(b, 0, -1)[:, None] + b * np.arange(-(-k_trunc // b))
    t = np.where(k > k_trunc, np.inf, np.where(k % 2 == 0, -1.0, 1.0) * (k - 0.5) ** 2)
    t.flags.writeable = False
    return t, (1.0 if k_trunc % 2 else -1.0) * (k_trunc + 0.5) ** 2


def _phases(scale, points, u, o, count, descending=False):
    """``e^{i theta (u j + o)}``, ``theta = scale x``, a row per ``x`` in ``points``, ``j < count``
    (descending: ``j`` down), as ``e^{i theta u g a} e^{i theta (u c + o)}`` at ``j = g a + c``."""
    g = math.isqrt(max(count - 1, 0)) + 1
    a, c = (x[::-1 if descending else 1] for x in (np.arange(-(-count // g)), np.arange(g)))
    outer, inner = (np.exp(1j * scale * np.outer(points, x)) for x in (u * g * a, u * c + o))
    grid = (outer[:, :, None] * inner[:, None, :]).reshape(len(points), -1)
    return grid[:, grid.shape[1] - count:] if descending else grid[:, :count]


def riesz_symbol(lam, cfg: RieszConfig) -> np.ndarray:
    """Truncated spectral symbol of the interpolation series at points ``lam``.

    Converges to ``i * lam`` for ``|lam| <= omega`` as the truncation grows;
    its modulus never exceeds ``omega``.

    The series ``sum_{k=-K}^{K} c_k e^{i theta (k - 1/2)}`` with ``theta = pi lam / omega`` is
    summed with about ``4 K^{1/4}`` exponentials per distinct ``lam`` and band edge, in
    O(N sqrt K + K) memory.  Since ``c_{1-k} = -c_k``, the terms ``k`` and ``1 - k`` pair to
    ``2i c_k sin(theta (k - 1/2))``, which leaves ``k = -K`` unpaired.  The paired sum over
    ``k = b q + r`` (``b = ceil(sqrt K)``, ``r = 1..b``) is one GEMM of the baby steps
    ``e^{i theta (r - 1/2)}`` against the coefficient block, weighted by the giant steps
    ``e^{i theta b q}`` (Paterson-Stockmeyer), each grid by angle addition (``_phases``): the
    first ``sqrt b`` or so steps of each take their phase directly, and the split starts at
    ``k = 1``, so the dominant terms keep it; summed smallest first and added last, they hold the
    band-edge value within a few ulps of ``omega``.  The tables of ``k`` are built once per ``K``;
    each band edge (the result has the shape ``omega.shape + lam.shape``) takes its exponentials,
    then its coefficients, GEMM and sum: every value is the call's at its point and edge alone.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    t, t_unpaired = _riesz_tables(cfg.k_trunc)
    b, n_giant = t.shape
    # each distinct point (by its bits) once, and two at least: a one-row product is a GEMV
    bits, inverse = np.unique(lam.ravel().view(np.int64), return_inverse=True)
    points = np.resize(bits, max(bits.size, 2)).view(np.float64)
    out = np.empty((np.size(cfg.omega), points.size), dtype=np.complex128)
    for row, omega in zip(out, np.ravel(cfg.omega).tolist()):
        scale, weight = math.pi / omega, omega / math.pi ** 2
        baby = _phases(scale, points, 1, 0.5, b, descending=True)  # r - 1/2, r = b..1
        giant = _phases(scale, points, b, b, n_giant - 1)  # b q, q = 1..Q-1
        unpaired = np.exp(1j * scale * (points * (-cfg.k_trunc - 0.5)))
        steps = baby @ (weight / t)
        paired = (steps[:, 0] + np.sum(steps[:, 1:] * giant, axis=1)).imag
        row[:] = 2j * paired + weight / t_unpaired * unpaired
    return out[:, inverse].reshape(np.shape(cfg.omega) + lam.shape)


def riesz_apply(dec: SpectralDecomposition, f, cfg: RieszConfig) -> np.ndarray:
    """Apply the truncated Riesz interpolation operator as a diagonal multiplier."""
    return apply_multiplier(dec, lambda lam: riesz_symbol(lam, cfg), f)


@dataclass(frozen=True, eq=False)
class RieszIdentityReport:
    """Relative residual of ``(iD)^n f`` against ``n`` powers of the series; ``residual`` and
    ``tail_bound`` take the broadcast shape of the rows of ``f`` and ``omega``."""

    residual: float
    tail_bound: float
    k_trunc: int
    omega: float
    power: int


def riesz_identity_check(dec: SpectralDecomposition, f, omega, power: int = 1,
                         k_trunc: int = 10_000) -> RieszIdentityReport:
    """Residual ``||(iD)^n f - R^n f|| / ||f||`` for bandlimited ``f``, per row of ``f`` (0 for
    the zero vector); ``omega`` broadcasts against the rows of ``f``, with one ``riesz_symbol``
    call for every entry of it.

    The residual shrinks as the truncation grows (empirically like 1/K);
    the analytic tail bound of the truncation is attached to the report.
    """
    if not (_is_int(power) and power >= 1):
        raise InvalidParamsError(f"power must be an integer >= 1, got {power!r}")
    cfg = RieszConfig(omega=omega, k_trunc=k_trunc)
    v, c, _ = _coefficients(dec, f)
    _require_pw(dec, c, cfg.omega)  # a zero row passes
    rho = riesz_symbol(dec.eigenvalues, cfg)
    gaps = _norm((1j * dec.eigenvalues) ** power * c - rho ** power * c)  # at the row's scale,
    norms = _norm(v)  # as is its norm: the ratio drops their common 2^e
    residual = np.divide(gaps, norms, out=np.zeros(np.shape(gaps)), where=norms > 0.0)
    tail_bound = _shaped(np.broadcast_to(cfg.tail_bound, residual.shape))
    return RieszIdentityReport(_shaped(residual), tail_bound, k_trunc, cfg.omega, power)


# -- quasi-interpolation operator ------------------------------------------------

def q_symbol(kernel: ApproxKernel, omega: float, m: int, lam) -> np.ndarray:
    """Spectral symbol ``sum_j b_j h_transform(j lam / omega)`` of the Q operator, of shape
    ``omega.shape + lam.shape`` for a 1-D ``lam``: one kernel transform of every shift ``j``.

    The weights ``b_j = (-1)^{j+1} C(m, j)`` sum to 1, so the symbol is 1 at ``lam = 0``.  From
    ``m = 57`` some ``C(m, j)`` passes ``2^53`` and is rounded (at ``m = 58`` they sum to -2):
    :class:`KernelOrderMismatchError`.  The sum cancels terms up to ``C(m, m/2)``, so its
    error grows like ``2^m`` ulps: against an exact sum (mpmath) at ``lam / omega <= 0.3`` it
    was at most 2.5e-13 at ``m = 10``, 1.1e-10 at ``m = 20``, 2.4e-7 at ``m = 30``, 0.099 at 50.
    """
    omega = _axis(omega)
    if not np.all(omega > 0.0):
        raise NegativeOmegaError(f"omega must be > 0, got {omega}")
    _check_order(m, 1, KernelOrderMismatchError)
    if kernel.n < m + 3:
        raise KernelOrderMismatchError(
            f"kernel order n={kernel.n} too small for m={m} (needs n >= m + 3)")
    weights = [(-1) ** (j + 1) * math.comb(m, j) for j in range(1, m + 1)]
    if any(float(b) != b for b in weights):
        raise KernelOrderMismatchError(f"difference order m={m} has shift weights C(m, j) "
                                       "past 2^53, which are no exact doubles (m <= 56)")
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    j = np.arange(1, m + 1).reshape((-1,) + (1,) * (omega.ndim + 1))  # the shift, leading
    terms = np.array(weights, float).reshape(j.shape) * kernel.symbol(j * lam / omega[..., None])
    return sum(terms)  # row by row in j order, from 0, as the sum of the terms one by one


def q_apply(dec: SpectralDecomposition, f, omega: float, m: int,
            kernel: ApproxKernel) -> np.ndarray:
    """Quasi-interpolation of ``f`` into PW_omega.

    Evaluated through the spectral symbol, with the closed-form kernel
    transform.
    The zero-eigenvalue component passes through unchanged because the
    shift weights sum to 1 and the transform is 1 at the origin.  ``omega``
    broadcasts against the rows of ``f``.
    """
    return apply_multiplier(dec, lambda lam: q_symbol(kernel, omega, m, lam), f)


# -- Jackson machinery -----------------------------------------------------------


def jackson_constant(kernel: ApproxKernel, m: int, k: int) -> float:
    """``integral of h(t) |t|^k (1 + |t|)^m dt``; finiteness needs ``n >= k + m + 2``.

    A binomial sum of the kernel's closed-form moments.  The exponent ``m`` dominates the
    proof's ``m - k``, so the direct estimate stays valid.
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
    numbers take the broadcast shape.  One ``q_symbol`` call evaluates the Q symbol of every
    entry of ``omega``, and one shift scan gives the moduli of every row at its every ``1/omega``:
    the grid depends on ``m - k`` and ``lambda_max`` only, so they equal one scan per edge.
    """
    _check_order(m, 0, IndexOutOfRangeError, k)
    v, c, e = fc = _coefficients(dec, f)
    omega = _axis(omega)
    const = jackson_constant(kernel, m, k)
    shape, rows, (edge,) = _broadcast(c, np.arange(omega.size).reshape(omega.shape))
    ws = omega.ravel()[edge]
    v, c, e = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), np.ravel(e)
    moduli = np.empty(len(rows))
    if len(rows):  # each row's edges, as one row of shifts of the scan
        order = np.argsort(rows, kind="stable")
        moduli[order] = _moduli(_powered(_measure(dec, c), k), e,
                                (1.0 / ws[order]).reshape(len(c), -1), m - k).ravel()
    symbols = q_symbol(kernel, omega, m, dec.eigenvalues).reshape(-1, dec.dim)
    q_errs = _norm(_basis_product(dec.eigenvectors, symbols[edge] * c[rows]) - v[rows], e[rows])
    best = _distances(dec, fc, omega).ravel()
    with np.errstate(over="ignore"):
        bounds = _finite(const * moduli / ws ** k)
    ratio_best, ratio_q = _safe_ratio([best, q_errs], bounds, _norm(v, e)[rows])
    return JacksonReport(
        best=_shaped(best, shape), q_error=_shaped(q_errs, shape), bound=_shaped(bounds, shape),
        constant=const, ratio_best=_shaped(ratio_best, shape), ratio_q=_shaped(ratio_q, shape),
        link_gap=_shaped(best - q_errs, shape))
