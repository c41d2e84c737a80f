"""Dense symmetric eigendecomposition and spectral functional calculus.

A self-adjoint positive semidefinite operator is represented by a real
symmetric matrix, either the operator ``L`` itself (``kind="raw_L"``, in
which case the working operator is ``D = L^{1/2}``) or directly ``D``
(``kind="raw_D"``).  All downstream operations act through the
eigendecomposition: a vector is mapped to its coefficients in the
orthonormal eigenbasis, multipliers are applied on the coefficients, and
the result is synthesized back.  Nothing in this module ever forms a
dense matrix function.

Conventions
-----------
* eigenvalues are ascending and nonnegative (tiny negative noise from
  e.g. graph Laplacians is clamped to zero),
* eigenvectors are real orthonormal columns,
* degenerate eigenvalues are grouped so multiplicities are explicit,
* a vector argument may be a block of rows ``(..., N)``, with the parameters
  of a call broadcast against ``f.shape[:-1]`` as NumPy broadcasts; each row
  takes its own matrix-vector products, so its bits do not depend on the block,
* each row enters scaled by a power of two (``_scaled``), and every result taken at that
  scale gets its ``2^e`` back through ``_unscaled``, exactly or as a :class:`NonFiniteError`
  past the largest double; ``_norm`` sums rows there, one stacked dot product each.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    InvalidSpectrumError,
    NonFiniteError,
    NonFiniteMultiplierError,
    NotPSDError,
    NotSymmetricError,
)

RAW_L = "raw_L"
RAW_D = "raw_D"

#: relative PSD tolerance: eigenvalues in [-tol, 0] are clamped, below is an error
PSD_TOL_FACTOR = 1e-10
#: degeneracy grouping width, relative to max(1, lambda_max)
GROUP_TOL_FACTOR = 1e-9
#: Jacobi sweep convergence: off-diagonal Frobenius norm <= this * ||A||_F
JACOBI_TOL = 1e-12


def as_vector(f, dim=None) -> np.ndarray:
    """Coerce ``f`` to a finite complex 1-D array, checking its length."""
    return _as_block(f, dim, vector=True)


def _as_block(f, dim=None, vector=False) -> np.ndarray:
    """Coerce ``f`` to a finite complex array of shape ``(..., dim)``: rows of vectors, or one
    vector if ``vector``."""
    try:  # NumPy raises ValueError for rows of unequal length, and for text
        shape = np.shape(f)
        arr = None if vector and len(shape) != 1 else np.asarray(f, dtype=np.complex128)
    except ValueError:
        raise DimensionMismatchError("expected numeric rows of one length") from None
    if arr is None:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {shape}")
    if arr.ndim == 0 or (dim is not None and arr.shape[-1] != dim):
        raise DimensionMismatchError(f"expected vectors of length {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("vector has NaN or infinite entries")
    return arr


def _broadcast_shapes(*shapes) -> tuple:
    """``np.broadcast_shapes``, raising :class:`DimensionMismatchError` where it raises."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DimensionMismatchError(f"shapes {list(shapes)} do not broadcast") from None


def _broadcast(c, *params) -> tuple:
    """``(shape, rows, params)``: ``c.shape[:-1]`` broadcast against ``params``; for each element
    of ``shape`` (C order), its row of ``c.reshape(-1, N)``; each parameter, flattened."""
    rows = np.arange(math.prod(c.shape[:-1])).reshape(c.shape[:-1])
    shape = _broadcast_shapes(rows.shape, *map(np.shape, params))
    rows, *params = [(p * np.ones(shape, int)).ravel() for p in (rows, *params)]  # exact, quick
    return shape, rows, params


def _shaped(values, shape=None):
    """``values`` as a float array in ``shape`` (default: their own); a float for the shape
    ``()`` of one vector with scalar parameters."""
    out = np.asarray(values, dtype=np.float64)
    out = out if shape is None else out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _is_int(x) -> bool:
    """True for integers of any integral type except ``bool``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_order(m, low: int, error=InvalidParamsError, k=0) -> None:
    """Reject an order ``m`` that is no integer ``>= low``, or a power ``k`` outside ``0..m``."""
    if not (_is_int(m) and m >= low):
        raise error(f"difference order m must be an integer >= {low}, got {m!r}")
    if not (_is_int(k) and 0 <= k <= m):
        raise error(f"need integers 0 <= k <= m, got k={k!r}, m={m!r}")


def _scaled(x) -> tuple:
    """``(x 2^-e, e)`` row by row, with ``max |x| 2^-e`` in ``[0.5, 1)`` (below at ``e = -1022``,
    so ``2^-e`` is a finite double): squares of the scaled entries neither overflow nor
    underflow, and sums of them, their roots and inner products get their ``2^e`` back exactly
    (``_unscaled``)."""
    if x.ndim == 1:  # one vector: Python scalars, at half the cost of NumPy's
        e = max(math.frexp(float(np.abs(x).max(initial=0.0)))[1], -1022)
        return x * 2.0 ** -e, e
    e = np.maximum(np.frexp(np.abs(x).max(axis=-1, initial=0.0))[1], -1022)
    return x * np.ldexp(1.0, -e)[..., None], e


def _scaled_mag2(coeffs, e=0) -> tuple:
    """``(|c|^2 4^-d, e + d)`` with ``(|c| 2^-d, d) = _scaled(|c|)``."""
    mag, d = _scaled(np.abs(coeffs))
    return mag ** 2, e + d


def _unscaled(x, e):
    """``x 2^e``, exact, with ``e`` broadcast against ``x`` (a complex entry as its real pair):
    the one way back from a power-of-two scale.  A result that is no finite double raises
    :class:`NonFiniteError`; a float stays a float, taken by ``math.ldexp``."""
    if isinstance(x, float):
        try:
            if math.isfinite(x := math.ldexp(x, int(e))):
                return x
        except OverflowError:  # raised below
            pass
    elif np.iscomplexobj(x):  # both halves of an entry at its e
        return _unscaled(x[..., None].view(float), np.expand_dims(e, -1)).view(complex)[..., 0]
    else:
        with np.errstate(over="ignore"):
            x = np.ldexp(x, e)
        if np.all(np.isfinite(x)):
            return x
    raise NonFiniteError("result is no finite double (past the largest one, or NaN)")


def _norm(x, e=0):
    """``||x_i|| 2^{e_i}`` of each row ``x_i`` of ``x`` (``(..., N)``; a float for one vector) at
    its own power-of-two scale (``_scaled``): the sum ``np.linalg.norm`` takes, as stacked dot
    products of the real and the imaginary part, so a row's bits do not depend on its block."""
    x, d = _scaled(x)
    return _unscaled(np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)), e + d)


@dataclass(frozen=True, eq=False)
class SymmetricOperator:
    """A real symmetric PSD matrix plus a tag saying what it represents.

    ``entries`` must be exactly symmetric; callers building matrices from
    noisy sources should symmetrize ``(A + A.T) / 2`` first (that operation
    is exact in floating point).  Positive semidefiniteness is verified at
    decomposition time, when the eigenvalues become available.
    """

    entries: np.ndarray
    kind: str = RAW_L

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise NonFiniteError("operator has NaN or infinite entries")
        if not np.array_equal(mat, mat.T):
            raise NotSymmetricError("operator matrix is not exactly symmetric")
        if self.kind not in (RAW_L, RAW_D):
            raise InvalidParamsError(
                f"kind must be {RAW_L!r} or {RAW_D!r}, got {self.kind!r}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def psd_tolerance(self) -> float:
        scale = float(np.max(np.abs(self.entries))) if self.dim else 0.0
        return PSD_TOL_FACTOR * scale


def jacobi_eigh(matrix: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns ``(w, V)`` with ``A V = V diag(w)``, eigenvalues ascending and
    eigenvector columns orthonormal.  Sweeps stop once the off-diagonal
    Frobenius norm drops below ``tol * ||A||_F``.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v

    norm_a = float(np.linalg.norm(a))
    threshold = tol * norm_a if norm_a > 0 else 0.0

    def offdiag() -> float:
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    sweeps = 0
    while offdiag() > threshold:
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

    w = a.diagonal().copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    # deterministic sign: largest-magnitude component of each column positive
    for j in range(n):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0:
            v[:, j] = -v[:, j]
    return w, v


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-data of ``D``: ascending eigenvalues, orthonormal basis, groups.

    ``eigenvalues`` are the eigenvalues of ``D`` (square roots of those of
    ``L`` when the operator was given as ``raw_L``).  ``groups`` partitions
    the index range into runs of numerically equal eigenvalues; each group
    is the finite stand-in for one spectral fiber with its multiplicity.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple
    kind: str = RAW_D
    eps_group: float = 0.0

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        lam = self.eigenvalues
        if lam.ndim != 1 or self.eigenvectors.shape != (lam.size, lam.size):
            raise InvalidSpectrumError(
                f"need N eigenvalues and an N x N basis, got shapes {lam.shape} "
                f"and {self.eigenvectors.shape}")
        if not np.all(np.isfinite(lam)):
            raise InvalidSpectrumError("eigenvalues have NaN or infinite entries")
        if np.any(lam < 0.0) or np.any(np.diff(lam) < 0.0):
            raise InvalidSpectrumError("eigenvalues must be nonnegative and ascending")

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1]) if self.dim else 0.0

    @property
    def min_positive_eigenvalue(self) -> float:
        """Smallest nonzero eigenvalue; 0.0 if the spectrum is {0}."""
        pos = self.eigenvalues[self.eigenvalues > 0]
        return float(pos[0]) if pos.size else 0.0


def _group_indices(eigenvalues: np.ndarray, eps_group: float) -> tuple:
    """Partition ascending eigenvalues into runs of diameter <= eps_group."""
    groups = []
    n = eigenvalues.shape[0]
    start = 0
    for i in range(1, n):
        if eigenvalues[i] - eigenvalues[start] > eps_group:
            groups.append(tuple(range(start, i)))
            start = i
    if n:
        groups.append(tuple(range(start, n)))
    return tuple(groups)


def eigh(op: SymmetricOperator) -> SpectralDecomposition:
    """Decompose a symmetric PSD operator into eigenvalues/eigenvectors of D.

    For ``raw_L`` input the returned eigenvalues are the square roots of the
    matrix eigenvalues.  Eigenvalues in ``[-tol_psd, 0]`` are clamped to 0;
    anything below ``-tol_psd`` raises :class:`NotPSDError`.  Eigenvalues of
    D within ``GROUP_TOL_FACTOR * max(1, lambda_max)`` of a group's first
    share its group.
    """
    w, v = jacobi_eigh(op.entries)
    tol_psd = op.psd_tolerance
    if np.any(w < -tol_psd):
        raise NotPSDError(
            f"matrix eigenvalue {float(w.min()):.3e} below -{tol_psd:.3e}")
    # clamp the whole noise band [-tol, tol] so kernel modes are exact zeros
    # (graph Laplacians produce +-1e-16-scale noise; the square root below
    # would otherwise inflate positive noise to ~1e-8 ghost frequencies)
    w = np.where(np.abs(w) <= tol_psd, 0.0, w)
    d_eigs = np.sqrt(w) if op.kind == RAW_L else w
    eps_group = GROUP_TOL_FACTOR * max(1.0, float(d_eigs[-1]) if d_eigs.size else 1.0)
    groups = _group_indices(d_eigs, eps_group)
    return SpectralDecomposition(eigenvalues=d_eigs, eigenvectors=v,
                                 groups=groups, kind=op.kind, eps_group=eps_group)


def _basis_product(basis: np.ndarray, z) -> np.ndarray:
    """``basis @ z`` for a real ``basis`` and rows ``z``, as two stacked real matrix-vector
    products: no complex copy of the basis, and each row's bits are its own product's."""
    return np.matvec(basis, z.real) + 1j * np.matvec(basis, z.imag)


def spectral_transform(dec: SpectralDecomposition, f) -> np.ndarray:
    """Coefficients ``c_j = <f, u_j>`` of ``f`` in the eigenbasis (unitary), row by row."""
    return _basis_product(dec.eigenvectors.T, _as_block(f, dec.dim))


def _coefficients(dec: SpectralDecomposition, f) -> tuple:
    """``(v, c, e)``: each row of ``f`` checked and scaled to ``v = f 2^-e`` (see ``_scaled``),
    and ``c = V^T v``.  Each public function takes each vector argument through this once
    and hands the triple to its private helpers; the coefficients of ``f`` are ``c 2^e``."""
    v, e = _scaled(_as_block(f, dec.dim))
    return v, spectral_transform(dec, v), e


def _weighted(weights, values) -> np.ndarray:
    """``weights * values``, where a zero value gives zero even against an infinite weight.

    A nonzero term beyond the largest double raises :class:`NonFiniteError`, as ``_norm`` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(values == 0, 0.0, weights * values)
    if not np.all(np.isfinite(terms)):
        raise NonFiniteError("weighted term exceeds the largest double")
    return terms


def _power_coefficients(dec: SpectralDecomposition, c, k) -> np.ndarray:
    """``lambda^k c`` (``_weighted``): the coefficients of ``D^k f``, with no round trip."""
    with np.errstate(over="ignore"):
        return _weighted(np.power(dec.eigenvalues, k), c)


def inverse_transform(dec: SpectralDecomposition, coeffs) -> np.ndarray:
    """Synthesize the vector whose eigenbasis coefficients are ``coeffs``, row by row."""
    return _basis_product(dec.eigenvectors, _as_block(coeffs, dec.dim))


def apply_multiplier(dec: SpectralDecomposition, phi, f) -> np.ndarray:
    """Apply the operator ``phi(D)``: multiply coefficients by ``phi(lambda_j)``.

    ``phi`` is called once with the full eigenvalue array and may return
    real or complex values, ``(N,)`` or rows ``(..., N)`` that broadcast against
    the rows of ``f``; they must all be finite.  It acts at the scale of each
    row of ``f``; a result beyond the largest double raises :class:`NonFiniteError`.
    """
    _, c, e = _coefficients(dec, f)
    return _synthesize(dec, phi(dec.eigenvalues), c, e)


def _synthesize(dec: SpectralDecomposition, values, c, e) -> np.ndarray:
    """:func:`apply_multiplier` from ``values = phi(lambda)`` and the coefficient rows ``c 2^e``."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise NonFiniteMultiplierError("multiplier is not finite on the spectrum")
    _broadcast_shapes(values.shape, c.shape)
    return _unscaled(_basis_product(dec.eigenvectors, values * c), np.expand_dims(e, -1))


def operator_power(dec: SpectralDecomposition, s: float, f) -> np.ndarray:
    """Apply ``D^s`` for real ``s >= 0`` (``D^0`` is the identity); ``s`` broadcasts against the
    rows of ``f``, one scalar power per value (an array exponent may round differently)."""
    s = np.asarray(s, dtype=np.float64)
    if not np.all(s >= 0):
        raise InvalidParamsError(f"power must be nonnegative, got {s}")
    return apply_multiplier(dec, lambda lam: np.reshape(
        [np.power(lam, x) for x in s.ravel().tolist()], s.shape + lam.shape), f)


def schrodinger_group(dec: SpectralDecomposition, z, f) -> np.ndarray:
    """Apply ``e^{izD}``; an isometry for real ``z``, entire in ``z``.  ``z`` broadcasts
    against the rows of ``f``."""
    iz = 1j * np.asarray(z, dtype=np.complex128)
    return apply_multiplier(dec, lambda lam: np.exp(iz[..., None] * lam), f)
