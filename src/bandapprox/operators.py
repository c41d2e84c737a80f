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
* an eigenspace is one value: ``eigh`` groups eigenvalues within ``eps_group`` (relative to
  ``lambda_max``) and gives each group one value, so a cut takes or leaves a whole eigenspace,
* the R side and the smoothness scalars see a vector through its norm per eigenspace (``_measure``),
* a vector argument may be a block of rows ``(..., N)``, with the parameters
  of a call broadcast against ``f.shape[:-1]`` as NumPy broadcasts; each row
  takes its own matrix-vector products, so its bits do not depend on the block,
* each row enters scaled by a power of two (``_scaled``), and every result taken at that
  scale gets its ``2^e`` back through ``_unscaled``, exactly or as a :class:`NonFiniteError`
  past the largest double; ``_norm`` sums rows there, one stacked dot product each.
"""

import math
import numbers
from dataclasses import dataclass, field

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
#: degeneracy grouping width, relative to lambda_max
GROUP_TOL_FACTOR = 1e-9
#: Jacobi sweep convergence: off-diagonal Frobenius norm <= this * ||A||_F
_JACOBI_TOL = 1e-12


def _as_block(f, dim=None) -> np.ndarray:
    """Coerce ``f`` to a finite complex array of shape ``(..., dim)``, rows of vectors."""
    try:  # NumPy raises ValueError for rows of unequal length, and for text
        arr = np.asarray(f, dtype=np.complex128)
    except ValueError:
        raise DimensionMismatchError("expected numeric rows of one length") from None
    if arr.ndim == 0 or (dim is not None and arr.shape[-1] != dim):
        raise DimensionMismatchError(f"expected vectors of length {dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("vector has NaN or infinite entries")
    return arr


def _broadcast_shapes(*shapes) -> tuple:
    """``np.broadcast_shapes``, raising :class:`DimensionMismatchError` where it raises."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DimensionMismatchError(f"shapes {list(shapes)} do not broadcast") from None


def _axis(x, dtype=np.float64) -> np.ndarray:
    """A parameter, one number or an axis of them, as an array of ``dtype`` (``None``: its own):
    the one conversion of every parameter axis, where rows of unequal length raise
    :class:`DimensionMismatchError`, as a ragged block ``f`` does."""
    try:
        return np.asarray(x, dtype=dtype)
    except ValueError:
        raise DimensionMismatchError(f"expected numbers of one shape, got {x!r}") from None


def _broadcast(c, *params) -> tuple:
    """``(shape, rows, params)``: ``c.shape[:-1]`` broadcast against ``params``; for each element
    of ``shape`` (C order), its row of ``c.reshape(-1, N)``; each parameter, flattened."""
    rows = np.arange(math.prod(c.shape[:-1])).reshape(c.shape[:-1])
    params = [_axis(p, None) for p in params]
    shape = _broadcast_shapes(rows.shape, *(p.shape for p in params))
    rows, *params = [(p * np.ones(shape, int)).ravel() for p in (rows, *params)]  # exact, quick
    return shape, rows, params


def _shaped(values, shape=None):
    """``values`` as a float array in ``shape`` (default: their own); a float for the shape
    ``()`` of one vector with scalar parameters."""
    out = np.asarray(values, dtype=np.float64)
    out = out if shape is None else out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _check_scalar(x, name: str, error=InvalidParamsError) -> None:
    """Reject an array or a list for ``name``, a parameter that takes one number."""
    if not isinstance(x, (float, int)) and (isinstance(x, (list, tuple)) or np.ndim(x)):
        raise error(f"{name} takes one number, got {type(x).__name__} {x!r}")


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


def _unscaled(x, e):
    """``x 2^e``, exact, with ``e`` broadcast against ``x`` (a complex entry as its real pair):
    the one way back from a power-of-two scale.  A result that is no finite double raises
    :class:`NonFiniteError`; a float stays a float, taken by ``math.ldexp``."""
    if isinstance(x, float):
        try:
            if math.isfinite(x := math.ldexp(x, int(e))):
                return x
        except OverflowError:  # past the largest double
            x = math.inf
    elif np.iscomplexobj(x):  # both halves of an entry at its e
        return _unscaled(x[..., None].view(float), np.expand_dims(e, -1)).view(complex)[..., 0]
    else:
        with np.errstate(over="ignore"):
            return _finite(np.ldexp(x, e))
    return _finite(x)


def _finite(x, what: str = "result"):
    """``x``, or :class:`NonFiniteError` naming ``what`` if an entry is no finite double (past the
    largest one, or NaN): the check of ``_unscaled``, and of a value formed after it."""
    if (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        return x
    raise NonFiniteError(f"{what} is no finite double (past the largest one, or NaN)")


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
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise DimensionMismatchError(f"operator must be square and nonempty, got {mat.shape}")
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
        return PSD_TOL_FACTOR * float(np.max(np.abs(self.entries)))


def _jacobi_eigh(matrix: np.ndarray, tol: float = _JACOBI_TOL, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns ``(w, V)``, ``A V = V diag(w)``, ``w`` ascending, ``V`` orthonormal.  Sweeps rotate
    ``A 2^-e`` (``max |A| 2^-e`` in ``[0.5, 1)``: ``A 2^j`` gives ``2^j w`` and the same ``V``)
    until the off-diagonal Frobenius norm drops below ``tol * ||A||_F``.  A rotation turns rows
    p and q of ``[A | V^T]`` in place through three scratch rows (``c r_p``, ``s r_q``, ``s r_p``
    before ``r_p`` becomes ``c r_p - s r_q``; ``c r_q`` before ``r_q`` becomes ``s r_p + c r_q``:
    the same rounded products, difference and sum as in new arrays) and copies them into columns
    p and q of ``A``: ``A`` stays exactly symmetric, so the column step of the two-sided rotation
    would take the same operations on the same entries.  The new 2x2 diagonal is the column
    step's, in scalar arithmetic on the post-row entries, and ``a_pq = a_qp = 0``.  Only the
    layout differs from a plain loop, not the operations or the bits: rows lie ``2N + 8`` doubles
    apart (at N = 256 a stride of 2N, 4 KiB, maps a column of ``A`` into one set of a 64-set L1
    of 64-byte lines, and each column copy misses), the row and column views are built once, and
    the 2x2 scalars are read and written through one flat view at offsets ``i (2N + 8) + j``.
    """
    n = len(matrix)
    a, e = _scaled(np.array(matrix, dtype=np.float64).ravel())
    threshold = tol * float(np.linalg.norm(a))
    flat = np.zeros(n * (m := 2 * n + 8))  # the padded rows
    b = flat.reshape(n, m)[:, :2 * n]  # [A | V^T]: A and the basis turn together
    b[:, :n], b[:, n:], a, item = a.reshape(n, n), np.eye(n), b[:, :n], flat.item
    rows, arows, acols = list(b), list(a), list(a.T)
    x, y, z = np.empty((3, 2 * n))  # scratch rows: a rotation forms no new array
    sweeps = 0
    while np.linalg.norm(a - np.diag(a.diagonal())) > threshold:  # the off-diagonal norm
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("Jacobi iteration failed to converge")
        for p in range(n - 1):
            rp, ap, cp, pp = rows[p], arows[p], acols[p], p * (m + 1)
            for q in range(p + 1, n):
                apq = item(pq := pp + q - p)
                if apq == 0.0:
                    continue
                theta = (item(qq := q * (m + 1)) - item(pp)) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rq = rows[q]  # rows p and q turned in place, each read before it is written
                np.multiply(c, rp, x), np.multiply(s, rq, y), np.multiply(s, rp, z)  # 3rd arg: out
                np.subtract(x, y, rp), np.multiply(c, rq, x), np.add(z, x, rq)
                bpp, bpq, bqp, bqq = item(pp), item(pq), item(qp := q * m + p), item(qq)
                cp[:], acols[q][:] = ap, arows[q]  # the 2x2 block they leave is overwritten below
                flat[pp], flat[qq] = c * bpp - s * bpq, s * bqp + c * bqq
                flat[pq] = flat[qp] = 0.0

    w = _unscaled(a.diagonal().copy(), e)
    order = np.argsort(w, kind="stable")
    w, v = w[order], b[order, n:].T
    # deterministic sign: largest-magnitude component of each column positive
    signs = np.where(v[np.abs(v).argmax(axis=0), np.arange(n)] < 0, -1.0, 1.0)
    return w, v * signs


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-data of ``D``: ascending eigenvalues and an orthonormal basis.

    ``eigenvalues`` are the eigenvalues of ``D`` (square roots of those of
    ``L`` when the operator was given as ``raw_L``).  ``groups`` partitions
    the index range into the runs of equal eigenvalues, one per eigenspace,
    each with its multiplicity; :func:`eigh` gives every eigenspace one value.  The cut rule's
    width ``eps_group = GROUP_TOL_FACTOR lambda_max`` is derived, and must part distinct values.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kind: str = RAW_D
    eps_group: float = field(init=False)

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        lam = self.eigenvalues
        if lam.ndim != 1 or not lam.size or self.eigenvectors.shape != (lam.size, lam.size):
            raise InvalidSpectrumError(
                f"need N >= 1 eigenvalues and an N x N basis, got shapes {lam.shape} "
                f"and {self.eigenvectors.shape}")
        if not np.all(np.isfinite(lam)):
            raise InvalidSpectrumError("eigenvalues have NaN or infinite entries")
        if np.any(lam < 0.0) or np.any(np.diff(lam) < 0.0):
            raise InvalidSpectrumError("eigenvalues must be nonnegative and ascending")
        # the first index of each run of equal eigenvalues, one per eigenspace
        object.__setattr__(self, "_starts", np.flatnonzero(np.diff(lam, prepend=-1.0)))
        object.__setattr__(self, "eps_group", GROUP_TOL_FACTOR * self.lambda_max)
        if np.any(np.diff(lam[self._starts]) <= self.eps_group):  # one value per eigenspace
            raise InvalidSpectrumError(f"distinct eigenvalues within {self.eps_group!r}")

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def min_positive_eigenvalue(self) -> float:
        """Smallest nonzero eigenvalue; 0.0 if the spectrum is {0}."""
        pos = self.eigenvalues[self.eigenvalues > 0]
        return float(pos[0]) if pos.size else 0.0

    @property
    def groups(self) -> tuple:
        """The runs of equal eigenvalues, one tuple of indices per eigenspace."""
        return tuple(tuple(run.tolist()) for run in np.split(np.arange(self.dim), self._starts)[1:])


def eigh(op: SymmetricOperator) -> SpectralDecomposition:
    """Decompose a symmetric PSD operator into eigenvalues/eigenvectors of D.

    For ``raw_L`` input the returned eigenvalues are the square roots of the
    matrix eigenvalues.  Eigenvalues in ``[-tol_psd, 0]`` are clamped to 0;
    anything below ``-tol_psd`` raises :class:`NotPSDError`.  An eigenvalue of D
    at most ``eps_group = GROUP_TOL_FACTOR * lambda_max`` above its predecessor joins
    its group, and every group takes one value: its first entry plus the mean of the
    offsets from it, so a group of equal doubles keeps their value exactly (the group of
    a kernel mode keeps 0).  Both are
    relative to ``lambda_max``, so ``2^j D`` has the same groups and ``2^j`` times the values.
    """
    w, v = _jacobi_eigh(op.entries)
    tol_psd = op.psd_tolerance
    if np.any(w < -tol_psd):
        raise NotPSDError(
            f"matrix eigenvalue {float(w.min()):.3e} below -{tol_psd:.3e}")
    # clamp the whole noise band [-tol, tol] so kernel modes are exact zeros
    # (graph Laplacians produce +-1e-16-scale noise; the square root below
    # would otherwise inflate positive noise to ~1e-8 ghost frequencies)
    w = np.where(np.abs(w) <= tol_psd, 0.0, w)
    d_eigs = np.sqrt(w) if op.kind == RAW_L else w
    eps_group = GROUP_TOL_FACTOR * float(d_eigs[-1])
    # a group starts at each eigenvalue more than eps_group above its predecessor
    starts = np.flatnonzero(np.diff(d_eigs, prepend=-math.inf) > eps_group)
    sizes = np.diff(starts, append=d_eigs.size)
    offsets = d_eigs - np.repeat(d_eigs[starts], sizes)
    values = d_eigs[starts] + np.add.reduceat(offsets, starts) / sizes
    values[d_eigs[starts] == 0.0] = 0.0  # the kernel's group keeps the clamp's exact zero
    return SpectralDecomposition(eigenvalues=np.repeat(values, sizes), eigenvectors=v,
                                 kind=op.kind)


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


def _measure(dec: SpectralDecomposition, c) -> tuple:
    """``(nodes, norms)``: the spectral measure of each coefficient row ``c``, the one place
    ``c`` is pooled per eigenspace: the group values of ``dec``, and ``||P_g c||``, the norm of
    each eigenspace's part, by ``hypot`` (Blue, ACM TOMS 4, 1978: no square is formed, so no
    group under- or overflows at any scale of ``c``), each row on its own."""
    return dec.eigenvalues[dec._starts], np.hypot.reduceat(np.abs(c), dec._starts, axis=-1)


def _weighted(weights, values) -> np.ndarray:
    """``weights * values``, where a zero value gives zero even against an infinite weight.

    A nonzero term beyond the largest double raises :class:`NonFiniteError`, as ``_norm`` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(np.where(values == 0, 0.0, weights * values))


def _powered(measure, k) -> tuple:
    """The measure ``(nodes, nodes^k norms)`` of ``D^k f`` from that of ``f`` (``_weighted``), each
    distinct ``k`` (one per row) once, as a Python int: a row's bits are its one-row call's."""
    with np.errstate(over="ignore"):
        powers = sum(np.where(k == j, measure[0] ** j, 0.0) for j in {*np.ravel(k).tolist()})
        return measure[0], _weighted(powers, measure[1])


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


def schrodinger_group(dec: SpectralDecomposition, z, f) -> np.ndarray:
    """Apply ``e^{izD}``; an isometry for real ``z``, entire in ``z``.  ``z`` broadcasts
    against the rows of ``f``."""
    iz = 1j * _axis(z, np.complex128)
    return apply_multiplier(dec, lambda lam: np.exp(iz[..., None] * lam), f)
