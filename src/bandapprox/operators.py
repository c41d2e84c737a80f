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
* degenerate eigenvalues are grouped so multiplicities are explicit.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
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
    arr = np.asarray(f, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("vector has NaN or infinite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"vector length {arr.shape[0]} != dimension {dim}")
    return arr


def _is_int(x) -> bool:
    """True for integers of any integral type except ``bool``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _scaled(x) -> tuple:
    """``(x 2^-e, e)`` with ``max |x| 2^-e`` in ``[0.5, 1)``, or below it when ``e = -1022``.

    Scaling by a power of two is exact: squares of the scaled entries
    neither overflow nor underflow, and sums of them, their square roots
    and inner products, times ``2^e``, keep their unscaled bits.  The
    clamp keeps ``2^-e`` a finite double.
    """
    e = max(math.frexp(float(np.abs(x).max(initial=0.0)))[1], -1022)
    return x * 2.0 ** -e, e


def _scaled_mag2(coeffs) -> tuple:
    """``(|c|^2 4^-e, e)``: the squared magnitudes of ``_scaled(|c|)``."""
    mag, e = _scaled(np.abs(coeffs))
    return mag ** 2, e


def _norm(vec) -> float:
    """``np.linalg.norm(vec)`` taken at a power-of-two scale, so it cannot overflow or underflow."""
    scaled, e = _scaled(vec)
    return math.ldexp(float(np.linalg.norm(scaled)), e)


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

    def distinct_eigenvalues(self) -> np.ndarray:
        """One representative eigenvalue per degeneracy group."""
        return np.array([self.eigenvalues[g[0]] for g in self.groups])


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


def eigh(op: SymmetricOperator, eps_group: float | None = None) -> SpectralDecomposition:
    """Decompose a symmetric PSD operator into eigenvalues/eigenvectors of D.

    For ``raw_L`` input the returned eigenvalues are the square roots of the
    matrix eigenvalues.  Eigenvalues in ``[-tol_psd, 0]`` are clamped to 0;
    anything below ``-tol_psd`` raises :class:`NotPSDError`.
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
    if eps_group is None:
        eps_group = GROUP_TOL_FACTOR * max(1.0, float(d_eigs[-1]) if d_eigs.size else 1.0)
    groups = _group_indices(d_eigs, eps_group)
    return SpectralDecomposition(eigenvalues=d_eigs, eigenvectors=v,
                                 groups=groups, kind=op.kind, eps_group=eps_group)


def spectral_transform(dec: SpectralDecomposition, f) -> np.ndarray:
    """Coefficients ``c_j = <f, u_j>`` of ``f`` in the eigenbasis (unitary)."""
    return dec.eigenvectors.T @ as_vector(f, dec.dim)


def inverse_transform(dec: SpectralDecomposition, coeffs) -> np.ndarray:
    """Synthesize the vector whose eigenbasis coefficients are ``coeffs``."""
    return dec.eigenvectors @ as_vector(coeffs, dec.dim)


def apply_multiplier(dec: SpectralDecomposition, phi, f) -> np.ndarray:
    """Apply the operator ``phi(D)``: multiply coefficients by ``phi(lambda_j)``.

    ``phi`` is called once with the full eigenvalue array and may return
    real or complex values; they must all be finite.
    """
    c = spectral_transform(dec, f)
    values = np.asarray(phi(dec.eigenvalues))
    if values.shape != dec.eigenvalues.shape:
        values = np.broadcast_to(values, dec.eigenvalues.shape)
    if not np.all(np.isfinite(values)):
        raise NonFiniteMultiplierError("multiplier is not finite on the spectrum")
    return dec.eigenvectors @ (values * c)


def operator_power(dec: SpectralDecomposition, s: float, f) -> np.ndarray:
    """Apply ``D^s`` for real ``s >= 0`` (``D^0`` is the identity)."""
    if not (s >= 0):
        raise InvalidParamsError(f"power must be nonnegative, got {s}")
    return apply_multiplier(dec, lambda lam: np.power(lam, s), f)


def schrodinger_group(dec: SpectralDecomposition, z: complex, f) -> np.ndarray:
    """Apply ``e^{izD}``; an isometry for real ``z``, entire in ``z``."""
    return apply_multiplier(dec, lambda lam: np.exp(1j * complex(z) * lam), f)
