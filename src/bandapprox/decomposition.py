"""Multiscale band splitting and the frame-norm equivalence checks.

A vector is cut along the spectral bands ``[0, 1], (1, a], (a, a^2], ...``
(half-open above the first), realized as differences of successive
band projections.  The bands are orthogonal, reconstruct the vector
exactly, and the best approximation at a band edge is precisely the
Euclidean tail of the band norms.  Weighted summability of the band
norms is the discrete characterization of the smoothness classes; the
synthesis direction holds with the explicit geometric-series constant
``1 / (1 - a^{-alpha})`` even for overlapping, non-orthogonal band
inputs.

:func:`band_decompose` splits a block ``(..., N)`` into bands ``(..., K, N)``, and
:func:`synthesis_check` measures a block of band sets ``(..., K, N)``, each row as its call alone.
:func:`equivalence_report` makes one split and one rows x bands norm table, and takes the
denominators of every ``(alpha, q)`` from one parameter-axis call of the ``discrete_E`` norm.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidBaseError,
    InvalidParamsError,
    MembershipViolationError,
    ZeroVectorError,
)
from .operators import SpectralDecomposition, _as_block, _basis_product, _broadcast, _check_scalar
from .operators import _coefficients, _norm, _shaped, _unscaled
from .paley_wiener import _band_edges, _band_powers, _check_q, _distances, _pw_prefix, _require_pw
from .smoothness import BesovParams, _besov_norms, _discrete_norm, _safe_ratio


@dataclass(frozen=True, eq=False)
class BandDecomposition:
    """Band vectors ``f_k`` on ``(a^{k-1}, a^k]`` (band 0: [0, 1]); ``(..., K, N)`` for a block."""

    base: float
    bands: tuple | np.ndarray
    band_edges: np.ndarray

    @property
    def count(self) -> int:
        return len(self.band_edges)

    def band_norms(self) -> np.ndarray:
        return _norm(np.asarray(self.bands)) if self.count else np.zeros(0)


def band_decompose(dec: SpectralDecomposition, f, a: float = 2.0) -> BandDecomposition:
    """Split ``f`` into its canonical orthogonal spectral bands.

    The edges are ``1, a, ..., a^K``, ``a^K`` the first that keeps the whole spectrum (the cut
    rule of ``_pw_prefix``); supports partition the spectrum exactly, so the bands are
    pairwise orthogonal and sum back to ``f``.  A block ``f`` of shape ``(..., N)`` gives
    ``bands`` of shape ``(..., K, N)``, each row's bands those of the row alone.
    """
    _check_scalar(a, "a", InvalidBaseError)
    _, c, e = _coefficients(dec, f)
    bands, edges = _band_split(dec, c, e, a)
    return BandDecomposition(a, tuple(bands) if c.ndim == 1 else bands, edges)


def _band_split(dec: SpectralDecomposition, c, e, a: float) -> tuple:
    """``(bands, edges)`` of the rows with coefficients ``c 2^e`` (``(..., N)``): the bands
    ``(..., K, N)`` of :func:`band_decompose`, every band of every row in one stacked product."""
    edges = _band_edges(dec, a)
    ends = _pw_prefix(dec, edges)  # band k: a^{k-1} < lambda - eps_group <= a^k
    index = np.arange(dec.dim)
    masks = (np.append(0, ends[:-1])[:, None] <= index) & (index < ends[:, None])
    bands = _basis_product(dec.eigenvectors, np.where(masks, c[..., None, :], 0.0))
    return _unscaled(bands, np.reshape(e, np.shape(e) + (1, 1))), edges


def frame_norm(band_dec: BandDecomposition, alpha: float, q: float) -> float:
    """Weighted band-norm sum ``(sum_k (a^{k alpha} ||f_k||)^q)^{1/q}`` (sup at q=inf)."""
    _check_scalar(alpha, "alpha")
    if not (0.0 < alpha < math.inf):
        raise InvalidParamsError(f"alpha must be in (0, inf), got {alpha}")
    _check_q(q)
    return _discrete_norm(band_dec.band_norms(), alpha, q, band_dec.base)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Frame-side vs Besov-side norms over a corpus of vectors."""

    alpha: float
    q: float
    a: float
    ratios: np.ndarray
    ratio_lo: float
    ratio_hi: float


def equivalence_report(dec: SpectralDecomposition, vectors, alpha, q,
                       a: float = 2.0) -> EquivalenceReport:
    """Ratios of ``||f|| + frame norm`` to the discrete approximation norm.

    Over a corpus the minimum and maximum ratio bracket the equivalence constants.
    Accepts a single vector or a corpus of rows; ``alpha`` and ``q`` broadcast against the
    rows, and ``ratio_lo`` and ``ratio_hi`` reduce the first axis of ``ratios``, the corpus.
    """
    if not np.size(vectors):
        raise InvalidParamsError("equivalence_report needs at least one vector")
    _check_scalar(a, "a", InvalidBaseError)
    params = BesovParams(alpha=alpha, q=q, a=a, flavor="discrete_E")
    v, c, e = fc = _coefficients(dec, np.atleast_2d(vectors))
    shape, rows, (alphas, qs) = _broadcast(c, alpha, q)
    norms = _norm(v.reshape(-1, dec.dim), np.ravel(e))
    if np.any(norms == 0.0):
        raise ZeroVectorError("equivalence ratio undefined for the zero vector")
    # one split and one rows x bands norm table; each (alpha, q) reads its rows off one call
    band_norms = _norm(_band_split(dec, c.reshape(-1, dec.dim), np.ravel(e), a)[0])
    frames, orders = np.empty(len(rows)), {}
    for i, order in enumerate(zip(alphas.tolist(), qs.tolist())):
        orders.setdefault(order, []).append(i)
    for (x, y), i in orders.items():
        frames[i] = norms[rows[i]] + _discrete_norm(band_norms[rows[i]], x, y, a)
    ratios = _shaped(np.divide(frames, _besov_norms(dec, fc, params).ravel()), shape)
    if not np.size(ratios):
        raise InvalidParamsError("equivalence_report needs at least one vector")
    return EquivalenceReport(alpha=alpha, q=q, a=a, ratios=ratios,
                             ratio_lo=_shaped(np.min(ratios, axis=0)),
                             ratio_hi=_shaped(np.max(ratios, axis=0)))


@dataclass(frozen=True, eq=False)
class SynthesisReport:
    """Both sides of the synthesis inequality ``lhs <= rhs``, with ``rhs = constant * sup_band``."""

    lhs: float
    rhs: float
    constant: float
    sup_band: float

    @property
    def ratio(self) -> float:
        """``lhs / rhs``, at most 1 by the inequality; 0 when both sides vanish."""
        return _shaped(_safe_ratio(self.lhs, self.rhs, 0.0))


def synthesis_check(dec: SpectralDecomposition, bands, alpha: float,
                    a: float = 2.0) -> SynthesisReport:
    """Measure the synthesis inequality for arbitrary admissible band vectors.

    Each ``bands[k]`` must lie in ``PW_{a^k}`` (they need not be orthogonal
    or canonical).  With ``f = sum_k bands[k]``, the scaled best
    approximation at every band edge is bounded by
    ``1 / (1 - a^{-alpha})`` times the weighted supremum of band norms;
    the constant is the exact geometric-series sum, not an empirical fit.
    A block of shape ``(..., K, N)`` holds the K bands of each of its vectors, and each report
    field takes the shape ``(...)``, each element that of its bands alone.
    """
    if not (a > 1.0):
        raise InvalidBaseError(f"base must be > 1, got {a}")
    _check_scalar(alpha, "alpha")
    if not (0.0 < alpha < math.inf):
        raise InvalidParamsError(f"alpha must be in (0, inf), got {alpha}")
    if isinstance(bands, (list, tuple)) and not bands:  # no bands: f = 0
        bands = np.zeros((0, dec.dim))
    bands = _as_block(bands, dec.dim)
    if bands.ndim < 2:
        raise DimensionMismatchError(f"expected bands of shape (..., K, N), got {bands.shape}")
    shape, edges = bands.shape[:-2], _band_powers(a, bands.shape[-2])
    # every band at once, band k in PW_{a^k}
    _require_pw(dec, _coefficients(dec, bands)[1], edges, MembershipViolationError, "band")
    sup_band = _discrete_norm(_norm(bands), alpha, math.inf, a)
    # E(f, a^k) vanishes from the top edge of _band_edges on, so the discrete terms hold the sup
    fc = _coefficients(dec, np.sum(bands, axis=-2)[..., None, :])  # each f at every edge
    lhs = _discrete_norm(_distances(dec, fc, _band_edges(dec, a)[:-1]), alpha, math.inf, a)
    constant = 1.0 / (1.0 - a ** (-alpha))
    return SynthesisReport(lhs=_shaped(lhs, shape), rhs=_shaped(constant * sup_band, shape),
                           constant=constant, sup_band=_shaped(sup_band, shape))
