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

:func:`equivalence_report` band-splits and measures each vector at the band
edges once, then reads the ratio of every ``(alpha, q)`` it is given off that.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBaseError,
    InvalidParamsError,
    MembershipViolationError,
    ZeroVectorError,
)
from .operators import SpectralDecomposition, _basis_product, _broadcast, _coefficients, _norm
from .operators import _shaped, _unscaled, _weighted, as_vector
from .paley_wiener import _band_powers, _check_q, _in_pw, _lq_norm, _pw_prefix, band_count
from .smoothness import BesovParams, _discrete_norm, _edge_distances, _safe_ratio


@dataclass(frozen=True, eq=False)
class BandDecomposition:
    """Band vectors ``f_k`` supported on ``(a^{k-1}, a^k]`` (band 0: [0, 1])."""

    base: float
    bands: tuple
    band_edges: np.ndarray

    @property
    def count(self) -> int:
        return len(self.bands)

    def band_norms(self) -> np.ndarray:
        return _norm(np.array(self.bands)) if self.bands else np.zeros(0)


def band_decompose(dec: SpectralDecomposition, f, a: float = 2.0) -> BandDecomposition:
    """Split ``f`` into its canonical orthogonal spectral bands.

    The number of bands is the smallest K with ``a^K >= lambda_max`` plus
    one; supports partition the spectrum exactly, so the bands are
    pairwise orthogonal and sum back to ``f``.
    """
    _, c, e = _coefficients(dec, as_vector(f, dec.dim))
    return _band_split(dec, c, e, a)


def _band_split(dec: SpectralDecomposition, c, e: int, a: float) -> BandDecomposition:
    """:func:`band_decompose` of the vector with coefficients ``c 2^e``, every band in one
    stacked product."""
    edges = _band_powers(a, band_count(dec.lambda_max, a) + 1)
    ends = _pw_prefix(dec, edges)  # band k keeps a^{k-1} < lambda <= a^k
    index = np.arange(dec.dim)
    masks = (np.append(0, ends[:-1])[:, None] <= index) & (index < ends[:, None])
    bands = _unscaled(_basis_product(dec.eigenvectors, np.where(masks, c, 0.0)), e)
    return BandDecomposition(base=a, bands=tuple(bands), band_edges=edges)


def frame_norm(band_dec: BandDecomposition, alpha: float, q: float) -> float:
    """Weighted band-norm sum ``(sum_k (a^{k alpha} ||f_k||)^q)^{1/q}`` (sup at q=inf)."""
    if not (0.0 < alpha < math.inf):
        raise InvalidParamsError(f"alpha must be in (0, inf), got {alpha}")
    _check_q(q)
    norms = band_dec.band_norms()
    return _lq_norm(_weighted(_band_powers(band_dec.base, len(norms), alpha), norms), q)


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
    v, c, e = _coefficients(dec, np.atleast_2d(vectors))
    shape, rows, (alphas, qs) = _broadcast(c, alpha, q)
    params = [BesovParams(alpha=x, q=y, a=a, flavor="discrete_E")
              for x, y in zip(alphas.tolist(), qs.tolist())]
    v, c, e = v.reshape(-1, dec.dim), c.reshape(-1, dec.dim), np.ravel(e)
    cuts = [(norm_f, _band_split(dec, c_i, e_i, a), _edge_distances(dec, (v_i, c_i, e_i), a, "E"))
            for norm_f, v_i, c_i, e_i in zip(_norm(v, e).tolist(), v, c, e)]
    if any(norm_f == 0.0 for norm_f, *_ in cuts):
        raise ZeroVectorError("equivalence ratio undefined for the zero vector")
    ratios = _shaped([(cuts[row][0] + frame_norm(cuts[row][1], p.alpha, p.q))
                      / (cuts[row][0] + _discrete_norm(cuts[row][2], p.alpha, p.q, a))
                      for row, p in zip(rows.tolist(), params)], shape)
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
        return _safe_ratio(self.lhs, self.rhs, 0.0)


def synthesis_check(dec: SpectralDecomposition, bands, alpha: float,
                    a: float = 2.0) -> SynthesisReport:
    """Measure the synthesis inequality for arbitrary admissible band vectors.

    Each ``bands[k]`` must lie in ``PW_{a^k}`` (they need not be orthogonal
    or canonical).  With ``f = sum_k bands[k]``, the scaled best
    approximation at every band edge is bounded by
    ``1 / (1 - a^{-alpha})`` times the weighted supremum of band norms;
    the constant is the exact geometric-series sum, not an empirical fit.
    """
    if not (a > 1.0):
        raise InvalidBaseError(f"base must be > 1, got {a}")
    if not (0.0 < alpha < math.inf):
        raise InvalidParamsError(f"alpha must be in (0, inf), got {alpha}")
    band_list = [as_vector(b, dec.dim) for b in bands]
    edges = _band_powers(a, len(band_list))
    v, c, _ = _coefficients(dec, np.reshape(band_list, (-1, dec.dim)))  # every band at once
    for k, edge in enumerate(edges):
        if not _in_pw(dec, c[k], edge, np.linalg.norm(v[k])):
            raise MembershipViolationError(
                f"band {k} has spectral mass above its edge a^{k} = {edge}")

    f = np.sum(band_list, axis=0) if band_list else np.zeros(dec.dim, complex)
    sup_band = frame_norm(BandDecomposition(a, tuple(band_list), edges), alpha, math.inf)
    # E(f, a^k) vanishes from k = band_count on, so the discrete terms hold the sup
    lhs = _discrete_norm(_edge_distances(dec, _coefficients(dec, f), a, "E"), alpha, math.inf, a)
    constant = 1.0 / (1.0 - a ** (-alpha))
    return SynthesisReport(lhs=lhs, rhs=constant * sup_band, constant=constant,
                           sup_band=sup_band)
