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

A sweep over ``(alpha, q)`` takes one pass per vector: ``_equivalence_ratios``
band-splits and measures each ``_coefficients`` triple at the band edges once,
then reads every ratio off that; :func:`equivalence_report` is its one-pair call.
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
from .operators import SpectralDecomposition, _basis_product, _coefficients, _ldexp, _norm
from .operators import _weighted, as_vector
from .paley_wiener import _band_powers, _check_q, _in_pw, _lq_norm, band_count
from .smoothness import BesovParams, _discrete_norm, _edge_distances


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
        return np.array([_norm(b) for b in self.bands])


def band_decompose(dec: SpectralDecomposition, f, a: float = 2.0) -> BandDecomposition:
    """Split ``f`` into its canonical orthogonal spectral bands.

    The number of bands is the smallest K with ``a^K >= lambda_max`` plus
    one; supports partition the spectrum exactly, so the bands are
    pairwise orthogonal and sum back to ``f``.
    """
    _, c, e = _coefficients(dec, f)
    return _band_split(dec, c, e, a)


def _band_split(dec: SpectralDecomposition, c, e: int, a: float) -> BandDecomposition:
    """:func:`band_decompose` of the vector with coefficients ``c 2^e``."""
    k_top = band_count(dec.lambda_max, a)
    edges = _band_powers(a, k_top + 1)
    band_of = np.searchsorted(edges, dec.eigenvalues)  # k with a^{k-1} < lambda <= a^k
    bands = tuple(_ldexp(_basis_product(dec.eigenvectors, np.where(band_of == k, c, 0.0)), e)
                  for k in range(k_top + 1))
    return BandDecomposition(base=a, bands=bands, band_edges=edges)


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


def equivalence_report(dec: SpectralDecomposition, vectors, alpha: float, q: float,
                       a: float = 2.0) -> EquivalenceReport:
    """Ratios of ``||f|| + frame norm`` to the discrete approximation norm.

    Over a corpus the minimum and maximum ratio bracket the equivalence
    constants.  Accepts a single vector or a sequence of vectors.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 1:
        vectors = [vectors]
    ratios = _equivalence_ratios(dec, [_coefficients(dec, f) for f in vectors], [(alpha, q)],
                                 a)[:, 0]
    if not ratios.size:
        raise InvalidParamsError("equivalence_report needs at least one vector")
    return EquivalenceReport(alpha=alpha, q=q, a=a, ratios=ratios,
                             ratio_lo=float(ratios.min()), ratio_hi=float(ratios.max()))


def _equivalence_ratios(dec: SpectralDecomposition, fcs, combos, a: float) -> np.ndarray:
    """:func:`equivalence_report` ratios of every ``_coefficients`` triple (rows) for every
    ``(alpha, q)`` (columns), one pass per vector (see the module notes)."""
    params = [BesovParams(alpha=alpha, q=q, a=a, flavor="discrete_E") for alpha, q in combos]
    rows = []
    for v, c, e in fcs:
        norm_f = _norm(v, e)
        if norm_f == 0.0:
            raise ZeroVectorError("equivalence ratio undefined for the zero vector")
        band_dec = _band_split(dec, c, e, a)
        distances = _edge_distances(dec, (v, c, e), a, "E")
        rows.append([(norm_f + frame_norm(band_dec, p.alpha, p.q))
                     / (norm_f + _discrete_norm(distances, p.alpha, p.q, a)) for p in params])
    return np.array(rows).reshape(len(rows), len(params))


@dataclass(frozen=True, eq=False)
class SynthesisReport:
    """Both sides of the synthesis inequality ``lhs <= rhs``, with ``rhs = constant * sup_band``."""

    lhs: float
    rhs: float
    constant: float
    sup_band: float


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
    for k, edge in enumerate(edges):
        if not _in_pw(dec, _coefficients(dec, band_list[k]), edge):
            raise MembershipViolationError(
                f"band {k} has spectral mass above its edge a^{k} = {edge}")

    f = np.sum(band_list, axis=0) if band_list else np.zeros(dec.dim, complex)
    sup_band = frame_norm(BandDecomposition(a, tuple(band_list), edges), alpha, math.inf)
    # E(f, a^k) vanishes from k = band_count on, so the discrete terms hold the sup
    lhs = _discrete_norm(_edge_distances(dec, _coefficients(dec, f), a, "E"), alpha, math.inf, a)
    constant = 1.0 / (1.0 - a ** (-alpha))
    return SynthesisReport(lhs=lhs, rhs=constant * sup_band, constant=constant,
                           sup_band=sup_band)
