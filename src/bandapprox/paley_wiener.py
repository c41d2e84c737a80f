"""Paley-Wiener subspaces: projections, best approximation, bandwidth.

``PW_omega`` is the span of eigenvectors with eigenvalue in ``[0, omega]``, a prefix of the
ascending spectrum cut in one place (``_pw_prefix``).  The norm of the part above ``omega`` is the
distance to ``PW_omega``, taken two ways that must agree to near machine precision, so the
identity is a real check: the residual in H (the E route, ``_distances``, a running sum inside
each block of cuts, O(N^2) per vector at all of them) and the tail of the spectral measure, its
eigenspace norms summed by ``hypot`` (the R route, ``_tails``), which also decides membership.
The R side sees a vector only through its measure (``operators._measure``): the Bernstein norm
``||(D/omega)^s f_omega||`` of :func:`bernstein_check` and :func:`bandwidth` weights its groups.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBaseError,
    InvalidParamsError,
    NegativeOmegaError,
    NotBandlimitedError,
    ZeroVectorError,
)
from .operators import (
    SpectralDecomposition,
    _axis,
    _basis_product,
    _broadcast,
    _check_scalar,
    _coefficients,
    _finite,
    _is_int,
    _measure,
    _norm,
    _scaled,
    _shaped,
    _unscaled,
    apply_multiplier,
)

#: relative tail below which a vector counts as a member of PW_omega
BANDLIMITED_TOL = 1e-12
#: eigenspace norm threshold (relative to ||f||) defining the support
SUPPORT_TOL = 1e-12
#: largest top band index a base may produce; bases closer to 1 are rejected
MAX_BANDS = 100_000
#: complex entries the E route holds at once: block products (rows x blocks x N), running sums
_E_CHUNK_ENTRIES = 1 << 14
#: basis columns per block of the E route: one product per full block, a running sum inside one
_E_BLOCK = 32


def _band_powers(a: float, count: int, x: float = 1.0) -> np.ndarray:
    """``a^(k x)`` for k = 0 .. count-1: band edges at ``x = 1``, weights at ``x = alpha``.

    Scalar powers, ``inf`` past the largest double: an array power may differ from them in
    the last bit and move an eigenvalue that sits on an edge into the next band.
    """
    with np.errstate(over="ignore"):
        return np.array([np.float64(a) ** (k * x) for k in range(count)])


def _check_q(q: float) -> None:
    """Reject an exponent outside ``[1, inf]``, the range where ``_lq_norm`` is a norm."""
    if not (q >= 1.0):
        raise InvalidParamsError(f"q must be in [1, inf], got {q}")


def _lq_norm(terms: np.ndarray, q: float):
    """``(sum terms^q)^{1/q}`` of each row of ``terms`` (``(..., K)``; a float for one row) at its
    power-of-two scale, the max at ``q = inf``, 0 without terms: one sum over the last axis and a
    Python float root per row (an array power may differ in the last bit), as one row alone."""
    scaled, e = _scaled(terms)
    sums = np.max(scaled, axis=-1, initial=0.0) if q == math.inf else np.sum(scaled ** q, axis=-1)
    roots = sums if q == math.inf else [x ** (1.0 / q) for x in np.ravel(sums).tolist()]
    return _unscaled(_shaped(roots, np.shape(sums)), e)


def _omegas(omega) -> np.ndarray:
    """``omega`` as a float array, every entry checked ``>= 0``."""
    value = _axis(omega)
    if not np.all(value >= 0.0):
        raise NegativeOmegaError(f"omega must be >= 0, got {omega}")
    return value


def _pw_prefix(dec: SpectralDecomposition, omega):
    """How many eigenvalues PW_omega keeps: the one place a cut is decided, by one rule.  An
    eigenvalue is kept when ``lambda <= omega + eps_group``, so a threshold that equals a group
    value in exact arithmetic keeps that eigenspace, however the solver rounded it."""
    return dec.eigenvalues.searchsorted(np.add(omega, dec.eps_group), side="right")


def _band_edges(dec: SpectralDecomposition, a: float) -> np.ndarray:
    """The band edges ``1, a, ..., a^K`` of ``dec``: ``a^K`` is the first edge whose
    ``_pw_prefix`` keeps the whole spectrum.  No more than ``ceil(log lambda_max / log a) + 2``
    edges are formed, as the last of them keeps it.  Raises :class:`InvalidBaseError` when
    ``a <= 1`` or when ``K`` would exceed :data:`MAX_BANDS`, instead of truncating."""
    if not (a > 1.0):
        raise InvalidBaseError(f"base must be > 1, got {a}")
    count = math.ceil(math.log(max(dec.lambda_max, 1.0)) / math.log(a)) + 2
    edges = _band_powers(a, min(count, MAX_BANDS + 1))
    top = np.flatnonzero(_pw_prefix(dec, edges) == dec.dim)
    if not top.size:
        raise InvalidBaseError(f"base {a} needs more than MAX_BANDS = {MAX_BANDS} bands to "
                               f"reach lambda_max = {dec.lambda_max}")
    return edges[:top[0] + 1]


@dataclass(frozen=True, eq=False)
class BandwidthReport:
    """Support edge of a vector plus the power-norm diagnostics.

    ``k_sequence[k-1]`` holds ``||D^k f||^{1/k}``; for unit vectors the
    sequence increases toward ``omega_f`` (power-mean monotonicity), for
    general vectors it approaches ``omega_f`` from above or below depending
    on ``||f||``.  With finitely many eigenvalues the limit and the limit
    inferior of the sequence coincide, so a single sequence serves both
    characterizations.  ``sup_ratio`` is ``sup_k omega^{-k} ||D^k f||`` at
    the probe band edge: bounded by ``||f||`` when the probe is >= omega_f,
    growing geometrically when it is smaller.
    """

    omega_f: float
    k_sequence: np.ndarray
    sup_ratio: float
    probe_omega: float
    final_gap: float


def _step_nodes(dec: SpectralDecomposition) -> np.ndarray:
    """0 and the group values, ascending: the jumps of ``E(f, .)`` in exact arithmetic, which the
    integrals take; ``best_approx`` drops ``eps_group`` below each, by the cut rule."""
    values = dec.eigenvalues[dec._starts]
    return np.concatenate(([0.0], values[values > 0.0]))


def _distances(dec: SpectralDecomposition, fc, omegas) -> np.ndarray:
    """The E route, the twin of ``_tails`` that keeps ``E = R`` a real check: distance from ``f``
    (its ``(v, c, e)``) to PW_omega at ``omegas`` broadcast against its rows, the norm in H of
    ``b_k - t_kW - ... - t_(end-1)``, ``t_j = V[:, j] c_j`` (``W = _E_BLOCK``, ``k = end // W``),
    from ``b_0 = v``, ``b_(i+1) = b_i - V[:, iW:(i+1)W] c[iW:(i+1)W]``: the cuts of a block are
    one running sum (in chunks, each from the last sum before), so a row at all cuts costs O(N^2)
    and an element's bits depend only on its row, its cut and W.  Each is the sum that
    ``np.linalg.norm`` takes, or if below ``2^-480`` taken again at its own scale (``_norm``)."""
    v, c, e = fc
    shape, rows, (ends, e) = _broadcast(c, _pw_prefix(dec, omegas), e)
    n, w, basis, size = dec.dim, _E_BLOCK, dec.eigenvectors, max(1, _E_CHUNK_ENTRIES // dec.dim)
    v, c, norms, ks = v.reshape(-1, n), c.reshape(-1, n), np.empty(len(rows)), ends // w
    blocks = basis[:, :n // w * w].reshape(n, n // w, w).transpose(1, 0, 2)  # the full blocks
    cb = c[:, :n // w * w].reshape(len(c), n // w, w)  # and their coefficients
    step = max(1, min(int(ks.max(initial=0)), size - 1))  # blocks per stacked product
    for u in np.array_split(np.arange(len(c)), -(-len(c) // max(1, size // (step + 1))) or 1):
        mine = np.flatnonzero((rows >= u[:1]) & (rows <= u[-1:]))  # the elements of the rows u
        top, base = int(ks[mine].max(initial=0)), v[u]  # b_0 = v (a copy)
        for k in range(top + 1):
            if k % step == 0:  # the next full blocks of the rows u up to b_top, one product
                terms = _basis_product(blocks[k:min(k + step, top)], cb[u, k:min(k + step, top)])
            if (at := mine[ks[mine] == k]).size:  # the elements cut in block k
                off, by_cut = ends[at] - k * w, np.empty((w + 1, len(u)))  # norms per cut and row
                z, buf = c[u, k * w:k * w + (m := int(off.max()))].T, base[None]
                for s in range(0, max(m, 1), p := max(1, size // len(u) - 1)):  # p terms each
                    cols = basis[:, k * w + s:k * w + min(s + p, m)].copy().T.copy()  # read by rows
                    last, buf = buf[-1], np.empty((len(cols) + 1, len(u), n), complex)
                    buf[0] = last
                    np.multiply(z[s:s + p, :, None], cols[:, None], out=buf[1:])
                    for prev, t in zip(buf, buf[1:]):  # one term at a time, in order
                        np.subtract(prev, t, out=t)
                    sq = np.vecdot(buf.real, buf.real) + np.vecdot(buf.imag, buf.imag)
                    got = np.sqrt(sq, out=by_cut[s:s + len(buf)])
                    if np.any(small := got[:n - k * w - s] < 2.0 ** -480):  # not at the cut N
                        got[:len(small)][small] = _norm(buf[:len(small)][small])
                norms[at] = by_cut[off, rows[at] - u[0]]
            if k < top:
                base -= terms[:, k % step]  # b_(k+1)
    return _unscaled(np.reshape(norms, shape), e.reshape(shape))


def _tails(dec: SpectralDecomposition, measure, omegas) -> np.ndarray:
    """The R route: the tail above omega of each row of the measure ``(nodes, norms)`` (at its
    scale) at ``omegas`` broadcast against the rows: its group norms summed by ``hypot`` from the
    top group down to the cut's, one ``hypot.accumulate`` per row (never ``total - prefix``), so
    no tail under- or overflows, however far below its row's largest group it lies."""
    norms = measure[1]
    shape, rows, (g,) = _broadcast(norms, np.searchsorted(dec._starts, _pw_prefix(dec, omegas)))
    top = np.hypot.accumulate(norms.reshape(-1, norms.shape[-1])[:, ::-1], axis=1)  # 1 .. G
    return np.where(g < top.shape[1], top[rows, top.shape[1] - 1 - g], 0.0).reshape(shape)


def _require_pw(dec: SpectralDecomposition, c, omegas, error=NotBandlimitedError, what="vector"):
    """The one membership rule: raise ``error`` naming the first element (``omegas`` broadcast
    against the rows of ``c``, flattened) whose tail exceeds ``BANDLIMITED_TOL ||f||``, or return
    the measure ``_measure(dec, c)`` the tails were read off."""
    tails = _tails(dec, measure := _measure(dec, c), omegas)  # at the scale of c
    outside = np.flatnonzero(tails > BANDLIMITED_TOL * _norm(c))
    if outside.size:
        k = int(outside[0])  # named by its index in the broadcast shape, a number on one axis
        at = k if tails.ndim < 2 else tuple(map(int, np.unravel_index(k, tails.shape)))
        omega = np.broadcast_to(omegas, tails.shape).flat[k]
        raise error(f"{what} {at} has spectral mass above omega={omega}")
    return measure


def _bernstein_norms(dec: SpectralDecomposition, measure, omegas, s) -> np.ndarray:
    """``||(D/omega)^s f_omega||`` of each row of the measure ``(nodes, norms)`` (``(M, G)``) at
    its entry of ``omegas``, for every ``s`` (last axis): each group norm kept by the
    ``_pw_prefix`` cut, weighted by ``min(node/omega, 1)^s`` (a kept group may lie up to
    ``eps_group`` above omega; ``0^s`` is 1 at ``s = 0``), one norm per row."""
    nodes, norms = measure
    kept = np.arange(len(nodes)) < np.searchsorted(dec._starts, _pw_prefix(dec, omegas))[:, None]
    with np.errstate(divide="ignore"):  # omega = 0 keeps lambda <= eps_group: inf, clamped
        x = np.minimum(np.divide(nodes, omegas[:, None], out=np.zeros(kept.shape),
                                 where=kept & (nodes > 0.0)), 1.0)
    return _norm(np.power(x, np.reshape(s, (-1, 1, 1))) * np.where(kept, norms, 0.0)).T


def pw_project(dec: SpectralDecomposition, f, omega) -> np.ndarray:
    """Orthogonal projection onto PW_omega: zero all coefficients above omega (broadcast
    against the rows of ``f``)."""
    ends = _pw_prefix(dec, _omegas(omega))
    return apply_multiplier(dec, lambda lam: np.arange(lam.size) < ends[..., None], f)


def best_approx(dec: SpectralDecomposition, f, omega):
    """Distance from ``f`` to PW_omega, via the projection residual in H: a float for one
    vector and one ``omega``, else an array of their broadcast shape."""
    return _shaped(_distances(dec, _coefficients(dec, f), _omegas(omega)))


def spectral_tail(dec: SpectralDecomposition, f, omega):
    """Coefficient-tail norm above omega; equals :func:`best_approx`, shaped as it is."""
    _, c, e = _coefficients(dec, f)
    return _shaped(_unscaled(_tails(dec, _measure(dec, c), _omegas(omega)), e))


def bandwidth(dec: SpectralDecomposition, f, k_max: int = 40,
              probe_omega: float | None = None) -> BandwidthReport:
    """Support edge ``omega_f`` of ``f`` and the ``||D^k f||^{1/k}`` diagnostics.

    ``omega_f`` is the largest eigenvalue whose eigenspace holds a part of ``f``
    of norm above ``SUPPORT_TOL * ||f||``, so it does not depend on the basis.
    ``probe_omega`` defaults to ``omega_f`` itself and must be ``>= 0``; ``k_max``
    must be an integer ``>= 1``.  ``||D^k f||`` is ``omega_f^k`` times the Bernstein
    norm at ``omega_f``, over ``lambda <= omega_f`` only: the round-off tail left above
    it (of a projection, or of a kernel mode on a graph) would grow like
    ``(lambda_max/omega_f)^k``.  So ``sup_ratio <= ||f||`` whenever the probe is ``>= omega_f``.
    A block ``f`` gives each field the shape of its rows (``k_sequence`` adds an axis over ``k``).
    """
    if not (_is_int(k_max) and k_max >= 1):
        raise InvalidParamsError(f"k_max must be an integer >= 1, got {k_max!r}")
    v, c, e = _coefficients(dec, f)
    _check_scalar(probe_omega, "probe_omega")
    shape, c, e = c.shape[:-1], c.reshape(-1, dec.dim), np.reshape(e, -1)
    norms = np.reshape(_norm(v), -1)
    if np.any(norms == 0.0):
        raise ZeroVectorError("bandwidth of the zero vector is undefined")
    nodes, groups = measure = _measure(dec, c)
    significant = groups > SUPPORT_TOL * norms[:, None]
    omega_f = np.max(np.where(significant, nodes, 0.0), axis=-1, initial=0.0)

    # log ||D^k f|| = k log omega_f + log ||(D/omega_f)^k f||: finite far beyond the double
    # range, -inf when D^k f = 0 (omega_f = 0)
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    probe = omega_f if probe_omega is None else np.broadcast_to(_omegas(probe_omega), e.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # log 0 = -inf
        log_v = ks * np.log(omega_f)[:, None] + np.log(_bernstein_norms(dec, measure, omega_f, ks))
        k_sequence = _finite(np.exp((log_v + e[:, None] * math.log(2.0)) / ks))  # NonFiniteError
        log_r = np.max(log_v - ks * np.log(probe)[:, None], axis=-1)  # = log(2^d e^r), e^r < 2
        d = np.floor(np.where(np.isfinite(log_r), log_r, 0.0) / math.log(2.0)).astype(int)
        ratios = _unscaled(np.where(probe > 0.0, np.exp(log_r - d * math.log(2.0)), 0.0), e + d)
    # probe 0: every ratio is 0/0 with D^k f = 0, or +inf otherwise
    zero = np.where(np.all(np.isneginf(log_v), axis=-1), 0.0, math.inf)
    return BandwidthReport(omega_f=_shaped(omega_f, shape),
                           k_sequence=k_sequence.reshape(shape + ks.shape),
                           sup_ratio=_shaped(np.where(probe > 0.0, ratios, zero), shape),
                           probe_omega=_shaped(probe, shape),
                           final_gap=_shaped(omega_f - k_sequence[:, -1], shape))


@dataclass(frozen=True, eq=False)
class BernsteinReport:
    """Measured ratios ``||D^s f|| / (omega^s ||f||)`` for bandlimited f."""

    omega: float
    s_values: tuple
    ratios: np.ndarray
    max_ratio: float


def bernstein_check(dec: SpectralDecomposition, f, omega, s_list) -> BernsteinReport:
    """Measure ``||D^s f|| / (omega^s ||f||)``, at most 1, for each ``s`` in ``s_list``.

    Requires ``f`` in PW_omega (tail at most ``1e-12 ||f||``), otherwise
    raises :class:`NotBandlimitedError`.  Every ``s`` must be finite and ``>= 0``.
    The ratio is the Bernstein norm ``||(D/omega)^s f_omega||`` over ``||f||``, over
    ``lambda <= omega`` only, the part the inequality bounds: the admitted tail, round-off
    of a projection, would grow like ``(lambda_max/omega)^s``.  It is finite for every ``s``
    and ``omega``, and 0 where ``(lambda/omega)^s`` underflows.

    ``omega`` and ``max_ratio`` take the broadcast shape of ``omega`` and the rows of ``f``;
    ``ratios`` adds an axis over ``s``.
    """
    v, c, _ = _coefficients(dec, f)
    shape, rows, (ws,) = _broadcast(c, omegas := _omegas(omega))
    s_values = tuple(s_list)
    bad = [s for s in s_values if not 0.0 <= s < math.inf]
    if bad:
        raise InvalidParamsError(f"s must be finite and >= 0, got {bad[0]}")
    norms = _norm(v.reshape(-1, dec.dim))[rows]  # ||f|| 2^-e
    if np.any(norms == 0.0):
        raise ZeroVectorError("Bernstein check needs a nonzero vector")
    nodes, groups = _require_pw(dec, c, omegas)  # one measure for the test and the norms
    # both at the scale of c: the 2^e of f cancels from every ratio
    measure = nodes, groups.reshape(-1, len(nodes))[rows]
    ratios = _bernstein_norms(dec, measure, ws, s_values) / norms[:, None]
    # the ratios are nonnegative: the initial 0.0 only shows without any s
    return BernsteinReport(omega=_shaped(ws, shape), s_values=s_values,
                           ratios=ratios.reshape(shape + (len(s_values),)),
                           max_ratio=_shaped(ratios.max(axis=1, initial=0.0), shape))

