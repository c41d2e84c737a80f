"""Exception types raised by the library.

Every contract violation has its own class so callers (and tests) can
distinguish failure modes without parsing messages.  All of them derive
from :class:`BandApproxError`, which itself is a ``ValueError``.
"""


class BandApproxError(ValueError):
    """Base class for all errors raised by this package."""


# -- operator / spectral core -------------------------------------------------

class NotSymmetricError(BandApproxError):
    """Input matrix is not exactly symmetric."""


class NotPSDError(BandApproxError):
    """Input matrix has an eigenvalue below the PSD tolerance."""


class NonFiniteError(BandApproxError):
    """Input contains NaN or infinite entries."""


class DimensionMismatchError(BandApproxError):
    """Vector length does not match the operator dimension."""


class NonFiniteMultiplierError(BandApproxError):
    """Spectral multiplier evaluates to NaN/inf on the spectrum."""


class InvalidSpectrumError(BandApproxError):
    """Eigen-data are not finite, nonnegative, ascending eigenvalues with a square basis."""


# -- Paley-Wiener -------------------------------------------------------------

class NegativeOmegaError(BandApproxError):
    """Band limit must be nonnegative."""


class ZeroVectorError(BandApproxError):
    """Operation undefined for the zero vector."""


class NotBandlimitedError(BandApproxError):
    """Vector has spectral mass above the stated band limit."""


# -- smoothness ---------------------------------------------------------------

class InvalidParamsError(BandApproxError):
    """A parameter value or combination violates its constraints."""


class NonPositiveTError(BandApproxError):
    """K-functional argument t must be positive."""


class InvalidOrderError(BandApproxError):
    """Smoothness orders violate the required ordering (e.g. alpha <= n)."""


# -- approximation operators --------------------------------------------------

class InvalidConfigError(BandApproxError):
    """Riesz operator configuration invalid (omega not in (0, inf) or truncation
    not an integer >= 1)."""


class OddOrderError(BandApproxError):
    """Kernel order must be even."""


class OrderTooSmallError(BandApproxError):
    """Kernel order too small for the requested difference order."""


class KernelOrderMismatchError(BandApproxError):
    """Kernel order incompatible with the requested operator order."""


class IndexOutOfRangeError(BandApproxError):
    """Jackson constant index k outside [0, m]."""


# -- decomposition ------------------------------------------------------------

class InvalidBaseError(BandApproxError):
    """Dyadic base must satisfy a > 1 and give at most ``MAX_BANDS`` bands."""


class MembershipViolationError(BandApproxError):
    """Supplied band vector is not inside its claimed Paley-Wiener space."""


# -- harness ------------------------------------------------------------------

class ParseError(BandApproxError):
    """Malformed operator/vector input file or spec string."""


class BadDimensionError(BandApproxError):
    """Input file dimensions are inconsistent or invalid."""


class UnsupportedFormatError(BandApproxError):
    """Unknown serialization format requested."""
