"""Bandlimited approximation and smoothness analysis for self-adjoint PSD operators.

Spectral calculus for a finite-dimensional self-adjoint positive
semidefinite operator, Paley-Wiener band projections with exact best
approximation, Besov-type smoothness norms (approximation-rate,
K-functional and modulus forms), Riesz and kernel-based
quasi-interpolation operators with Jackson-type error control, and
multiscale band decompositions with frame-norm equivalence checks.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .operators import (
    RAW_D,
    RAW_L,
    SpectralDecomposition,
    SymmetricOperator,
    apply_multiplier,
    eigh,
    inverse_transform,
    schrodinger_group,
    spectral_transform,
)
from .paley_wiener import (
    BandwidthReport,
    BernsteinReport,
    bandwidth,
    bernstein_check,
    best_approx,
    pw_project,
    spectral_tail,
)
from .smoothness import (
    BesovParams,
    besov_norm,
    besov_seminorm_sup,
    difference,
    k_besov_norm,
    k_functional,
    lemma1_check,
    lemma2_check,
    modulus,
    modulus_inequality_checks,
    sup_scaled_best_approx,
)
from .approx_operators import (
    ApproxKernel,
    RieszConfig,
    build_kernel,
    jackson_check,
    jackson_constant,
    q_apply,
    q_symbol,
    riesz_apply,
    riesz_identity_check,
    riesz_symbol,
)
from .decomposition import (
    BandDecomposition,
    band_decompose,
    equivalence_report,
    frame_norm,
    synthesis_check,
)
from .harness import (
    OperatorSpec,
    VerificationReport,
    build_operator,
    emit_report,
    load_vector,
    parse_operator_arg,
    run_suite,
    save_vector,
)
