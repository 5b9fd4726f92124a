"""Operator divergence of positive semidefinite matrices.

The package computes the divergence operator

    Delta(A||B) = A(log A - log B) - B dlog(B, A) + B

two independent ways: spectrally (eigendecompositions, the divided-
difference derivative of log) and by adaptive operator-valued quadrature of
clipped-pencil integrands, and verifies the identities, norm bounds,
continuity estimates and truncation limits that connect the two at every
step.  See README.md for the layout and the verification CLI.
"""

from .linalg import (
    HERMITICITY_RTOL,
    PSD_SLACK,
    ZERO_BAND,
    PartsDecomposition,
    PsdOrderVerdict,
    SpectralDecomposition,
    as_hermitian,
    eig_hermitian,
    hermitian_part,
    hermiticity_defect,
    matrix_log,
    opnorm,
    parts,
    positive_part,
    psd_order,
    random_unitary,
    schatten_norm,
)
from .frechet import dlog, dlog_fd_oracle, loewner_log, trace_pairing_check
from .divergence import (
    DivergenceReport,
    SupportViolation,
    delta_operator,
    domination_tau,
    o_gamma,
    trace_divergence,
)
from .pencil import (
    PencilCrossings,
    araki_check,
    eigencurves,
    find_crossings,
    kato_continuity_check,
)
from .quadrature import (
    GrowthRecord,
    ProofChainIntegrals,
    QuadratureResult,
    adaptive_matrix_integral,
    divergence_probe,
    frenkel_trace,
    proof_chain_integrals,
    rhs_frg,
    rhs_frg1,
)
from .resolvent import (
    abs_resolvent,
    alogdiff_integral,
    bdlog_product,
    dlog_resolvent,
    log_resolvent,
)
from .schatten import (
    CompactModel,
    TruncationSeries,
    budget_e_p,
    synth_compact,
    theorem3_convergence,
    truncate,
    truncation_series,
)
from .cli import RunConfig, generate_pair, run_verification_suite
from .io import read_pair, write_pair

__version__ = "0.1.0"

__all__ = [
    "HERMITICITY_RTOL",
    "PSD_SLACK",
    "ZERO_BAND",
    "CompactModel",
    "DivergenceReport",
    "GrowthRecord",
    "PartsDecomposition",
    "PencilCrossings",
    "ProofChainIntegrals",
    "PsdOrderVerdict",
    "QuadratureResult",
    "RunConfig",
    "SpectralDecomposition",
    "SupportViolation",
    "TruncationSeries",
    "abs_resolvent",
    "adaptive_matrix_integral",
    "alogdiff_integral",
    "araki_check",
    "as_hermitian",
    "bdlog_product",
    "budget_e_p",
    "delta_operator",
    "divergence_probe",
    "dlog",
    "dlog_fd_oracle",
    "dlog_resolvent",
    "domination_tau",
    "eig_hermitian",
    "eigencurves",
    "find_crossings",
    "frenkel_trace",
    "generate_pair",
    "hermitian_part",
    "hermiticity_defect",
    "kato_continuity_check",
    "loewner_log",
    "log_resolvent",
    "matrix_log",
    "o_gamma",
    "opnorm",
    "parts",
    "positive_part",
    "proof_chain_integrals",
    "psd_order",
    "random_unitary",
    "read_pair",
    "rhs_frg",
    "rhs_frg1",
    "run_verification_suite",
    "schatten_norm",
    "synth_compact",
    "theorem3_convergence",
    "trace_divergence",
    "trace_pairing_check",
    "truncate",
    "truncation_series",
    "write_pair",
]
