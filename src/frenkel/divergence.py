"""The divergence operator Delta(A||B) and its trace D(A||B).

Delta(A||B) = A(log A - log B) - B dlog(B, A) + B for PSD A, B with
range(A) inside range(B); the computation restricts both operands to
range(B), evaluates there, and embeds the result back with zero padding.
Pairs without support containment are flagged divergent together with a
kernel witness instead of a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import frechet
from .linalg import (
    ZERO_BAND,
    eig_hermitian,
    hermitian_part,
    matrix_log,
    parts,
    require_psd,
    support_relation,
)

FINITE = "finite"
DIVERGENT = "divergent"

# PSD slack for the computed Delta under a finite verdict; violations are
# recorded in the report, never silently clipped.
DELTA_PSD_SLACK = 1e-8


class SupportViolation(ValueError):
    """range(A) is not contained in range(B); carries the kernel witness."""

    def __init__(self, message: str, witness: np.ndarray):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class DivergenceReport:
    """Delta(A||B) with consistency diagnostics.

    trace_div is D(A||B) in nats (math.inf under a divergent verdict, as an
    explicit sentinel).  residual_trace_consistency is |tr Delta - D| where
    the two sides come from independent formulas.  delta_min_eigenvalue
    records how far Delta sits from the PSD cone; under a finite verdict it
    should not fall below -1e-8 * scale.
    """

    delta: Optional[np.ndarray]
    trace_div: float
    dichotomy: str
    witness: Optional[np.ndarray]
    residual_trace_consistency: float
    delta_min_eigenvalue: float

    def to_json_dict(self) -> dict:
        from .io import json_ready

        return json_ready(
            {
                "dichotomy": self.dichotomy,
                "trace_div": self.trace_div,
                "residual_trace_consistency": self.residual_trace_consistency,
                "delta_min_eigenvalue": self.delta_min_eigenvalue,
                "delta": self.delta,
                "witness": self.witness,
            }
        )


def o_gamma(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Clipped operator (A - gamma B)_+."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError(f"o_gamma: dimension mismatch {A.shape} vs {B.shape}")
    return parts(A - gamma * B).positive_part


def restrict_pair(A: np.ndarray, B: np.ndarray):
    """Compress (A, B) onto range(B).

    Returns (V, A1, B1) where V has orthonormal columns spanning range(B)
    and A1 = V* A V, B1 = V* B V.  V is None when B has full rank, in which
    case A1, B1 are the original matrices.
    """
    w, U = np.linalg.eigh(hermitian_part(np.asarray(B, dtype=complex)))
    band = ZERO_BAND * np.abs(w).max(initial=0.0)
    keep = w > band
    if keep.all():
        return None, np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    V = U[:, keep]
    A1 = hermitian_part(V.conj().T @ A @ V)
    B1 = hermitian_part(V.conj().T @ B @ V)
    return V, A1, B1


def embed(V: Optional[np.ndarray], M1: np.ndarray, n: int) -> np.ndarray:
    """Undo restrict_pair: V M1 V* as an n x n matrix (M1 itself if V is None)."""
    if V is None:
        return M1
    return V @ M1 @ V.conj().T


def relative_spectrum(A1: np.ndarray, B1: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of B1^{-1/2} A1 B1^{-1/2} for PD B1.

    These are the generalized eigenvalues of the pencil A1 - gamma B1: the
    parameters where it goes singular.
    """
    w, U = np.linalg.eigh(hermitian_part(B1))
    if w.min() <= ZERO_BAND * np.abs(w).max():
        raise ValueError("relative_spectrum: B1 not positive definite")
    inv_sqrt = U * (1.0 / np.sqrt(w))
    S = hermitian_part(inv_sqrt.conj().T @ A1 @ inv_sqrt)
    # inv_sqrt.conj().T = diag(w^-1/2) U^H, so S = B^-1/2 A B^-1/2 up to basis
    return np.linalg.eigvalsh(S)[::-1].copy()


def domination_tau(A: np.ndarray, B: np.ndarray) -> float:
    """Smallest tau with A <= tau B, or inf when support containment fails."""
    A = require_psd(A, "A")
    B = require_psd(B, "B")
    if not support_relation(A, B).holds:
        return math.inf
    _, A1, B1 = restrict_pair(A, B)
    sigma = relative_spectrum(A1, B1)
    return float(max(sigma[0], 0.0))


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


def _block_chain(A1: np.ndarray, B1: np.ndarray) -> np.ndarray:
    """A1(log A1 - log B1) on a block where B1 is PD.

    A1 log A1 goes through the spectral convention 0 log 0 = 0 (eigenvalues
    of A1 inside the zero band are treated as exact zeros); A1 log B1 is an
    ordinary product.
    """
    dec = eig_hermitian(A1)
    w = dec.eigenvalues
    band = ZERO_BAND * (np.abs(w).max() if w.size else 0.0)
    w = np.where(np.abs(w) <= band, 0.0, w)
    if w.min() < 0:
        raise ValueError(f"divergence: A not PSD on the range(B) block (eigenvalue {w.min():.6e})")
    vals = np.array([_xlogx(x) for x in w])
    U = dec.eigenvectors
    a_log_a = hermitian_part((U * vals) @ U.conj().T)
    return a_log_a - A1 @ matrix_log(B1)


def delta_operator(A: np.ndarray, B: np.ndarray) -> DivergenceReport:
    """Spectral-route Delta(A||B), with the support dichotomy resolved first."""
    A = require_psd(A, "A")
    B = require_psd(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"delta_operator: dimension mismatch {A.shape} vs {B.shape}")
    sup = support_relation(A, B)
    if not sup.holds:
        return DivergenceReport(
            delta=None,
            trace_div=math.inf,
            dichotomy=DIVERGENT,
            witness=sup.witness,
            residual_trace_consistency=0.0,
            delta_min_eigenvalue=math.nan,
        )
    n = A.shape[0]
    V, A1, B1 = restrict_pair(A, B)
    chain = _block_chain(A1, B1)
    delta1 = hermitian_part(chain - B1 @ frechet.dlog(B1, A1) + B1)
    trace_div = float(np.trace(chain).real - np.trace(A1).real + np.trace(B1).real)
    residual = abs(float(np.trace(delta1).real) - trace_div)
    delta = embed(V, delta1, n)
    min_eig = float(np.linalg.eigvalsh(delta1).min()) if delta1.size else 0.0
    if V is not None and min_eig > 0.0:
        min_eig = 0.0  # zero padding contributes zero eigenvalues
    return DivergenceReport(
        delta=delta,
        trace_div=trace_div,
        dichotomy=FINITE,
        witness=None,
        residual_trace_consistency=residual,
        delta_min_eigenvalue=min_eig,
    )


def trace_divergence(A: np.ndarray, B: np.ndarray) -> float:
    """D(A||B) = tr(A(log A - log B) - A + B), or inf without support containment."""
    A = require_psd(A, "A")
    B = require_psd(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"trace_divergence: dimension mismatch {A.shape} vs {B.shape}")
    if not support_relation(A, B).holds:
        return math.inf
    _, A1, B1 = restrict_pair(A, B)
    chain = _block_chain(A1, B1)
    return float(np.trace(chain).real - np.trace(A1).real + np.trace(B1).real)
