"""The divergence operator Delta(A||B) and its trace D(A||B).

Delta(A||B) = A(log A - log B) - B dlog(B, A) + B for PSD A, B with
range(A) inside range(B); the computation restricts both operands to
range(B), evaluates there, and embeds the result back with zero padding.
On a pair without support containment the operator is unbounded: the
operator routes raise SupportViolation with a kernel witness, and the
scalar routes return D = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import frechet
from .linalg import (
    PsdOrderVerdict,
    SpectralDecomposition,
    as_hermitian_pair,
    check_pd,
    check_psd,
    eig_hermitian,
    hermitian_part,
    log_of,
    parts,
    positive_definite_spectrum,
    range_mask,
    rebuild,
    require_psd,
    support_in_eigenbasis,
)

# PSD slack for the computed Delta; violations are recorded in the report,
# never silently clipped.
DELTA_PSD_SLACK = 1e-8


class SupportViolation(ValueError):
    """range(A) is not contained in range(B); carries the kernel witness."""

    def __init__(self, message: str, witness: np.ndarray):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class DivergenceReport:
    """Delta(A||B) with consistency diagnostics.

    trace_div is D(A||B) in nats.  residual_trace_consistency is
    |tr Delta - D| where the two sides come from independent formulas.
    delta_min_eigenvalue records how far Delta sits from the PSD cone; it
    should not fall below -1e-8 * scale.
    """

    delta: np.ndarray
    trace_div: float
    residual_trace_consistency: float
    delta_min_eigenvalue: float


def o_gamma(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Clipped operator (A - gamma B)_+."""
    A, B = as_hermitian_pair(A, B)
    return parts(A - gamma * B).positive_part


def restrict_pair(A: np.ndarray, B: np.ndarray):
    """Compress (A, B) onto range(B).

    Returns (V, A1, B1) where V has orthonormal columns spanning range(B)
    and A1 = V* A V, B1 = V* B V.  V is None when B has full rank, in which
    case A1, B1 are the original matrices.
    """
    return _restrict(A, B, *np.linalg.eigh(hermitian_part(np.asarray(B, dtype=complex))))


def _restrict(A: np.ndarray, B: np.ndarray, w: np.ndarray, U: np.ndarray):
    """restrict_pair given the ascending eigh (w, U) of B."""
    keep = range_mask(w)
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
    return _relative_spectrum(A1, *np.linalg.eigh(hermitian_part(B1)))


def _relative_spectrum(A1: np.ndarray, w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """relative_spectrum given the ascending eigh (w, U) of B1."""
    check_pd(w, "relative_spectrum: B1")
    inv_sqrt = U * (1.0 / np.sqrt(w))
    S = hermitian_part(inv_sqrt.conj().T @ A1 @ inv_sqrt)
    # inv_sqrt.conj().T = diag(w^-1/2) U^H, so S = B^-1/2 A B^-1/2 up to basis
    return np.linalg.eigvalsh(S)[::-1].copy()


@dataclass(frozen=True)
class PreparedPair:
    """A validated pair (A, B), set up once per route call.

    support is the range(A) in range(B) verdict, with its witness on
    failure.  When it holds, (V, A1, B1) is restrict_pair(A, B) and b1_eigh
    the ascending eigh of B1, the eigh of B itself when B has full rank;
    otherwise all four are None.  Each cached property is computed on first
    use; two threads that both read it first compute the same bits.
    """

    A: np.ndarray
    B: np.ndarray
    support: PsdOrderVerdict
    V: Optional[np.ndarray] = None
    A1: Optional[np.ndarray] = None
    B1: Optional[np.ndarray] = None
    b1_eigh: Optional[tuple] = None

    @cached_property
    def sigma(self) -> np.ndarray:
        """relative_spectrum(A1, B1)."""
        return _relative_spectrum(self.A1, *self.b1_eigh)

    @cached_property
    def a_definite(self) -> bool:
        """A1 passes positive_definite_spectrum, on a1_decomposition; A1 is A
        when B has full rank."""
        return positive_definite_spectrum(self.a1_decomposition.eigenvalues)

    @cached_property
    def a1_decomposition(self) -> SpectralDecomposition:
        """eig_hermitian(A1)."""
        return eig_hermitian(self.A1)

    @cached_property
    def b1_decomposition(self) -> SpectralDecomposition:
        """eig_hermitian(B1)."""
        w, U = self.b1_eigh
        return SpectralDecomposition(w[::-1].copy(), U[:, ::-1].copy())


def prepare_pair(A: np.ndarray, B: np.ndarray) -> PreparedPair:
    """Admit the operands (as_hermitian_pair) and check A is PSD, then take
    B's PSD check, the support verdict and the restriction to range(B) from
    a single eigh of B."""
    A, B = as_hermitian_pair(A, B)
    require_psd(A, "A")
    w, U = np.linalg.eigh(B)
    check_psd(w, "B")
    support = support_in_eigenbasis(A, w, U)
    if not support.holds:
        return PreparedPair(A, B, support)
    V, A1, B1 = _restrict(A, B, w, U)
    b1_eigh = (w, U) if V is None else np.linalg.eigh(B1)
    return PreparedPair(A, B, support, V, A1, B1, b1_eigh)


def supported_pair(A: np.ndarray, B: np.ndarray) -> PreparedPair:
    """prepare_pair, raising SupportViolation when range(A) is not contained
    in range(B): the one support gate of the operator-valued routes."""
    pair = prepare_pair(A, B)
    if not pair.support.holds:
        raise SupportViolation("range(A) not contained in range(B): Delta(A||B) is unbounded", pair.support.witness)
    return pair


def domination_tau(A: np.ndarray, B: np.ndarray) -> float:
    """Smallest tau with A <= tau B, or inf when support containment fails."""
    pair = prepare_pair(A, B)
    if not pair.support.holds:
        return math.inf
    return float(pair.sigma.max(initial=0.0))


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


def _block_chain(pair: PreparedPair) -> np.ndarray:
    """A1(log A1 - log B1) of a pair with support containment (B1 is PD).

    A1 log A1 goes through the spectral convention 0 log 0 = 0 (eigenvalues
    of A1 inside the zero band are treated as exact zeros); A1 log B1 is an
    ordinary product.
    """
    dec = pair.a1_decomposition
    w = dec.eigenvalues
    w = np.where(range_mask(np.abs(w)), w, 0.0)
    if w.min(initial=0.0) < 0:
        raise ValueError(f"divergence: A not PSD on the range(B) block (eigenvalue {w.min():.6e})")
    a_log_a = rebuild(dec.eigenvectors, np.array([_xlogx(x) for x in w]))
    return a_log_a - pair.A1 @ log_of(pair.b1_decomposition)


def delta_operator(A: np.ndarray, B: np.ndarray) -> DivergenceReport:
    """Spectral-route Delta(A||B), behind the support gate of supported_pair."""
    pair = supported_pair(A, B)
    n = pair.A.shape[0]
    V, A1, B1 = pair.V, pair.A1, pair.B1
    chain = _block_chain(pair)
    delta1 = hermitian_part(chain - B1 @ frechet.dlog_in(pair.b1_decomposition, A1) + B1)
    trace_div = float(np.trace(chain).real - np.trace(A1).real + np.trace(B1).real)
    residual = abs(float(np.trace(delta1).real) - trace_div)
    delta = embed(V, delta1, n)
    min_eig = float(np.linalg.eigvalsh(delta1).min()) if delta1.size else 0.0
    if V is not None and min_eig > 0.0:
        min_eig = 0.0  # zero padding contributes zero eigenvalues
    return DivergenceReport(
        delta=delta,
        trace_div=trace_div,
        residual_trace_consistency=residual,
        delta_min_eigenvalue=min_eig,
    )


def trace_divergence(A: np.ndarray, B: np.ndarray) -> float:
    """D(A||B) = tr(A(log A - log B) - A + B), or inf without support containment."""
    pair = prepare_pair(A, B)
    if not pair.support.holds:
        return math.inf
    chain = _block_chain(pair)
    return float(np.trace(chain).real - np.trace(pair.A1).real + np.trace(pair.B1).real)
