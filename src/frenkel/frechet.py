"""Directional derivative of the matrix logarithm.

dlog(B, A) is the derivative of log at a positive definite B in the
Hermitian direction A, computed by conjugating A into the eigenbasis of B
and Hadamard-multiplying with the first divided differences of log
(the Loewner matrix).  A central finite difference of matrix_log serves as
an independent oracle.
"""

from __future__ import annotations

import numpy as np

from .linalg import SpectralDecomposition, as_hermitian_pair, check_pd, eig_hermitian, hermitian_part, matrix_log, opnorm

# Below this relative gap the divided difference (log b - log a)/(b - a)
# has no correct digits in float64; the midpoint reciprocal 2/(a + b) is
# exact to O(gap^2) there.
COINCIDENCE_RTOL = 1e-7


def loewner_log(eigs: np.ndarray) -> np.ndarray:
    """First divided differences of log at a positive spectrum.

    Entry (i, j) is (log b_i - log b_j)/(b_i - b_j), with the limit value
    1/b_i on the diagonal and the midpoint rule 2/(b_i + b_j) for
    near-coincident pairs.
    """
    b = np.asarray(eigs, dtype=float)
    if b.ndim != 1:
        raise ValueError("loewner_log: expected a vector of eigenvalues")
    if b.min(initial=np.inf) <= 0:
        raise ValueError(f"loewner_log: eigenvalues must be positive, got min {b.min()!r}")
    bi = b[:, None]
    bj = b[None, :]
    diff = bi - bj
    near = np.abs(diff) <= COINCIDENCE_RTOL * np.maximum(bi, bj)
    safe = np.where(near, 1.0, diff)
    quot = (np.log(bi) - np.log(bj)) / safe
    return np.where(near, 2.0 / (bi + bj), quot)


def dlog(B: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Derivative of the matrix log at B > 0 in direction A.

    Linear in A, and Hermitian.
    """
    B, A = as_hermitian_pair(B, A)
    return dlog_in(eig_hermitian(B), A)


def dlog_in(dec: SpectralDecomposition, A: np.ndarray) -> np.ndarray:
    """dlog(B, A) given the decomposition of B, for admitted A."""
    w = dec.eigenvalues
    check_pd(w, "dlog: B")
    U = dec.eigenvectors
    C = U.conj().T @ A @ U
    L = loewner_log(w)
    return hermitian_part(U @ (L * C) @ U.conj().T)


def dlog_fd_oracle(B: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Central difference (log(B + tA) - log(B - tA)) / (2 t).

    Truncation error is O(t^2) with a constant driven by the smallest
    eigenvalue of B (the third derivative of log blows up there), so the
    step t = 1e-4 lambda_min(B) / max(||A||, 1) scales with that
    eigenvalue.  Measured against dlog on gen pairs at cond 1e3 (dims 8 to
    32), it is up to 3.0e-6 (non-commuting) and 4.0e-6 (commuting) off in
    operator norm, above the suite's 1e-7 threshold; ROADMAP item 2 owns
    the error model of this oracle.
    """
    B, A = as_hermitian_pair(B, A)
    w = np.linalg.eigvalsh(B)
    check_pd(w, "dlog_fd_oracle: B")
    t = 1e-4 * float(w.min()) / max(opnorm(A), 1.0)
    try:
        plus = matrix_log(B + t * A)
        minus = matrix_log(B - t * A)
    except ValueError as exc:
        raise ValueError(f"dlog_fd_oracle: step {t!r} too large, B +/- tA not PD: {exc}") from exc
    return hermitian_part((plus - minus) / (2 * t))


def trace_pairing_check(B: np.ndarray, A: np.ndarray) -> tuple[float, float]:
    """Residuals of the two exact pairing identities of dlog.

    Returns (|tr(B dlog(B, A)) - tr A|, ||dlog(B, B) - I||_F); both
    derivatives share one decomposition of B.
    """
    B, A = as_hermitian_pair(B, A)
    dec = eig_hermitian(B)
    r1 = abs(float(np.trace(B @ dlog_in(dec, A)).real - np.trace(A).real))
    n = B.shape[0]
    r2 = float(np.linalg.norm(dlog_in(dec, B) - np.eye(n)))
    return r1, r2
