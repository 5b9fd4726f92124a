"""Hermitian matrix kernels: eigendecomposition, spectral functions,
positive/negative parts, Schatten norms, and PSD-order predicates.

All matrices are dense complex Hermitian ndarrays.  Every function is pure;
nothing is mutated in place, so values can be shared freely across threads.
as_hermitian and as_hermitian_pair are the operand gate: every public
entry point admits its matrices through them, as read_pair does.  The
kernels take the Hermitian part of admitted matrices and intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Relative tolerance budget, shared by the whole package:
#   HERMITICITY_RTOL  admissible asymmetry of an input, relative to max |entry|
#   ZERO_BAND         eigenvalues within ZERO_BAND * opnorm(T) count as zero
#   PSD_SLACK         relative slack on every ">= 0" cone predicate
HERMITICITY_RTOL = 1e-12
ZERO_BAND = 1e-12
PSD_SLACK = 1e-10


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, of one matrix or of each in a stack (..., n, n)."""
    M = np.asarray(M, dtype=complex)
    return (M + np.swapaxes(M.conj(), -1, -2)) / 2


def rebuild(U: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Hermitian part of U diag(vals) U*, of one matrix or of a stack: the one
    rebuild of every spectral function f(T) = U f(w) U*, given vals = f(w)."""
    return hermitian_part((U * vals[..., None, :]) @ np.swapaxes(U.conj(), -1, -2))


def hermiticity_defect(M: np.ndarray) -> float:
    """Largest entrywise deviation of M from its Hermitian part."""
    M = np.asarray(M, dtype=complex)
    return float(np.abs(M - M.conj().T).max(initial=0.0) / 2)


def as_hermitian(M: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a square matrix.

    Raises ValueError when the input is not square, carries non-finite
    entries or entries above half the float64 maximum (where (M + M*) / 2
    can overflow), or deviates from Hermiticity by more than
    HERMITICITY_RTOL relative to its largest entry.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    scale = float(np.abs(M).max(initial=0.0))
    if not scale <= np.finfo(float).max / 2:
        raise ValueError(f"matrix entries exceed half the float64 maximum (max |entry| {scale:.3e})")
    defect = hermiticity_defect(M)
    if defect > HERMITICITY_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITICITY_RTOL:.0e} * {scale:.3e}"
        )
    return hermitian_part(M)


def as_hermitian_pair(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """as_hermitian of each operand, which must then have one shape."""
    A, B = as_hermitian(A), as_hermitian(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch {A.shape} vs {B.shape}")
    return A, B


def opnorm(T: np.ndarray) -> float:
    """Operator (spectral) norm of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(hermitian_part(T))).max())


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order and a unitary matrix of eigenvectors.

    Satisfies T = U diag(w) U* with U = eigenvectors, w = eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(T: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Deterministic for identical input bytes.  Non-finite entries are
    rejected up front; they are the only way the backing solver fails.
    """
    T = np.asarray(T, dtype=complex)
    if not np.isfinite(T).all():
        raise ValueError("eig_hermitian: non-finite entries in input")
    w, U = np.linalg.eigh(hermitian_part(T))
    return SpectralDecomposition(w[::-1].copy(), U[:, ::-1].copy())


def positive_definite_spectrum(w: np.ndarray) -> bool:
    """The package's one definiteness test on a Hermitian spectrum: the
    smallest eigenvalue clears the zero band of the largest magnitude."""
    return bool(range_mask(w).all())


def zero_band(w: np.ndarray) -> np.ndarray:
    """ZERO_BAND times the largest magnitude of a spectrum, over its last axis."""
    return ZERO_BAND * np.abs(w).max(axis=-1, initial=0.0)


def range_mask(w: np.ndarray) -> np.ndarray:
    """The package's one zero-band test, over the last axis of a spectrum or a
    stack of spectra: eigenvalues above the band; on a PSD spectrum, its range."""
    return w > zero_band(w)[..., None]


@dataclass(frozen=True)
class PartsDecomposition:
    """Spectral split T = positive_part - negative_part; eigenvalues inside
    the zero band belong to neither side."""

    positive_part: np.ndarray
    negative_part: np.ndarray

    @property
    def absolute_value(self) -> np.ndarray:
        return self.positive_part + self.negative_part


def parts(T: np.ndarray) -> PartsDecomposition:
    """Positive and negative parts of a Hermitian matrix."""
    dec = eig_hermitian(T)
    w, U = dec.eigenvalues, dec.eigenvectors
    return PartsDecomposition(
        positive_part=positive_part_of(w, U),
        negative_part=positive_part_of(-w, U),
    )


# The three clipping reducers of a spectrum w (and eigenvectors U), of one
# matrix or of a stack: the one place each clip is written.
def positive_eigs_of(w: np.ndarray) -> np.ndarray:
    """The eigenvalues above the zero band, the rest set to 0."""
    return np.where(range_mask(w), w, 0.0)


def positive_part_of(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The positive part U diag(w_+) U*, clipped at the zero band."""
    return rebuild(U, positive_eigs_of(w))


def positive_projector_of(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The projector onto the eigenspaces above the zero band."""
    return rebuild(U, range_mask(w).astype(float))


def positive_part(T: np.ndarray) -> np.ndarray:
    """Clip a Hermitian matrix to its positive eigenspaces."""
    return positive_part_of(*np.linalg.eigh(hermitian_part(np.asarray(T, dtype=complex))))


def positive_part_stack(mats: np.ndarray) -> np.ndarray:
    """Positive parts of a stack of Hermitian matrices, shape (..., n, n)."""
    return positive_part_of(*np.linalg.eigh(mats))


def positive_eig_stack(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack with the zero band applied, negatives dropped."""
    return positive_eigs_of(np.linalg.eigvalsh(mats))


def matrix_log(T: np.ndarray) -> np.ndarray:
    """Principal logarithm of a positive definite Hermitian matrix."""
    return log_of(eig_hermitian(T))


def log_of(dec: SpectralDecomposition) -> np.ndarray:
    """matrix_log of the matrix with this decomposition."""
    w = dec.eigenvalues
    check_pd(w, "matrix_log: input")
    return rebuild(dec.eigenvectors, np.log(w))


def schatten_norm(T: np.ndarray, p: float) -> float:
    """Schatten p-norm (sum |eigenvalue|^p)^(1/p); p = inf gives the operator norm."""
    check_exponent(p, "schatten_norm")
    w = np.abs(np.linalg.eigvalsh(hermitian_part(np.asarray(T, dtype=complex))))
    if np.isinf(p):
        return float(w.max())
    if p == 1:
        return float(w.sum())
    if p == 2:
        return float(np.sqrt((w * w).sum()))
    return float((w**p).sum() ** (1.0 / p))


@dataclass(frozen=True)
class PsdOrderVerdict:
    """Outcome of a PSD-order or support-containment query.

    margin is the smallest eigenvalue of the tested difference (order
    queries) or minus the kernel-compressed mass (support queries).  The
    witness, present only on failure, satisfies x*Bx ~ 0 < x*Ax for support
    queries after normalization.
    """

    holds: bool
    margin: float
    witness: Optional[np.ndarray] = None


def check_psd(w: np.ndarray, name: str) -> None:
    """The package's one PSD test on a Hermitian spectrum: raise unless its
    smallest eigenvalue is at least -PSD_SLACK times its largest magnitude."""
    if not w.min() >= -PSD_SLACK * np.abs(w).max():
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {w.min():.6e})")


def check_pd(w: np.ndarray, name: str) -> None:
    """The package's one positive-definite test on a Hermitian spectrum
    (positive_definite_spectrum): raise unless it clears the zero band."""
    if not positive_definite_spectrum(w):
        raise ValueError(f"{name} is not positive definite (min eigenvalue {w.min():.6e})")


def check_exponent(p: float, name: str) -> None:
    """Raise unless p is a Schatten exponent: p >= 1, or inf."""
    if not (p >= 1):
        raise ValueError(f"{name}: p must be >= 1 or inf, got {p!r}")


def require_psd(T: np.ndarray, name: str) -> None:
    """check_psd on the eigvalsh of an admitted matrix."""
    check_psd(np.linalg.eigvalsh(T), name)


def psd_order(A: np.ndarray, B: np.ndarray, tau: float) -> PsdOrderVerdict:
    """Decide A <= tau * B in the PSD order, with the minimizing direction on failure."""
    A, B = as_hermitian_pair(A, B)
    w, U = np.linalg.eigh(tau * B - A)
    margin = float(w[0])
    tol = PSD_SLACK * (opnorm(A) + abs(tau) * opnorm(B))
    holds = margin >= -tol
    witness = None if holds else U[:, 0].copy()
    return PsdOrderVerdict(holds=holds, margin=margin, witness=witness)


def support_relation(A: np.ndarray, B: np.ndarray) -> PsdOrderVerdict:
    """Decide range(A) subseteq range(B) for PSD A, B.

    The kernel of B is read off its spectrum with the relative threshold
    ZERO_BAND * opnorm(B); failure returns a unit witness x with B x ~ 0
    and x* A x > 0.
    """
    A, B = as_hermitian_pair(A, B)
    require_psd(A, "A")
    require_psd(B, "B")
    return support_in_eigenbasis(A, *np.linalg.eigh(B))


def support_in_eigenbasis(A: np.ndarray, w: np.ndarray, U: np.ndarray) -> PsdOrderVerdict:
    """support_relation for validated A, B given the ascending eigh (w, U) of B."""
    kernel = U[:, ~range_mask(w)]
    if kernel.shape[1] == 0:
        return PsdOrderVerdict(holds=True, margin=0.0)
    K = hermitian_part(kernel.conj().T @ A @ kernel)
    kw, kU = np.linalg.eigh(K)
    mass = float(kw[-1])
    holds = mass <= PSD_SLACK * opnorm(A)
    if holds:
        return PsdOrderVerdict(holds=True, margin=-mass)
    x = kernel @ kU[:, -1]
    x = x / np.linalg.norm(x)
    return PsdOrderVerdict(holds=False, margin=-mass, witness=x)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian, phase-fixed."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d.conj() / np.abs(d))
