"""Resolvent-integral representations used as cross-validation oracles.

Each operator for which the package has a spectral formula (log, |T|, the
log derivative, and the two products B dlog(B, A) and A(log A - log B))
is recomputed here from a semi-infinite resolvent integral, with no shared
code path: the integrands are built from batched matrix inverses, never
from an eigendecomposition.  All half-line integrals use the rational
substitution x = c s/(1 - s) on s in [0, 1 - 1e-12].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .divergence import _restrict, embed
from .linalg import as_hermitian, as_hermitian_pair, check_pd, check_psd, hermitian_part, opnorm
from .quadrature import DEFAULT_TOL, QuadratureResult, _adaptive

_S_CUT = 1.0 - 1e-12


def _spectral_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def _halfline(fx, c: float, tol: float) -> QuadratureResult:
    """integral_0^inf fx(x) dx via x = c s/(1-s); fx maps (m,) -> (m, n, n)."""

    def g(ss):
        x = c * ss / (1.0 - ss)
        w = c / (1.0 - ss) ** 2
        return fx(x) * w[:, None, None]

    return _adaptive(g, 0.0, _S_CUT, tol)


def _check_pd(B: np.ndarray, name: str) -> float:
    """The operator norm of an admitted B, from the one eigvalsh that checks B is PD."""
    w = np.linalg.eigvalsh(B)
    check_pd(w, name)
    return float(np.abs(w).max())


def _shifted_inv(B: np.ndarray, xs: np.ndarray) -> np.ndarray:
    n = B.shape[0]
    return np.linalg.inv(B[None] + xs[:, None, None] * np.eye(n)[None])


def log_resolvent(B: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """log B as integral_0^inf ((1+x)^-1 I - (B + x I)^-1) dx for PD B."""
    B = as_hermitian(B)
    norm_b = _check_pd(B, "log_resolvent: B")
    n = B.shape[0]
    c = max(norm_b, 1.0)

    def fx(xs):
        return np.eye(n)[None] / (1.0 + xs)[:, None, None] - _shifted_inv(B, xs)

    return hermitian_part(_halfline(fx, c, tol).value)


def abs_resolvent(A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """|A| as (2/pi) integral_0^inf A^2 (A^2 + x^2 I)^-1 dx for Hermitian A."""
    A = as_hermitian(A)
    norm_a = opnorm(A)
    if norm_a == 0.0:
        return np.zeros_like(A)
    A2 = A @ A
    c = max(norm_a, 1.0)

    def fx(xs):
        return (2.0 / math.pi) * (A2[None] @ _shifted_inv(A2, xs**2))

    return hermitian_part(_halfline(fx, c, tol).value)


def dlog_resolvent(B: np.ndarray, A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Derivative of log at B in direction A via the double-resolvent integral

        integral_0^inf (B + x I)^-1 A (B + x I)^-1 dx.
    """
    B, A = as_hermitian_pair(B, A)
    norm_b = _check_pd(B, "dlog_resolvent: B")
    c = max(opnorm(A), norm_b, 1.0)

    def fx(xs):
        R = _shifted_inv(B, xs)
        return R @ A[None] @ R

    return hermitian_part(_halfline(fx, c, tol).value)


@dataclass(frozen=True)
class DominationConstants:
    """Minimal constants of the quadratic dominations used by the product bounds.

    alpha: smallest alpha with A^2 <= alpha^2 B^2 (PD B).
    beta_a: smallest beta with B^2 <= beta^2 A^2, None when A is singular.
    beta_b: smallest beta with (A - B)^2 <= beta^2 A^2, None when A is singular.
    """

    alpha: float
    beta_a: Optional[float]
    beta_b: Optional[float]


def _domination(A: np.ndarray, B: np.ndarray, a_invertible: bool) -> DominationConstants:
    """The DominationConstants of Hermitian A and validated PD B; the betas
    only when a_invertible."""
    alpha = _spectral_norm(A @ np.linalg.inv(B))
    beta_a = beta_b = None
    if a_invertible:
        Ainv = np.linalg.inv(A)
        beta_a = _spectral_norm(B @ Ainv)
        beta_b = _spectral_norm((A - B) @ Ainv)
    return DominationConstants(alpha=alpha, beta_a=beta_a, beta_b=beta_b)


@dataclass(frozen=True)
class ProductIntegral:
    """B dlog(B, A) from its resolvent integral, with the norm bound alpha ||B||
    (alpha of DominationConstants, taken on range(B))."""

    value: np.ndarray
    value_norm: float
    bound: float


def bdlog_product(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> ProductIntegral:
    """integral_0^inf B (B + x I)^-1 A (B + x I)^-1 dx with its norm bound.

    B may be PSD when ker B annihilates A; the pair is then compressed onto
    range(B) first and the result embedded back.  B's PSD check and the
    restriction read one eigh of B.
    """
    A, B = as_hermitian_pair(A, B)
    w, U = np.linalg.eigh(B)
    check_psd(w, "bdlog_product: B")
    n = B.shape[0]
    V, A1, B1 = _restrict(A, B, w, U)
    if V is not None:
        off = _spectral_norm(A - embed(V, A1, n))
        if off > 1e-10 * max(opnorm(A), 1e-300):
            raise ValueError("bdlog_product: ker B does not annihilate A; the integral diverges")
    if not B1.size:
        # B = 0, so A = 0 as well: every term of the integral is 0.
        return ProductIntegral(value=np.zeros_like(A), value_norm=0.0, bound=0.0)
    norm_b = _check_pd(B1, "bdlog_product: B on range(B)")
    alpha = _domination(A1, B1, a_invertible=False).alpha
    c = max(float(np.abs(np.linalg.eigvalsh(A1)).max()), norm_b, 1.0)

    def fx(xs):
        R = _shifted_inv(B1, xs)
        return B1[None] @ R @ A1[None] @ R

    value = embed(V, _halfline(fx, c, tol).value, n)
    return ProductIntegral(value=value, value_norm=_spectral_norm(value), bound=alpha * norm_b)


@dataclass(frozen=True)
class LogChainIntegral:
    """A (log A - log B) from its resolvent integral, with the two norm bounds

        bound_a = alpha (1 + beta_a) ||A|| ||B|| L,   bound_b = alpha beta_b ||A|| ||B|| L,

    alpha, beta_a and beta_b of DominationConstants and L the log factor
    (log ||B|| - log ||A||) / (||B|| - ||A||), continued as 1/||A|| at equal
    norms.
    """

    value: np.ndarray
    value_norm: float
    bound_a: float
    bound_b: float
    within_a: bool
    within_b: bool


def alogdiff_integral(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> LogChainIntegral:
    """integral_0^inf (A (B + x I)^-1 - A (A + x I)^-1) dx for PD A, B."""
    A, B = as_hermitian_pair(A, B)
    norm_a = _check_pd(A, "alogdiff_integral: A")
    norm_b = _check_pd(B, "alogdiff_integral: B")
    consts = _domination(A, B, True)  # A is positive definite
    c = max(norm_a, norm_b, 1.0)

    def fx(xs):
        return A[None] @ (_shifted_inv(B, xs) - _shifted_inv(A, xs))

    value = _halfline(fx, c, tol).value
    if abs(norm_a - norm_b) <= 1e-12 * max(norm_a, norm_b):
        log_factor = 1.0 / norm_a
    else:
        log_factor = (math.log(norm_b) - math.log(norm_a)) / (norm_b - norm_a)
    vnorm = _spectral_norm(value)
    slack = 1 + 1e-6
    bound_a = consts.alpha * (1 + consts.beta_a) * norm_a * norm_b * log_factor
    bound_b = consts.alpha * consts.beta_b * norm_a * norm_b * log_factor
    return LogChainIntegral(
        value=value,
        value_norm=vnorm,
        bound_a=bound_a,
        bound_b=bound_b,
        within_a=vnorm <= bound_a * slack + tol,
        within_b=vnorm <= bound_b * slack + tol,
    )
