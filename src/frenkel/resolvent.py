"""Resolvent-integral representations used as cross-validation oracles.

Each operator for which the package has a spectral formula (log, |T|, the
log derivative, and the two products B dlog(B, A) and A(log A - log B))
is recomputed here from a semi-infinite resolvent integral, with no shared
code path: the integrands are built from batched matrix inverses, never
from an eigendecomposition.  All half-line integrals use the rational
substitution x = c s/(1 - s) on s in [0, 1 - 1e-12]; the discarded sliver
carries an analytic tail bound since every integrand decays like x^-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .divergence import restrict_pair, embed
from .linalg import hermitian_part, opnorm, positive_definite_spectrum, range_mask, require_psd
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


def _x_cut(c: float) -> float:
    return c * _S_CUT / (1.0 - _S_CUT)


def _check_pd(B: np.ndarray, name: str) -> np.ndarray:
    B = hermitian_part(np.asarray(B, dtype=complex))
    w = np.linalg.eigvalsh(B)
    if not positive_definite_spectrum(w):
        raise ValueError(f"{name} must be positive definite (min eigenvalue {w.min():.6e})")
    return B


def _shifted_inv(B: np.ndarray, xs: np.ndarray) -> np.ndarray:
    n = B.shape[0]
    return np.linalg.inv(B[None] + xs[:, None, None] * np.eye(n)[None])


def log_resolvent(B: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """log B as integral_0^inf ((1+x)^-1 I - (B + x I)^-1) dx for PD B."""
    B = _check_pd(B, "log_resolvent: B")
    n = B.shape[0]
    c = max(opnorm(B), 1.0)

    def fx(xs):
        return np.eye(n)[None] / (1.0 + xs)[:, None, None] - _shifted_inv(B, xs)

    return hermitian_part(_halfline(fx, c, tol).value)


def abs_resolvent(A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """|A| as (2/pi) integral_0^inf A^2 (A^2 + x^2 I)^-1 dx for Hermitian A."""
    A = hermitian_part(np.asarray(A, dtype=complex))
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
    B = _check_pd(B, "dlog_resolvent: B")
    A = np.asarray(A, dtype=complex)
    c = max(opnorm(A), opnorm(B), 1.0)

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


def domination_constants(A: np.ndarray, B: np.ndarray) -> DominationConstants:
    A = hermitian_part(np.asarray(A, dtype=complex))
    B = _check_pd(B, "domination_constants: B")
    Binv = np.linalg.inv(B)
    alpha = _spectral_norm(A @ Binv)
    wA = np.linalg.eigvalsh(A)
    invertible = range_mask(np.abs(wA)).all()
    beta_a = beta_b = None
    if invertible:
        Ainv = np.linalg.inv(A)
        beta_a = _spectral_norm(B @ Ainv)
        beta_b = _spectral_norm((A - B) @ Ainv)
    return DominationConstants(alpha=alpha, beta_a=beta_a, beta_b=beta_b)


@dataclass(frozen=True)
class ProductIntegral:
    """B dlog(B, A) from its resolvent integral, with the norm bound alpha ||B||."""

    value: np.ndarray
    value_norm: float
    alpha: float
    bound: float
    within_bound: bool
    tail_bound: float
    error_estimate: float


def bdlog_product(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> ProductIntegral:
    """integral_0^inf B (B + x I)^-1 A (B + x I)^-1 dx with its norm bound.

    B may be PSD when ker B annihilates A; the pair is then compressed onto
    range(B) first and the result embedded back.
    """
    A = hermitian_part(np.asarray(A, dtype=complex))
    B = require_psd(B, "bdlog_product: B")
    n = B.shape[0]
    V, A1, B1 = restrict_pair(A, B)
    if V is not None:
        off = _spectral_norm(A - embed(V, A1, n))
        if off > 1e-10 * max(opnorm(A), 1e-300):
            raise ValueError("bdlog_product: ker B does not annihilate A; the integral diverges")
    if not B1.size:
        # B = 0, so A = 0 as well: every term of the integral is 0.
        return ProductIntegral(
            value=np.zeros_like(A), value_norm=0.0, alpha=0.0, bound=0.0, within_bound=True, tail_bound=0.0, error_estimate=0.0
        )
    B1 = _check_pd(B1, "bdlog_product: B on range(B)")
    consts = domination_constants(A1, B1)
    norm_b = opnorm(B1)
    c = max(opnorm(A1), norm_b, 1.0)

    def fx(xs):
        R = _shifted_inv(B1, xs)
        return B1[None] @ R @ A1[None] @ R

    res = _halfline(fx, c, tol)
    value = embed(V, res.value, n)
    tail = consts.alpha * norm_b**2 / (norm_b + _x_cut(c))
    bound = consts.alpha * norm_b
    vnorm = _spectral_norm(value)
    return ProductIntegral(
        value=value,
        value_norm=vnorm,
        alpha=consts.alpha,
        bound=bound,
        within_bound=vnorm <= bound * (1 + 1e-6) + tol,
        tail_bound=tail,
        error_estimate=res.error_estimate,
    )


@dataclass(frozen=True)
class LogChainIntegral:
    """A (log A - log B) from its resolvent integral, with the two norm bounds.

    log_factor is (log ||B|| - log ||A||) / (||B|| - ||A||), continued as
    1/||A|| at equal norms.  bound_a uses alpha (1 + beta_a), bound_b uses
    alpha beta_b; each is None when its domination constant is unavailable.
    """

    value: np.ndarray
    value_norm: float
    log_factor: float
    alpha: float
    beta_a: Optional[float]
    beta_b: Optional[float]
    bound_a: Optional[float]
    bound_b: Optional[float]
    within_a: Optional[bool]
    within_b: Optional[bool]
    tail_bound: float
    error_estimate: float


def alogdiff_integral(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> LogChainIntegral:
    """integral_0^inf (A (B + x I)^-1 - A (A + x I)^-1) dx for PD A, B."""
    A = _check_pd(A, "alogdiff_integral: A")
    B = _check_pd(B, "alogdiff_integral: B")
    if A.shape != B.shape:
        raise ValueError("alogdiff_integral: dimension mismatch")
    consts = domination_constants(A, B)
    norm_a, norm_b = opnorm(A), opnorm(B)
    c = max(norm_a, norm_b, 1.0)

    def fx(xs):
        return A[None] @ (_shifted_inv(B, xs) - _shifted_inv(A, xs))

    res = _halfline(fx, c, tol)
    value = res.value
    if abs(norm_a - norm_b) <= 1e-12 * max(norm_a, norm_b):
        log_factor = 1.0 / norm_a
    else:
        log_factor = (math.log(norm_b) - math.log(norm_a)) / (norm_b - norm_a)
    vnorm = _spectral_norm(value)
    tail = norm_a * _spectral_norm(A - B) / _x_cut(c)
    slack = 1 + 1e-6
    bound_a = bound_b = None
    within_a = within_b = None
    if consts.beta_a is not None:
        bound_a = consts.alpha * (1 + consts.beta_a) * norm_a * norm_b * log_factor
        within_a = vnorm <= bound_a * slack + tol
    if consts.beta_b is not None:
        bound_b = consts.alpha * consts.beta_b * norm_a * norm_b * log_factor
        within_b = vnorm <= bound_b * slack + tol
    return LogChainIntegral(
        value=value,
        value_norm=vnorm,
        log_factor=log_factor,
        alpha=consts.alpha,
        beta_a=consts.beta_a,
        beta_b=consts.beta_b,
        bound_a=bound_a,
        bound_b=bound_b,
        within_a=within_a,
        within_b=within_b,
        tail_bound=tail,
        error_estimate=res.error_estimate,
    )
