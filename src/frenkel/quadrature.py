"""Adaptive matrix-valued quadrature and the integral route to Delta(A||B).

A single Gauss-Kronrod 15-point panel tree drives every displayed integral:
the two clipped-operator forms of the divergence, the scalar trace formula,
the projection-integrand chain used to derive them, and the growth probe
for pairs without support containment.  Both gamma-integrals have exactly
computable compact support (the generalized eigenvalues of the pair), so
panels are pre-split at the kinks and no ad-hoc truncation is needed.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import wait
from dataclasses import dataclass
from heapq import heappush, heappop
from typing import Callable, Optional, Sequence

import numpy as np

from .divergence import (
    SupportViolation,
    embed,
    relative_spectrum,
    restrict_pair,
    _block_chain,
)
from . import frechet, workers
from .linalg import (
    ZERO_BAND,
    hermitian_part,
    matrix_log,
    positive_part_stack,
    positive_eig_stack,
    require_psd,
    support_relation,
)
from .pencil import find_crossings

MAX_PANELS = 2**14
DEFAULT_TOL = 1e-8

# The driver fans its initial panels out over the worker threads when the
# first panel's time times the number of remaining panels reaches this.
# Measured on two cores with single-threaded BLAS: eigvalsh on (15, 32, 32)
# stacks ran slower on two threads than on one, so budget_e_p's initial
# panels at N=32 (17-38 ms serial) took 1.1-1.5x longer fanned out, while at
# N=40 (40-94 ms) they ran 1.5-1.6x faster and at N=72 1.8x; the eigh-based
# routes gained from about 15 ms on.
FAN_OUT_MIN_S = 0.050

# The integrand at the u -> 0 endpoint of the substituted second term is
# defined by continuity; nodes never reach the endpoint, but any evaluation
# below this floor is clamped to it.
U_FLOOR = 1e-14

# 15-point Kronrod nodes (ascending) with their weights, and the embedded
# 7-point Gauss weights living on nodes 1, 3, ..., 13.
_POS_NODES = (
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
)
_POS_WK = (
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
)
_WK0 = 0.209482141084727828012999174891714
_NODES = np.array([-x for x in reversed(_POS_NODES)] + [0.0] + list(_POS_NODES))
_WK = np.array(list(reversed(_POS_WK)) + [_WK0] + list(_POS_WK))
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)
# The weights as (1, m) rows: np.tensordot(w, vals, axes=(0, 0)) reduces to
# np.dot of such a row with vals reshaped to (m, -1), without its set-up.
_WK_ROW = _WK.reshape(1, 15)
_WG_ROW = _WG.reshape(1, 7)


@dataclass(frozen=True)
class QuadratureResult:
    """Matrix (or scalar) integral with its panel-level evidence.

    error_estimate sums the per-panel Gauss/Kronrod differences in operator
    norm; tail_bound is an analytic bound on whatever part of the domain was
    discarded (zero whenever the truncation is exact).  panels lists
    ((left, right), local_error) covering the domain without overlap;
    results assembled from several parametrizations concatenate the logs of
    their terms.
    """

    value: np.ndarray
    error_estimate: float
    tail_bound: float
    panels: list
    evaluations: int
    converged: bool


def _err_norm(M: np.ndarray) -> float:
    M = np.asarray(M)
    if M.ndim == 2:
        # The operator norm, as np.linalg.norm(M, 2) computes it.
        return float(np.linalg.svd(M, compute_uv=False).max())
    return float(abs(M))


def _panel(fv, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = fv(mid + half * _NODES)
    flat = vals.reshape(15, -1)
    i15 = half * np.dot(_WK_ROW, flat).reshape(vals.shape[1:])
    i7 = half * np.dot(_WG_ROW, flat[_GAUSS_IDX]).reshape(vals.shape[1:])
    return i15, _err_norm(i15 - i7)


def _panels(fv, spans) -> list:
    return [_panel(fv, lo, hi) for lo, hi in spans]


def _initial_panels(fv, bounds: list[float]) -> list:
    """Kronrod panels on consecutive bounds, in interval order.

    When the first panel's time says the rest take at least FAN_OUT_MIN_S,
    the rest are split into contiguous chunks, one per worker thread of the
    shared executor.  The caller runs the first chunk, then every chunk no
    worker has started yet, so a busy executor never stalls it.  Each panel
    is computed by the same call as in the serial loop, so the values are
    the same bits.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    t0 = time.perf_counter()
    out = [_panel(fv, *spans[0])]
    rest = spans[1:]
    n = 1
    if len(rest) > 1 and (time.perf_counter() - t0) * len(rest) >= FAN_OUT_MIN_S:
        n = workers.current_size()
    if n == 1:
        return out + _panels(fv, rest)
    k = min(n, len(rest))
    cuts = [len(rest) * i // k for i in range(k + 1)]
    chunks = [rest[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    pool = workers.executor(n)
    futures = [pool.submit(_panels, fv, chunk) for chunk in chunks[1:]]
    try:
        out += _panels(fv, chunks[0])
        inline = [_panels(fv, chunk) if fut.cancel() else None for chunk, fut in zip(chunks[1:], futures)]
        for got, fut in zip(inline, futures):
            out += fut.result() if got is None else got
    finally:
        # A cancelled future counts as done only once a worker dequeues it,
        # so wait only for chunks that are running or finished.
        wait([fut for fut in futures if not fut.cancel()])
    return out


def _initial_bounds(a: float, b: float, kinks: Sequence[float]) -> list[float]:
    pts = [a, b]
    eps = 1e-12 * (b - a)
    for k in kinks:
        k = float(k)
        if a + eps < k < b - eps:
            pts.append(k)
    pts = sorted(set(pts))
    out = [pts[0]]
    for x in pts[1:]:
        if x - out[-1] > eps:
            out.append(x)
    if out[-1] != b:
        out[-1] = b
    return out


def _adaptive(fv, a: float, b: float, tol: float, kinks=(), max_panels: int = MAX_PANELS) -> QuadratureResult:
    bounds = _initial_bounds(a, b, kinks)
    heap = []
    done = []
    evals = 0
    total_err = 0.0
    for lo, hi, (val, err) in zip(bounds[:-1], bounds[1:], _initial_panels(fv, bounds)):
        evals += 15
        total_err += err
        heappush(heap, (-err, lo, hi, val))
    n_panels = len(heap)
    while total_err > tol and heap and n_panels < max_panels:
        neg_err, lo, hi, val = heappop(heap)
        err = -neg_err
        if err == 0.0 or (hi - lo) <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            done.append((err, lo, hi, val))
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(fv, lo, mid)
        v2, e2 = _panel(fv, mid, hi)
        evals += 30
        total_err += e1 + e2 - err
        heappush(heap, (-e1, lo, mid, v1))
        heappush(heap, (-e2, mid, hi, v2))
        n_panels += 1
    converged = total_err <= tol
    items = done + [(-ne, lo, hi, val) for ne, lo, hi, val in heap]
    items.sort(key=lambda it: it[1])
    value = items[0][3]
    for it in items[1:]:
        value = value + it[3]
    error = math.fsum(it[0] for it in items)
    panels = [((it[1], it[2]), it[0]) for it in items]
    return QuadratureResult(
        value=value,
        error_estimate=error,
        tail_bound=0.0,
        panels=panels,
        evaluations=evals,
        converged=converged,
    )


def adaptive_matrix_integral(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    kinks: Sequence[float] = (),
    vectorized: bool = False,
    max_panels: int = MAX_PANELS,
) -> QuadratureResult:
    """Integrate a matrix-valued function over [a, b] to absolute tolerance tol.

    Adaptive bisection with a 15-point Kronrod rule applied to all entries
    simultaneously; the local error is the operator norm of the embedded
    Gauss/Kronrod difference, so the panel tree (hence the Hermiticity of
    the result for Hermitian integrands) is shared by every entry.  Supplied
    kinks become initial panel boundaries.  When the panel cap is reached
    the best value is returned flagged converged=False.

    With vectorized=True, f receives a 1-d array of abscissae and must
    return the stacked values, shape (m, ...); otherwise f maps one float
    to one value.  f may be called from up to FRENKEL_THREADS threads at
    once (see _initial_panels).
    """
    if not (a < b):
        raise ValueError(f"adaptive_matrix_integral: need a < b, got [{a!r}, {b!r}]")
    if tol <= 0:
        raise ValueError("adaptive_matrix_integral: tol must be positive")
    fv = f if vectorized else (lambda xs: np.stack([np.asarray(f(float(x))) for x in xs]))
    return _adaptive(fv, float(a), float(b), float(tol), kinks=kinks, max_panels=max_panels)


def _sigma_support(sigma: np.ndarray):
    """Smallest and largest relative eigenvalue, clamped to [0, inf)."""
    if sigma.size == 0:
        return 0.0, 0.0
    return float(max(sigma.min(), 0.0)), float(max(sigma.max(), 0.0))


def _term1_gamma(A1, B1, sigma, tol) -> Optional[QuadratureResult]:
    """integral_1^inf gamma^-1 (A1 - gamma B1)_+ dgamma on its exact support."""
    _, sigma_max = _sigma_support(sigma)
    if sigma_max <= 1.0:
        return None

    def f(gs):
        g = gs[:, None, None]
        return positive_part_stack(A1[None] - g * B1[None]) / g

    kinks = sigma[(sigma > 1.0) & (sigma < sigma_max)]
    return _adaptive(f, 1.0, sigma_max, tol, kinks=kinks)


def _term2_u(A1, B1, sigma, tol) -> Optional[QuadratureResult]:
    """integral_1^inf gamma^-2 (B1 - gamma A1)_+ dgamma, substituted u = 1/gamma.

    The substituted integrand O_{1/u}(B1||A1) = (1/u)(u B1 - A1)_+ is
    bounded by ||B1|| and vanishes identically below the smallest relative
    eigenvalue, so the domain [max(sigma_min, 0), 1] is exact.
    """
    sigma_min, _ = _sigma_support(sigma)
    u_lo = min(sigma_min, 1.0)
    if u_lo >= 1.0:
        return None

    def f(us):
        u = np.maximum(us, U_FLOOR)[:, None, None]
        return positive_part_stack(u * B1[None] - A1[None]) / u

    kinks = sigma[(sigma > u_lo) & (sigma < 1.0)]
    return _adaptive(f, u_lo, 1.0, tol, kinks=kinks)


def _setup_pair(A, B):
    A = require_psd(A, "A")
    B = require_psd(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch {A.shape} vs {B.shape}")
    sup = support_relation(A, B)
    if not sup.holds:
        raise SupportViolation("range(A) not contained in range(B): the integral diverges", sup.witness)
    V, A1, B1 = restrict_pair(A, B)
    sigma = relative_spectrum(A1, B1)
    return V, A1, B1, sigma


def _combine(parts_list, shape, n, V, panel_maps) -> QuadratureResult:
    total = np.zeros(shape, dtype=complex)
    err = 0.0
    evals = 0
    conv = True
    panels = []
    for res, pmap in zip(parts_list, panel_maps):
        if res is None:
            continue
        total = total + res.value
        err += res.error_estimate
        evals += res.evaluations
        conv = conv and res.converged
        panels.extend((pmap(iv), e) for iv, e in res.panels)
    value = hermitian_part(embed(V, total, n))
    return QuadratureResult(
        value=value,
        error_estimate=err,
        tail_bound=0.0,
        panels=panels,
        evaluations=evals,
        converged=conv,
    )


def rhs_frg1(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The gamma-form integral of the divergence:

        integral_1^inf (gamma^-1 (A - gamma B)_+  +  gamma^-2 (B - gamma A)_+) dgamma

    computed on the range(B) block and embedded back.  Term 1 runs over
    [1, gamma_max] (the integrand vanishes beyond the largest relative
    eigenvalue), term 2 over u = 1/gamma in [sigma_min, 1]; both domains
    are exact, so tail_bound is 0.  Panels of term 2 are logged in the
    gamma = 1/u coordinate, after term 1's.
    """
    n = A.shape[0]
    V, A1, B1, sigma = _setup_pair(A, B)
    r1 = _term1_gamma(A1, B1, sigma, tol / 2)
    r2 = _term2_u(A1, B1, sigma, tol / 2)
    return _combine(
        [r1, r2],
        A1.shape,
        n,
        V,
        [lambda iv: iv, lambda iv: (1.0 / iv[1], 1.0 / iv[0])],
    )


def rhs_frg(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The t-line integral of the divergence,

        integral dt / (|t| (t-1)^2) ((1-t) A + t B)_-   over (-inf, 0) and (1, inf),

    evaluated through the substitutions t -> gamma = t/(t-1) on (1, inf)
    and t -> gamma = (t-1)/t on (-inf, 0), which map the two pieces onto
    the clipped-operator forms.  The node placement differs from rhs_frg1
    (piece 1 in s = 1/t, piece 2 linear in gamma - 1), so agreement with
    rhs_frg1 is a genuine cross-check of the quadrature.  Panels are logged
    in t coordinates; the piece-1 log ends at t = +inf and the piece-2 log
    starts at -inf.
    """
    n = A.shape[0]
    V, A1, B1, sigma = _setup_pair(A, B)
    sigma_min, sigma_max = _sigma_support(sigma)

    r1 = None
    if sigma_max > 1.0:
        # s = 1/t in (0, 1 - 1/gamma_max]; gamma = 1/(1-s), measure gamma * O ds.
        s1 = 1.0 - 1.0 / sigma_max

        def f1(ss):
            g = 1.0 / (1.0 - ss)
            gm = g[:, None, None]
            return positive_part_stack(A1[None] - gm * B1[None]) * gm

        inner = sigma[(sigma > 1.0) & (sigma < sigma_max)]
        r1 = _adaptive(f1, 0.0, s1, tol / 2, kinks=1.0 - 1.0 / inner)

    r2 = None
    map2 = lambda iv: iv
    if sigma_min < 1.0:
        if sigma_min > 1e-6:
            # v = gamma - 1 in [0, 1/sigma_min - 1]; integrand (1+v)^-2 O_{1+v}(B||A).
            vmax = 1.0 / sigma_min - 1.0

            def f2(vs):
                g = 1.0 + vs
                gm = g[:, None, None]
                return positive_part_stack(B1[None] - gm * A1[None]) / (gm * gm)

            inner = sigma[(sigma > sigma_min) & (sigma < 1.0)]
            r2 = _adaptive(f2, 0.0, vmax, tol / 2, kinks=1.0 / inner - 1.0)
            map2 = lambda iv: (-math.inf if iv[0] == 0.0 else -1.0 / iv[0], -1.0 / iv[1])
        else:
            # w = 1 - 1/gamma on [0, 1); the measure reduces to dw exactly and
            # (B - gamma A)_+ is evaluated as gamma ((1-w) B - A)_+ to keep the
            # eigenproblem at the scale of the operands.
            def f2(ws):
                om = np.maximum(1.0 - ws, U_FLOOR)[:, None, None]
                return positive_part_stack(om * B1[None] - A1[None]) / om

            inner = sigma[(sigma > 0.0) & (sigma < 1.0)]
            r2 = _adaptive(f2, 0.0, 1.0, tol / 2, kinks=1.0 - inner)
            map2 = lambda iv: (
                -math.inf if iv[0] == 0.0 else -(1.0 - iv[0]) / iv[0],
                -(1.0 - iv[1]) / max(iv[1], U_FLOOR) if iv[1] < 1.0 else 0.0,
            )

    # piece-1 s-interval (sa, sb) maps to t = 1/s, descending; report ascending.
    def map1_sorted(iv):
        t_hi = math.inf if iv[0] == 0.0 else 1.0 / iv[0]
        t_lo = 1.0 / iv[1]
        return (t_lo, t_hi)

    return _combine([r2, r1], A1.shape, n, V, [map2, map1_sorted])


def frenkel_trace(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Trace of the t-line integrand, integrated adaptively.

    Equals the trace divergence D(A||B); returns math.inf when support
    containment fails (both sides of the trace identity are infinite).
    """
    A = require_psd(A, "A")
    B = require_psd(B, "B")
    if not support_relation(A, B).holds:
        return math.inf
    _, A1, B1 = restrict_pair(A, B)
    sigma = relative_spectrum(A1, B1)
    sigma_min, sigma_max = _sigma_support(sigma)
    total = 0.0

    if sigma_max > 1.0:
        s1 = 1.0 - 1.0 / sigma_max

        def f1(ss):
            g = 1.0 / (1.0 - ss)
            vals = positive_eig_stack(A1[None] - g[:, None, None] * B1[None]).sum(axis=-1)
            return vals * g

        inner = sigma[(sigma > 1.0) & (sigma < sigma_max)]
        total += float(_adaptive(f1, 0.0, s1, tol / 2, kinks=1.0 - 1.0 / inner).value)

    if sigma_min < 1.0:
        u_lo = max(sigma_min, 0.0)

        def f2(us):
            u = np.maximum(us, U_FLOOR)
            vals = positive_eig_stack(u[:, None, None] * B1[None] - A1[None]).sum(axis=-1)
            return vals / u

        inner = sigma[(sigma > u_lo) & (sigma < 1.0)]
        total += float(_adaptive(f2, u_lo, 1.0, tol / 2, kinks=inner).value)

    return total


def _positive_proj_stack(mats: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(mats)
    band = ZERO_BAND * np.abs(w).max(axis=-1, keepdims=True)
    ind = (w > band).astype(float)
    out = np.einsum("...ij,...j,...kj->...ik", U, ind, U.conj())
    return (out + np.swapaxes(out, -1, -2).conj()) / 2


@dataclass(frozen=True)
class ProofChainIntegrals:
    """The three projection-weighted integrals u, v, w with

        A (log A - log B) = u + v - w

    plus the residuals of that identity and of the two supporting integral
    representations (the log difference as a projection integral, and the
    derivative of log at A in direction B as integral_0^inf {B - gamma A > 0}).
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    residual_chain: float
    residual_log_difference: float
    residual_dlog_representation: float
    evaluations: int


def proof_chain_integrals(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> ProofChainIntegrals:
    """Evaluate the three integrals behind the divergence identity for PD A, B."""
    A = require_psd(A, "A")
    B = require_psd(B, "B")
    sigma = relative_spectrum(A, B)
    sigma_min, sigma_max = _sigma_support(sigma)
    if sigma_min <= ZERO_BAND * max(sigma_max, 1.0):
        raise ValueError("proof_chain_integrals: A must be positive definite")
    evals = 0

    r1 = _term1_gamma(A, B, sigma, tol / 2)
    r2 = _term2_u(A, B, sigma, tol / 2)
    u_val = np.zeros_like(A)
    for r in (r1, r2):
        if r is not None:
            u_val = u_val + r.value
            evals += r.evaluations
    u_val = hermitian_part(u_val)

    # v = integral_1^gamma_max B {A - gamma B > 0} dgamma (zero beyond).
    if sigma_max > 1.0:

        def fv(gs):
            proj = _positive_proj_stack(A[None] - gs[:, None, None] * B[None])
            return B[None] @ proj

        kinks = sigma[(sigma > 1.0) & (sigma < sigma_max)]
        rv = _adaptive(fv, 1.0, sigma_max, tol / 2, kinks=kinks)
        v_val = rv.value
        evals += rv.evaluations
    else:
        v_val = np.zeros_like(A)

    # w = integral_1^inf gamma^-2 B {B - gamma A > 0} dgamma, u-substituted;
    # the projection is scale-invariant so {B - A/u > 0} = {u B - A > 0}.
    if sigma_min < 1.0:

        def fw(us):
            proj = _positive_proj_stack(np.maximum(us, U_FLOOR)[:, None, None] * B[None] - A[None])
            return B[None] @ proj

        kinks = sigma[(sigma > sigma_min) & (sigma < 1.0)]
        rw = _adaptive(fw, sigma_min, 1.0, tol / 2, kinks=kinks)
        w_val = rw.value
        evals += rw.evaluations
    else:
        w_val = np.zeros_like(A)

    chain = _block_chain(A, B)
    residual_chain = float(np.linalg.norm(u_val + v_val - w_val - chain, 2))

    # log A - log B = integral_1^Gamma ({A - gamma B > 0} - {B - gamma A > 0}) dgamma/gamma.
    gamma2 = 1.0 / sigma_min
    Gamma = max(sigma_max, gamma2)
    if Gamma > 1.0:

        def fd(gs):
            g = gs[:, None, None]
            pa = _positive_proj_stack(A[None] - g * B[None])
            pb = _positive_proj_stack(B[None] - g * A[None])
            return (pa - pb) / g

        both = np.concatenate([sigma, 1.0 / sigma])
        kinks = both[(both > 1.0) & (both < Gamma)]
        rd = _adaptive(fd, 1.0, Gamma, tol / 2, kinks=kinks)
        evals += rd.evaluations
        log_diff_int = hermitian_part(rd.value)
    else:
        log_diff_int = np.zeros_like(A)
    residual_log = float(np.linalg.norm(log_diff_int - (matrix_log(A) - matrix_log(B)), 2))

    # dlog at A in direction B: integral_0^gamma2 {B - gamma A > 0} dgamma.
    def fp(gs):
        return _positive_proj_stack(B[None] - gs[:, None, None] * A[None])

    kinks = (1.0 / sigma)[(1.0 / sigma > 0.0) & (1.0 / sigma < gamma2)]
    rp = _adaptive(fp, 0.0, gamma2, tol / 2, kinks=kinks)
    evals += rp.evaluations
    residual_dlog = float(np.linalg.norm(hermitian_part(rp.value) - frechet.dlog(A, B), 2))

    return ProofChainIntegrals(
        u=u_val,
        v=v_val,
        w=w_val,
        residual_chain=residual_chain,
        residual_log_difference=residual_log,
        residual_dlog_representation=residual_dlog,
        evaluations=evals,
    )


@dataclass(frozen=True)
class GrowthRecord:
    """Truncated divergence integral against a kernel witness.

    values[k] is x* (integral_1^checkpoint_k of the gamma-form integrand) x;
    for a divergent pair this grows at least like (x* A x) log t, and slope
    is the least-squares coefficient against log t (None for a single
    checkpoint).
    """

    checkpoints: np.ndarray
    values: np.ndarray
    slope: Optional[float]
    witness: np.ndarray
    witness_mass: float


def divergence_probe(A: np.ndarray, B: np.ndarray, checkpoints: Sequence[float], tol: float = DEFAULT_TOL) -> GrowthRecord:
    """Witness the logarithmic divergence of the integral for unsupported pairs."""
    A = require_psd(A, "A")
    B = require_psd(B, "B")
    sup = support_relation(A, B)
    if sup.holds:
        raise ValueError("divergence_probe: pair has support containment; the integral is finite")
    x = sup.witness
    witness_mass = float((x.conj() @ A @ x).real)
    ts = np.sort(np.asarray(list(checkpoints), dtype=float))
    if ts.size == 0 or ts[0] <= 1.0:
        raise ValueError("divergence_probe: checkpoints must be > 1")

    def f(gs):
        g = gs[:, None, None]
        t1 = positive_part_stack(A[None] - g * B[None]) / g
        t2 = positive_part_stack(B[None] - g * A[None]) / (g * g)
        return t1 + t2

    values = np.empty(ts.size)
    cum = np.zeros_like(A)
    lo = 1.0
    for k, t in enumerate(ts):
        kinks = np.concatenate(
            [find_crossings(A, B, (lo, t)).crossings, find_crossings(B, A, (lo, t)).crossings]
        )
        seg = _adaptive(f, lo, float(t), tol, kinks=kinks)
        cum = cum + seg.value
        values[k] = float((x.conj() @ cum @ x).real)
        lo = float(t)
    slope = None
    if ts.size >= 2:
        slope = float(np.polyfit(np.log(ts), values, 1)[0])
    return GrowthRecord(checkpoints=ts, values=values, slope=slope, witness=x, witness_mass=witness_mass)
