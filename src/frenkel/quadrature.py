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
    PreparedPair,
    SupportViolation,
    embed,
    prepare_pair,
    _block_chain,
    _relative_spectrum,
)
from . import frechet, workers
from .linalg import (
    eig_hermitian,
    hermitian_part,
    log_of,
    positive_definite_spectrum,
    positive_eig_stack,
    positive_eigs_of,
    positive_part_of,
    positive_part_stack,
    positive_projector_of,
    range_mask,
    zero_band,
)

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
    """np.linalg.norm(M, 2) of a matrix, its largest over a stack, |M| of a scalar."""
    M = np.asarray(M)
    if M.ndim >= 2:
        return float(np.linalg.svd(M, compute_uv=False).max())
    return float(abs(M))


def _kronrod(vals: np.ndarray, half: float):
    flat = vals.reshape(15, -1)
    i15 = half * np.dot(_WK_ROW, flat).reshape(vals.shape[1:])
    i7 = half * np.dot(_WG_ROW, flat[_GAUSS_IDX]).reshape(vals.shape[1:])
    return i15, _err_norm(i15 - i7)


def _panel(fv, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return _kronrod(fv(mid + half * _NODES), half)


def _shared_panel(fv, a: float, b: float) -> list:
    """_panel of each term, where fv maps the nodes to an iterable of stacks,
    one per term; each stack is reduced before the next is drawn."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return [_kronrod(vals, half) for vals in fv(mid + half * _NODES)]


def _panels(fv, spans, panel) -> list:
    return [panel(fv, lo, hi) for lo, hi in spans]


def _initial_panels(fv, bounds: list[float], panel=_panel) -> list:
    """panel(fv, lo, hi) on consecutive bounds, in interval order.

    When the first panel's time says the rest take at least FAN_OUT_MIN_S,
    the rest are split into contiguous chunks, one per worker thread of the
    shared executor.  The caller runs the first chunk, then every chunk no
    worker has started yet, so a busy executor never stalls it.  Each panel
    is computed by the same call as in the serial loop, so the values are
    the same bits.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    t0 = time.perf_counter()
    out = [panel(fv, *spans[0])]
    rest = spans[1:]
    n = 1
    if len(rest) > 1 and (time.perf_counter() - t0) * len(rest) >= FAN_OUT_MIN_S:
        n = workers.current_size()
    if n == 1:
        return out + _panels(fv, rest, panel)
    k = min(n, len(rest))
    cuts = [len(rest) * i // k for i in range(k + 1)]
    chunks = [rest[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    pool = workers.executor(n)
    futures = [pool.submit(_panels, fv, chunk, panel) for chunk in chunks[1:]]
    try:
        out += _panels(fv, chunks[0], panel)
        inline = [_panels(fv, chunk, panel) if fut.cancel() else None for chunk, fut in zip(chunks[1:], futures)]
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


def _adaptive(fv, a: float, b: float, tol: float, kinks=(), initial=None) -> QuadratureResult:
    """The panel tree of fv on [a, b], split first at the kinks, to tol.

    initial, when given, holds the Kronrod panels of fv on those first
    bounds, computed by the caller (see clipped_integrals).  The tree stops
    at MAX_PANELS panels, the module value read while it runs.
    """
    bounds = _initial_bounds(a, b, kinks)
    if initial is None:
        initial = _initial_panels(fv, bounds)
    heap = []
    done = []
    evals = 0
    total_err = 0.0
    for lo, hi, (val, err) in zip(bounds[:-1], bounds[1:], initial):
        evals += 15
        total_err += err
        heappush(heap, (-err, lo, hi, val))
    n_panels = len(heap)
    while total_err > tol and heap and n_panels < MAX_PANELS:
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


def adaptive_matrix_integral(f: Callable, a: float, b: float, tol: float, kinks: Sequence[float] = ()) -> QuadratureResult:
    """Integrate a matrix-valued function over [a, b] to absolute tolerance tol.

    Adaptive bisection with a 15-point Kronrod rule applied to all entries
    simultaneously; the local error is the operator norm of the embedded
    Gauss/Kronrod difference, so the panel tree (hence the Hermiticity of
    the result for Hermitian integrands) is shared by every entry.  Supplied
    kinks become initial panel boundaries.  When the tree reaches MAX_PANELS
    the best value is returned flagged converged=False.

    f maps one float to one value; it may be called from up to
    FRENKEL_THREADS threads at once (see _initial_panels).
    """
    if not (a < b):
        raise ValueError(f"adaptive_matrix_integral: need a < b, got [{a!r}, {b!r}]")
    if tol <= 0:
        raise ValueError("adaptive_matrix_integral: tol must be positive")
    fv = lambda xs: np.stack([np.asarray(f(float(x))) for x in xs])
    return _adaptive(fv, float(a), float(b), float(tol), kinks=kinks)


# The pencil of each form, built in place: one (m, n, n) temporary per
# evaluation, with the same bits as A1 - g B1 (or u B1 - A1).  Each returns
# the stack and the c of each node (see _form_domain).
def _gamma_pencil(A1, B1, gs):
    M = gs[:, None, None] * B1[None]
    np.subtract(A1, M, out=M)
    return M, gs


def _u_pencil(A1, B1, us):
    u = np.maximum(us, U_FLOOR)
    M = u[:, None, None] * B1[None]
    M -= A1
    return M, u


_PENCILS = {
    "gamma": _gamma_pencil,
    "u": _u_pencil,
    "s": lambda A1, B1, ss: _gamma_pencil(A1, B1, 1.0 / (1.0 - ss)),
    "v": lambda A1, B1, vs: _gamma_pencil(B1, A1, 1.0 + vs),
    "w": lambda A1, B1, ws: _u_pencil(A1, B1, 1.0 - ws),
}
# The substituted coordinates as maps of gamma (s) or of u (v, w).
_COORDS = {"s": lambda g: 1.0 - 1.0 / g, "v": lambda u: 1.0 / u - 1.0, "w": lambda u: 1.0 - u}


def _form_domain(pair: PreparedPair, form: str, head: float = 0.0):
    """(a, b, kinks, pencil) of a clipped-pencil form on its exact support,
    with pencil mapping a stack of nodes to (M, c); None when the domain is
    empty, as every domain is when range(B) is.

        form   coordinate      domain                      pencil M                  c
        gamma  gamma           [1, sigma_max]              A1 - gamma B1             gamma
        s      1 - 1/gamma     [0, 1 - 1/sigma_max]        A1 - gamma B1             gamma
        u      1/gamma         [max(sigma_min, 0), 1]      u B1 - A1                 u
        v      gamma - 1       [0, 1/sigma_min - 1]        B1 - gamma A1             gamma
        w      1 - 1/gamma     [0, 1]                      u B1 - A1 at u = 1 - w    u

    u is clamped at U_FLOOR in the pencil and in c.  Beyond these domains
    the clipped pencil vanishes, and the relative eigenvalues sigma inside
    them, mapped to the coordinate, are the kinks; w reaches past sigma_min
    to u = 0, so sigma_min is one of its kinks.  v's domain is infinite when
    sigma_min = 0.  head: kinks at or below it are dropped (see
    clipped_integrals).
    """
    sigma = pair.sigma
    if form in ("gamma", "s"):
        a, b = 1.0, float(sigma.max(initial=0.0))
    else:
        a, b = float(max(sigma.min(initial=1.0), 0.0)), 1.0
    if a >= b:
        return None
    if form == "v" and a == 0.0:
        raise ValueError("the v form needs sigma_min > 0")
    if form == "w":
        a = 0.0
    kinks = sigma[(sigma > max(a, head)) & (sigma < b)]
    if form in _COORDS:
        x = _COORDS[form]
        (a, b), kinks = sorted((x(a), x(b))), x(kinks)
    A1, B1, pencil = pair.A1, pair.B1, _PENCILS[form]
    return a, b, kinks, lambda xs: pencil(A1, B1, xs)


@dataclass(frozen=True, eq=False)
class Clip:
    """A clip of the pencil at a stack of nodes, in two ways: reduce maps the
    stack's eigh (w, U) to the clipped values, and kernel computes the same
    values from the pencil stack with a decomposition of its own."""

    reduce: Callable
    kernel: Callable


# Each clip looks its functions up when it runs, so that a patched module
# attribute (the tests, the traced benchmark run) sees every call.
POSITIVE_PART = Clip(lambda w, U: positive_part_of(w, U), lambda M: positive_part_stack(M))
PROJECTOR = Clip(lambda w, U: positive_projector_of(w, U), lambda M: _positive_proj_stack(M))
TRACE = Clip(lambda w, U: positive_eigs_of(w).sum(axis=-1), lambda M: positive_eig_stack(M).sum(axis=-1))


@dataclass(frozen=True)
class Term:
    """One integrand of a form, weight(clip values, c) at each node, and
    the tolerance its panel tree runs to."""

    clip: Clip
    weight: Callable
    tol: float

    def integrand(self, M, c):
        return self.weight(self.clip.kernel(M), c)


def _form_term(clip: Clip, form: str, tol: float) -> Term:
    """A clipped pencil as the divergence's integrands weigh it, to tol / 2:
    by gamma on s (gamma ds), by 1/c^2 on v (dgamma / gamma^2), and by 1/c
    on gamma, u and w (dgamma / gamma, du / u, dw / u)."""

    def weight(X, c):
        c = c.reshape(c.shape + (1,) * (X.ndim - 1))
        return X * c if form == "s" else X / (c * c if form == "v" else c)

    return Term(clip, weight, tol / 2)


def _divergence_terms(form: str, tol: float, trace: bool = False) -> list[Term]:
    """The divergence's positive-part term on a form, then frenkel_trace's
    term there when trace is set."""
    return [_form_term(POSITIVE_PART, form, tol)] + ([_form_term(TRACE, form, tol)] if trace else [])


def clipped_integrals(pair: PreparedPair, form: str, terms: Sequence[Term], head: float = 0.0) -> list[Optional[QuadratureResult]]:
    """The integrals of several terms on one form (see _form_domain), each on
    its own panel tree; entries are None when the domain is empty.

    A single term runs term.integrand throughout.  Several terms share their
    initial panels, one Kronrod panel per kink interval.  There each node's
    pencil is built and decomposed by one eigh, each distinct clip reduces
    (w, U) once, and (w, U) is dropped.  Each tree then refines with its own
    kernel, tolerance and MAX_PANELS, so a term gets the tree it gets alone,
    bit for bit, except that a TRACE term's initial nodes read eigh's
    eigenvalues instead of eigvalsh's.

    head (u form only): kinks at or below max(a, head) are not pre-split,
    so [a, head] lies inside the first panel, which a tree refines only if
    its own error estimate asks for it.
    """
    if head and form != "u":
        raise ValueError("clipped_integrals: head applies to the u form only")
    domain = _form_domain(pair, form, head)
    if domain is None:
        return [None] * len(terms)
    a, b, kinks, pencil = domain
    columns = [None]
    if len(terms) > 1:
        clips = list(dict.fromkeys(term.clip for term in terms))

        def shared(xs):
            M, c = pencil(xs)
            w, U = np.linalg.eigh(M)
            del M
            vals = {clip: clip.reduce(w, U) for clip in clips}
            del w, U
            for term in terms:
                yield term.weight(vals[term.clip], c)

        rows = _initial_panels(shared, _initial_bounds(a, b, kinks), _shared_panel)
        columns = [list(col) for col in zip(*rows)]
        del rows
    # Each tree takes its column off the list, so a term's initial panels
    # are held only until its own tree has them.
    return [
        _adaptive(lambda xs, term=term: term.integrand(*pencil(xs)), a, b, term.tol, kinks=kinks, initial=columns.pop(0))
        for term in terms
    ]


def _scalar_total(results) -> float:
    """Sum of scalar integrals, skipping empty domains."""
    total = 0.0
    for r in results:
        if r is not None:
            total += float(r.value)
    return total


def _supported_pair(A, B) -> PreparedPair:
    pair = prepare_pair(A, B)
    if not pair.support.holds:
        raise SupportViolation("range(A) not contained in range(B): the integral diverges", pair.support.witness)
    return pair


def _combine(pair: PreparedPair, parts_list, panel_maps) -> QuadratureResult:
    total = np.zeros(pair.A1.shape, dtype=complex)
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
    value = hermitian_part(embed(pair.V, total, pair.A.shape[0]))
    return QuadratureResult(
        value=value,
        error_estimate=err,
        tail_bound=0.0,
        panels=panels,
        evaluations=evals,
        converged=conv,
    )


def _rhs_frg1_result(pair: PreparedPair, r1, r2) -> QuadratureResult:
    """rhs_frg1's result from its gamma-form term 1 and u-form term 2."""
    return _combine(pair, [r1, r2], [lambda iv: iv, lambda iv: (1.0 / iv[1], math.inf if iv[0] == 0.0 else 1.0 / iv[0])])


def rhs_frg1(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL, *, trace: bool = False):
    """The gamma-form integral of the divergence:

        integral_1^inf (gamma^-1 (A - gamma B)_+  +  gamma^-2 (B - gamma A)_+) dgamma

    computed on the range(B) block and embedded back.  Term 1 runs over
    [1, gamma_max] (the integrand vanishes beyond the largest relative
    eigenvalue), term 2 over u = 1/gamma in [sigma_min, 1]; both domains
    are exact, so tail_bound is 0.  Panels of term 2 are logged in the
    gamma = 1/u coordinate, after term 1's.

    trace: also integrate frenkel_trace's u part on term 2's initial nodes
    (see clipped_integrals) and return (result, that part).
    """
    pair = _supported_pair(A, B)
    (r1,) = clipped_integrals(pair, "gamma", _divergence_terms("gamma", tol))
    r2, *part = clipped_integrals(pair, "u", _divergence_terms("u", tol, trace))
    result = _rhs_frg1_result(pair, r1, r2)
    return (result, *part) if trace else result


def rhs_frg(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL, *, trace: bool = False):
    """The t-line integral of the divergence,

        integral dt / (|t| (t-1)^2) ((1-t) A + t B)_-   over (-inf, 0) and (1, inf),

    evaluated through the substitutions t -> gamma = t/(t-1) on (1, inf)
    and t -> gamma = (t-1)/t on (-inf, 0), which map the two pieces onto
    the clipped-operator forms.  The node placement differs from rhs_frg1
    (piece 1 in s = 1/t, piece 2 linear in gamma - 1), so agreement with
    rhs_frg1 is a genuine cross-check of the quadrature.  Panels are logged
    in t coordinates; the piece-1 log ends at t = +inf and the piece-2 log
    starts at -inf.

    trace: also integrate frenkel_trace's s part on piece 1's initial nodes
    (see clipped_integrals) and return (result, that part).
    """
    pair = _supported_pair(A, B)
    # s = 1/t in (0, 1 - 1/gamma_max]; gamma = 1/(1-s), measure gamma * O ds.
    r1, *part = clipped_integrals(pair, "s", _divergence_terms("s", tol, trace))
    # Piece 2 in v = gamma - 1 = -1/t, measure (B - gamma A)_+ dv / gamma^2.
    # v's domain ends at 1/sigma_min - 1, so from sigma_min <= 1e-6 on it
    # runs in w = 1 - 1/gamma = 1/(1-t) on [0, 1], where the measure reduces
    # to dw exactly and (B - gamma A)_+ is evaluated as gamma ((1-w) B - A)_+
    # to keep the eigenproblem at the scale of the operands.
    form = "v" if pair.sigma.min(initial=1.0) > 1e-6 else "w"
    (r2,) = clipped_integrals(pair, form, [_form_term(POSITIVE_PART, form, tol)])
    map2 = {
        "v": lambda iv: (-math.inf if iv[0] == 0.0 else -1.0 / iv[0], -1.0 / iv[1]),
        "w": lambda iv: (
            -math.inf if iv[0] == 0.0 else -(1.0 - iv[0]) / iv[0],
            -(1.0 - iv[1]) / max(iv[1], U_FLOOR) if iv[1] < 1.0 else 0.0,
        ),
    }[form]

    # piece-1 s-interval (sa, sb) maps to t = 1/s, descending; report ascending.
    def map1_sorted(iv):
        t_hi = math.inf if iv[0] == 0.0 else 1.0 / iv[0]
        t_lo = 1.0 / iv[1]
        return (t_lo, t_hi)

    result = _combine(pair, [r2, r1], [map2, map1_sorted])
    return (result, *part) if trace else result


def frenkel_trace(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Trace of the t-line integrand, integrated adaptively.

    Equals the trace divergence D(A||B); returns math.inf when support
    containment fails (both sides of the trace identity are infinite).
    """
    pair = prepare_pair(A, B)
    if not pair.support.holds:
        return math.inf
    (r1,) = clipped_integrals(pair, "s", [_form_term(TRACE, "s", tol)])
    (r2,) = clipped_integrals(pair, "u", [_form_term(TRACE, "u", tol)])
    return _scalar_total([r1, r2])


def _positive_proj_stack(mats: np.ndarray) -> np.ndarray:
    return positive_projector_of(*np.linalg.eigh(mats))


@dataclass(frozen=True)
class ProofChainIntegrals:
    """The two projection-weighted integrals v, w and the chain with

        A (log A - log B) = u + v - w,   chain = A (log A - log B)

    where u is the gamma-form integral, rhs_frg1(A, B), plus the residuals
    of the two supporting integral representations (the log difference as a
    projection integral, and the derivative of log at A in direction B as
    integral_0^inf {B - gamma A > 0}).  evaluations counts the nodes of the
    chain's three panel trees, converged ANDs their flags (an empty domain
    counts as converged).
    """

    v: np.ndarray
    w: np.ndarray
    chain: np.ndarray
    residual_log_difference: float
    residual_dlog_representation: float
    evaluations: int
    converged: bool


def proof_chain_integrals(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL, *, forms: bool = False):
    """Evaluate the integrals behind the divergence identity for PD A, B.

    Every integral is a projection integral of the gamma form on
    [1, sigma_max] (P = {A - gamma B > 0}) or of the u form on
    [sigma_min, 1] (P = {u B - A > 0} = {B - A/u > 0}, the projection being
    scale-invariant):

        v                 = integral_1^inf B {A - gamma B > 0} dgamma
        w                 = integral_1^inf gamma^-2 B {B - gamma A > 0} dgamma
        log A - log B     = gamma[P/gamma] - u[P/u]
        dlog(A)[B]        = I - gamma[P/gamma^2] + u[P/u^2]

    The last splits integral_0^inf {B - gamma A > 0} at gamma = 1; on
    [0, 1] the projection is I - {A - B/gamma > 0} away from the kinks.

    P is computed once per node.  Three panel trees stack the terms of a
    form, each to tol/2 in the largest operator norm over its terms:
    gamma[B P, P/gamma, P/gamma^2], u[B P, P/u] and u[P/u^2].  The last,
    about 1/sigma_min in size, hits MAX_PANELS first, so it runs alone: a
    capped tree leaves every term on it unconverged.  The two u trees share
    their initial panels (see clipped_integrals).

    forms: also integrate rhs_frg1's two terms and frenkel_trace's u part
    on the initial nodes of the gamma and u trees, and return (chain,
    rhs_frg1's result, that part).
    """
    pair = prepare_pair(A, B)
    if not pair.support.holds or pair.V is not None:
        raise ValueError("proof_chain_integrals: B must be positive definite")
    A, B = pair.A, pair.B
    dec_a = eig_hermitian(A)
    if not positive_definite_spectrum(dec_a.eigenvalues):
        raise ValueError("proof_chain_integrals: A must be positive definite")

    def chain_term(*powers, b_proj=True):
        def weight(P, c):
            return np.stack(([B[None] @ P] if b_proj else []) + [P / (c**k)[:, None, None] for k in powers], axis=1)

        return Term(PROJECTOR, weight, tol / 2)

    gamma_terms = [chain_term(1, 2)]
    u_terms = [chain_term(1), chain_term(2, b_proj=False)]
    if forms:
        gamma_terms += _divergence_terms("gamma", tol)
        u_terms += _divergence_terms("u", tol, trace=True)
    g = clipped_integrals(pair, "gamma", gamma_terms)
    u = clipped_integrals(pair, "u", u_terms)
    results = [g[0], u[0], u[1]]

    def value(r, k):
        return np.zeros((k,) + A.shape, dtype=complex) if r is None else r.value

    v, g_over, g_over2 = value(g[0], 3)
    w, u_over = value(u[0], 2)
    (u_over2,) = value(u[1], 1)

    log_diff = hermitian_part(g_over - u_over)
    residual_log = float(np.linalg.norm(log_diff - (log_of(dec_a) - log_of(pair.b1_decomposition)), 2))

    dlog = hermitian_part(np.eye(A.shape[0]) - g_over2 + u_over2)
    residual_dlog = float(np.linalg.norm(dlog - frechet.dlog_in(dec_a, B), 2))

    done = [r for r in results if r is not None]
    pc = ProofChainIntegrals(
        v=v,
        w=w,
        chain=_block_chain(A, B, pair.b1_decomposition),
        residual_log_difference=residual_log,
        residual_dlog_representation=residual_dlog,
        evaluations=sum(r.evaluations for r in done),
        converged=all(r.converged for r in done),
    )
    return (pc, _rhs_frg1_result(pair, g[1], u[2]), u[3]) if forms else pc


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


def _probe_kinks(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The crossings of A - gamma B and those of B - gamma A, each sorted:
    every gamma > 0 where a nonzero branch changes sign; and g2, the gamma
    beyond which B - gamma A <= 0.  All from one eigh of A + B.

    A and B vanish on the kernel of A + B.  On its range, congruence by
    (A + B)^-1/2 turns A - gamma B into Theta - gamma (I - Theta), with
    Theta the relative spectrum of A against A + B (0 <= theta <= 1), so by
    Sylvester's law of inertia the branches of A - gamma B cross zero
    exactly at theta / (1 - theta) and those of B - gamma A at
    (1 - theta) / theta, for 0 < theta < 1.  By the same argument every
    branch of B - gamma A is negative past the last of its crossings,
    (1 - theta) / theta at the smallest theta, or 0 when theta = 1 on all
    of range(A + B); only a kernel of A inside range(A + B) (theta = 0,
    read with the zero band, since theta comes out as +-1e-16 there) keeps
    a branch positive for every gamma, and then g2 = inf.
    """
    w, U = np.linalg.eigh(A + B)
    keep = range_mask(w)
    theta = _relative_spectrum(A, w[keep], U[:, keep])
    inner = theta[(theta > 0.0) & (theta < 1.0)]
    low = float(theta.min())
    g2 = max((1.0 - low) / low, 0.0) if range_mask(theta).all() else math.inf
    return np.sort(inner / (1.0 - inner)), np.sort((1.0 - inner) / inner), g2


def _witness_form(P: np.ndarray, Q: np.ndarray, x: np.ndarray, power: int):
    """ys -> e^(-power y) x* (P - e^y Q)_+ x at each node y of a stack.

    One eigh of the pencil per node: the eigenvalues above its zero band,
    weighted by |u_i* x|^2, with no rebuild of the positive part.
    """

    def f(ys):
        M, gs = _gamma_pencil(P, Q, np.exp(ys))
        w, U = np.linalg.eigh(M)
        mass = np.abs(x.conj() @ U) ** 2
        return (positive_eigs_of(w) * mass).sum(axis=-1) / gs**power

    return f


def divergence_probe(A: np.ndarray, B: np.ndarray, checkpoints: Sequence[float], tol: float = DEFAULT_TOL) -> GrowthRecord:
    """Witness the logarithmic divergence of the integral for unsupported pairs.

    Each window [lo, t] between checkpoints integrates the witness's
    quadratic form of the gamma-form integrand, not the matrix, in
    y = log gamma (dgamma / gamma = dy):

        term 1   integral x* (A - e^y B)_+ x dy                 over [log lo, log t]
        term 2   integral x* (B - e^y A)_+ x e^-y dy            over [log lo, log min(t, g2)]

    each to tol / 2, with the logs of its own pencil's crossings as kinks
    (see _probe_kinks: past g2, term 2 is exactly 0).  Along ker B term 1
    tends to x* A x, so a tail window needs about one panel.  An error E of
    the matrix integral moves the form by |x* E x| <= ||E||, so this is no
    less accurate than integrating the matrix.
    """
    pair = prepare_pair(A, B)
    if pair.support.holds:
        raise ValueError("divergence_probe: pair has support containment; the integral is finite")
    A, B, x = pair.A, pair.B, pair.support.witness
    witness_mass = float((x.conj() @ A @ x).real)
    ts = np.sort(np.asarray(list(checkpoints), dtype=float))
    if ts.size == 0:
        raise ValueError("divergence_probe: needs at least one checkpoint")
    if ts[0] <= 1.0:
        raise ValueError("divergence_probe: checkpoints must be > 1")
    if np.any(ts[1:] == ts[:-1]):
        raise ValueError("divergence_probe: checkpoints must be distinct")
    # From t_max on, the witness mass lies in the zero band of the pencil (norm
    # about t ||B||) and is clipped away: later windows would add nothing.
    # With B = 0 nothing is ever clipped.
    band = float(zero_band(np.linalg.eigvalsh(B)))
    t_max = witness_mass / band if band > 0.0 else math.inf
    if not ts[-1] < t_max:
        raise ValueError(f"divergence_probe: checkpoints must be finite and below t_max = {t_max:.6g}")

    k1, k2, g2 = _probe_kinks(A, B)
    y1, y2 = np.log(k1), np.log(k2)
    term1, term2 = _witness_form(A, B, x, 0), _witness_form(B, A, x, 1)
    values = np.empty(ts.size)
    total = 0.0
    lo = 1.0
    for k, t in enumerate(ts):
        segs = [_adaptive(term1, math.log(lo), math.log(t), tol / 2, kinks=y1)]
        if lo < g2:
            segs.append(_adaptive(term2, math.log(lo), math.log(min(t, g2)), tol / 2, kinks=y2))
        if not all(seg.converged for seg in segs):
            raise ValueError(f"divergence_probe: the integral over [{lo:.6g}, {t:.6g}] did not converge")
        total += sum(float(seg.value) for seg in segs)
        values[k] = total
        lo = float(t)
    slope = None
    if ts.size >= 2:
        slope = float(np.polyfit(np.log(ts), values, 1)[0])
    return GrowthRecord(checkpoints=ts, values=values, slope=slope, witness=x, witness_mass=witness_mass)
