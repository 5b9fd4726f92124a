"""Finite truncation experiments for compact-operator approximation claims.

A CompactModel realizes a self-adjoint operator with a prescribed decaying
spectrum as a dense rotated matrix; truncation takes leading principal
blocks, which after the seeded rotation are genuine coordinate compressions
in general position with the operator.  The series and records collected
here back the monotonicity, interlacing and convergence checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import delta_operator, prepare_pair
from .io import field, integer_field, number_field, write_csv
from .linalg import as_hermitian, check_exponent, random_unitary, rebuild, schatten_norm
from .quadrature import U_FLOOR, Clip, Term, _scalar_total, clipped_integrals

LAWS = ("power", "geom")
SIGN_PATTERNS = ("pos", "alt", "seeded")
_MAX_MASTER_DIM = 1024
_N_SAMPLES = 16


def _sample_block(N: int, seed: int) -> np.ndarray:
    """The seeded unit sample vectors of the strong gaps, as (N, _N_SAMPLES) columns."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, _N_SAMPLES)) + 1j * rng.standard_normal((N, _N_SAMPLES))
    return X / np.linalg.norm(X, axis=0)


@dataclass(frozen=True)
class CompactModel:
    """Spectral recipe for a master operator.

    law "power" uses magnitudes i^-param; "geom" uses param^i (0 < param < 1);
    param is finite.  signs: "pos" (all positive), "alt" (alternating), or
    "seeded" (random signs drawn from rotation_seed + 1, so rotation_seed
    >= -1).  p is the Schatten exponent the law must be summable for,
    checked with the analytic tail of the law.
    """

    master_dim: int
    law: str
    param: float
    signs: str
    rotation_seed: int
    p: float

    def __post_init__(self):
        if not (1 <= self.master_dim <= _MAX_MASTER_DIM):
            raise ValueError(f"master_dim must be in [1, {_MAX_MASTER_DIM}]")
        if self.law not in LAWS:
            raise ValueError(f"unknown law {self.law!r}")
        if self.signs not in SIGN_PATTERNS:
            raise ValueError(f"unknown sign pattern {self.signs!r}")
        if not (self.p >= 1):
            raise ValueError("p must be >= 1 or inf")
        if not math.isfinite(self.param):
            raise ValueError("param must be finite")
        if self.signs == "seeded" and self.rotation_seed < -1:
            raise ValueError("rotation_seed must be >= -1 for seeded signs")
        if self.law == "geom" and not (0 < self.param < 1):
            raise ValueError("geometric law needs 0 < param < 1")
        if self.law == "power" and self.param <= 0:
            raise ValueError("power law needs param > 0")
        if not math.isinf(self.p):
            if self.law == "power" and self.param * self.p <= 1:
                raise ValueError(
                    f"power law i^-{self.param} is not p-summable for p = {self.p}"
                    f" (needs param * p > 1)"
                )


def model_magnitudes(model: CompactModel) -> np.ndarray:
    i = np.arange(1, model.master_dim + 1, dtype=float)
    if model.law == "power":
        return i**-model.param
    return model.param**i


def model_eigenvalues(model: CompactModel) -> np.ndarray:
    """Signed spectrum, magnitudes non-increasing."""
    mags = model_magnitudes(model)
    if model.signs == "pos":
        return mags
    if model.signs == "alt":
        s = np.ones(model.master_dim)
        s[1::2] = -1.0
        return mags * s
    rng = np.random.default_rng(model.rotation_seed + 1)
    return mags * rng.choice([-1.0, 1.0], size=model.master_dim)


def synth_compact(model: CompactModel) -> np.ndarray:
    """Realize the model as a dense Hermitian matrix with the prescribed spectrum.

    A negative rotation_seed means the trivial rotation: the matrix is the
    diagonal of the signed law.
    """
    mu = model_eigenvalues(model)
    if model.rotation_seed < 0:
        return np.diag(mu).astype(complex)
    U = random_unitary(model.master_dim, np.random.default_rng(model.rotation_seed))
    return rebuild(U, mu)


def truncate(T: np.ndarray, n: int) -> np.ndarray:
    """Leading n x n principal block embedded back with zero padding."""
    T = np.asarray(T, dtype=complex)
    N = T.shape[0]
    if not (1 <= n <= N):
        raise ValueError(f"truncate: n must be in [1, {N}], got {n}")
    out = np.zeros_like(T)
    out[:n, :n] = T[:n, :n]
    return out


def _plus_minus_pnorm(evals: np.ndarray, p: float) -> tuple[float, float]:
    pos = evals[evals > 0]
    neg = -evals[evals < 0]
    if math.isinf(p):
        return (float(pos.max(initial=0.0)), float(neg.max(initial=0.0)))
    return (float((pos**p).sum() ** (1 / p)), float((neg**p).sum() ** (1 / p)))


@dataclass(frozen=True)
class TruncationSeries:
    """Per-n records of the coordinate-truncation experiment.

    plus_norm_p[k] is ||(T_n)_+||_p at n = ns[k].  gap_to_master is the
    Hilbert-Schmidt distance ||T - T_n||_2: of the admissible gap norms it
    is the one that decreases monotonically for every input (it sums the
    squared entries outside the leading block), which the series asserts.
    strong_residuals[k, j] is ||(T - T_n) x_j|| for seeded sample vectors.
    """

    p: float
    ns: np.ndarray
    plus_norm_p: np.ndarray
    minus_norm_p: np.ndarray
    gap_to_master: np.ndarray
    strong_residuals: np.ndarray


def truncation_series(T: np.ndarray, p: float) -> TruncationSeries:
    T = as_hermitian(T)
    check_exponent(p, "truncation_series")
    N = T.shape[0]
    X = _sample_block(N, 20)
    ns = np.arange(1, N + 1)
    plus = np.empty(N)
    minus = np.empty(N)
    gap = np.empty(N)
    strong = np.empty((N, _N_SAMPLES))
    for k, n in enumerate(ns):
        block_evals = np.linalg.eigvalsh(T[:n, :n])
        plus[k], minus[k] = _plus_minus_pnorm(block_evals, p)
        Tn = truncate(T, int(n))
        diff = T - Tn
        gap[k] = float(np.linalg.norm(diff))
        strong[k] = np.linalg.norm(diff @ X, axis=0)
    return TruncationSeries(
        p=p, ns=ns, plus_norm_p=plus, minus_norm_p=minus, gap_to_master=gap, strong_residuals=strong
    )


def write_series_csv(path_or_file, series: TruncationSeries) -> None:
    header = ["n", "plus_norm_p", "minus_norm_p", "gap_to_master", "max_strong_residual"]
    rows = (
        [int(n), series.plus_norm_p[k], series.minus_norm_p[k], series.gap_to_master[k], series.strong_residuals[k].max()]
        for k, n in enumerate(series.ns)
    )
    write_csv(path_or_file, header, rows)


def _pnorm_rows(evals: np.ndarray, p: float) -> np.ndarray:
    # evals: (m, n) nonnegative rows -> p-norms per row
    if math.isinf(p):
        return evals.max(axis=-1)
    if p == 1:
        return evals.sum(axis=-1)
    return (evals**p).sum(axis=-1) ** (1 / p)


def _above_zero(w: np.ndarray) -> np.ndarray:
    return np.where(w > 0.0, w, 0.0)


def _clipped_eigs(mats: np.ndarray) -> np.ndarray:
    return _above_zero(np.linalg.eigvalsh(mats))


# budget_e_p's clip: the eigenvalues of (M)_+, clipped at > 0, not at the
# zero band.  Its kernel looks _clipped_eigs up when it runs, so a patched
# module attribute (the traced benchmark run) sees every call.
EIGS_ABOVE_ZERO = Clip(lambda w, U: _above_zero(w), lambda M: _clipped_eigs(M))


def _u_head(pair, p: float, tol: float) -> tuple[float, float]:
    """The head delta of budget_e_p's u-integral and a bound on that
    integral over [a, delta], a = max(sigma_min, 0); (0.0, 0.0) for none.

    A1 >= -eps I, so by Weyl's monotonicity theorem (Bhatia, Matrix
    Analysis, 1997, III.2) each eigenvalue of u B1 - A1 is at most the same
    eigenvalue of u B1 + eps I, and ||(u B1 - A1)_+||_p <= u ||B1||_p +
    eps n^(1/p).  With the pencil's u clamped at U_FLOOR, the integrand is
    then at most ||B1||_p + eps n^(1/p) / max(u, U_FLOOR), and its integral
    over [a, delta], for delta >= max(a, U_FLOOR), at most

        delta ||B1||_p + eps n^(1/p) (1 + log(delta / max(a, U_FLOOR))).

    eps is A1's negative part plus the eigensolver's rounding, n eps_mach
    ||A1||, from one eigvalsh(A1).  With E the eps term at tol / (4 ||B1||_p),
    which is at least the eps term at any smaller delta, delta is
    (tol/4 - E) / ||B1||_p, so the bound is at most tol/4.  When E exceeds
    tol/8, or delta does not pass max(a, U_FLOOR), nothing is dropped.
    """
    w = np.linalg.eigvalsh(pair.A1)
    n = w.size
    if not n:
        return 0.0, 0.0
    eps = max(-float(w[0]), 0.0) + n * np.finfo(float).eps * float(np.abs(w).max())
    b_norm = float(_pnorm_rows(pair.b1_eigh[0][None], p)[0])
    floor = max(float(pair.sigma.min()), U_FLOOR)

    def eps_term(delta):
        return eps * n ** (1.0 / p) * (1.0 + math.log(delta / floor))

    top = tol / (4 * b_norm)
    if not top > floor or eps_term(top) > tol / 8:
        return 0.0, 0.0
    delta = (tol / 4 - eps_term(top)) / b_norm
    if not delta > floor:
        return 0.0, 0.0
    return delta, delta * b_norm + eps_term(delta)


def budget_e_p(A: np.ndarray, B: np.ndarray, p: float, tol: float = 1e-6) -> float:
    """The p-norm integral budget

        integral_1^inf gamma^-1 ||(A - gamma B)_+||_p dgamma
      + integral_0^1            ||(B - A/u)_+||_p du,

    finite by construction at finite dimension; inf when support fails.
    Each integral runs to tol.  The u-integral pre-splits only the kinks
    above its head (see _u_head), a stretch whose integral is at most tol/4.
    Raises ValueError when either integral ends unconverged.
    """
    pair = prepare_pair(A, B)
    check_exponent(p, "budget_e_p")
    if not pair.support.holds:
        return math.inf
    term = Term(EIGS_ABOVE_ZERO, lambda X, c: _pnorm_rows(X, p) / c, tol)
    results = {"gamma": clipped_integrals(pair, "gamma", [term])[0]}
    results["u"] = clipped_integrals(pair, "u", [term], head=_u_head(pair, p, tol)[0])[0]
    for form, r in results.items():
        if r is not None and not r.converged:
            raise ValueError(
                f"budget_e_p: the {form} integral did not converge (error estimate {r.error_estimate:.6g} > tol {tol:.6g})"
            )
    return _scalar_total(results.values())


def _power_of_two_grid(N: int) -> np.ndarray:
    ns = [1]
    while ns[-1] * 2 <= N:
        ns.append(ns[-1] * 2)
    if ns[-1] != N:
        ns.append(N)
    return np.asarray(ns)


@dataclass(frozen=True)
class ConvergenceRecord:
    """Distances of the blockwise divergence to the master-level one."""

    p: float
    ns: np.ndarray
    p_gap: np.ndarray
    strong_gap: np.ndarray


def _master_pair(A_model: CompactModel, B_model: CompactModel) -> tuple[np.ndarray, np.ndarray]:
    if A_model.master_dim != B_model.master_dim:
        raise ValueError("models must share master_dim")
    if B_model.signs != "pos":
        raise ValueError("B model must have a positive spectrum")
    if A_model.signs != "pos":
        raise ValueError("A model must have a positive spectrum")
    return synth_compact(A_model), synth_compact(B_model)


def theorem3_convergence(A_model: CompactModel, B_model: CompactModel, p: float) -> ConvergenceRecord:
    """Blockwise divergence versus the master divergence along n = 1, 2, 4, ..., N.

    The n-block value is Delta(A_n || B_n) computed on the block (B's
    principal blocks stay PD) and embedded; distances to the master Delta
    are recorded in p-norm and against sample vectors.
    """
    A, B = _master_pair(A_model, B_model)
    N = A.shape[0]
    master = delta_operator(A, B).delta
    X = _sample_block(N, 21)
    ns = _power_of_two_grid(N)
    p_gap = np.empty(ns.size)
    strong = np.empty(ns.size)
    for k, n in enumerate(ns):
        blk = delta_operator(A[:n, :n], B[:n, :n]).delta
        emb = np.zeros_like(A)
        emb[:n, :n] = blk
        diff = emb - master
        p_gap[k] = schatten_norm(diff, p)
        strong[k] = float(np.linalg.norm(diff @ X, axis=0).max())
    return ConvergenceRecord(p=p, ns=ns, p_gap=p_gap, strong_gap=strong)


def model_from_config(cfg: dict) -> CompactModel:
    """Build a model from the experiment config mapping

        {"law": "power"|"geom", "param": float, "signs": "pos"|"alt"|"seeded",
         "N": int, "p": float, "seed": int}.

    Raises ValueError, prefixed "truncate config:", when a field is
    missing or malformed; N and seed must be integers, param a number and p
    a number or "inf" ("Infinity"), where a boolean is not a number.
    """
    try:
        return CompactModel(
            master_dim=integer_field(cfg, "N"),
            law=str(field(cfg, "law")),
            param=number_field(cfg, "param"),
            signs=str(field(cfg, "signs")),
            rotation_seed=integer_field(cfg, "seed"),
            p=math.inf if field(cfg, "p") in ("inf", "Infinity") else number_field(cfg, "p"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"truncate config: {exc}") from exc
