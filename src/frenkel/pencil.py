"""Hermitian pencil analysis: eigenvalue curves of A - gamma B, the real
crossing set of the nonzero branches, and modulus-of-continuity checks for
the positive-part map (Kato's logarithmic bound, the Hilbert-Schmidt
contraction for absolute values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _relative_spectrum
from .io import write_csv
from .linalg import hermitian_part, opnorm, parts, positive_definite_spectrum, range_mask, schatten_norm

GENERALIZED_EIG = "generalized_eig"
SIGN_SCAN = "sign_scan"

_SCAN_POINTS = 256
_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class PencilCrossings:
    """Sorted parameters where a nonzero eigenvalue branch of A - gamma B vanishes."""

    crossings: np.ndarray
    method: str


def eigencurves(A: np.ndarray, B: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Sample the descending-sorted eigenvalue branches of A - gamma B.

    Row k of the result holds the k-th branch over the grid.  Sorting makes
    each row continuous in gamma (Weyl: |lambda_k(g) - lambda_k(g')| <=
    |g - g'| ||B||) though branches may exchange analytic identity at
    crossings.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError(f"eigencurves: dimension mismatch {A.shape} vs {B.shape}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("eigencurves: empty grid")
    mats = grid[:, None, None] * B[None]
    np.subtract(A, mats, out=mats)  # A - g B in place: one temporary, the same bits
    w = np.linalg.eigvalsh(mats)  # ascending per matrix
    return w[:, ::-1].T.copy()


def _bisect_branch(A, B, k, lo, hi, f_lo):
    # k-th descending eigenvalue is continuous in gamma; plain bisection.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_TOL:
            return mid
        f_mid = np.linalg.eigvalsh(A - mid * B)[::-1][k]
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_crossings(
    A: np.ndarray, B: np.ndarray, interval: tuple[float, float], method: str | None = None
) -> PencilCrossings:
    """Real crossing set of the pencil A - gamma B inside a finite interval.

    For B positive definite by linalg.positive_definite_spectrum the
    crossings are exactly the relative spectrum, the eigenvalues of
    B^{-1/2} A B^{-1/2} (the pencil is singular precisely there); otherwise
    a 256-point sign scan of the sorted branches, off the common kernel of
    A and B, is refined by bisection, with identically-zero branches
    excluded.  method forces one route
    ("generalized_eig" needs definite B); the default picks automatically.
    """
    A = hermitian_part(np.asarray(A, dtype=complex))
    B = hermitian_part(np.asarray(B, dtype=complex))
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"find_crossings: interval must be finite and increasing, got {interval!r}")
    if method not in (None, GENERALIZED_EIG, SIGN_SCAN):
        raise ValueError(f"find_crossings: unknown method {method!r}")
    w, U = np.linalg.eigh(B)
    definite = positive_definite_spectrum(w)
    if method == GENERALIZED_EIG and not definite:
        raise ValueError("find_crossings: generalized_eig route needs definite B")
    if definite and method != SIGN_SCAN:
        gen = _relative_spectrum(A, w, U)
        inside = gen[(gen >= lo) & (gen <= hi)]
        return PencilCrossings(crossings=np.sort(inside), method=GENERALIZED_EIG)

    # Off the common kernel of A and B: there the pencil is identically
    # zero, and that branch, trading sorted places with a crossing one,
    # would scan as rounding-level sign changes.
    _, s, Vh = np.linalg.svd(np.vstack([A, B]), full_matrices=False)
    keep = range_mask(s)
    if not keep.all():
        W = Vh[keep]
        A = hermitian_part(W @ A @ W.conj().T)
        B = hermitian_part(W @ B @ W.conj().T)
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    curves = eigencurves(A, B, grid)
    # A branch whose every value lies in the zero band of all the curves is
    # identically zero: not a crossing of a nonzero branch.
    found = []
    for k in np.flatnonzero(range_mask(np.abs(curves).max(axis=1))):
        branch = curves[k]
        for i in range(grid.size - 1):
            f0, f1 = branch[i], branch[i + 1]
            if f0 == 0.0:
                found.append(grid[i])
                continue
            if (f0 > 0) != (f1 > 0) and f1 != 0.0:
                found.append(_bisect_branch(A, B, k, grid[i], grid[i + 1], f0))
        if branch[-1] == 0.0:
            found.append(grid[-1])
    if not found:
        return PencilCrossings(crossings=np.array([]), method=SIGN_SCAN)
    xs = np.sort(np.asarray(found, dtype=float))
    merged = [xs[0]]
    res = 10 * _BISECT_TOL * max(1.0, abs(hi - lo))
    for x in xs[1:]:
        if x - merged[-1] > res:
            merged.append(x)
    return PencilCrossings(crossings=np.asarray(merged), method=SIGN_SCAN)


def kato_continuity_check(T1: np.ndarray, T2: np.ndarray) -> tuple[float, float]:
    """Logarithmic modulus-of-continuity bound for the positive-part map.

    Returns (lhs, rhs) with
      lhs = max(||T1+ - T2+||, ||T1- - T2-||),
      rhs = ||T1 - T2||/pi * ((pi + 4)/2 + log((||T1|| + ||T2||)/||T1 - T2||)).
    The inequality lhs <= rhs holds whenever ||T1 - T2|| <= ||T1|| + ||T2||.
    """
    T1 = hermitian_part(np.asarray(T1, dtype=complex))
    T2 = hermitian_part(np.asarray(T2, dtype=complex))
    gap = opnorm(T1 - T2)
    if gap == 0.0:
        raise ValueError("kato_continuity_check: T1 = T2, bound degenerate")
    p1, p2 = parts(T1), parts(T2)
    lhs = max(
        opnorm(p1.positive_part - p2.positive_part),
        opnorm(p1.negative_part - p2.negative_part),
    )
    total = opnorm(T1) + opnorm(T2)
    rhs = gap / math.pi * ((math.pi + 4) / 2 + math.log(total / gap))
    return lhs, rhs


def araki_check(T1: np.ndarray, T2: np.ndarray) -> tuple[float, float]:
    """Hilbert-Schmidt contraction of the absolute-value map.

    Returns (|| |T1| - |T2| ||_2, ||T1 - T2||_2); the first never exceeds
    the second.
    """
    T1 = hermitian_part(np.asarray(T1, dtype=complex))
    T2 = hermitian_part(np.asarray(T2, dtype=complex))
    if T1.shape != T2.shape:
        raise ValueError(f"araki_check: dimension mismatch {T1.shape} vs {T2.shape}")
    a1 = parts(T1).absolute_value
    a2 = parts(T2).absolute_value
    return schatten_norm(a1 - a2, 2), schatten_norm(T1 - T2, 2)


def write_eigencurves_csv(path_or_file, grid: np.ndarray, curves: np.ndarray) -> None:
    """CSV with header gamma,lambda_1,...,lambda_n and 17 significant digits."""
    n = curves.shape[0]
    header = ["gamma"] + [f"lambda_{k + 1}" for k in range(n)]
    rows = ([float(g)] + [float(curves[k, i]) for k in range(n)] for i, g in enumerate(grid))
    write_csv(path_or_file, header, rows)
