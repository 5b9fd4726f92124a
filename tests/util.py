"""Shared seeded generators for the test suite."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from frenkel import linalg


def rand_herm(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return linalg.hermitian_part(G) * scale


def rand_pd(rng: np.random.Generator, n: int, cond: float = 100.0, scale: float = 1.0) -> np.ndarray:
    """PD matrix with eigenvalues geometrically spread over [scale/cond, scale]."""
    U = linalg.random_unitary(n, rng)
    evs = np.logspace(0.0, -math.log10(cond), n) if n > 1 else np.ones(1)
    evs = evs * scale * rng.uniform(0.8, 1.25, n)
    return linalg.hermitian_part((U * evs) @ U.conj().T)


def rand_psd(rng: np.random.Generator, n: int, rank: int | None = None, scale: float = 1.0) -> np.ndarray:
    r = n if rank is None else rank
    G = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return linalg.hermitian_part(G @ G.conj().T) * (scale / max(r, 1))


def supported_singular_pair(rng: np.random.Generator, n: int, corank: int = 1):
    """PSD pair with B rank n - corank and range(A) inside range(B)."""
    U = linalg.random_unitary(n, rng)
    b = np.logspace(0.0, -1.5, n)
    b[n - corank :] = 0.0
    B = linalg.hermitian_part((U * b) @ U.conj().T)
    r = n - corank
    V = U[:, :r]
    G = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    M = linalg.hermitian_part(G @ G.conj().T) / r
    A = linalg.hermitian_part(V @ M @ V.conj().T)
    return A, B


def count_lapack_on(monkeypatch, *mats: np.ndarray) -> Counter:
    """Patch numpy's eigh and eigvalsh to count, under (name, k), each call
    handed the bytes of mats[k]."""
    calls = Counter()
    for name in ("eigh", "eigvalsh"):

        def lapack(M, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            M_arr = np.asarray(M)
            for k, T in enumerate(mats):
                if M_arr.shape == T.shape and M_arr.dtype == T.dtype and M_arr.tobytes() == T.tobytes():
                    calls[_name, k] += 1
            return _real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, lapack)
    return calls


def unsupported_pair(rng: np.random.Generator, n: int, corank: int = 1):
    """PSD pair with singular B and full-rank A: support containment fails."""
    U = linalg.random_unitary(n, rng)
    b = np.logspace(0.0, -1.0, n)
    b[n - corank :] = 0.0
    B = linalg.hermitian_part((U * b) @ U.conj().T)
    A = rand_pd(rng, n, cond=20.0)
    return A, B
