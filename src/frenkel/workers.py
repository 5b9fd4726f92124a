"""The FRENKEL_THREADS setting and the executor every frenkel worker thread comes from.

The verify suite runs its shared routes and items on the executor, and the
quadrature driver fans its initial panels out over the executor its caller
runs on, so they together never use more threads than the executor has.
Executors are created on first use, one per thread count, and their threads
start as work is submitted; importing this module starts none.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Default thread count when FRENKEL_THREADS is unset: min(_DEFAULT_CAP, nproc).
_DEFAULT_CAP = 8

_lock = threading.Lock()
_executors: dict[int, ThreadPoolExecutor] = {}
_local = threading.local()


def thread_count() -> int:
    """The effective FRENKEL_THREADS: an integer >= 1, default min(8, nproc).

    Raises ValueError for a value that is not an integer or is below 1.
    """
    raw = os.environ.get("FRENKEL_THREADS", "")
    if not raw.strip():
        return min(_DEFAULT_CAP, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"FRENKEL_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"FRENKEL_THREADS must be at least 1, got {raw!r}")
    return n


def _enter(n: int) -> None:
    _local.size = n


def executor(n: int) -> ThreadPoolExecutor:
    """The process-wide executor with n worker threads.

    Keyed by n, because FRENKEL_THREADS may change between calls.
    """
    with _lock:
        pool = _executors.get(n)
        if pool is None:
            pool = _executors[n] = ThreadPoolExecutor(
                max_workers=n, thread_name_prefix=f"frenkel-{n}", initializer=_enter, initargs=(n,)
            )
        return pool


def current_size() -> int:
    """Thread count of the executor the calling thread works for, else thread_count()."""
    return getattr(_local, "size", None) or thread_count()
