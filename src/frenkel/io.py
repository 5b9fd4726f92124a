"""File formats: JSON matrices and pairs, CSV tables.

Matrix files are JSON objects {"n": int, "re": n x n, "im": n x n}; the
writer emits 17 significant digits (exact binary64 round-trip).  The matrix
reader symmetrizes and reports the Hermiticity defect of what was stored;
the pair reader rejects a defect above HERMITICITY_RTOL * max |entry|.
"""

from __future__ import annotations

import json
import os
from typing import Sequence, TextIO, Union

import numpy as np

from .linalg import as_hermitian, hermitian_part, hermiticity_defect

PathOrFile = Union[str, os.PathLike, TextIO]


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _rows(M: np.ndarray) -> str:
    return "[" + ",".join("[" + ",".join(_fmt(v) for v in row) + "]" for row in M) + "]"


def matrix_json(M: np.ndarray) -> str:
    """Serialize a complex matrix to the package JSON matrix format."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    return '{"n":%d,"re":%s,"im":%s}' % (n, _rows(M.real), _rows(M.imag))


def _open_write(path_or_file, mode="w"):
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


def write_matrix(path_or_file: PathOrFile, M: np.ndarray) -> None:
    fh, owned = _open_write(path_or_file)
    try:
        fh.write(matrix_json(M))
        fh.write("\n")
    finally:
        if owned:
            fh.close()


def _stored_matrix(obj: dict) -> np.ndarray:
    n = int(obj["n"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix file: shape mismatch, n={n}, re {re.shape}, im {im.shape}")
    return re + 1j * im


def matrix_from_dict(obj: dict) -> tuple[np.ndarray, float]:
    """Decode {"n","re","im"}; returns the symmetrized matrix and its stored defect."""
    M = _stored_matrix(obj)
    return hermitian_part(M), hermiticity_defect(M)


def read_matrix(path_or_file: PathOrFile) -> tuple[np.ndarray, float]:
    """Read a matrix file; returns (Hermitian matrix, Hermiticity defect)."""
    if hasattr(path_or_file, "read"):
        obj = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            obj = json.load(fh)
    return matrix_from_dict(obj)


def pair_json(A: np.ndarray, B: np.ndarray, seed=None) -> str:
    head = '{"schema":1'
    if seed is not None:
        head += ',"seed":%d' % int(seed)
    return head + ',"A":%s,"B":%s}' % (matrix_json(A), matrix_json(B))


def write_pair(path_or_file: PathOrFile, A: np.ndarray, B: np.ndarray, seed=None) -> None:
    fh, owned = _open_write(path_or_file)
    try:
        fh.write(pair_json(A, B, seed=seed))
        fh.write("\n")
    finally:
        if owned:
            fh.close()


def read_pair(path_or_file: PathOrFile) -> tuple[np.ndarray, np.ndarray]:
    """Read a pair file and symmetrize both matrices.

    Raises ValueError naming the matrix when one is malformed, non-finite,
    or stored with a Hermiticity defect above HERMITICITY_RTOL * max |entry|.
    """
    if hasattr(path_or_file, "read"):
        obj = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            obj = json.load(fh)
    pair = []
    for name in ("A", "B"):
        try:
            pair.append(as_hermitian(_stored_matrix(obj[name])))
        except ValueError as exc:
            raise ValueError(f"pair file: matrix {name}: {exc}") from exc
    A, B = pair
    return A, B


def write_csv(path_or_file: PathOrFile, header: Sequence[str], rows) -> None:
    """CSV with 17-significant-digit floats; rows may mix ints and floats."""
    fh, owned = _open_write(path_or_file)
    try:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, (int, np.integer)):
                    cells.append(str(int(v)))
                else:
                    cells.append(format(float(v), ".17g"))
            fh.write(",".join(cells) + "\n")
    finally:
        if owned:
            fh.close()


def json_ready(value):
    """Recursively convert report values to JSON-encodable ones.

    Non-finite floats become the strings "inf"/"-inf"/"nan"; ndarrays become
    nested lists.
    """
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": json_ready(value.real.tolist()), "im": json_ready(value.imag.tolist())}
        return json_ready(value.tolist())
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
