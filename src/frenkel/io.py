"""File formats: JSON pair files, CSV tables.

A pair file holds two matrices, each a JSON object {"n": int, "re": n x n,
"im": n x n}; the writer emits 17 significant digits (exact binary64
round-trip).  Reader and writer admit the pair alike: both symmetrize the
matrices and reject a Hermiticity defect above HERMITICITY_RTOL * max
|entry|.  Every JSON input of the package is read by load_object, so
malformed input is a ValueError naming the document and the field.
"""

from __future__ import annotations

import json
import os
from typing import Sequence, TextIO, Union

import numpy as np

from .linalg import as_hermitian, as_hermitian_pair

PathOrFile = Union[str, os.PathLike, TextIO]


def _rows(M: np.ndarray) -> str:
    return "[" + ",".join("[" + ",".join(format(float(v), ".17g") for v in row) + "]" for row in M) + "]"


def matrix_json(M: np.ndarray) -> str:
    """Serialize a complex matrix to the JSON matrix object of a pair file."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    return '{"n":%d,"re":%s,"im":%s}' % (n, _rows(M.real), _rows(M.imag))


def _open_write(path_or_file, mode="w"):
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


def load_object(path_or_file: PathOrFile, document: str) -> dict:
    """Parse a JSON document whose top level must be an object; document
    names it in the ValueError raised otherwise."""
    try:
        if hasattr(path_or_file, "read"):
            obj = json.load(path_or_file)
        else:
            with open(path_or_file) as fh:
                obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{document}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{document}: the top level must be a JSON object")
    return obj


def field(obj: dict, key: str):
    """obj[key], or a ValueError naming the missing field."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    return obj[key]


def integer_field(obj: dict, key: str) -> int:
    """field(obj, key), which must be a JSON integer, not a float or a boolean."""
    value = field(obj, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A JSON number: an int or a float, and not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number_field(obj: dict, key: str) -> float:
    """field(obj, key), which must be a JSON number, not a string or a boolean."""
    value = field(obj, key)
    if not _is_number(value):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _number_array(obj: dict, key: str) -> np.ndarray:
    """field(obj, key) as a float array, where every entry of the nested
    lists must be a JSON number."""
    value = field(obj, key)
    stack = [value]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(x)
        elif not _is_number(x):
            raise ValueError(f"{key!r} must be an n x n array of numbers, got the entry {x!r}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{key!r} must be an n x n array of numbers: {exc}") from exc


def _stored_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError('missing, or not a JSON object {"n", "re", "im"}')
    n = integer_field(obj, "n")
    re, im = _number_array(obj, "re"), _number_array(obj, "im")
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"shape mismatch, n={n}, re {re.shape}, im {im.shape}")
    return re + 1j * im


def pair_json(A: np.ndarray, B: np.ndarray, seed=None) -> str:
    """The pair file of A and B, admitted as read_pair admits them."""
    A, B = as_hermitian_pair(A, B)
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
    obj = load_object(path_or_file, "pair file")
    pair = []
    for name in ("A", "B"):
        try:
            pair.append(as_hermitian(_stored_matrix(obj.get(name))))
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
