"""The operand gate: every public entry point admits its matrices as
read_pair does (linalg.as_hermitian, linalg.as_hermitian_pair).  An operand
that is not a finite square Hermitian matrix, or two operands of different
shapes, raise ValueError; none is silently replaced by its Hermitian part.
"""

import io

import numpy as np
import pytest

from frenkel import divergence, frechet, linalg, pencil, resolvent, schatten
from frenkel import io as fio

TOL = 1e-8

# name -> the entry point, called on one operand T or on two operands (A, B)
# in its own argument order; the other arguments are fixed and valid.
ONE_OPERAND = {
    "log_resolvent": lambda T: resolvent.log_resolvent(T, TOL),
    "abs_resolvent": lambda T: resolvent.abs_resolvent(T, TOL),
    "truncation_series": lambda T: schatten.truncation_series(T, 2.0),
}
TWO_OPERANDS = {
    "prepare_pair": divergence.prepare_pair,
    "o_gamma": lambda A, B: divergence.o_gamma(A, B, 1.5),
    "psd_order": lambda A, B: linalg.psd_order(A, B, 1.5),
    "dlog": frechet.dlog,
    "dlog_fd_oracle": frechet.dlog_fd_oracle,
    "trace_pairing_check": frechet.trace_pairing_check,
    "eigencurves": lambda A, B: pencil.eigencurves(A, B, np.linspace(0.0, 4.0, 9)),
    "find_crossings": lambda A, B: pencil.find_crossings(A, B, (0.0, 10.0)),
    "kato_continuity_check": pencil.kato_continuity_check,
    "araki_check": pencil.araki_check,
    "dlog_resolvent": lambda A, B: resolvent.dlog_resolvent(A, B, TOL),
    "bdlog_product": lambda A, B: resolvent.bdlog_product(A, B, TOL),
    "alogdiff_integral": lambda A, B: resolvent.alogdiff_integral(A, B, TOL),
    "write_pair": lambda A, B: fio.write_pair(io.StringIO(), A, B),
}
GATED_ENTRY_POINTS = {**ONE_OPERAND, **TWO_OPERANDS}

# Two positive definite Hermitian operands, valid for every entry point.
P = np.array([[3.0, 0.5 - 0.2j, 0.0], [0.5 + 0.2j, 2.0, 0.1], [0.0, 0.1, 1.0]])
Q = np.array([[1.5, 0.0, 0.3j], [0.0, 1.0, 0.2], [-0.3j, 0.2, 0.8]])


def _defect(M):
    # Off Hermitian by 1e3 HERMITICITY_RTOL relative to the largest entry.
    M = M.copy()
    M[0, 1] += 1e3 * linalg.HERMITICITY_RTOL * np.abs(M).max()
    return M


def _nan(M):
    M = M.copy()
    M[0, 0] = np.nan
    return M


MALFORMED = {"defect": _defect, "nan": _nan, "1-D": lambda M: np.diag(M).copy()}


def _call(name, operands):
    return GATED_ENTRY_POINTS[name](*operands)


@pytest.mark.parametrize("name", list(GATED_ENTRY_POINTS))
def test_valid_operands_pass(name):
    # The malformed cases below differ from these in one operand only.  The
    # gate reads values, not memory layout: conj().T is the same operand in
    # Fortran order, and the result is the same.
    operands = [P] if name in ONE_OPERAND else [P, Q]
    want = _call(name, operands)
    got = _call(name, [M.conj().T for M in operands])
    assert repr(got) == repr(want)


CASES = [(name, case, k) for name in ONE_OPERAND for case in MALFORMED for k in (0,)]
CASES += [(name, case, k) for name in TWO_OPERANDS for case in MALFORMED for k in (0, 1)]
CASES += [(name, "1x1 and 3x3", k) for name in TWO_OPERANDS for k in (0, 1)]


@pytest.mark.parametrize("name, case, k", CASES, ids=lambda v: str(v))
def test_malformed_operand_is_rejected(name, case, k):
    # Operand k is malformed, or is the 1 x 1 one of a mismatched pair.
    operands = [P] if name in ONE_OPERAND else [P, Q]
    operands[k] = np.array([[2.0 + 0j]]) if case == "1x1 and 3x3" else MALFORMED[case](operands[k])
    with pytest.raises(ValueError):
        _call(name, operands)
