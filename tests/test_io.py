import io
import json
import math

import numpy as np
import pytest

from frenkel import io as fio
from util import rand_herm


class TestMatrixFormat:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(201)
        M = rand_herm(rng, 5)
        buf = io.StringIO()
        fio.write_matrix(buf, M)
        buf.seek(0)
        back, defect = fio.read_matrix(buf)
        assert np.array_equal(back, M)
        assert defect <= 1e-16 * np.abs(M).max()

    def test_seventeen_significant_digits(self):
        M = np.array([[1.0 / 3.0]], dtype=complex)
        text = fio.matrix_json(M)
        assert format(1.0 / 3.0, ".17g") in text

    def test_reader_symmetrizes_and_reports_defect(self):
        obj = {"n": 2, "re": [[1.0, 2.0], [2.5, 3.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        M, defect = fio.matrix_from_dict(obj)
        assert defect == 0.25
        assert np.allclose(M, [[1.0, 2.25], [2.25, 3.0]])

    def test_shape_mismatch_rejected(self):
        obj = {"n": 2, "re": [[1.0]], "im": [[0.0]]}
        try:
            fio.matrix_from_dict(obj)
        except ValueError as exc:
            assert "shape" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_pair_roundtrip(self):
        rng = np.random.default_rng(202)
        A, B = rand_herm(rng, 3), rand_herm(rng, 3)
        buf = io.StringIO()
        fio.write_pair(buf, A, B, seed=7)
        buf.seek(0)
        obj = json.load(buf)
        assert obj["schema"] == 1 and obj["seed"] == 7
        buf.seek(0)
        A2, B2 = fio.read_pair(buf)
        assert np.array_equal(A2, A) and np.array_equal(B2, B)

    def test_pair_reader_rejects_hermiticity_defect(self):
        rng = np.random.default_rng(203)
        A, B = rand_herm(rng, 3), rand_herm(rng, 3)
        obj = json.loads(fio.pair_json(A, B))
        scale = np.abs(B).max()
        obj["B"]["re"][0][1] += 1e-3 * scale
        with pytest.raises(ValueError, match="matrix B: matrix is not Hermitian"):
            fio.read_pair(io.StringIO(json.dumps(obj)))
        # A defect within HERMITICITY_RTOL is symmetrized away.
        obj["B"]["re"][0][1] = B.real[0, 1] + 1e-14 * scale
        A2, B2 = fio.read_pair(io.StringIO(json.dumps(obj)))
        assert np.array_equal(A2, A)
        assert np.abs(B2 - B).max() <= 1e-14 * scale


class TestCsv:
    def test_precision_and_ints(self):
        buf = io.StringIO()
        fio.write_csv(buf, ["n", "x"], [[1, 1.0 / 7.0], [2, 2.0]])
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,x"
        assert lines[1] == "1," + format(1.0 / 7.0, ".17g")
        assert lines[2].startswith("2,")


class TestJsonReady:
    def test_sentinels(self):
        out = fio.json_ready({"a": math.inf, "b": -math.inf, "c": math.nan, "d": 1.5})
        assert out == {"a": "inf", "b": "-inf", "c": "nan", "d": 1.5}

    def test_arrays(self):
        out = fio.json_ready(np.array([1.0 + 2.0j]))
        assert out == {"re": [1.0], "im": [2.0]}
        assert fio.json_ready(np.array([3.0]))[0] == 3.0
