import math

import numpy as np
import pytest

from frenkel import frechet, linalg
from util import rand_herm, rand_pd, rand_psd


class TestLoewner:
    def test_coincident_pair(self):
        L = frechet.loewner_log(np.array([1.0, 1.0]))
        assert np.allclose(L, np.ones((2, 2)))

    def test_scalar_quotient(self):
        L = frechet.loewner_log(np.array([1.0, math.e]))
        assert L[0, 1] == pytest.approx(1.0 / (math.e - 1.0), abs=1e-15)
        assert L[1, 0] == L[0, 1]

    def test_near_coincident_midpoint(self):
        L = frechet.loewner_log(np.array([2.0, 2.0 + 1e-12]))
        assert L[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_invariants(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            b = np.sort(rng.uniform(0.05, 3.0, 5))[::-1]
            L = frechet.loewner_log(b)
            assert np.allclose(L, L.T)
            assert np.allclose(np.diag(L), 1.0 / b)
            assert (L > 0).all()
            hi = 1.0 / np.minimum.outer(b, b)
            lo = 1.0 / np.maximum.outer(b, b)
            assert (L <= hi * (1 + 1e-12)).all() and (L >= lo * (1 - 1e-12)).all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            frechet.loewner_log(np.array([1.0, 0.0]))


class TestDlog:
    def test_derivative_at_b_in_direction_b(self):
        rng = np.random.default_rng(62)
        B = rand_pd(rng, 5)
        assert np.linalg.norm(frechet.dlog(B, B) - np.eye(5), 2) <= 1e-10

    def test_commuting_diagonal(self):
        B = np.diag([1.0, 2.0]).astype(complex)
        A = np.diag([3.0, 8.0]).astype(complex)
        assert np.allclose(frechet.dlog(B, A), np.diag([3.0, 4.0]))

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(63)
        # 100 seeded pairs; moderate conditioning keeps the central
        # difference within its 1e-7 budget.
        for k in range(100):
            n = 2 + k % 5
            B = rand_pd(rng, n, cond=10.0)
            A = rand_herm(rng, n)
            got = frechet.dlog(B, A)
            fd = frechet.dlog_fd_oracle(B, A)
            assert np.linalg.norm(got - fd, 2) <= 1e-7

    def test_linearity(self):
        rng = np.random.default_rng(64)
        B = rand_pd(rng, 4)
        A1, A2 = rand_herm(rng, 4), rand_herm(rng, 4)
        alpha = 1.7
        lhs = frechet.dlog(B, alpha * A1 + A2)
        rhs = alpha * frechet.dlog(B, A1) + frechet.dlog(B, A2)
        scale = linalg.opnorm(A1) + linalg.opnorm(A2)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * scale

    def test_positivity_preserving(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            B = rand_pd(rng, 4)
            A = rand_psd(rng, 4)
            w = np.linalg.eigvalsh(frechet.dlog(B, A))
            assert w.min() >= -1e-10 * max(linalg.opnorm(A), 1.0)

    def test_rejects_indefinite_base(self):
        with pytest.raises(ValueError):
            frechet.dlog(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex))


class TestFdOracle:
    def test_zero_direction(self):
        rng = np.random.default_rng(66)
        B = rand_pd(rng, 3)
        assert np.allclose(frechet.dlog_fd_oracle(B, np.zeros((3, 3), dtype=complex)), 0.0)

    def test_scalar(self):
        # The computed step is 1e-4 * 2 / 1 = 2e-4.
        got = frechet.dlog_fd_oracle(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]))
        assert got[0, 0].real == pytest.approx(0.5, abs=1e-8)

    def test_step_too_large(self):
        # B clears the zero band of its largest eigenvalue, 1e-12, but
        # B - tA at the computed step t = 1e-4 * 1.00005e-12 has its smallest
        # eigenvalue 0.99995e-12 inside it.
        B = np.diag([1.0, 1.00005e-12]).astype(complex)
        A = np.eye(2, dtype=complex)
        assert linalg.positive_definite_spectrum(np.linalg.eigvalsh(B))
        with pytest.raises(ValueError, match="step 1.00005e-16 too large"):
            frechet.dlog_fd_oracle(B, A)


class TestTracePairing:
    def test_identity_pair(self):
        n = 3
        r1, r2 = frechet.trace_pairing_check(np.eye(n, dtype=complex), np.eye(n, dtype=complex))
        assert r1 <= 1e-14 and r2 <= 1e-14

    def test_seeded_pairs(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            B = rand_pd(rng, 5)
            A = rand_psd(rng, 5)
            r1, r2 = frechet.trace_pairing_check(B, A)
            assert r1 <= 1e-9 * max(1.0, abs(np.trace(A).real))
            assert r2 <= 1e-9

    def test_commuting_diagonal(self):
        B = np.diag([1.0, 3.0]).astype(complex)
        A = np.diag([2.0, 5.0]).astype(complex)
        r1, r2 = frechet.trace_pairing_check(B, A)
        assert r1 <= 1e-12 and r2 <= 1e-12
