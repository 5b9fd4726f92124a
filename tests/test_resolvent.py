import math

import numpy as np
import pytest

from frenkel import frechet, linalg, resolvent
from frenkel.divergence import _block_chain, prepare_pair
from util import count_lapack_on, rand_herm, rand_pd, rand_psd, supported_singular_pair

TOL = 1e-8


class TestLogResolvent:
    def test_identity(self):
        assert linalg.opnorm(resolvent.log_resolvent(np.eye(3, dtype=complex), TOL)) <= 10 * TOL

    def test_scalar_e(self):
        got = resolvent.log_resolvent(np.array([[math.e + 0j]]), TOL)
        assert got[0, 0].real == pytest.approx(1.0, abs=10 * TOL)

    def test_agrees_with_spectral_log(self):
        rng = np.random.default_rng(161)
        for _ in range(20):
            B = rand_pd(rng, 4, cond=80.0, scale=float(rng.uniform(0.3, 3.0)))
            err = np.linalg.norm(resolvent.log_resolvent(B, TOL) - linalg.matrix_log(B), 2)
            assert err <= 10 * TOL

    def test_integrand_decayed_at_cut(self):
        rng = np.random.default_rng(162)
        B = rand_pd(rng, 3)
        c = max(linalg.opnorm(B), 1.0)
        x_cut = c * (1.0 - 1e-12) / 1e-12
        f = np.eye(3) / (1 + x_cut) - np.linalg.inv(B + x_cut * np.eye(3))
        assert np.linalg.norm(f, 2) <= TOL

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            resolvent.log_resolvent(np.diag([1.0, 0.0]).astype(complex), TOL)


class TestAbsResolvent:
    def test_sign_matrix(self):
        got = resolvent.abs_resolvent(np.diag([1.0, -1.0]).astype(complex), TOL)
        assert np.linalg.norm(got - np.eye(2), 2) <= 10 * TOL

    def test_zero(self):
        assert linalg.opnorm(resolvent.abs_resolvent(np.zeros((2, 2), dtype=complex), TOL)) == 0.0

    def test_agrees_with_spectral_parts(self):
        rng = np.random.default_rng(163)
        for _ in range(20):
            H = rand_herm(rng, 4)
            want = linalg.parts(H).absolute_value
            assert np.linalg.norm(resolvent.abs_resolvent(H, TOL) - want, 2) <= 10 * TOL


class TestDlogResolvent:
    def test_identity_pair(self):
        got = resolvent.dlog_resolvent(np.eye(2, dtype=complex), np.eye(2, dtype=complex), TOL)
        assert np.linalg.norm(got - np.eye(2), 2) <= 10 * TOL

    def test_commuting_diagonal(self):
        B = np.diag([1.0, 4.0]).astype(complex)
        A = np.diag([3.0, 2.0]).astype(complex)
        got = resolvent.dlog_resolvent(B, A, TOL)
        assert np.linalg.norm(got - np.diag([3.0, 0.5]), 2) <= 10 * TOL

    def test_agrees_with_divided_differences(self):
        rng = np.random.default_rng(165)
        for _ in range(20):
            B = rand_pd(rng, 4, cond=50.0)
            A = rand_herm(rng, 4)
            got = resolvent.dlog_resolvent(B, A, TOL)
            assert np.linalg.norm(got - frechet.dlog(B, A), 2) <= 10 * TOL


class TestDominationConstants:
    # resolvent._domination takes a validated PD B and whether A is invertible.
    def test_minimality(self):
        rng = np.random.default_rng(166)
        for _ in range(20):
            A = rand_herm(rng, 4)
            B, _ = resolvent._check_pd(rand_pd(rng, 4), "B")
            c = resolvent._domination(A, B, a_invertible=False)
            scale = linalg.opnorm(A) ** 2 + linalg.opnorm(B) ** 2
            w = np.linalg.eigvalsh(c.alpha**2 * (B @ B) - A @ A)
            assert w.min() >= -1e-9 * scale
            w_under = np.linalg.eigvalsh((c.alpha * (1 - 1e-6)) ** 2 * (B @ B) - A @ A)
            assert w_under.min() < 0

    def test_beta_constants(self):
        rng = np.random.default_rng(167)
        A = rand_pd(rng, 4)
        B, _ = resolvent._check_pd(rand_pd(rng, 4), "B")
        c = resolvent._domination(A, B, a_invertible=True)
        scale = linalg.opnorm(A) ** 2 + linalg.opnorm(B) ** 2
        assert np.linalg.eigvalsh(c.beta_a**2 * (A @ A) - B @ B).min() >= -1e-9 * scale
        D = A - B
        assert np.linalg.eigvalsh(c.beta_b**2 * (A @ A) - D @ D).min() >= -1e-9 * scale
        # alpha beta_a >= 1 automatically
        assert c.alpha * c.beta_a >= 1 - 1e-12

    def test_singular_direction_has_no_beta(self):
        A = np.diag([1.0, 0.0]).astype(complex)
        B, _ = resolvent._check_pd(np.eye(2, dtype=complex), "B")
        c = resolvent._domination(A, B, a_invertible=False)
        assert c.alpha == pytest.approx(1.0, rel=1e-12)
        assert c.beta_a is None and c.beta_b is None


class TestBdlogProduct:
    def test_equal_pair_gives_b(self):
        rng = np.random.default_rng(168)
        B = rand_pd(rng, 3)
        pr = resolvent.bdlog_product(B, B, TOL)
        assert np.linalg.norm(pr.value - B, 2) <= 10 * TOL

    def test_commuting_diagonal(self):
        B = np.diag([1.0, 4.0]).astype(complex)
        A = np.diag([3.0, 2.0]).astype(complex)
        pr = resolvent.bdlog_product(A, B, TOL)
        assert np.linalg.norm(pr.value - np.diag([3.0, 2.0]), 2) <= 10 * TOL

    def test_agrees_and_bounded(self):
        rng = np.random.default_rng(169)
        for _ in range(20):
            A = rand_herm(rng, 4)
            B = rand_pd(rng, 4)
            pr = resolvent.bdlog_product(A, B, TOL)
            want = B @ frechet.dlog(B, A)
            assert np.linalg.norm(pr.value - want, 2) <= 10 * TOL
            assert pr.value_norm <= pr.bound * (1 + 1e-6) + TOL

    def test_kernel_compatible_singular_b(self):
        rng = np.random.default_rng(170)
        U = linalg.random_unitary(3, rng)
        b = np.array([2.0, 1.0, 0.0])
        B = linalg.hermitian_part((U * b) @ U.conj().T)
        V = U[:, :2]
        M = rand_herm(rng, 2)
        A = linalg.hermitian_part(V @ M @ V.conj().T)
        pr = resolvent.bdlog_product(A, B, TOL)
        assert pr.value_norm <= pr.bound * (1 + 1e-6) + TOL
        B1 = V.conj().T @ B @ V
        want = V @ (B1 @ frechet.dlog(B1, M)) @ V.conj().T
        assert np.linalg.norm(pr.value - want, 2) <= 10 * TOL

    def test_kernel_incompatible_rejected(self):
        B = np.diag([1.0, 0.0]).astype(complex)
        A = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            resolvent.bdlog_product(A, B, TOL)


class TestALogDiff:
    def test_equal_pair_zero(self):
        rng = np.random.default_rng(171)
        A = rand_pd(rng, 3)
        li = resolvent.alogdiff_integral(A, A, TOL)
        assert li.value_norm <= 10 * TOL
        # The equal-norm branch of the log factor, 1/||A||, with alpha =
        # beta_a = 1 and beta_b = 0.
        assert li.bound_a == pytest.approx(2 * linalg.opnorm(A), rel=1e-9)
        assert li.bound_b == 0.0
        assert li.within_a and li.within_b

    def test_commuting_diagonal(self):
        A = np.diag([2.0, 3.0]).astype(complex)
        B = np.diag([1.0, 1.0]).astype(complex)
        li = resolvent.alogdiff_integral(A, B, TOL)
        want = np.diag([2 * math.log(2), 3 * math.log(3)])
        assert np.linalg.norm(li.value - want, 2) <= 10 * TOL

    def test_agrees_with_spectral_chain(self):
        rng = np.random.default_rng(172)
        for _ in range(20):
            A = rand_pd(rng, 4, cond=20.0, scale=float(rng.uniform(0.5, 2.0)))
            B = rand_pd(rng, 4, cond=20.0, scale=float(rng.uniform(0.5, 2.0)))
            li = resolvent.alogdiff_integral(A, B, TOL)
            want = _block_chain(prepare_pair(A, B))
            assert np.linalg.norm(li.value - want, 2) <= 10 * TOL
            assert li.within_a and li.within_b


class TestValidationSpectrum:
    # Each oracle reads an operand's norm off the eigvalsh that validates it.
    def test_log_resolvent(self, monkeypatch):
        B = rand_pd(np.random.default_rng(175), 5)
        lapack = count_lapack_on(monkeypatch, B)
        resolvent.log_resolvent(B, TOL)
        assert dict(lapack) == {("eigvalsh", 0): 1}

    def test_bdlog_product(self, monkeypatch):
        # A full-rank B is checked PSD on the eigh that restricts it; the
        # eigvalsh of B1 = B gives its definiteness and the half-line scale.
        rng = np.random.default_rng(177)
        A, B = rand_herm(rng, 5), rand_pd(rng, 5)
        lapack = count_lapack_on(monkeypatch, B)
        resolvent.bdlog_product(A, B, TOL)
        assert dict(lapack) == {("eigh", 0): 1, ("eigvalsh", 0): 1}

    def test_bdlog_product_singular_b(self, monkeypatch):
        A, B = supported_singular_pair(np.random.default_rng(178), 5, corank=2)
        lapack = count_lapack_on(monkeypatch, B)
        resolvent.bdlog_product(A, B, TOL)
        assert dict(lapack) == {("eigh", 0): 1}

    def test_bdlog_product_rejects_b_on_its_eigh(self):
        rng = np.random.default_rng(179)
        A, N = rand_herm(rng, 3), -rand_pd(rng, 3)
        w = np.linalg.eigh(N)[0]
        with pytest.raises(ValueError) as exc:
            resolvent.bdlog_product(A, N, TOL)
        assert str(exc.value) == f"bdlog_product: B is not positive semidefinite (min eigenvalue {w.min():.6e})"

    def test_alogdiff_integral(self, monkeypatch):
        rng = np.random.default_rng(176)
        A, B = rand_pd(rng, 5), rand_pd(rng, 5)
        lapack = count_lapack_on(monkeypatch, A, B)
        resolvent.alogdiff_integral(A, B, TOL)
        assert dict(lapack) == {("eigvalsh", 0): 1, ("eigvalsh", 1): 1}


class TestSweep:
    def test_all_oracles_across_sizes(self):
        rng = np.random.default_rng(174)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(8):
                B = rand_pd(rng, n, cond=30.0)
                A = rand_psd(rng, n) + 0.05 * np.eye(n)
                assert np.linalg.norm(resolvent.log_resolvent(B, TOL) - linalg.matrix_log(B), 2) <= 10 * TOL
                assert np.linalg.norm(resolvent.dlog_resolvent(B, A, TOL) - frechet.dlog(B, A), 2) <= 10 * TOL
                H = A - B
                assert np.linalg.norm(resolvent.abs_resolvent(H, TOL) - linalg.parts(H).absolute_value, 2) <= 10 * TOL
                pr = resolvent.bdlog_product(A, B, TOL)
                assert pr.value_norm <= pr.bound * (1 + 1e-6) + TOL
                assert np.linalg.norm(pr.value - B @ frechet.dlog(B, A), 2) <= 10 * TOL
