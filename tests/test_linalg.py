import math

import numpy as np
import pytest

from frenkel import cli, divergence, frechet, linalg, quadrature, resolvent, schatten
from util import rand_herm, rand_pd

H0 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)


def charpoly_eigs_bisection(T, grid_points=4001, iters=200):
    """Independent eigenvalue oracle for small matrices: bisection on the
    characteristic polynomial evaluated as det(x I - T)."""
    n = T.shape[0]
    radius = float(np.abs(T).sum(axis=1).max()) + 1.0
    xs = np.linspace(-radius, radius, grid_points)
    vals = np.array([np.linalg.det(x * np.eye(n) - T).real for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        f0, f1 = vals[i], vals[i + 1]
        if f0 == 0.0:
            roots.append(xs[i])
            continue
        if (f0 > 0) != (f1 > 0):
            lo, hi, flo = xs[i], xs[i + 1], f0
            for _ in range(iters):
                mid = 0.5 * (lo + hi)
                fm = np.linalg.det(mid * np.eye(n) - T).real
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return np.sort(np.asarray(roots))[::-1]


class TestEig:
    def test_diagonal(self):
        dec = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(dec.eigenvalues, [3, 2, 1])
        # each column is a standard basis vector up to phase
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [0, 2, 1]])

    def test_pencil_example_at_zero(self):
        dec = linalg.eig_hermitian(H0)
        assert np.allclose(dec.eigenvalues, [1.0, 0.0, -1.0], atol=1e-14)

    def test_reconstruction_seeded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            T = rand_herm(rng, 6)
            dec = linalg.eig_hermitian(T)
            assert np.linalg.norm(linalg.rebuild(dec.eigenvectors, dec.eigenvalues) - T) <= 1e-11 * np.linalg.norm(T)
            assert np.all(np.diff(dec.eigenvalues) <= 0)
            U = dec.eigenvectors
            assert np.linalg.norm(U @ U.conj().T - np.eye(6)) <= 1e-12 * 6

    def test_against_charpoly_bisection(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            for _ in range(10):
                T = rand_herm(rng, n)
                got = linalg.eig_hermitian(T).eigenvalues
                want = charpoly_eigs_bisection(T)
                assert want.size == n
                assert np.abs(got - want).max() <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        T = rand_herm(rng, 5)
        d1 = linalg.eig_hermitian(T)
        d2 = linalg.eig_hermitian(T.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_nan_rejected(self):
        T = np.eye(3, dtype=complex)
        T[0, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.eig_hermitian(T)


class TestParts:
    def test_diagonal(self):
        p = linalg.parts(np.diag([1.0, -2.0]).astype(complex))
        assert np.allclose(p.positive_part, np.diag([1.0, 0.0]))
        assert np.allclose(p.negative_part, np.diag([0.0, 2.0]))

    def test_pencil_example_positive_part(self):
        p = linalg.parts(H0)
        want = 0.5 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        assert np.linalg.norm(p.positive_part - want) <= 1e-10

    def test_seeded_sweep(self):
        rng = np.random.default_rng(23)
        for k in range(1000):
            n = 1 + k % 8
            T = rand_herm(rng, n)
            scale = max(linalg.opnorm(T), 1e-300)
            p = linalg.parts(T)
            assert np.linalg.norm(p.positive_part - p.negative_part - T, 2) <= 1e-11 * scale
            assert np.linalg.norm(p.positive_part @ p.negative_part, 2) <= 1e-11 * scale**2
            dec = linalg.eig_hermitian(T)
            w, U = dec.eigenvalues, dec.eigenvectors
            pos, neg = linalg.positive_projector_of(w, U), linalg.positive_projector_of(-w, U)
            for proj in (pos, neg):
                assert np.linalg.norm(proj @ proj - proj, 2) <= 1e-11
            assert np.linalg.norm(pos @ neg, 2) <= 1e-11
            for part in (p.positive_part, p.negative_part):
                assert np.linalg.eigvalsh(part).min() >= -1e-11 * scale
            assert abs(linalg.opnorm(p.positive_part) - max(w[0], 0.0)) <= 1e-12 * scale

    def test_plus_norm_is_clipped_sup(self):
        rng = np.random.default_rng(24)
        T = rand_herm(rng, 5)
        p = linalg.parts(T)
        norm_plus = linalg.opnorm(p.positive_part)
        top = linalg.eig_hermitian(T).eigenvectors[:, 0]
        samples = [top] + [x / np.linalg.norm(x) for x in (rng.standard_normal((5,)) + 1j * rng.standard_normal((5,)) for _ in range(200))]
        quad = [max(0.0, float((x.conj() @ T @ x).real)) for x in samples]
        assert max(quad) <= norm_plus + 1e-12
        assert abs(max(quad) - norm_plus) <= 1e-12


class TestMatrixLog:
    def test_identity(self):
        assert np.allclose(linalg.matrix_log(np.eye(3, dtype=complex)), 0.0)

    def test_diagonal(self):
        got = linalg.matrix_log(np.diag([math.e, math.e**2]).astype(complex))
        assert np.allclose(got, np.diag([1.0, 2.0]))

    def test_non_pd_reports_min_eigenvalue(self):
        with pytest.raises(ValueError, match="min eigenvalue"):
            linalg.matrix_log(np.diag([1.0, -0.5]).astype(complex))


class TestDefiniteness:
    def test_zero_band_edge(self):
        assert linalg.positive_definite_spectrum(np.array([2e-12, 1.0]))
        assert not linalg.positive_definite_spectrum(np.array([1e-12, 1.0]))
        assert not linalg.positive_definite_spectrum(np.array([-1e-3, 1.0]))
        # Every clipping kernel drops an eigenvalue inside the zero band of
        # diag(1, edge), 1e-12, and keeps one above it; each entry reads the
        # kernel's value in the edge direction.  schatten._clipped_eigs, on
        # budget_e_p's path, clips at > 0 instead and keeps both.
        band_kernels = {
            "positive_part": lambda M: linalg.positive_part(M)[1, 1].real,
            "positive_part_stack": lambda M: linalg.positive_part_stack(M[None])[0, 1, 1].real,
            "parts.positive_part": lambda M: linalg.parts(M).positive_part[1, 1].real,
            "positive_projector_of": lambda M: M[1, 1].real * linalg.positive_projector_of(*np.linalg.eigh(M))[1, 1].real,
            "positive_eig_stack": lambda M: linalg.positive_eig_stack(M[None])[0, 0],
            "_positive_proj_stack": lambda M: M[1, 1].real * quadrature._positive_proj_stack(M[None])[0, 1, 1].real,
        }
        for edge, inside in ((2e-12, False), (5e-13, True)):
            M = np.diag([1.0, edge]).astype(complex)
            for name, kernel in band_kernels.items():
                assert kernel(M) == pytest.approx(0.0 if inside else edge, abs=1e-16), (name, edge)
            assert schatten._clipped_eigs(M[None])[0, 0] == edge

    def test_every_pd_check_agrees(self):
        def verify_gate(M):
            pair = divergence.prepare_pair(M, M)
            routes = cli._suite_routes(pair, 1e-8)
            item = dict(cli._suite_items(pair, 1e-8, lambda name: routes[name][0](*routes[name][1:])))["pairing_trace"]
            if item().get("skipped"):
                raise ValueError("item skipped: B not PD")

        checks = [
            linalg.matrix_log,
            lambda M: frechet.dlog(M, M),
            lambda M: frechet.dlog_fd_oracle(M, M),
            lambda M: divergence.relative_spectrum(M, M),
            lambda M: resolvent._check_pd(M, "B"),
            verify_gate,
        ]
        for edge, pd in ((2e-12, True), (5e-13, False)):
            M = np.diag([1.0, edge]).astype(complex)
            for check in checks:
                if pd:
                    check(M)
                else:
                    with pytest.raises(ValueError):
                        check(M)


def _hand_clip(M, f):
    """f(w, w above the zero band) of one matrix, rebuilt as U diag(.) U* by hand."""
    w, U = np.linalg.eigh(M)
    return linalg.hermitian_part((U * f(w, w > linalg.ZERO_BAND * np.abs(w).max())) @ U.conj().T)


class TestStackKernels:
    """A stack kernel gives each member of a stack the bits of its single-matrix form."""

    SINGLE = {
        "positive_part_stack": (linalg.positive_part_stack, linalg.positive_part),
        "_positive_proj_stack": (
            quadrature._positive_proj_stack,
            lambda M: _hand_clip(M, lambda w, keep: keep.astype(float)),
        ),
        "positive_eig_stack": (
            linalg.positive_eig_stack,
            lambda M: np.where(linalg.range_mask(np.linalg.eigvalsh(M)), np.linalg.eigvalsh(M), 0.0),
        ),
    }

    @pytest.mark.parametrize("name", SINGLE)
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_members_match_single_matrix_form(self, name, n):
        stack_kernel, single = self.SINGLE[name]
        rng = np.random.default_rng(170 + n)
        # Pencil-like stacks: indefinite members, one with an exact zero eigenvalue.
        mats = np.stack([rand_herm(rng, n) for _ in range(6)])
        U = linalg.random_unitary(n, rng)
        mats[0] = linalg.hermitian_part((U * (np.linspace(-1.0, 1.0, n) * (np.arange(n) != 0))) @ U.conj().T)
        out = stack_kernel(mats)
        for k in range(mats.shape[0]):
            assert np.array_equal(out[k], single(mats[k])), k

    def test_rebuild_is_the_hand_written_product(self):
        rng = np.random.default_rng(175)
        for n in (1, 3, 12, 40):
            M = rand_herm(rng, n)
            w, U = np.linalg.eigh(M)
            assert np.array_equal(linalg.rebuild(U, np.exp(w)), _hand_clip(M, lambda w, keep: np.exp(w)))


class TestSchattenNorm:
    def test_examples(self):
        T = np.diag([3.0, -4.0]).astype(complex)
        assert linalg.schatten_norm(T, 1) == pytest.approx(7.0)
        assert linalg.schatten_norm(T, math.inf) == pytest.approx(4.0)

    def test_p2_is_frobenius(self):
        rng = np.random.default_rng(32)
        T = rand_herm(rng, 4)
        fro = float(np.sqrt((np.abs(T) ** 2).sum()))
        assert abs(linalg.schatten_norm(T, 2) - fro) <= 1e-12 * max(fro, 1)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            T = rand_herm(rng, 5)
            grid = [1, 1.5, 2, 4, math.inf]
            vals = [linalg.schatten_norm(T, p) for p in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            linalg.schatten_norm(np.eye(2, dtype=complex), 0.5)


class TestPsdOrder:
    def test_reflexive(self):
        rng = np.random.default_rng(41)
        B = rand_pd(rng, 3)
        v = linalg.psd_order(B, B, 1.0)
        assert v.holds and abs(v.margin) <= 1e-12

    def test_boundary(self):
        v = linalg.psd_order(np.diag([2.0, 0.0]).astype(complex), np.eye(2, dtype=complex), 2.0)
        assert v.holds and abs(v.margin) <= 1e-12

    def test_failure_witness(self):
        A = np.diag([1.0, 1.0]).astype(complex)
        B = np.diag([1.0, 0.0]).astype(complex)
        for tau in (1.0, 5.0, 50.0):
            v = linalg.psd_order(A, B, tau)
            assert not v.holds
            assert abs(abs(v.witness[1]) - 1.0) <= 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            A = rand_psd_like(rng)
            B = rand_pd(rng, 4)
            tau = float(rng.uniform(0.5, 3.0))
            U = linalg.random_unitary(4, rng)
            v1 = linalg.psd_order(A, B, tau)
            v2 = linalg.psd_order(U @ A @ U.conj().T, U @ B @ U.conj().T, tau)
            assert v1.holds == v2.holds

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.psd_order(np.eye(2, dtype=complex), np.eye(3, dtype=complex), 1.0)


def rand_psd_like(rng):
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return linalg.hermitian_part(G @ G.conj().T) / 4


class TestSupportRelation:
    def test_pd_b_always_holds(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            A = rand_psd_like(rng)
            B = rand_pd(rng, 4)
            assert linalg.support_relation(A, B).holds

    def test_kernel_witness(self):
        A = np.diag([1.0, 1.0]).astype(complex)
        B = np.diag([1.0, 0.0]).astype(complex)
        v = linalg.support_relation(A, B)
        assert not v.holds
        x = v.witness
        assert abs((x.conj() @ B @ x).real) <= 1e-10 * linalg.opnorm(B)
        assert (x.conj() @ A @ x).real >= 1e-8 * linalg.opnorm(A)

    def test_shared_kernel_and_minimal_tau(self):
        from frenkel.divergence import domination_tau

        A = np.diag([1.0, 0.0]).astype(complex)
        B = np.diag([0.5, 0.0]).astype(complex)
        assert linalg.support_relation(A, B).holds
        assert domination_tau(A, B) == pytest.approx(2.0, abs=1e-12)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            linalg.support_relation(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex))


class TestHermiticity:
    def test_defect_and_symmetrization(self):
        M = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]], dtype=complex)
        assert linalg.hermiticity_defect(M) == pytest.approx(5e-14, rel=0.1)
        H = linalg.as_hermitian(M)
        assert np.linalg.norm(H - H.conj().T) == 0.0

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 2.0], [2.5, 3.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.as_hermitian(M)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.as_hermitian(np.ones((2, 3), dtype=complex))
