import io
import math

import numpy as np
import pytest

from frenkel import linalg, pencil
from frenkel.divergence import o_gamma, relative_spectrum
from util import rand_herm, rand_pd

# 3x3 pencil with branches sqrt(1+z^2), 0, -sqrt(1+z^2): A + z * Bz.
A_EX = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
B_EX = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)


class TestEigencurves:
    def test_closed_form_branches(self):
        grid = np.linspace(-2.0, 2.0, 101)
        curves = pencil.eigencurves(A_EX, -B_EX, grid)  # samples A + z B
        top = np.sqrt(1 + grid**2)
        assert np.abs(curves[0] - top).max() <= 1e-9
        assert np.abs(curves[1]).max() <= 1e-9
        assert np.abs(curves[2] + top).max() <= 1e-9

    def test_constant_when_b_zero(self):
        rng = np.random.default_rng(91)
        A = rand_herm(rng, 4)
        curves = pencil.eigencurves(A, np.zeros((4, 4), dtype=complex), np.linspace(0, 5, 7))
        assert np.abs(curves - curves[:, :1]).max() <= 1e-14

    def test_linear_diagonal(self):
        grid = np.linspace(-2, 2, 9)
        curves = pencil.eigencurves(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex), grid)
        want = np.sort(np.stack([1 - grid, -1 - grid]), axis=0)[::-1]
        assert np.abs(curves - want).max() <= 1e-12

    def test_weyl_continuity(self):
        rng = np.random.default_rng(92)
        A, B = rand_herm(rng, 5), rand_herm(rng, 5)
        grid = np.linspace(-1, 1, 201)
        curves = pencil.eigencurves(A, B, grid)
        step = grid[1] - grid[0]
        bound = step * linalg.opnorm(B) + 1e-10
        assert np.abs(np.diff(curves, axis=1)).max() <= bound

    def test_in_place_stack_keeps_bits(self):
        rng = np.random.default_rng(93)
        A, B = rand_herm(rng, 6), rand_herm(rng, 6)
        grid = np.linspace(-3, 3, 256)
        want = np.linalg.eigvalsh(A[None, :, :] - grid[:, None, None] * B[None, :, :])[:, ::-1].T
        assert pencil.eigencurves(A, B, grid).tobytes() == want.copy().tobytes()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            pencil.eigencurves(A_EX, B_EX, np.array([]))


class TestFindCrossings:
    def test_example_pencil_has_no_real_crossings(self):
        got = pencil.find_crossings(A_EX, -B_EX, (-10.0, 10.0))
        assert got.crossings.size == 0
        assert got.method == pencil.SIGN_SCAN

    def test_diagonal(self):
        got = pencil.find_crossings(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex), (-2.0, 2.0))
        assert got.method == pencil.GENERALIZED_EIG
        assert np.allclose(np.sort(got.crossings), [-1.0, 1.0])

    def test_methods_agree(self):
        rng = np.random.default_rng(93)
        for _ in range(10):
            A = rand_herm(rng, 5)
            B = rand_pd(rng, 5, cond=10.0)
            gen = pencil.find_crossings(A, B, (-4.0, 4.0), method=pencil.GENERALIZED_EIG)
            scan = pencil.find_crossings(A, B, (-4.0, 4.0), method=pencil.SIGN_SCAN)
            assert gen.crossings.size == scan.crossings.size
            if gen.crossings.size:
                assert np.abs(gen.crossings - scan.crossings).max() <= 1e-8

    def test_det_proxy_at_crossings(self):
        rng = np.random.default_rng(94)
        A = rand_herm(rng, 4)
        B = rand_pd(rng, 4)
        got = pencil.find_crossings(A, B, (-3.0, 3.0))
        scale = max(linalg.opnorm(A), 1.0)
        for g in got.crossings:
            evs = np.linalg.eigvalsh(A - g * B)
            assert np.abs(evs).min() <= 1e-8 * scale

    def test_crossings_are_rank_changes_of_clip(self):
        rng = np.random.default_rng(95)
        A = rand_herm(rng, 4)
        B = rand_pd(rng, 4)
        got = pencil.find_crossings(A, B, (-3.0, 3.0))
        for g in got.crossings:
            lo = o_gamma(A, B, g - 1e-4)
            hi = o_gamma(A, B, g + 1e-4)
            rank_lo = int((np.linalg.eigvalsh(lo) > 1e-8).sum())
            rank_hi = int((np.linalg.eigvalsh(hi) > 1e-8).sum())
            assert rank_lo != rank_hi

    def test_definiteness_is_the_package_zero_band(self):
        # B's smallest eigenvalue is 1e-11 of its norm: inside the PD cone by
        # linalg.positive_definite_spectrum, so the generalized eigenvalues
        # give the crossings.
        rng = np.random.default_rng(96)
        A = rand_herm(rng, 3)
        B = np.diag([1.0, 0.5, 1e-11]).astype(complex)
        got = pencil.find_crossings(A, B, (-3.0, 3.0))
        assert got.method == pencil.GENERALIZED_EIG
        sigma = relative_spectrum(A, B)
        assert np.array_equal(got.crossings, np.sort(sigma[(sigma >= -3.0) & (sigma <= 3.0)]))
        assert got.crossings.size

    def test_infinite_interval_rejected(self):
        with pytest.raises(ValueError):
            pencil.find_crossings(A_EX, B_EX, (0.0, math.inf))


class TestKato:
    def test_small_perturbation(self):
        T1 = np.diag([1.0, -1.0]).astype(complex)
        lhs, rhs = pencil.kato_continuity_check(T1, T1 + 1e-6 * np.eye(2))
        assert lhs <= rhs
        assert lhs <= 1e-5

    def test_commuting_diagonal(self):
        T1 = np.diag([2.0, -1.0, 0.5]).astype(complex)
        T2 = np.diag([1.5, -1.2, 0.1]).astype(complex)
        lhs, rhs = pencil.kato_continuity_check(T1, T2)
        clip = np.clip
        want_lhs = max(
            np.abs(clip(np.diag(T1).real, 0, None) - clip(np.diag(T2).real, 0, None)).max(),
            np.abs(clip(-np.diag(T1).real, 0, None) - clip(-np.diag(T2).real, 0, None)).max(),
        )
        assert lhs == pytest.approx(want_lhs, abs=1e-12)
        assert lhs <= rhs

    def test_seeded_sweep_no_violations(self):
        rng = np.random.default_rng(96)
        for k in range(1000):
            n = 2 + k % 5
            T1 = rand_herm(rng, n)
            T2 = T1 + rand_herm(rng, n, scale=float(rng.uniform(1e-6, 1.0)))
            lhs, rhs = pencil.kato_continuity_check(T1, T2)
            if linalg.opnorm(T1 - T2) <= linalg.opnorm(T1) + linalg.opnorm(T2):
                assert lhs <= rhs * (1 + 1e-9)

    def test_equal_inputs_rejected(self):
        T = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            pencil.kato_continuity_check(T, T)


class TestAraki:
    def test_sign_flip(self):
        rng = np.random.default_rng(97)
        T = rand_herm(rng, 4)
        lhs, rhs = pencil.araki_check(T, -T)
        assert lhs <= 1e-12
        assert rhs == pytest.approx(2 * linalg.schatten_norm(T, 2), rel=1e-12)

    def test_seeded_sweep_no_violations(self):
        rng = np.random.default_rng(98)
        for k in range(1000):
            n = 2 + k % 5
            T1 = rand_herm(rng, n)
            T2 = rand_herm(rng, n)
            lhs, rhs = pencil.araki_check(T1, T2)
            assert lhs <= rhs * (1 + 1e-9)


class TestContinuityAcrossCrossings:
    def test_positive_part_continuity(self):
        rng = np.random.default_rng(99)
        A = rand_herm(rng, 4)
        B = rand_pd(rng, 4)
        got = pencil.find_crossings(A, B, (-2.0, 2.0))
        for g in got.crossings:
            T1 = A - (g - 1e-6) * B
            T2 = A - (g + 1e-6) * B
            lhs, rhs = pencil.kato_continuity_check(T1, T2)
            assert lhs <= rhs * (1 + 1e-9)


class TestCsv:
    def test_header_and_precision(self):
        grid = np.array([0.0, 0.5])
        curves = np.array([[1.0, 1.0 / 3.0], [-1.0, -0.25]])
        buf = io.StringIO()
        pencil.write_eigencurves_csv(buf, grid, curves)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "gamma,lambda_1,lambda_2"
        assert lines[2].split(",")[1] == format(1.0 / 3.0, ".17g")
