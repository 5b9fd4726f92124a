import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from frenkel import cli, frechet, linalg, pencil, quadrature, schatten, workers
from frenkel.cli import RunConfig, generate_pair
from frenkel.schatten import CompactModel
from frenkel.divergence import (
    SupportViolation,
    delta_operator,
    prepare_pair,
    relative_spectrum,
    restrict_pair,
    trace_divergence,
)
from frenkel.quadrature import (
    adaptive_matrix_integral,
    divergence_probe,
    frenkel_trace,
    proof_chain_integrals,
    rhs_frg,
    rhs_frg1,
)
from util import rand_pd, rand_psd, supported_singular_pair, unsupported_pair


class TestEngine:
    def test_constant(self):
        C = np.array([[2.0, 1j], [-1j, 0.5]])
        res = adaptive_matrix_integral(lambda x: C, 0.0, 1.0, 1e-10)
        assert np.linalg.norm(res.value - C, 2) <= 1e-15
        assert res.error_estimate <= 1e-15
        assert res.converged

    def test_linear_matrix(self):
        res = adaptive_matrix_integral(lambda x: x * np.eye(3, dtype=complex), 0.0, 2.0, 1e-12)
        assert np.linalg.norm(res.value - 2.0 * np.eye(3), 2) <= 1e-14

    def test_polynomial_exactness(self):
        # a single 15-point panel integrates polynomials of degree <= 22
        for deg in (5, 9, 13, 19):
            res = adaptive_matrix_integral(lambda x, d=deg: np.array(x**d), 0.0, 1.0, 1e-9)
            want = 1.0 / (deg + 1)
            assert abs(float(res.value) - want) <= 1e-14

    def test_scalar_clip_closed_form(self):
        # integral_1^3 (3 - gamma) dgamma = 2 for the scalar clip pair a=3, b=1
        f = lambda g: np.array(max(3.0 - g, 0.0))
        res = adaptive_matrix_integral(f, 1.0, 3.0, 1e-10)
        assert abs(float(res.value) - 2.0) <= 1e-10

    def test_kink_presplit_restores_accuracy(self):
        f = lambda g: np.array(abs(g - 0.3))
        want = (0.3**2 + 0.7**2) / 2
        res = adaptive_matrix_integral(f, 0.0, 1.0, 1e-12, kinks=[0.3])
        assert abs(float(res.value) - want) <= 1e-14
        assert res.evaluations == 30

    def test_panels_cover_domain(self):
        f = lambda g: np.array(np.sin(7 * g))
        res = adaptive_matrix_integral(f, 0.0, 3.0, 1e-12, kinks=[1.0, 2.0])
        edges = [iv for iv, _ in res.panels]
        assert edges[0][0] == 0.0 and edges[-1][1] == 3.0
        for (a1, b1), (a2, b2) in zip(edges, edges[1:]):
            assert b1 == a2

    def test_cap_flags_nonconvergence(self, monkeypatch):
        f = lambda g: np.array(math.sin(1e4 * g * g))
        monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
        res = adaptive_matrix_integral(f, 0.0, 3.0, 1e-13)
        assert not res.converged

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            adaptive_matrix_integral(lambda x: np.array(x), 1.0, 1.0, 1e-8)

    def test_deterministic(self):
        f = lambda g: np.array(np.exp(-g) * np.sin(3 * g))
        r1 = adaptive_matrix_integral(f, 0.0, 4.0, 1e-11)
        r2 = adaptive_matrix_integral(f, 0.0, 4.0, 1e-11)
        assert float(r1.value) == float(r2.value)
        assert r1.panels == r2.panels


class TestGammaForm:
    def test_equal_pair_is_zero(self):
        rng = np.random.default_rng(111)
        B = rand_pd(rng, 4)
        res = rhs_frg1(B, B, 1e-8)
        assert linalg.opnorm(res.value) <= 1e-12

    def test_scalar_closed_form(self):
        A = np.array([[2.0 + 0j]])
        B = np.array([[1.0 + 0j]])
        res = rhs_frg1(A, B, 1e-8)
        assert float(res.value[0, 0].real) == pytest.approx(2 * math.log(2) - 1, abs=1e-10)
        assert res.tail_bound == 0.0

    def test_matches_spectral_delta(self):
        rng = np.random.default_rng(112)
        tol = 1e-8
        for k in range(40):
            n = 1 + k % 8
            A = rand_psd(rng, n) + 0.01 * np.eye(n)
            B = rand_pd(rng, n)
            res = rhs_frg1(A, B, tol)
            delta = delta_operator(A, B).delta
            assert np.linalg.norm(res.value - delta, 2) <= tol + 1e-8
            assert res.converged

    def test_value_psd_within_error(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            A = rand_psd(rng, 4)
            B = rand_pd(rng, 4)
            res = rhs_frg1(A, B, 1e-8)
            assert np.linalg.eigvalsh(res.value).min() >= -(res.error_estimate + 1e-10)

    def test_term2_integrand_bounded_by_b(self):
        rng = np.random.default_rng(114)
        A = rand_psd(rng, 4)
        B = rand_pd(rng, 4)
        _, A1, B1 = restrict_pair(A, B)
        bound = linalg.opnorm(B1) * (1 + 1e-9)
        for u in np.linspace(1e-6, 1.0, 117):
            val = linalg.positive_part(u * B1 - A1) / u
            assert linalg.opnorm(val) <= bound

    def test_domination_shortcut(self):
        rng = np.random.default_rng(115)
        A = rand_psd(rng, 4)
        B = rand_pd(rng, 4)
        tau = float(relative_spectrum(A, B).max())
        for g in np.linspace(tau * (1 + 1e-9), tau * 3 + 5, 23):
            assert linalg.opnorm(linalg.positive_part(A - g * B)) == 0.0

    def test_support_violation_raises(self):
        rng = np.random.default_rng(116)
        A, B = unsupported_pair(rng, 4)
        with pytest.raises(SupportViolation):
            rhs_frg1(A, B, 1e-8)

    def test_supported_singular_pair(self):
        rng = np.random.default_rng(117)
        A, B = supported_singular_pair(rng, 5)
        res = rhs_frg1(A, B, 1e-8)
        delta = delta_operator(A, B).delta
        assert np.linalg.norm(res.value - delta, 2) <= 1e-7


class TestFormEquivalence:
    def test_equal_pair(self):
        rng = np.random.default_rng(121)
        B = rand_pd(rng, 3)
        assert linalg.opnorm(rhs_frg(B, B, 1e-8).value) <= 1e-12

    def test_scalar(self):
        A = np.array([[2.0 + 0j]])
        B = np.array([[1.0 + 0j]])
        assert float(rhs_frg(A, B, 1e-8).value[0, 0].real) == pytest.approx(
            2 * math.log(2) - 1, abs=1e-10
        )

    def test_forms_agree(self):
        rng = np.random.default_rng(122)
        tol = 1e-8
        for k in range(30):
            n = 1 + k % 6
            A = rand_psd(rng, n) + 0.01 * np.eye(n)
            B = rand_pd(rng, n)
            r1 = rhs_frg1(A, B, tol)
            r2 = rhs_frg(A, B, tol)
            assert np.linalg.norm(r1.value - r2.value, 2) <= 2 * tol

    def test_singular_a_block_w_map(self):
        rng = np.random.default_rng(123)
        # A singular on range(B): exercises the w-parametrized second piece
        A = rand_psd(rng, 4, rank=2)
        B = rand_pd(rng, 4)
        r1 = rhs_frg1(A, B, 1e-8)
        r2 = rhs_frg(A, B, 1e-8)
        delta = delta_operator(A, B).delta
        assert np.linalg.norm(r1.value - delta, 2) <= 1e-7
        assert np.linalg.norm(r1.value - r2.value, 2) <= 2e-8

    def test_panel_log_in_t_coordinates(self):
        rng = np.random.default_rng(124)
        A = rand_pd(rng, 3)
        B = rand_pd(rng, 3)
        res = rhs_frg(A, B, 1e-8)
        lows = [iv[0] for iv, _ in res.panels]
        # piece 2 logs t in (-inf, 0), piece 1 logs t in (1, inf]
        assert any(lo < 0 or lo == -math.inf for lo in lows)
        assert any(lo >= 1.0 for lo in lows)


class TestFrenkelTrace:
    def test_equal_scalars(self):
        assert frenkel_trace(np.array([[1.5 + 0j]]), np.array([[1.5 + 0j]])) == pytest.approx(0.0, abs=1e-12)

    def test_scalar(self):
        got = frenkel_trace(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]), 1e-8)
        assert got == pytest.approx(0.3862944, abs=1e-7)

    def test_matches_trace_divergence(self):
        rng = np.random.default_rng(131)
        tol = 1e-8
        for _ in range(20):
            A = rand_psd(rng, 5) + 0.01 * np.eye(5)
            B = rand_pd(rng, 5)
            assert abs(frenkel_trace(A, B, tol) - trace_divergence(A, B)) <= tol + 1e-8

    def test_unsupported_sentinel(self):
        rng = np.random.default_rng(132)
        A, B = unsupported_pair(rng, 3)
        assert frenkel_trace(A, B) == math.inf


def _chain_residual(pc, A, B, tol):
    """||u + v - w - A(log A - log B)|| with u from rhs_frg1, as verify takes it."""
    u = rhs_frg1(A, B, tol).value
    return float(np.linalg.norm(u + pc.v - pc.w - pc.chain, 2))


class TestProofChain:
    def test_equal_pair_reduces(self):
        rng = np.random.default_rng(141)
        B = rand_pd(rng, 3)
        pc = proof_chain_integrals(B, B, 1e-8)
        assert linalg.opnorm(rhs_frg1(B, B, 1e-8).value) <= 1e-10
        assert _chain_residual(pc, B, B, 1e-8) <= 1e-7
        assert pc.residual_log_difference <= 1e-7

    def test_commuting_diagonal(self):
        A = np.diag([2.0, 0.5]).astype(complex)
        B = np.diag([1.0, 1.0]).astype(complex)
        pc = proof_chain_integrals(A, B, 1e-8)
        # closed forms: u + v - w = A log A - A log B = diag(a log a - a log b)
        want = np.diag([2 * math.log(2), 0.5 * math.log(0.5)])
        assert np.linalg.norm(rhs_frg1(A, B, 1e-8).value + pc.v - pc.w - want, 2) <= 1e-7

    def test_random_identity(self):
        rng = np.random.default_rng(142)
        tol = 1e-8
        for _ in range(10):
            A = rand_pd(rng, 3)
            B = rand_pd(rng, 3)
            pc = proof_chain_integrals(A, B, tol)
            assert _chain_residual(pc, A, B, tol) <= 10 * tol
            assert pc.residual_log_difference <= 10 * tol
            assert pc.residual_dlog_representation <= 10 * tol

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            proof_chain_integrals(np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex), 1e-8)

    def test_rejects_singular_b(self):
        for A in (np.diag([1.0, 0.0]), np.eye(2)):
            with pytest.raises(ValueError, match="B must be positive definite"):
                proof_chain_integrals(A.astype(complex), np.diag([1.0, 0.0]).astype(complex), 1e-8)

    def test_definiteness_is_read_off_a_itself(self):
        # sigma spans 1e-7 .. 1e7: far wider than the zero band allows one
        # spectrum, though A and B are each well inside the PD cone.
        A = np.diag([1e-7, 1.0]).astype(complex)
        B = np.diag([1.0, 1e-7]).astype(complex)
        pc = proof_chain_integrals(A, B, 1e-8)
        want = np.diag([1e-7 * math.log(1e-7), -math.log(1e-7)])
        u = rhs_frg1(A, B, 1e-8).value
        assert np.linalg.norm(u + pc.v - pc.w - want, 2) <= 1e-7 * np.linalg.norm(want, 2)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([2.0, 1.5, 1.0], [1.0, 0.5, 1.0]),  # sigma >= 1: the u form is empty
            ([0.5, 0.25, 3.0], [1.0, 0.5, 6.0]),  # sigma <= 1: the gamma form is empty
            ([2.0, 0.5, 1.0], [2.0, 0.5, 1.0]),  # A = B: both are empty
        ],
    )
    def test_commuting_closed_forms(self, a, b):
        # For diagonal A, B: v = (A - B)_+, w = (B - A)_+, and the chain is
        # diag(a log(a/b)).
        tol = 1e-8
        a, b = np.array(a), np.array(b)
        A, B = np.diag(a).astype(complex), np.diag(b).astype(complex)
        pc = proof_chain_integrals(A, B, tol)
        assert np.linalg.norm(pc.v - np.diag(np.maximum(a - b, 0.0)), 2) <= 10 * tol
        assert np.linalg.norm(pc.w - np.diag(np.maximum(b - a, 0.0)), 2) <= 10 * tol
        assert np.linalg.norm(pc.chain - np.diag(a * np.log(a / b)), 2) <= 1e-13
        assert pc.residual_log_difference <= 10 * tol
        assert pc.residual_dlog_representation <= 10 * tol
        assert _chain_residual(pc, A, B, tol) <= 10 * tol

    def test_one_projector_per_node(self, monkeypatch):
        # Three panel trees, gamma[B P, P/g, P/g^2], u[B P, P/u] and u[P/u^2],
        # joined by rhs_frg1's two terms and the trace's u part.  Each form's
        # initial nodes get one eigh and one projector, whatever number of
        # terms share them; each refinement node gets one decomposition by
        # its own tree's kernel.
        rng = np.random.default_rng(144)
        tol = 1e-8
        while True:
            A, B = rand_pd(rng, 4), rand_pd(rng, 4)
            pair = prepare_pair(A, B)
            if pair.sigma.min() < 1.0 < pair.sigma.max():
                break

        def over(k):
            return lambda P, c: P / (c**k)[:, None, None]

        b_proj = lambda P, c: pair.B[None] @ P
        ref = {
            (form, name): quadrature.clipped_integrals(pair, form, [quadrature.Term(quadrature.PROJECTOR, f, tol / 2)])[0].value
            for form in ("gamma", "u")
            for name, f in (("bp", b_proj), ("over", over(1)), ("over2", over(2)))
        }
        self.check_projectors(monkeypatch, pair, ref, tol)

    @staticmethod
    def check_projectors(m, pair, ref, tol):
        A, B = pair.A, pair.B
        forms_called, trees, counts = [], [], Counter()
        real_integrals, real_adaptive = quadrature.clipped_integrals, quadrature._adaptive

        def counting_integrals(pair, form, terms):
            forms_called.append((form, len(terms)))
            return real_integrals(pair, form, terms)

        def recording(fv, a, b, tol, kinks=(), **kwargs):
            res = real_adaptive(fv, a, b, tol, kinks=kinks, **kwargs)
            initial = 15 * (len(quadrature._initial_bounds(a, b, kinks)) - 1)
            trees.append((initial, res.evaluations - initial))
            return res

        def counting(name, fn, ndim):
            def wrapper(x, *args, **kwargs):
                if np.ndim(x) == ndim:  # the pencil stacks, not the pair's own set-up
                    counts[name] += len(x)
                return fn(x, *args, **kwargs)

            return wrapper

        m.setattr(quadrature, "clipped_integrals", counting_integrals)
        m.setattr(quadrature, "_adaptive", recording)
        # positive_projector_of(w, U) takes the (m, n) spectra of a stack.
        m.setattr(quadrature, "positive_projector_of", counting("projector", quadrature.positive_projector_of, 2))
        for name in ("eigh", "eigvalsh"):
            m.setattr(np.linalg, name, counting(name, getattr(np.linalg, name), 3))
        pc = proof_chain_integrals(A, B, tol)
        # trees: gamma[chain, rhs_frg1], then u[chain, chain, rhs_frg1, trace]
        assert forms_called == [("gamma", 2), ("u", 4)]
        kinds = ["proj", "part", "proj", "proj", "part", "trace"]
        assert len(trees) == len(kinds)
        refined = Counter()
        for kind, (_, extra) in zip(kinds, trees):
            refined[kind] += extra
        shared_nodes = trees[0][0] + trees[2][0]
        assert counts["eigh"] == shared_nodes + refined["proj"] + refined["part"]
        assert counts["projector"] == shared_nodes + refined["proj"]
        assert counts["eigvalsh"] == refined["trace"]
        assert pc.evaluations == sum(initial + extra for (initial, extra), kind in zip(trees, kinds) if kind == "proj")
        assert pc.converged
        assert np.linalg.norm(pc.v - ref["gamma", "bp"], 2) <= tol
        assert np.linalg.norm(pc.w - ref["u", "bp"], 2) <= tol
        log_diff = linalg.hermitian_part(ref["gamma", "over"] - ref["u", "over"])
        log_ref = linalg.matrix_log(pair.A) - linalg.matrix_log(pair.B)
        assert abs(pc.residual_log_difference - np.linalg.norm(log_diff - log_ref, 2)) <= tol
        dlog = linalg.hermitian_part(np.eye(4) - ref["gamma", "over2"] + ref["u", "over2"])
        dlog_ref = frechet.dlog(pair.A, pair.B)
        assert abs(pc.residual_dlog_representation - np.linalg.norm(dlog - dlog_ref, 2)) <= tol

    def test_capped_tree_is_not_converged(self, monkeypatch):
        rng = np.random.default_rng(145)
        A, B = rand_pd(rng, 4), rand_pd(rng, 4)
        monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
        assert not proof_chain_integrals(A, B, 1e-12).converged

    def test_runs_on_projections_only(self, monkeypatch):
        # Every chain integral is a projection integral.  The positive parts
        # and the trace on the chain's nodes are rhs_frg1's two terms and the
        # trace's u part, and u, the one integral of positive parts, is
        # rhs_frg1's result.
        clips = []
        real = quadrature.clipped_integrals

        def recording(pair, form, terms, head=0.0):
            clips.append([term.clip for term in terms])
            return real(pair, form, terms, head)

        rng = np.random.default_rng(143)
        A, B = rand_pd(rng, 4), rand_pd(rng, 4)
        with monkeypatch.context() as m:
            m.setattr(quadrature, "clipped_integrals", recording)
            pc = proof_chain_integrals(A, B, 1e-8)
        P, PP, T = quadrature.PROJECTOR, quadrature.POSITIVE_PART, quadrature.TRACE
        assert clips == [[P, PP], [P, P, PP, T]]
        assert pc.gamma_form.value.tobytes() == rhs_frg1(A, B, 1e-8).value.tobytes()


def _ones(seen=None, pencil=None):
    """A term integrating 1 whose weight sees the pencil stack itself, and
    records the largest distance from pencil(c) when given one."""

    def weight(M, c):
        if pencil is not None:
            seen.append(float(np.abs(M - pencil(c)).max()))
        return np.ones(len(c))

    return quadrature.Term(quadrature.Clip(None, lambda M: M), weight, 1e-10)


class TestClippedIntegral:
    """The five pencil forms of the one clipped-pencil core, on their exact domains."""

    @staticmethod
    def pair_straddling_one():
        rng = np.random.default_rng(151)
        while True:
            pair = prepare_pair(rand_pd(rng, 5), rand_pd(rng, 5))
            if pair.sigma.min() < 1.0 < pair.sigma.max():
                return pair

    def test_domains_kinks_and_pencils(self):
        pair = self.pair_straddling_one()
        A1, B1, sigma = pair.A1, pair.B1, pair.sigma
        lo, hi = float(sigma.min()), float(sigma.max())
        inner = sigma[(sigma > 1.0) & (sigma < hi)]
        below = sigma[(sigma > lo) & (sigma < 1.0)]
        gamma_pencil = lambda c: A1[None] - c[:, None, None] * B1[None]
        u_pencil = lambda c: c[:, None, None] * B1[None] - A1[None]
        forms = {
            "gamma": ((1.0, hi), inner, gamma_pencil),
            "u": ((lo, 1.0), below, u_pencil),
            "s": ((0.0, 1.0 - 1.0 / hi), 1.0 - 1.0 / inner, gamma_pencil),
            "v": ((0.0, 1.0 / lo - 1.0), 1.0 / below - 1.0, lambda c: B1[None] - c[:, None, None] * A1[None]),
            # w reaches past sigma_min to u = 0, so sigma_min is a kink too
            "w": ((0.0, 1.0), 1.0 - sigma[sigma < 1.0], u_pencil),
        }
        for form, ((a, b), kinks, pencil) in forms.items():
            seen = []
            (r,) = quadrature.clipped_integrals(pair, form, [_ones(seen, pencil)])
            edges = {x for iv, _ in r.panels for x in iv}
            assert r.panels[0][0][0] == a and r.panels[-1][0][1] == b, form
            # a constant integrand never refines: the edges are the kinks
            assert kinks.size and edges == set(kinks.tolist()) | {a, b}, form
            assert float(r.value) == pytest.approx(b - a, rel=1e-13), form
            assert max(seen) == 0.0, form

    def test_c_of_each_form(self):
        # c is gamma on gamma, s and v, and u, clamped at U_FLOOR, on u and w.
        pair = self.pair_straddling_one()
        xs = np.array([0.0, 0.25, 0.5])
        want = {
            "gamma": xs,
            "s": 1.0 / (1.0 - xs),
            "u": np.maximum(xs, quadrature.U_FLOOR),
            "v": 1.0 + xs,
            "w": np.maximum(1.0 - xs, quadrature.U_FLOOR),
        }
        for form, c in want.items():
            *_, pencil = quadrature._form_domain(pair, form)
            assert pencil(xs)[1].tolist() == c.tolist(), form

    def test_head_leaves_low_kinks_unsplit(self):
        pair = self.pair_straddling_one()
        sigma = pair.sigma
        inner = np.sort(sigma[(sigma > sigma.min()) & (sigma < 1.0)])
        assert inner.size >= 2
        head = 0.5 * (inner[0] + inner[1])
        (r,) = quadrature.clipped_integrals(pair, "u", [_ones()], head=head)
        edges = {x for iv, _ in r.panels for x in iv}
        assert inner[0] not in edges and head not in edges
        assert set(inner[1:].tolist()) <= edges
        assert float(r.value) == pytest.approx(1.0 - float(sigma.min()), rel=1e-13)
        for form in ("gamma", "s", "v", "w"):
            with pytest.raises(ValueError, match="u form only"):
                quadrature.clipped_integrals(pair, form, [_ones()], head=head)

    def test_empty_domains(self):
        rng = np.random.default_rng(152)
        B = rand_pd(rng, 4)
        above = prepare_pair(2.0 * B, B)  # sigma = 2: nothing below 1
        below = prepare_pair(0.5 * B, B)  # sigma = 1/2: nothing above 1
        empty = prepare_pair(np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex))  # range(B) = 0
        for pair, forms in ((above, "uvw"), (below, ("gamma", "s")), (empty, ("gamma", "s", "u", "v", "w"))):
            for form in forms:
                assert quadrature.clipped_integrals(pair, form, [_ones(), _ones()]) == [None, None], form

    def test_v_rejects_a_zero_sigma_min(self):
        # A = 0 against B = I: sigma_min = 0, so v = gamma - 1 has no end.
        pair = prepare_pair(np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="sigma_min > 0"):
            quadrature.clipped_integrals(pair, "v", [_ones()])
        (r,) = quadrature.clipped_integrals(pair, "w", [_ones()])
        assert float(r.value) == pytest.approx(1.0, rel=1e-13)


def _old_rhs_frg(A, B, tol):
    """rhs_frg with its piece 2 as hand-written before it became the v and
    w forms of the core: the bit-for-bit reference."""
    pair = prepare_pair(A, B)
    A1, B1, sigma = pair.A1, pair.B1, pair.sigma
    sigma_min = float(max(sigma.min(initial=1.0), 0.0))
    (r1,) = quadrature.clipped_integrals(pair, "s", quadrature._divergence_terms("s", tol))
    r2, map2 = None, lambda iv: iv
    if sigma_min < 1.0:
        if sigma_min > 1e-6:

            def f2(vs):
                g = 1.0 + vs
                M = B1[None] - g[:, None, None] * A1[None]
                return linalg.positive_part_stack(M) / (g * g)[:, None, None]

            inner = sigma[(sigma > sigma_min) & (sigma < 1.0)]
            r2 = quadrature._adaptive(f2, 0.0, 1.0 / sigma_min - 1.0, tol / 2, kinks=1.0 / inner - 1.0)
            map2 = lambda iv: (-math.inf if iv[0] == 0.0 else -1.0 / iv[0], -1.0 / iv[1])
        else:

            def f2(ws):
                u = np.maximum(1.0 - ws, quadrature.U_FLOOR)
                M = u[:, None, None] * B1[None] - A1[None]
                return linalg.positive_part_stack(M) / u[:, None, None]

            inner = sigma[(sigma > 0.0) & (sigma < 1.0)]
            r2 = quadrature._adaptive(f2, 0.0, 1.0, tol / 2, kinks=1.0 - inner)
            map2 = lambda iv: (
                -math.inf if iv[0] == 0.0 else -(1.0 - iv[0]) / iv[0],
                -(1.0 - iv[1]) / max(iv[1], quadrature.U_FLOOR) if iv[1] < 1.0 else 0.0,
            )

    def map1(iv):
        return (1.0 / iv[1], math.inf if iv[0] == 0.0 else 1.0 / iv[0])

    return quadrature._combine(pair, [r2, r1], [map2, map1])


def _psd_kernel_pair():
    """A 4 x 4 PSD A with a kernel inside range(B), B = 1.3 I: sigma_min = 0."""
    U = linalg.random_unitary(4, np.random.default_rng(5))
    return linalg.rebuild(U, np.array([1.0, 0.5, 0.2, 0.0])), 1.3 * np.eye(4, dtype=complex)


class TestPieceTwoForms:
    """rhs_frg's piece 2 runs on the core's v and w forms with the trees of
    the hand-written integrands it replaced, bit for bit."""

    @staticmethod
    def tree(r):
        return (r.value.tobytes(), r.error_estimate, r.tail_bound, r.panels, r.evaluations, r.converged)

    @pytest.mark.parametrize(
        "name, branch",
        [("cond-1e3", "v"), ("cond-1e7", "w"), ("sigma-min-zero", "w")],
    )
    def test_rhs_frg_equals_the_hand_written_piece_two(self, name, branch):
        A, B = {
            "cond-1e3": lambda: generate_pair(RunConfig(command="gen", seed=1, dim=6, condition_target=1e3)),
            "cond-1e7": lambda: generate_pair(RunConfig(command="gen", seed=1, dim=6, condition_target=1e7)),
            "sigma-min-zero": _psd_kernel_pair,
        }[name]()
        sigma_min = prepare_pair(A, B).sigma.min()
        assert (sigma_min > 1e-6) == (branch == "v") and (sigma_min <= 0.0) == (name == "sigma-min-zero")
        tol = 1e-8
        want = self.tree(_old_rhs_frg(A, B, tol))
        assert self.tree(rhs_frg(A, B, tol)) == want
        assert self.tree(rhs_frg(A, B, tol, trace=True)[0]) == want

    def test_rhs_frg1_at_a_zero_sigma_min(self):
        # The u-panel that starts at u = 0 is logged up to gamma = inf.
        for A, B in (_psd_kernel_pair(), (np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex))):
            assert prepare_pair(A, B).sigma.min() <= 0.0
            r = rhs_frg1(A, B, 1e-8)
            assert r.converged
            assert np.linalg.norm(r.value - delta_operator(A, B).delta, 2) <= 1e-8
            assert max(hi for (_, hi), _ in r.panels) == math.inf
            assert min(lo for (lo, _), _ in r.panels) == 1.0
            assert np.linalg.norm(r.value - rhs_frg(A, B, 1e-8).value, 2) <= 2e-8


class TestSharedPanels:
    """verify's clipped-pencil routes share each form's initial panels across
    their terms, and every term keeps the panel tree it has alone."""

    @staticmethod
    def tree(r):
        return (np.asarray(r.value).tobytes(), r.error_estimate, r.panels, r.evaluations, r.converged)

    @staticmethod
    def chain(pc):
        return (pc.v.tobytes(), pc.w.tobytes(), pc.residual_log_difference, pc.residual_dlog_representation, pc.evaluations, pc.converged)

    @staticmethod
    def chain_alone(A, B, tol):
        """chain(proof_chain_integrals(A, B, tol)) from the chain's own three
        PROJECTOR trees alone, without the terms that share their nodes."""
        pair = prepare_pair(A, B)
        A, B = pair.A, pair.B

        def term(*powers, b_proj=True):
            def weight(P, c):
                return np.stack(([B[None] @ P] if b_proj else []) + [P / (c**k)[:, None, None] for k in powers], axis=1)

            return quadrature.Term(quadrature.PROJECTOR, weight, tol / 2)

        (g,) = quadrature.clipped_integrals(pair, "gamma", [term(1, 2)])
        u1, u2 = quadrature.clipped_integrals(pair, "u", [term(1), term(2, b_proj=False)])
        zero = np.zeros((3,) + A.shape, dtype=complex)  # an empty domain
        v, g_over, g_over2 = zero if g is None else g.value
        w, u_over = zero[:2] if u1 is None else u1.value
        (u_over2,) = zero[:1] if u2 is None else u2.value
        dec_a, dec_b = linalg.eig_hermitian(A), linalg.eig_hermitian(B)
        log_diff = linalg.hermitian_part(g_over - u_over) - (linalg.log_of(dec_a) - linalg.log_of(dec_b))
        dlog = linalg.hermitian_part(np.eye(A.shape[0]) - g_over2 + u_over2) - frechet.dlog_in(dec_a, B)
        trees = [r for r in (g, u1, u2) if r is not None]
        return (
            v.tobytes(),
            w.tobytes(),
            float(np.linalg.norm(log_diff, 2)),
            float(np.linalg.norm(dlog, 2)),
            sum(r.evaluations for r in trees),
            all(r.converged for r in trees),
        )

    @pytest.mark.parametrize("dim", [6, 16])
    @pytest.mark.parametrize("kind", ["pd", "commuting", "singular-b"])
    def test_suite_routes_equal_the_standalone_routes(self, kind, dim):
        tol = 1e-8
        A, B = generate_pair(
            RunConfig(command="gen", seed=7, dim=dim, condition_target=1e3, commuting=kind == "commuting", singular_b=kind == "singular-b")
        )
        pair = prepare_pair(A, B)
        got = {name: fn(*args) for name, (fn, *args) in cli._suite_routes(pair, tol).items() if name in ("proof_chain_integrals", "rhs_frg1", "rhs_frg")}
        assert ("proof_chain_integrals" in got) == (kind != "singular-b")
        gamma_form, trace_u = cli._gamma_form(pair, got.__getitem__)
        t_line, trace_s = got["rhs_frg"]
        assert self.tree(gamma_form) == self.tree(rhs_frg1(A, B, tol))
        assert self.tree(t_line) == self.tree(rhs_frg(A, B, tol))
        if kind != "singular-b":
            assert self.chain(got["proof_chain_integrals"]) == self.chain_alone(A, B, tol)
        # The trace's initial nodes read eigh's eigenvalues instead of eigvalsh's.
        want = frenkel_trace(A, B, tol)
        assert abs(quadrature._scalar_total([trace_s, trace_u]) - want) <= 1e-13 * abs(want)

    def test_node_budget(self, monkeypatch):
        # Before the routes shared their initial panels, this suite handed
        # LAPACK 1732 eigh and 527 eigvalsh matrices.
        monkeypatch.setenv("FRENKEL_THREADS", "1")
        A, B = generate_pair(RunConfig(command="gen", seed=1, dim=32, condition_target=1e3))
        counts = Counter()
        for name in ("eigh", "eigvalsh"):

            def counting(M, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                counts[_name] += math.prod(np.shape(M)[:-2])
                return _real(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        assert len(cli.run_verification_suite(A, B, 1e-8)["items"]) == 19
        assert counts["eigh"] <= 1100 and counts["eigvalsh"] <= 100, counts

    def test_capped_term_refines_alone(self, monkeypatch):
        # At MAX_PANELS = 32 the chain's u[P/u^2] tree caps on this pair,
        # while the other terms on the u nodes converge.  Trees run in the
        # order gamma[chain, rhs_frg1], u[chain, P/u^2, rhs_frg1, trace].
        tol = 1e-8
        monkeypatch.setenv("FRENKEL_THREADS", "1")
        monkeypatch.setattr(quadrature, "MAX_PANELS", 32)
        A, B = generate_pair(RunConfig(command="gen", seed=1, dim=3, condition_target=1e6))
        pair = prepare_pair(A, B)
        trees, current = [], []
        calls = [Counter() for _ in range(6)]
        real_adaptive = quadrature._adaptive

        def recording(*args, **kwargs):
            current.append(len(trees))
            try:
                res = real_adaptive(*args, **kwargs)
            finally:
                current.pop()
            trees.append(res)
            return res

        def counting(name, fn):
            def wrapper(M):
                if current:
                    calls[current[-1]][name] += 1
                    calls[current[-1]]["eigh matrices" if name != "positive_eig_stack" else "eigvalsh matrices"] += len(M)
                return fn(M)

            return wrapper

        with monkeypatch.context() as m:
            m.setattr(quadrature, "_adaptive", recording)
            for name in ("_positive_proj_stack", "positive_part_stack", "positive_eig_stack"):
                m.setattr(quadrature, name, counting(name, getattr(quadrature, name)))
            pc = proof_chain_integrals(A, B, tol)
        gamma_form, trace_u = pc.gamma_form, pc.trace_u
        assert [r.converged for r in trees] == [True, True, True, False, True, True]
        own = ["_positive_proj_stack", "positive_part_stack", "_positive_proj_stack", "_positive_proj_stack", "positive_part_stack", "positive_eig_stack"]
        for k, kernel in enumerate(own):
            assert set(calls[k]) <= {kernel, "eigh matrices", "eigvalsh matrices"}, (k, calls[k])
        capped = calls[3]
        assert set(capped) == {"_positive_proj_stack", "eigh matrices"}
        # Every node the capped tree adds past its initial panels is one
        # decomposition by its own kernel.
        u_nodes = 15 * (len(quadrature._initial_bounds(*quadrature._form_domain(pair, "u")[:3])) - 1)
        assert capped["eigh matrices"] == trees[3].evaluations - u_nodes
        # The terms that converge keep their standalone trees.
        assert not pc.converged
        assert self.tree(gamma_form) == self.tree(rhs_frg1(A, B, tol))
        # The terms that share the chain's nodes leave the bits of its own
        # three trees unmoved, the capped one included.
        assert self.chain(pc) == self.chain_alone(A, B, tol)
        (trace_alone,) = quadrature.clipped_integrals(pair, "u", [quadrature._form_term(quadrature.TRACE, "u", tol)])
        assert [iv for iv, _ in trace_u.panels] == [iv for iv, _ in trace_alone.panels]
        assert trace_u.evaluations == trace_alone.evaluations and trace_u.converged
        assert float(trace_u.value) == pytest.approx(float(trace_alone.value), rel=1e-13)


class TestDivergenceProbe:
    def test_log_growth_unit_mass(self):
        A = np.diag([1.0, 1.0]).astype(complex)
        B = np.diag([1.0, 0.0]).astype(complex)
        rec = divergence_probe(A, B, [10.0, 100.0, 1000.0, 10000.0])
        assert rec.witness_mass == pytest.approx(1.0, abs=1e-12)
        assert rec.slope == pytest.approx(1.0, rel=1e-3)
        assert np.all(np.diff(rec.values) > 0)

    def test_mass_scales_slope(self):
        A = np.diag([2.0, 3.0]).astype(complex)
        B = np.diag([1.0, 0.0]).astype(complex)
        rec = divergence_probe(A, B, [10.0, 100.0, 1000.0, 10000.0])
        assert rec.witness_mass == pytest.approx(3.0, abs=1e-12)
        assert rec.slope >= 0.9 * rec.witness_mass

    def test_single_checkpoint_no_slope(self):
        A = np.diag([1.0, 1.0]).astype(complex)
        B = np.diag([1.0, 0.0]).astype(complex)
        rec = divergence_probe(A, B, [100.0])
        assert rec.slope is None
        assert rec.values.size == 1

    def test_rejects_supported_pair(self):
        rng = np.random.default_rng(151)
        A = rand_psd(rng, 3)
        B = rand_pd(rng, 3)
        with pytest.raises(ValueError):
            divergence_probe(A, B, [10.0, 100.0])

    @pytest.mark.parametrize("last", [1e20, 1e300, math.inf, math.nan])
    def test_rejects_checkpoints_beyond_the_zero_band(self, last):
        # Witness mass 1 against ||B|| = 1: from t = 1e12 on, the witness
        # eigenvalue of the pencil lies in its zero band and is clipped away.
        A = np.diag([1.0, 1.0]).astype(complex)
        B = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="t_max = 1e\\+12"):
            divergence_probe(A, B, [10.0, last])

    def test_unconverged_window_raises(self, monkeypatch):
        # On diag(2, 3), diag(1, 0) the witness form is the constant 3 in
        # log gamma, and on a rotated 2 x 2 pair one Kronrod panel between
        # kinks still meets tol; this pair's form needs more panels.
        A, B = unsupported_pair(np.random.default_rng(162), 6, 2)
        monkeypatch.setattr(quadrature, "MAX_PANELS", 1)
        with pytest.raises(ValueError, match="did not converge"):
            divergence_probe(A, B, [10.0, 100.0])

    def test_rejects_repeated_checkpoints(self):
        # A repeated checkpoint would be a zero-width window.
        A = np.diag([1.0, 1.0]).astype(complex)
        B = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="distinct"):
            divergence_probe(A, B, [10.0, 10.0, 100.0])

    def test_zero_b_has_no_zero_band_bound(self):
        # With B = 0 the integrand is A / gamma, never clipped: t_max is inf
        # and the values are (x* A x) log t.
        A = np.array([[2.5]], dtype=complex)
        B = np.zeros((1, 1), dtype=complex)
        ts = [10.0, 100.0, 1000.0, 10000.0]
        rec = divergence_probe(A, B, ts)
        assert rec.witness_mass == 2.5
        assert rec.slope == pytest.approx(2.5, rel=1e-9)
        assert rec.values == pytest.approx(2.5 * np.log(ts), rel=1e-9)

    @staticmethod
    def singular_a_pair(rng, n=5):
        # range(A) = span(U[:, :3]), range(B) = span(U[:, 1:4]): A + B has
        # the kernel U[:, 4], A has a kernel inside range(A + B) (theta = 0)
        # and B has one too (theta = 1), and U[:, 0] witnesses divergence.
        U = linalg.random_unitary(n, rng)
        Va = U[:, :3] @ linalg.random_unitary(3, rng)
        Vb = U[:, 1:4] @ linalg.random_unitary(3, rng)
        A = linalg.rebuild(Va, rng.uniform(0.5, 2.0, 3))
        B = linalg.rebuild(Vb, np.array([1.5, 0.7, 0.0]))
        return A, B

    @classmethod
    def kink_pairs(cls):
        rng = np.random.default_rng(161)
        pairs = [unsupported_pair(rng, n, corank) for n, corank in ((2, 1), (5, 2), (12, 3))]
        for seed, dim, cond in ((1, 3, 10.0), (2, 8, 1e3), (3, 16, 1e6), (4, 32, 1e10)):
            pairs.append(generate_pair(RunConfig(command="gen", seed=seed, dim=dim, unsupported=True, condition_target=cond)))
        pairs.append(cls.singular_a_pair(rng))
        return pairs

    def test_kinks_are_the_sign_scan_crossings(self, monkeypatch):
        # The probe's kinks come from the relative spectrum against A + B;
        # the 256-point sign scan of both pencils finds the same set in each
        # window, within the scan's merge resolution.  Per window, term 1
        # runs over the whole window and term 2 up to its last crossing, so
        # the union of both terms' inner kinks and term 2's cut is that set.
        calls = []
        real = quadrature._adaptive

        def recording(f, a, b, tol, kinks=(), **kwargs):
            calls.append((math.exp(a), math.exp(b), np.exp(np.asarray(kinks))))
            return real(f, a, b, tol, kinks=kinks, **kwargs)

        monkeypatch.setattr(quadrature, "_adaptive", recording)
        checkpoints = [10.0, 100.0, 1000.0, 10000.0]
        seen = 0
        for A, B in self.kink_pairs():
            calls.clear()
            divergence_probe(A, B, checkpoints)
            windows = []
            used = 0
            for lo, hi in zip([1.0] + checkpoints, checkpoints):
                terms = [c for c in calls if c[0] == pytest.approx(lo, rel=1e-12)]
                assert 1 <= len(terms) <= 2 and terms[0][1] == pytest.approx(hi, rel=1e-12)
                found = [k[(k > a) & (k < b)] for a, b, k in terms]
                found += [np.array([b]) for _, b, _ in terms[1:] if b < hi * (1 - 1e-12)]
                windows.append((lo, hi, np.sort(np.concatenate(found))))
                used += len(terms)
            assert used == len(calls)
            for lo, hi, kinks in windows:
                scan = np.sort(
                    np.concatenate(
                        [
                            pencil.find_crossings(A, B, (lo, hi), method=pencil.SIGN_SCAN).crossings,
                            pencil.find_crossings(B, A, (lo, hi), method=pencil.SIGN_SCAN).crossings,
                        ]
                    )
                )
                res = 10 * pencil._BISECT_TOL * max(1.0, hi - lo)
                merged = []
                for x in kinks:
                    if not merged or x - merged[-1] > res:
                        merged.append(x)
                assert len(merged) == len(scan), (lo, hi, merged, scan)
                assert np.all(np.abs(np.asarray(merged) - scan) <= res), (lo, hi)
                seen += len(scan)
        assert seen > 0

    def test_full_space_scan_skips_the_common_kernel(self):
        # A + B is singular here.  On the full space, the pencil branch that
        # is zero on its kernel trades sorted places with a branch that
        # crosses zero; without the compression off the common kernel the
        # scan reported 128 rounding-level crossings in [1, 10].
        A, B = self.singular_a_pair(np.random.default_rng(163))
        kinks = np.sort(np.concatenate(quadrature._probe_kinks(A, B)[:2]))
        want = kinks[(kinks >= 1.0) & (kinks <= 10.0)]
        scan = np.sort(
            np.concatenate(
                [
                    pencil.find_crossings(A, B, (1.0, 10.0), method=pencil.SIGN_SCAN).crossings,
                    pencil.find_crossings(B, A, (1.0, 10.0), method=pencil.SIGN_SCAN).crossings,
                ]
            )
        )
        assert want.size >= 1
        assert scan == pytest.approx(want, abs=10 * pencil._BISECT_TOL * 9.0)

    def test_makes_no_find_crossings_call(self, monkeypatch):
        calls = []
        real = pencil.find_crossings

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("frenkel") and getattr(module, "find_crossings", None) is real:
                monkeypatch.setattr(module, "find_crossings", counting)
        A, B = unsupported_pair(np.random.default_rng(162), 6, 2)
        divergence_probe(A, B, [10.0, 100.0, 1000.0])
        assert calls == []
        pencil.find_crossings(A, B, (1.0, 10.0))
        assert calls

    @classmethod
    def reference_pairs(cls):
        pairs = cls.kink_pairs()
        for seed, dim, cond in ((5, 8, 1e6), (6, 12, 1e10)):
            pairs.append(generate_pair(RunConfig(command="gen", seed=seed, dim=dim, unsupported=True, condition_target=cond)))
        return pairs

    @pytest.mark.parametrize("index", range(10))
    def test_values_match_the_matrix_integral(self, index):
        # The witness form against x* V x, with V the matrix integrand
        # (A - gamma B)_+ / gamma + (B - gamma A)_+ / gamma^2 integrated in
        # gamma to 1e-12, every crossing of both pencils a kink.
        A, B = self.reference_pairs()[index]
        checkpoints = [10.0, 100.0, 1000.0, 10000.0]
        tol = 1e-8
        rec = divergence_probe(A, B, checkpoints, tol)
        x = rec.witness

        def V(g):
            return linalg.positive_part(A - g * B) / g + linalg.positive_part(B - g * A) / g**2

        cum = np.zeros_like(A)
        for k, (lo, hi) in enumerate(zip([1.0] + checkpoints, checkpoints)):
            kinks = np.concatenate([pencil.find_crossings(P, Q, (lo, hi)).crossings for P, Q in ((A, B), (B, A))])
            seg = adaptive_matrix_integral(V, lo, hi, 1e-12, kinks=kinks)
            assert seg.converged
            cum = cum + seg.value
            assert abs(rec.values[k] - float((x.conj() @ cum @ x).real)) <= tol, (k, rec.values[k])

    def test_witness_form_clips_at_the_zero_band(self):
        # As in positive_part_stack, a pencil branch of 1e-20 next to one of
        # order 1 is zero, and so is the form of a witness on it.
        P = np.diag([1.0, 1e-20]).astype(complex)
        Q = np.diag([0.5, 0.0]).astype(complex)
        ys = np.log([1.0, 1.5, 10.0])
        on_band = quadrature._witness_form(P, Q, np.array([0.0, 1.0], dtype=complex), 0)(ys)
        assert np.all(on_band == 0.0)
        top = quadrature._witness_form(P, Q, np.array([1.0, 0.0], dtype=complex), 1)(ys)
        assert top == pytest.approx(np.maximum(1.0 - 0.5 * np.exp(ys), 0.0) * np.exp(-ys), abs=1e-15)

    @pytest.mark.parametrize("seed, cond", [(1015, 10.0), (1031, 1e3)])
    def test_eigh_matrix_budget(self, monkeypatch, seed, cond):
        # Two n=32 unsupported pairs of the verify-mixed deck, where
        # integrating the matrix in gamma decomposed 1323 and 1083 matrices.
        A, B = generate_pair(RunConfig(command="gen", seed=seed, dim=32, unsupported=True, condition_target=cond))
        matrices = []
        real = np.linalg.eigh

        def counting(M, *args, **kwargs):
            M = np.asarray(M)
            matrices.append(M.size // M.shape[-1] ** 2)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        divergence_probe(A, B, [10.0, 100.0, 1000.0, 10000.0])
        assert sum(matrices) <= 480


class TestLeanPanel:
    """_panel and _err_norm give the bits of their tensordot / norm forms."""

    @staticmethod
    def reference_panel(fv, a, b):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        vals = fv(mid + half * quadrature._NODES)
        i15 = half * np.tensordot(quadrature._WK, vals, axes=(0, 0))
        i7 = half * np.tensordot(quadrature._WG, vals[quadrature._GAUSS_IDX], axes=(0, 0))
        d = i15 - i7
        if d.ndim == 0:
            return i15, float(abs(d))
        return i15, max(float(np.linalg.norm(m, 2)) for m in d.reshape(-1, *d.shape[-2:]))

    def test_matrix_and_scalar_integrands(self):
        rng = np.random.default_rng(301)
        A = rand_pd(rng, 6)
        B = rand_pd(rng, 6)

        def clipped(gs):
            return linalg.positive_part_stack(A[None] - gs[:, None, None] * B[None]) / gs[:, None, None]

        integrands = [
            clipped,
            lambda gs: np.sin(3.0 * gs) * np.exp(gs),
            # a stacked (m, 3, n, n) integrand: its error is the largest
            # operator norm over the three components
            lambda gs: np.stack([clipped(gs), B[None] @ clipped(gs), clipped(gs) / gs[:, None, None]], axis=1),
        ]
        for fv in integrands:
            for a, b in ((0.3, 1.7), (1.0, 9.5)):
                val, err = quadrature._panel(fv, a, b)
                want_val, want_err = self.reference_panel(fv, a, b)
                assert val.shape == want_val.shape
                assert val.tobytes() == want_val.tobytes()
                assert err == want_err


def _dominated_pair(dim):
    a = CompactModel(master_dim=dim, law="geom", param=0.6, signs="pos", rotation_seed=917, p=2.0)
    b = CompactModel(master_dim=dim, law="power", param=2.0, signs="pos", rotation_seed=917, p=2.0)
    return schatten.synth_compact(a), schatten.synth_compact(b)


def _record_quadratures(monkeypatch):
    """Collect every QuadratureResult the driver returns, as comparable bytes."""
    seen = []
    real = quadrature._adaptive

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        value = np.asarray(res.value)
        seen.append((value.tobytes(), value.shape, res.error_estimate, res.panels, res.evaluations, res.converged))
        return res

    monkeypatch.setattr(quadrature, "_adaptive", recording)
    return seen


class TestPanelFanOut:
    """Fanning the initial panels out over worker threads changes no bit."""

    @staticmethod
    def run_routes(A48, B48, A, B):
        out = [schatten.budget_e_p(A48, B48, p) for p in (1.0, 2.0, math.inf)]
        r = rhs_frg1(A, B, 1e-8)
        out.append((r.value.tobytes(), r.error_estimate, r.panels, r.evaluations))
        out.append(frenkel_trace(A, B, 1e-8))
        pc = proof_chain_integrals(A, B, 1e-8)
        chain = np.linalg.norm(r.value + pc.v - pc.w - pc.chain, 2)
        out.append((pc.v.tobytes(), pc.w.tobytes(), chain, pc.residual_log_difference, pc.residual_dlog_representation, pc.evaluations))
        return out

    def test_bitwise_equal_to_serial(self, monkeypatch):
        A48, B48 = _dominated_pair(48)
        rng = np.random.default_rng(311)
        A = rand_pd(rng, 6)
        B = rand_pd(rng, 6)
        fanned = []
        real_executor = workers.executor

        def counting(n):
            fanned.append(n)
            return real_executor(n)

        monkeypatch.setattr(workers, "executor", counting)
        runs = {}
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("FRENKEL_THREADS", threads)
            for forced, min_s in (("on", 0.0), ("off", math.inf)):
                monkeypatch.setattr(quadrature, "FAN_OUT_MIN_S", min_s)
                with monkeypatch.context() as m:
                    seen = _record_quadratures(m)
                    fanned.clear()
                    out = self.run_routes(A48, B48, A, B)
                runs[threads, forced] = (out, seen)
                if forced == "on" and threads != "1":
                    assert fanned and set(fanned) == {int(threads)}
                else:
                    assert not fanned
        reference = runs["1", "off"]
        assert len(reference[1]) > 10
        for key, got in runs.items():
            assert got == reference, key

    def test_busy_executor_never_stalls_the_caller(self, monkeypatch):
        monkeypatch.setenv("FRENKEL_THREADS", "2")
        monkeypatch.setattr(quadrature, "FAN_OUT_MIN_S", 0.0)
        A, B = _dominated_pair(12)
        want = schatten.budget_e_p(A, B, 2.0)
        release = threading.Event()
        pool = workers.executor(2)
        blockers = [pool.submit(release.wait, 30) for _ in range(2)]
        got = []
        caller = threading.Thread(target=lambda: got.append(schatten.budget_e_p(A, B, 2.0)))
        try:
            caller.start()
            caller.join(timeout=30)
            assert not caller.is_alive()
        finally:
            release.set()
            for fut in blockers:
                fut.result(timeout=30)
        assert got == [want]

    def test_chunk_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setenv("FRENKEL_THREADS", "2")
        monkeypatch.setattr(quadrature, "FAN_OUT_MIN_S", 0.0)

        def fv(xs):
            if xs.min() > 3.0:
                raise ArithmeticError("late panel")
            return np.sin(xs)

        with pytest.raises(ArithmeticError, match="late panel"):
            quadrature._adaptive(fv, 0.0, 4.0, 1e-10, kinks=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
