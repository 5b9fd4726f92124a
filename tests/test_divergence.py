import math
import sys

import numpy as np
import pytest

from frenkel import cli, divergence, frechet, linalg, quadrature, resolvent, schatten
from frenkel.divergence import delta_operator, o_gamma, prepare_pair, trace_divergence
from util import count_lapack_on, rand_pd, rand_psd, supported_singular_pair, unsupported_pair


class TestOGamma:
    def test_equal_pair(self):
        rng = np.random.default_rng(71)
        B = rand_pd(rng, 3)
        assert np.linalg.norm(o_gamma(B, B, 1.0), 2) <= 1e-12

    def test_diagonal_clip(self):
        got = o_gamma(np.diag([3.0, 1.0]).astype(complex), np.eye(2, dtype=complex), 2.0)
        assert np.allclose(got, np.diag([1.0, 0.0]))

    def test_swapped_clip_bounded_by_b(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            A = rand_psd(rng, 4)
            B = rand_psd(rng, 4)
            for gamma in (0.0, 0.5, 1.0, 10.0):
                assert linalg.opnorm(o_gamma(B, A, gamma)) <= linalg.opnorm(B) * (1 + 1e-12)


class TestDeltaOperator:
    def test_zero_at_equal_arguments(self):
        rng = np.random.default_rng(73)
        for n in (1, 3, 6):
            B = rand_pd(rng, n)
            rep = delta_operator(B, B)
            assert linalg.opnorm(rep.delta) <= 1e-10 * linalg.opnorm(B)

    def test_commuting_diagonal_formula(self):
        a = np.array([2.0, 0.7])
        b = np.array([1.0, 1.4])
        rep = delta_operator(np.diag(a).astype(complex), np.diag(b).astype(complex))
        want = np.diag(a * np.log(a / b) - a + b)
        assert np.linalg.norm(rep.delta - want, 2) <= 1e-12

    def test_divergent_with_witness(self):
        A, B = np.diag([1.0, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(divergence.SupportViolation) as info:
            delta_operator(A, B)
        assert abs(abs(info.value.witness[1]) - 1.0) <= 1e-12
        assert trace_divergence(A, B) == math.inf

    def test_unitary_covariance(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            A = rand_psd(rng, 4)
            B = rand_pd(rng, 4)
            U = linalg.random_unitary(4, rng)
            d1 = delta_operator(U @ A @ U.conj().T, U @ B @ U.conj().T).delta
            d2 = U @ delta_operator(A, B).delta @ U.conj().T
            scale = max(linalg.opnorm(d2), 1.0)
            assert np.linalg.norm(d1 - d2, 2) <= 1e-9 * scale

    def test_joint_scaling(self):
        rng = np.random.default_rng(75)
        A = rand_psd(rng, 4)
        B = rand_pd(rng, 4)
        c = 3.7
        d1 = delta_operator(c * A, c * B).delta
        d2 = c * delta_operator(A, B).delta
        assert np.linalg.norm(d1 - d2, 2) <= 1e-9 * max(linalg.opnorm(d2), 1.0)

    def test_trace_consistency_and_psd(self):
        rng = np.random.default_rng(76)
        for k in range(100):
            n = 1 + k % 6
            A = rand_psd(rng, n)
            B = rand_pd(rng, n)
            rep = delta_operator(A, B)
            assert rep.residual_trace_consistency <= 1e-8 * (1 + abs(rep.trace_div))
            scale = max(linalg.opnorm(rep.delta), 1.0)
            assert rep.delta_min_eigenvalue >= -1e-8 * scale

    def test_restriction_matches_regularization(self):
        rng = np.random.default_rng(77)
        for n in (3, 5):
            A, B = supported_singular_pair(rng, n)
            rep = delta_operator(A, B)
            eps1, eps2 = 1e-6, 1e-8
            eye = np.eye(n)
            d1 = delta_operator(A, B + eps1 * eye).delta
            d2 = delta_operator(A, B + eps2 * eye).delta
            extrap = (eps1 * d2 - eps2 * d1) / (eps1 - eps2)
            assert np.linalg.norm(extrap - rep.delta, 2) <= 1e-5

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            delta_operator(np.diag([1.0, -0.2]).astype(complex), np.eye(2, dtype=complex))


class TestTraceDivergence:
    def test_zero(self):
        rng = np.random.default_rng(79)
        B = rand_pd(rng, 4)
        assert abs(trace_divergence(B, B)) <= 1e-10

    def test_scalar(self):
        got = trace_divergence(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]))
        assert got == pytest.approx(2 * math.log(2) - 1, abs=1e-12)

    def test_matches_trace_of_delta(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            A = rand_psd(rng, 5)
            B = rand_pd(rng, 5)
            rep = delta_operator(A, B)
            assert abs(np.trace(rep.delta).real - trace_divergence(A, B)) <= 1e-8

    def test_klein_nonnegativity(self):
        rng = np.random.default_rng(81)
        for _ in range(200):
            A = rand_psd(rng, 4)
            B = rand_pd(rng, 4)
            d = trace_divergence(A, B)
            scale = linalg.schatten_norm(A, 1) + linalg.schatten_norm(B, 1)
            assert d >= -1e-9 * scale

    def test_unsupported_sentinel(self):
        rng = np.random.default_rng(82)
        A, B = unsupported_pair(rng, 4)
        assert trace_divergence(A, B) == math.inf


class TestDominationTau:
    def test_scalar_ratio(self):
        A = np.diag([1.0, 0.0]).astype(complex)
        B = np.diag([0.5, 0.0]).astype(complex)
        assert divergence.domination_tau(A, B) == pytest.approx(2.0, abs=1e-12)

    def test_unsupported_is_inf(self):
        rng = np.random.default_rng(83)
        A, B = unsupported_pair(rng, 3)
        assert divergence.domination_tau(A, B) == math.inf

    def test_order_verdict_consistency(self):
        rng = np.random.default_rng(84)
        A = rand_psd(rng, 4)
        B = rand_pd(rng, 4)
        tau = divergence.domination_tau(A, B)
        assert linalg.psd_order(A, B, tau * (1 + 1e-9)).holds
        assert not linalg.psd_order(A, B, tau * (1 - 1e-6)).holds


ROUTES = {
    "delta_operator": divergence.delta_operator,
    "trace_divergence": divergence.trace_divergence,
    "domination_tau": divergence.domination_tau,
    "rhs_frg1": lambda A, B: quadrature.rhs_frg1(A, B, 1e-8),
    "rhs_frg": lambda A, B: quadrature.rhs_frg(A, B, 1e-8),
    "frenkel_trace": lambda A, B: quadrature.frenkel_trace(A, B, 1e-8),
    "budget_e_p": lambda A, B: schatten.budget_e_p(A, B, 2.0),
    "proof_chain_integrals": lambda A, B: quadrature.proof_chain_integrals(A, B, 1e-8),
}


@pytest.mark.parametrize("name", [n for n in ROUTES if n != "proof_chain_integrals"] + ["dlog", "bdlog_product"])
def test_zero_pair_routes_return_zero(name):
    # A = B = 0 has support containment and an empty range(B): each route
    # returns its zero value instead of reducing over the empty block.  The
    # verify suite's dlog route is dlog_in on the pair's decomposition of B1
    # (frechet.dlog itself admits no empty operand).
    Z = np.zeros((3, 3), dtype=complex)
    pair = prepare_pair(Z, Z)
    routes = {
        **ROUTES,
        "dlog": lambda A, B: frechet.dlog_in(pair.b1_decomposition, pair.A1),
        "bdlog_product": lambda A, B: resolvent.bdlog_product(A, B, 1e-8),
    }
    out = routes[name](Z, Z)
    if isinstance(out, quadrature.QuadratureResult):
        assert (out.evaluations, out.converged, out.error_estimate) == (0, True, 0.0)
        out = out.value
    elif isinstance(out, divergence.DivergenceReport):
        assert out.trace_div == 0.0
        out = out.delta
    elif isinstance(out, resolvent.ProductIntegral):
        assert out.value_norm <= out.bound * (1 + 1e-6) + 1e-8
        out = out.value
    assert np.all(np.asarray(out) == 0.0)


def _count_setup(monkeypatch, B):
    """Count require_psd calls, and (count_lapack_on) the eigh/eigvalsh calls
    that get B itself."""
    calls = {"require_psd": 0}
    real_require = linalg.require_psd

    def require(*args, **kwargs):
        calls["require_psd"] += 1
        return real_require(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("frenkel") and getattr(module, "require_psd", None) is real_require:
            monkeypatch.setattr(module, "require_psd", require)
    return calls, count_lapack_on(monkeypatch, B)


class TestPreparedPair:
    @pytest.mark.parametrize("kind", ["pd", "singular_b"])
    def test_each_route_sets_up_the_pair_once(self, monkeypatch, kind):
        monkeypatch.setenv("FRENKEL_THREADS", "1")
        rng = np.random.default_rng(85)
        if kind == "pd":
            A, B = rand_pd(rng, 8), rand_pd(rng, 8)
        else:
            A, B = supported_singular_pair(rng, 8, corank=2)
        calls, lapack_on_b = _count_setup(monkeypatch, B)
        for name, route in ROUTES.items():
            if kind == "singular_b" and name == "proof_chain_integrals":
                continue
            calls.update(require_psd=0)
            lapack_on_b.clear()
            route(A, B)
            # require_psd validates A; B reaches LAPACK once, in the eigh that
            # gives its PSD check, the support verdict and the restriction.
            assert (calls["require_psd"], dict(lapack_on_b)) == (1, {("eigh", 0): 1}), name

    def test_chain_decomposes_a_once(self, monkeypatch):
        # proof_chain_integrals reads A's decomposition from the prepared
        # pair, as the chain A(log A - log B) does.
        rng = np.random.default_rng(88)
        A, B = rand_pd(rng, 6), rand_pd(rng, 6)
        lapack = count_lapack_on(monkeypatch, A)
        quadrature.proof_chain_integrals(A, B, 1e-8)
        assert lapack["eigh", 0] == 1

    def test_b_fails_validation_on_its_eigh(self):
        # B's PSD check reads the eigh that prepare_pair takes anyway, and
        # the checks keep their order: the shapes (as_hermitian_pair), then
        # A, then B.
        rng = np.random.default_rng(89)
        P, N = rand_pd(rng, 3), -rand_pd(rng, 3)
        w = np.linalg.eigh(N)[0]
        with pytest.raises(ValueError) as exc:
            prepare_pair(P, N)
        assert str(exc.value) == f"B is not positive semidefinite (min eigenvalue {w.min():.6e})"
        with pytest.raises(ValueError, match="^A is not positive semidefinite"):
            prepare_pair(N, N)
        with pytest.raises(ValueError, match=r"^dimension mismatch \(3, 3\) vs \(4, 4\)$"):
            prepare_pair(N, -rand_pd(rng, 4))
        with pytest.raises(ValueError, match="^dimension mismatch"):
            prepare_pair(P, rand_pd(rng, 4))

    def test_matches_the_standalone_steps(self):
        rng = np.random.default_rng(86)
        pairs = [(rand_pd(rng, 5), rand_pd(rng, 5)), supported_singular_pair(rng, 6, corank=2)]
        for A, B in pairs:
            pair = prepare_pair(A, B)
            assert pair.support.holds and linalg.support_relation(A, B).holds
            V, A1, B1 = divergence.restrict_pair(A, B)
            assert (pair.V is None) == (V is None)
            if V is not None:
                assert pair.V.tobytes() == V.tobytes()
            assert pair.A1.tobytes() == A1.tobytes() and pair.B1.tobytes() == B1.tobytes()
            assert pair.sigma.tobytes() == divergence.relative_spectrum(A1, B1).tobytes()
            dec = linalg.eig_hermitian(B1)
            assert pair.b1_decomposition.eigenvalues.tobytes() == dec.eigenvalues.tobytes()
            assert pair.b1_decomposition.eigenvectors.tobytes() == dec.eigenvectors.tobytes()

    def test_unsupported_pair_carries_the_witness(self):
        rng = np.random.default_rng(87)
        A, B = unsupported_pair(rng, 5)
        pair = prepare_pair(A, B)
        want = linalg.support_relation(A, B)
        assert not pair.support.holds
        assert pair.support.witness.tobytes() == want.witness.tobytes()
        assert pair.V is None and pair.A1 is None and pair.B1 is None


@pytest.mark.parametrize("seed, dim", [(1, 2), (3, 5), (7, 8)])
def test_one_support_gate(seed, dim):
    # The three operator-valued routes start from divergence.supported_pair:
    # on a gen --unsupported pair each raises SupportViolation carrying the
    # support verdict's witness, while the scalar routes return D = inf.
    A, B = cli.generate_pair(cli.RunConfig(command="gen", seed=seed, dim=dim, unsupported=True))
    want = linalg.support_relation(A, B)
    assert not want.holds
    for route in ("delta_operator", "rhs_frg1", "rhs_frg"):
        with pytest.raises(divergence.SupportViolation) as info:
            ROUTES[route](A, B)
        assert info.value.witness.tobytes() == want.witness.tobytes(), route
    for route in ("trace_divergence", "domination_tau", "frenkel_trace", "budget_e_p"):
        assert ROUTES[route](A, B) == math.inf, route
