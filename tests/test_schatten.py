import io
import math

import numpy as np
import pytest

from frenkel import linalg, quadrature, schatten
from frenkel.divergence import prepare_pair
from frenkel.schatten import CompactModel
from util import rand_herm, rand_pd


def geom_model(N=8, signs="pos", seed=-1, p=1.0):
    return CompactModel(master_dim=N, law="geom", param=0.5, signs=signs, rotation_seed=seed, p=p)


class TestSynth:
    def test_trivial_rotation_diagonal(self):
        T = schatten.synth_compact(geom_model())
        assert np.allclose(T, np.diag(0.5 ** np.arange(1, 9)))

    def test_trace_budget_of_geometric_law(self):
        mu = schatten.model_eigenvalues(geom_model())
        assert mu.sum() == pytest.approx(1 - 2.0**-8, abs=1e-15)

    def test_seeded_rotation_preserves_spectrum(self):
        m = CompactModel(master_dim=64, law="power", param=2.0, signs="alt", rotation_seed=5, p=2.0)
        T = schatten.synth_compact(m)
        got = np.sort(np.linalg.eigvalsh(T))
        want = np.sort(schatten.model_eigenvalues(m))
        assert np.abs(got - want).max() <= 1e-10

    def test_non_summable_law_rejected(self):
        with pytest.raises(ValueError, match="summable"):
            CompactModel(master_dim=8, law="power", param=0.4, signs="pos", rotation_seed=1, p=2.0)

    def test_bad_geometric_ratio_rejected(self):
        with pytest.raises(ValueError):
            CompactModel(master_dim=8, law="geom", param=1.1, signs="pos", rotation_seed=1, p=2.0)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            CompactModel(master_dim=2048, law="geom", param=0.5, signs="pos", rotation_seed=1, p=2.0)

    def test_config_roundtrip(self):
        m = schatten.model_from_config(
            {"law": "power", "param": 1.5, "signs": "alt", "N": 16, "p": "inf", "seed": 3}
        )
        assert math.isinf(m.p) and m.master_dim == 16


class TestTruncate:
    def test_full_is_identity(self):
        rng = np.random.default_rng(181)
        T = rand_herm(rng, 5)
        assert np.array_equal(schatten.truncate(T, 5), T)

    def test_first_block(self):
        T = np.arange(9, dtype=float).reshape(3, 3).astype(complex)
        T = (T + T.conj().T) / 2
        got = schatten.truncate(T, 1)
        want = np.zeros_like(T)
        want[0, 0] = T[0, 0]
        assert np.array_equal(got, want)

    def test_out_of_range(self):
        T = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            schatten.truncate(T, 0)
        with pytest.raises(ValueError):
            schatten.truncate(T, 4)

    def test_cauchy_interlacing(self):
        m = CompactModel(master_dim=32, law="power", param=1.5, signs="seeded", rotation_seed=9, p=2.0)
        T = schatten.synth_compact(m)
        prev = None
        for n in range(1, 33):
            evs = np.sort(np.linalg.eigvalsh(T[:n, :n]))[::-1]
            if prev is not None:
                # lambda_i(T_{n}) >= lambda_i(T_{n-1}) >= lambda_{i+1}(T_n)
                assert np.all(evs[: n - 1] >= prev - 1e-11)
                assert np.all(prev >= evs[1:] - 1e-11)
            prev = evs


class TestTruncationSeries:
    def test_diagonal_running_sums(self):
        d = np.array([0.5, -0.3, 0.2, -0.1])
        series = schatten.truncation_series(np.diag(d).astype(complex), 1.0)
        want_plus = np.cumsum(np.clip(d, 0, None))
        assert np.abs(series.plus_norm_p - want_plus).max() <= 1e-12

    def test_rotated_model_monotonicity(self):
        m = CompactModel(master_dim=64, law="power", param=1.5, signs="seeded", rotation_seed=7, p=2.0)
        T = schatten.synth_compact(m)
        for p in (1.0, 2.0, 4.0, math.inf):
            series = schatten.truncation_series(T, p)
            assert np.all(np.diff(series.plus_norm_p) >= -1e-11)
            assert np.all(np.diff(series.minus_norm_p) >= -1e-11)
            master_plus, master_minus = schatten._plus_minus_pnorm(np.linalg.eigvalsh(T), p)
            assert series.plus_norm_p.max() <= master_plus + 1e-11
            assert series.minus_norm_p.max() <= master_minus + 1e-11
            assert series.gap_to_master[-1] <= 1e-9
            # Hilbert-Schmidt gap shrinks monotonically for any input
            assert np.all(np.diff(series.gap_to_master) <= 1e-11)

    def test_strong_residuals_vanish(self):
        m = CompactModel(master_dim=32, law="geom", param=0.7, signs="alt", rotation_seed=3, p=2.0)
        T = schatten.synth_compact(m)
        series = schatten.truncation_series(T, 2.0)
        assert series.strong_residuals[-1].max() <= 1e-12
        first, last = series.strong_residuals[0].max(), series.strong_residuals[-8].max()
        assert last <= first

    def test_block_plus_norm_is_compressed_sup(self):
        rng = np.random.default_rng(182)
        T = rand_herm(rng, 6)
        series = schatten.truncation_series(T, math.inf)
        for n in (2, 4):
            evs = np.linalg.eigvalsh(T[:n, :n])
            want = max(evs.max(), 0.0)
            assert series.plus_norm_p[n - 1] == pytest.approx(want, abs=1e-12)
            samples = rng.standard_normal((n, 64)) + 1j * rng.standard_normal((n, 64))
            samples /= np.linalg.norm(samples, axis=0)
            quad = np.einsum("ij,ik,kj->j", samples.conj(), T[:n, :n], samples).real
            assert max(quad.max(), 0.0) <= want + 1e-12

    def test_csv(self):
        m = geom_model()
        series = schatten.truncation_series(schatten.synth_compact(m), 1.0)
        buf = io.StringIO()
        schatten.write_series_csv(buf, series)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,plus_norm_p,minus_norm_p,gap_to_master,max_strong_residual"
        assert len(lines) == 9


class TestBudget:
    def test_zero_at_equal(self):
        rng = np.random.default_rng(183)
        from util import rand_pd

        B = rand_pd(rng, 3)
        assert schatten.budget_e_p(B, B, 2.0) <= 1e-10

    def test_scalar_trace_budget(self):
        a = np.array([[2.0 + 0j]])
        b = np.array([[1.0 + 0j]])
        got = schatten.budget_e_p(a, b, 1.0, tol=1e-10)
        assert got == pytest.approx(2 * math.log(2) - 1, abs=1e-8)

    def test_support_failure_sentinel(self):
        from util import unsupported_pair

        rng = np.random.default_rng(184)
        A, B = unsupported_pair(rng, 3)
        assert schatten.budget_e_p(A, B, 1.0) == math.inf

    def test_stability_under_doubling(self):
        # jointly rotated laws with bounded ratio keep A <= tau B uniformly
        # in the dimension, the regime where the budget converges
        def pair(N):
            mA = CompactModel(master_dim=N, law="geom", param=0.6, signs="pos", rotation_seed=11, p=2.0)
            mB = CompactModel(master_dim=N, law="power", param=2.0, signs="pos", rotation_seed=11, p=2.0)
            return schatten.synth_compact(mA), schatten.synth_compact(mB)

        e64 = schatten.budget_e_p(*pair(64), 2.0, tol=1e-7)
        e128 = schatten.budget_e_p(*pair(128), 2.0, tol=1e-7)
        assert abs(e128 - e64) / e64 <= 1e-3

    def test_domination_implies_finite(self):
        from frenkel.divergence import domination_tau
        from util import rand_pd, rand_psd

        rng = np.random.default_rng(185)
        A = rand_psd(rng, 4)
        B = rand_pd(rng, 4)
        tau = domination_tau(A, B)
        assert math.isfinite(tau)
        assert math.isfinite(schatten.budget_e_p(A, B, 2.0))


def dominated_pair(N, seed=1):
    """Criterion 9's dominated family: geometric 0.6 against power 2.0, jointly rotated."""
    a = CompactModel(master_dim=N, law="geom", param=0.6, signs="pos", rotation_seed=seed, p=2.0)
    b = CompactModel(master_dim=N, law="power", param=2.0, signs="pos", rotation_seed=seed, p=2.0)
    return schatten.synth_compact(a), schatten.synth_compact(b)


def singular_a_pair():
    """A of rank 3 against a PD B: sigma_min is zero up to rounding, so a = 0."""
    rng = np.random.default_rng(186)
    U = linalg.random_unitary(6, rng)
    A = linalg.hermitian_part((U * np.array([1.0, 0.5, 0.25, 0.0, 0.0, 0.0])) @ U.conj().T)
    return A, rand_pd(rng, 6)


def rounding_negative_pair():
    """A with an eigenvalue of -1e-10 against ||A|| = 1e6, inside the PSD
    slack, and B = I.  At p = inf the u-integrand on (0, 1] is
    (u + 1e-10) / u, so the stretch's integral exceeds delta ||B1||_p by
    1e-10 (1 + log(delta / U_FLOOR)): only the eps term covers it."""
    return np.diag([1e6, -1e-10]).astype(complex), np.eye(2, dtype=complex)


HEAD_PAIRS = {
    "dominated-72": lambda: dominated_pair(72),
    "dominated-80": lambda: dominated_pair(80),
    "dominated-88": lambda: dominated_pair(88),
    "singular-a": singular_a_pair,
    "rounding-negative": rounding_negative_pair,
}


def budget_term(p, tol):
    """budget_e_p's term: the clip's p-norm over c."""
    return quadrature.Term(schatten.EIGS_ABOVE_ZERO, lambda X, c: schatten._pnorm_rows(X, p) / c, tol)


def old_budget_e_p(A, B, p, tol):
    """budget_e_p as hand-written before its integrand became a Term of the
    core: the bit-for-bit reference."""
    pair = prepare_pair(A, B)
    A1, B1, sigma = pair.A1, pair.B1, pair.sigma

    def f(M, c):
        w = np.linalg.eigvalsh(M)
        return schatten._pnorm_rows(np.where(w > 0.0, w, 0.0), p) / c

    def gamma_form(gs):
        return f(A1[None] - gs[:, None, None] * B1[None], gs)

    def u_form(us):
        u = np.maximum(us, quadrature.U_FLOOR)
        return f(u[:, None, None] * B1[None] - A1[None], u)

    total = 0.0
    hi = float(sigma.max())
    if hi > 1.0:
        total += float(quadrature._adaptive(gamma_form, 1.0, hi, tol, kinks=sigma[(sigma > 1.0) & (sigma < hi)]).value)
    a = max(float(sigma.min()), 0.0)
    if a < 1.0:
        head = schatten._u_head(pair, p, tol)[0]
        total += float(quadrature._adaptive(u_form, a, 1.0, tol, kinks=sigma[(sigma > max(a, head)) & (sigma < 1.0)]).value)
    return total


class TestBudgetHead:
    TOL = 1e-6

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("name", ["dominated-24", "singular-a", "rounding-negative"])
    def test_equals_the_hand_written_integrands(self, name, p):
        A, B = dominated_pair(24) if name == "dominated-24" else HEAD_PAIRS[name]()
        assert schatten.budget_e_p(A, B, p, tol=self.TOL) == old_budget_e_p(A, B, p, self.TOL)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("name", list(HEAD_PAIRS))
    def test_stretch_integral_within_bound(self, name, p):
        pair = prepare_pair(*HEAD_PAIRS[name]())
        delta, bound = schatten._u_head(pair, p, self.TOL)
        assert delta > 0.0
        # tol/4 in exact arithmetic; the sum that forms it may round up an ulp
        assert bound <= self.TOL / 4 * (1 + 4 * np.finfo(float).eps)
        # the u-integral over [a, delta], pre-split at every kink inside it
        sigma = pair.sigma
        a = max(float(sigma.min()), 0.0)
        term = budget_term(p, 1e-12)
        f = lambda us: term.integrand(*quadrature._u_pencil(pair.A1, pair.B1, us))
        r = quadrature._adaptive(f, a, delta, 1e-12, kinks=sigma[(sigma > a) & (sigma < delta)])
        assert r.converged
        assert float(r.value) <= bound

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_value_matches_every_kink_split(self, p):
        A, B = dominated_pair(88)
        pair = prepare_pair(A, B)
        want = sum(float(quadrature.clipped_integrals(pair, form, [budget_term(p, self.TOL)])[0].value) for form in ("gamma", "u"))
        assert abs(schatten.budget_e_p(A, B, p, tol=self.TOL) - want) <= self.TOL / 4

    def test_evaluations_at_n88(self, monkeypatch):
        # 1095/1035/1035 (p = inf/2/1) with every u kink pre-split; 720/660/675 with the head
        A, B = dominated_pair(88)
        real = quadrature._adaptive
        evals = []

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            evals.append(res.evaluations)
            return res

        monkeypatch.setattr(quadrature, "_adaptive", counting)
        for p in (1.0, 2.0, math.inf):
            evals.clear()
            schatten.budget_e_p(A, B, p, tol=self.TOL)
            assert sum(evals) <= 720, p

    def test_unconverged_integral_raises(self, monkeypatch):
        A, B = dominated_pair(16)
        monkeypatch.setattr(quadrature, "MAX_PANELS", 1)
        with pytest.raises(ValueError, match=r"the (gamma|u) integral did not converge \(error estimate"):
            schatten.budget_e_p(A, B, 2.0, tol=1e-10)


class TestTheorem3:
    def test_equal_models_zero_distance(self):
        m = CompactModel(master_dim=16, law="power", param=1.5, signs="pos", rotation_seed=4, p=2.0)
        rec = schatten.theorem3_convergence(m, m, 2.0)
        assert rec.p_gap.max() <= 1e-10 or rec.p_gap[-1] <= 1e-10
        assert rec.p_gap[-1] <= 1e-10

    def test_commuting_diagonal_models_scalar_tails(self):
        mA = CompactModel(master_dim=16, law="power", param=2.0, signs="pos", rotation_seed=-1, p=2.0)
        mB = CompactModel(master_dim=16, law="geom", param=0.7, signs="pos", rotation_seed=-1, p=2.0)
        rec = schatten.theorem3_convergence(mA, mB, 2.0)
        a = schatten.model_eigenvalues(mA)
        b = schatten.model_eigenvalues(mB)
        delta_scalar = a * (np.log(a) - np.log(b)) - a + b
        for k, n in enumerate(rec.ns):
            want = float(np.sqrt((delta_scalar[n:] ** 2).sum()))
            assert rec.p_gap[k] == pytest.approx(want, abs=1e-10)

    def test_seeded_models_monotone_to_zero(self):
        mA = CompactModel(master_dim=64, law="power", param=2.0, signs="pos", rotation_seed=11, p=2.0)
        mB = CompactModel(master_dim=64, law="power", param=1.5, signs="pos", rotation_seed=12, p=2.0)
        rec = schatten.theorem3_convergence(mA, mB, 2.0)
        assert rec.p_gap[-1] <= 1e-6
        assert rec.strong_gap[-1] <= 1e-6
        assert np.all(np.diff(rec.p_gap) <= 1e-6 + 0.01 * rec.p_gap[:-1])

    def test_requires_positive_models(self):
        mA = CompactModel(master_dim=8, law="geom", param=0.5, signs="alt", rotation_seed=1, p=2.0)
        mB = geom_model()
        with pytest.raises(ValueError):
            schatten.theorem3_convergence(mA, mB, 2.0)

