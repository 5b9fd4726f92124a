"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line with the measured extreme against
its pinned tolerance (run with `pytest -s` to see all lines).  The sweeps
are module-scoped fixtures so several criteria can share one pass over the
seeded pairs.
"""

import json
import math
import time

import numpy as np
import pytest

from frenkel import frechet, linalg, pencil, resolvent, schatten
from frenkel.cli import main
from frenkel.divergence import _block_chain, delta_operator, prepare_pair
from frenkel.quadrature import divergence_probe, frenkel_trace, rhs_frg, rhs_frg1
from frenkel.schatten import CompactModel
from util import rand_herm, rand_pd, supported_singular_pair, unsupported_pair

QUAD_TOL = 1e-8
PAIRS_PER_DIM = 200
DIMS = (1, 2, 3, 4, 5, 6, 7, 8)
CONDS = (2.0, 10.0, 50.0, 100.0)


def report(num, ok, text):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, text


@pytest.fixture(scope="module")
def main_sweep():
    """200 seeded PD pairs per dimension 1..8: spectral vs integral routes."""
    rng = np.random.default_rng(20260808)
    max_main = 0.0
    max_forms = 0.0
    max_trace = 0.0
    max_consistency = 0.0
    t_crit1 = 0.0
    count = 0
    for n in DIMS:
        for k in range(PAIRS_PER_DIM):
            cond = CONDS[k % len(CONDS)]
            A = rand_pd(rng, n, cond=cond, scale=float(rng.uniform(0.5, 2.0)))
            B = rand_pd(rng, n, cond=cond, scale=float(rng.uniform(0.5, 2.0)))
            t0 = time.perf_counter()
            rep = delta_operator(A, B)
            r1 = rhs_frg1(A, B, QUAD_TOL)
            t_crit1 += time.perf_counter() - t0
            max_main = max(max_main, float(np.linalg.norm(r1.value - rep.delta, 2)))
            r2 = rhs_frg(A, B, QUAD_TOL)
            max_forms = max(max_forms, float(np.linalg.norm(r1.value - r2.value, 2)))
            ft = frenkel_trace(A, B, QUAD_TOL)
            max_trace = max(max_trace, abs(ft - rep.trace_div))
            max_consistency = max(max_consistency, rep.residual_trace_consistency)
            count += 1
    return {
        "max_main": max_main,
        "max_forms": max_forms,
        "max_trace": max_trace,
        "max_consistency": max_consistency,
        "seconds_crit1": t_crit1,
        "count": count,
    }


def test_criterion_01_main_identity(main_sweep):
    s = main_sweep
    ok = s["max_main"] <= 1e-6 and s["seconds_crit1"] <= 120.0
    report(
        1,
        ok,
        f"gamma-form integral vs spectral divergence: max residual {s['max_main']:.3e} <= 1e-06 "
        f"over {s['count']} pairs in {s['seconds_crit1']:.1f}s (<= 120s)",
    )


def test_criterion_02_form_equivalence(main_sweep):
    s = main_sweep
    ok = s["max_forms"] <= 2e-8
    report(2, ok, f"t-line vs gamma-form quadratures: max gap {s['max_forms']:.3e} <= 2e-08")


def test_criterion_03_trace_formula(main_sweep):
    s = main_sweep
    ok = s["max_trace"] <= 1e-6 and s["max_consistency"] <= 1e-8
    report(
        3,
        ok,
        f"trace integral vs trace divergence: max {s['max_trace']:.3e} <= 1e-06; "
        f"|tr Delta - D|: max {s['max_consistency']:.3e} <= 1e-08",
    )


def test_criterion_04_pairing_identities():
    rng = np.random.default_rng(404)
    worst_trace = 0.0
    worst_identity = 0.0
    for k in range(1000):
        n = 1 + k % 8
        B = rand_pd(rng, n, cond=CONDS[k % len(CONDS)])
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = linalg.hermitian_part(G @ G.conj().T) / n
        r1, r2 = frechet.trace_pairing_check(B, A)
        worst_trace = max(worst_trace, r1 / max(1.0, abs(np.trace(A).real)))
        worst_identity = max(worst_identity, r2)
    ok = worst_trace <= 1e-9 and worst_identity <= 1e-10
    report(
        4,
        ok,
        f"pairing identities on 1000 pairs: trace residual {worst_trace:.3e} <= 1e-09 (scaled), "
        f"identity residual {worst_identity:.3e} <= 1e-10",
    )


def test_criterion_05_oracle_agreement():
    rng = np.random.default_rng(505)
    worst = {"fd": 0.0, "dlog_res": 0.0, "log_res": 0.0, "abs": 0.0, "bdlog": 0.0, "alogdiff": 0.0}
    bounds_ok = True
    # finite differences need tame conditioning; 100 pairs at cond <= 10
    for k in range(100):
        n = 2 + k % 5
        B = rand_pd(rng, n, cond=10.0)
        A = rand_herm(rng, n)
        worst["fd"] = max(
            worst["fd"], float(np.linalg.norm(frechet.dlog(B, A) - frechet.dlog_fd_oracle(B, A), 2))
        )
    for k in range(100):
        n = 1 + k % 6
        B = rand_pd(rng, n, cond=50.0, scale=float(rng.uniform(0.5, 2.0)))
        A = rand_pd(rng, n, cond=50.0, scale=float(rng.uniform(0.5, 2.0)))
        H = A - B
        worst["dlog_res"] = max(
            worst["dlog_res"],
            float(np.linalg.norm(resolvent.dlog_resolvent(B, A, QUAD_TOL) - frechet.dlog(B, A), 2)),
        )
        worst["log_res"] = max(
            worst["log_res"],
            float(np.linalg.norm(resolvent.log_resolvent(B, QUAD_TOL) - linalg.matrix_log(B), 2)),
        )
        worst["abs"] = max(
            worst["abs"],
            float(
                np.linalg.norm(
                    resolvent.abs_resolvent(H, QUAD_TOL) - linalg.parts(H).absolute_value, 2
                )
            ),
        )
        pr = resolvent.bdlog_product(A, B, QUAD_TOL)
        worst["bdlog"] = max(
            worst["bdlog"], float(np.linalg.norm(pr.value - B @ frechet.dlog(B, A), 2))
        )
        bounds_ok = bounds_ok and pr.value_norm <= pr.bound * (1 + 1e-6) + QUAD_TOL
        li = resolvent.alogdiff_integral(A, B, QUAD_TOL)
        worst["alogdiff"] = max(
            worst["alogdiff"], float(np.linalg.norm(li.value - _block_chain(prepare_pair(A, B)), 2))
        )
        if li.within_a is not None:
            bounds_ok = bounds_ok and li.within_a
        if li.within_b is not None:
            bounds_ok = bounds_ok and li.within_b
    ok = (
        worst["fd"] <= 1e-7
        and worst["dlog_res"] <= 1e-6
        and worst["log_res"] <= 1e-6
        and worst["abs"] <= 1e-6
        and worst["bdlog"] <= 1e-6
        and worst["alogdiff"] <= 1e-6
        and bounds_ok
    )
    report(
        5,
        ok,
        "oracle agreement: "
        f"fd {worst['fd']:.2e}<=1e-07, resolvent dlog {worst['dlog_res']:.2e}<=1e-06, "
        f"log {worst['log_res']:.2e}<=1e-06, abs {worst['abs']:.2e}<=1e-06, "
        f"products {worst['bdlog']:.2e}/{worst['alogdiff']:.2e}<=1e-06, bounds violated: {not bounds_ok}",
    )


def test_criterion_06_dichotomy():
    rng = np.random.default_rng(606)
    slopes_ok = True
    worst_ratio = math.inf
    for k in range(6):
        n = 2 + k
        A, B = unsupported_pair(rng, n, corank=1 + k % 2)
        rec = divergence_probe(A, B, (10.0, 100.0, 1000.0, 10000.0), QUAD_TOL)
        ratio = rec.slope / rec.witness_mass
        worst_ratio = min(worst_ratio, ratio)
        slopes_ok = slopes_ok and rec.slope >= 0.9 * rec.witness_mass
    worst_extrap = 0.0
    for k in range(6):
        n = 3 + k % 4
        A, B = supported_singular_pair(rng, n, corank=1 + k % 2)
        rep = delta_operator(A, B)
        eye = np.eye(n)
        d1 = delta_operator(A, B + 1e-6 * eye).delta
        d2 = delta_operator(A, B + 1e-8 * eye).delta
        extrap = (1e-6 * d2 - 1e-8 * d1) / (1e-6 - 1e-8)
        worst_extrap = max(worst_extrap, float(np.linalg.norm(extrap - rep.delta, 2)))
    ok = slopes_ok and worst_extrap <= 1e-5
    report(
        6,
        ok,
        f"dichotomy: probe slope/witness-mass >= 0.9 (min ratio {worst_ratio:.3f}); "
        f"restriction vs eps-extrapolation max {worst_extrap:.3e} <= 1e-05",
    )


def test_criterion_07_continuity_bounds():
    rng = np.random.default_rng(707)
    kato_violations = 0
    araki_violations = 0
    for k in range(1000):
        n = 2 + k % 5
        T1 = rand_herm(rng, n, scale=float(rng.uniform(0.2, 2.0)))
        T2 = T1 + rand_herm(rng, n, scale=float(rng.uniform(1e-6, 1.0)))
        lhs, rhs = pencil.kato_continuity_check(T1, T2)
        if lhs > rhs * (1 + 1e-9):
            kato_violations += 1
        lhs2, rhs2 = pencil.araki_check(T1, T2)
        if lhs2 > rhs2 * (1 + 1e-9):
            araki_violations += 1
    ok = kato_violations == 0 and araki_violations == 0
    report(
        7,
        ok,
        f"continuity sweeps on 1000 pairs: log-modulus violations {kato_violations}, "
        f"Hilbert-Schmidt contraction violations {araki_violations} (both must be 0)",
    )


def test_criterion_08_pencil_ground_truth():
    A = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    Bz = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    grid = np.linspace(-2.0, 2.0, 401)
    curves = pencil.eigencurves(A, -Bz, grid)
    top = np.sqrt(1 + grid**2)
    branch_err = max(
        float(np.abs(curves[0] - top).max()),
        float(np.abs(curves[1]).max()),
        float(np.abs(curves[2] + top).max()),
    )
    crossings = pencil.find_crossings(A, -Bz, (-10.0, 10.0)).crossings
    proj = 0.5 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=complex)
    part_err = float(np.linalg.norm(linalg.parts(A).positive_part - proj, 2))
    ok = branch_err <= 1e-9 and crossings.size == 0 and part_err <= 1e-10
    report(
        8,
        ok,
        f"pencil ground truth: branch error {branch_err:.2e} <= 1e-09, "
        f"real crossings {crossings.size} (must be 0), clipped part error {part_err:.2e} <= 1e-10",
    )


def test_criterion_09_truncation_lemmas():
    N = 128
    model = CompactModel(master_dim=N, law="power", param=1.5, signs="seeded", rotation_seed=909, p=2.0)
    T = schatten.synth_compact(model)
    block_eigs = [np.sort(np.linalg.eigvalsh(T[: n + 1, : n + 1]))[::-1] for n in range(N)]
    interlace_violations = 0
    for n in range(N - 1):
        small, big = block_eigs[n], block_eigs[n + 1]
        if not (np.all(big[: n + 1] >= small - 1e-11) and np.all(small >= big[1:] - 1e-11)):
            interlace_violations += 1
    monotone_violations = 0
    for p in (1.0, 2.0, 4.0, math.inf):
        plus = np.array([schatten._plus_minus_pnorm(e, p)[0] for e in block_eigs])
        minus = np.array([schatten._plus_minus_pnorm(e, p)[1] for e in block_eigs])
        master_plus, master_minus = schatten._plus_minus_pnorm(block_eigs[-1], p)
        if np.any(np.diff(plus) < -1e-11) or np.any(np.diff(minus) < -1e-11):
            monotone_violations += 1
        if plus.max() > master_plus + 1e-11 or minus.max() > master_minus + 1e-11:
            monotone_violations += 1

    mA = CompactModel(master_dim=N, law="power", param=2.0, signs="pos", rotation_seed=911, p=2.0)
    mB = CompactModel(master_dim=N, law="power", param=1.5, signs="pos", rotation_seed=912, p=2.0)
    conv = schatten.theorem3_convergence(mA, mB, 2.0)
    final_gap = float(conv.p_gap[-1])

    def dominated_pair(dim):
        a = CompactModel(master_dim=dim, law="geom", param=0.6, signs="pos", rotation_seed=917, p=2.0)
        b = CompactModel(master_dim=dim, law="power", param=2.0, signs="pos", rotation_seed=917, p=2.0)
        return schatten.synth_compact(a), schatten.synth_compact(b)

    e128 = schatten.budget_e_p(*dominated_pair(N), 2.0, tol=1e-7)
    e256 = schatten.budget_e_p(*dominated_pair(2 * N), 2.0, tol=1e-7)
    drift = abs(e256 - e128) / e128
    ok = (
        interlace_violations == 0
        and monotone_violations == 0
        and final_gap <= 1e-6
        and drift <= 1e-3
    )
    report(
        9,
        ok,
        f"truncation: interlacing violations {interlace_violations}, monotone-norm violations "
        f"{monotone_violations} (both 0), blockwise divergence final gap {final_gap:.2e} <= 1e-06, "
        f"budget drift {drift:.2e} <= 1e-03 under dimension doubling",
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    pair = tmp_path / "pair.json"
    assert main(["gen", "--seed", "1010", "--dim", "6", "-o", str(pair)]) == 0
    blobs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("FRENKEL_THREADS", threads)
        out = tmp_path / f"report_{threads}.json"
        rc = main(["verify", "-i", str(pair), "--tol", "1e-8", "-o", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] and json.loads(blobs[0])["all_pass"]
    report(
        10,
        ok,
        f"byte-identical verify reports across FRENKEL_THREADS in {{1, 8}}: "
        f"{len(blobs[0])} bytes, equal: {blobs[0] == blobs[1]}",
    )
