import json
import math
import os
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from frenkel import cli, frechet, linalg, quadrature, workers
from frenkel.cli import RunConfig, generate_pair, main, run_verification_suite
from frenkel.io import pair_json, read_pair, write_pair
from util import count_lapack_on

SRC = Path(__file__).resolve().parents[1] / "src"


class TestGeneratePair:
    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        assert main(["gen", "--seed", "5", "--dim", "4", "-o", str(out1)]) == 0
        assert main(["gen", "--seed", "5", "--dim", "4", "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_commuting(self):
        A, B = generate_pair(RunConfig(command="gen", seed=3, dim=5, commuting=True))
        comm = A @ B - B @ A
        scale = linalg.opnorm(A) * linalg.opnorm(B)
        assert np.linalg.norm(comm, 2) <= 1e-12 * scale

    def test_singular_b_supported(self):
        A, B = generate_pair(RunConfig(command="gen", seed=4, dim=6, singular_b=True))
        assert linalg.support_relation(A, B).holds
        rank = int((np.linalg.eigvalsh(B) > 1e-12 * linalg.opnorm(B)).sum())
        assert rank < 6

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_singular_b_at_small_dims(self, dim):
        # At dim 1, --singular-b gives A = B = 0.
        A, B = generate_pair(RunConfig(command="gen", seed=1, dim=dim, singular_b=True))
        assert not linalg.positive_definite_spectrum(np.linalg.eigvalsh(B))
        assert linalg.support_relation(A, B).holds

    def test_unsupported(self):
        A, B = generate_pair(RunConfig(command="gen", seed=5, dim=6, unsupported=True))
        assert not linalg.support_relation(A, B).holds

    def test_psd_outputs(self):
        for seed in range(5):
            A, B = generate_pair(RunConfig(command="gen", seed=seed, dim=4))
            assert np.linalg.eigvalsh(A).min() > 0
            assert np.linalg.eigvalsh(B).min() > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(command="gen", dim=0)
        with pytest.raises(ValueError):
            RunConfig(command="gen", tol=1.0)
        with pytest.raises(ValueError):
            RunConfig(command="nope")

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        assert main(["gen", "--seed", "-1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "frenkel: error: seed must be non-negative\n"
        assert not out.exists()


class TestVerify:
    def test_pipeline_exit_zero(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        report_path = tmp_path / "report.json"
        assert main(["gen", "--seed", "42", "--dim", "5", "-o", str(pair)]) == 0
        assert main(["verify", "-i", str(pair), "--tol", "1e-8", "-o", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        assert report["all_pass"] is True
        assert report["dichotomy"] == "finite"
        names = [it["name"] for it in report["items"]]
        assert "main_identity_gamma_form" in names and "kato_bound" in names
        for it in report["items"]:
            assert it["pass"]

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        cases = {"pd": (["--dim", "4"], []), "singular": (["--dim", "6", "--singular-b"], ["--diagnostics"])}
        for case, (gen_flags, verify_flags) in cases.items():
            pair = tmp_path / f"pair_{case}.json"
            main(["gen", "--seed", "9", *gen_flags, "-o", str(pair)])
            outs = []
            for threads in ("1", "2", "8"):
                monkeypatch.setenv("FRENKEL_THREADS", threads)
                out = tmp_path / f"report_{case}_{threads}.json"
                assert main(["verify", "-i", str(pair), *verify_flags, "-o", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1] == outs[2], case

    def test_divergent_pair_routes_to_probe(self, tmp_path):
        pair = tmp_path / "pair.json"
        report_path = tmp_path / "report.json"
        main(["gen", "--seed", "11", "--dim", "6", "--unsupported", "-o", str(pair)])
        rc = main(["verify", "-i", str(pair), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["dichotomy"] == "divergent"
        assert report["probe"]["slope"] >= 0.9 * report["probe"]["witness_mass"]
        assert rc == 0

    @pytest.mark.parametrize("zero", [False, True])
    def test_equal_pair_verifies(self, tmp_path, zero):
        # D(A||A) = 0, on a generated A and on A = 0, where range(B) is
        # empty.  kato_bound's two sides are both 0 there.
        A = np.zeros((3, 3), dtype=complex) if zero else generate_pair(RunConfig(command="gen", seed=1, dim=4))[0]
        pair = tmp_path / "pair.json"
        report_path = tmp_path / "report.json"
        write_pair(pair, A, A, seed=1)
        assert main(["verify", "-i", str(pair), "-o", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["dichotomy"] == "finite" and report["all_pass"] is True
        items = {it["name"]: it for it in report["items"]}
        assert len(items) == 19 and items["kato_bound"]["lhs"] == items["kato_bound"]["rhs"] == 0.0
        assert items["main_identity_gamma_form"]["skipped"] is False

    def test_supported_singular_pair_verifies(self, tmp_path):
        pair = tmp_path / "pair.json"
        report_path = tmp_path / "report.json"
        main(["gen", "--seed", "12", "--dim", "6", "--singular-b", "-o", str(pair)])
        assert main(["verify", "-i", str(pair), "-o", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["all_pass"] is True
        skipped = {it["name"] for it in report["items"] if it.get("skipped")}
        assert "log_resolvent_oracle" in skipped

    @pytest.mark.parametrize("kind", ["zero-a", "psd-kernel-a"])
    def test_a_singular_on_range_b_verifies(self, tmp_path, kind):
        # sigma_min = 0: the gamma form's u-panel from u = 0 is logged up to
        # gamma = inf.  Both pairs once ended in a ZeroDivisionError traceback
        # with exit 1 and no report.
        if kind == "zero-a":
            A, B = np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)
        else:
            U = linalg.random_unitary(4, np.random.default_rng(5))
            A, B = linalg.rebuild(U, np.array([1.0, 0.5, 0.2, 0.0])), 1.3 * np.eye(4, dtype=complex)
        pair = tmp_path / "pair.json"
        report_path = tmp_path / "report.json"
        write_pair(pair, A, B, seed=1)
        assert main(["verify", "-i", str(pair), "--diagnostics", "-o", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["all_pass"] is True and len(report["items"]) == 19
        gamma_form = report["diagnostics"]["gamma_form"]
        ends = [x for lo, hi, _ in gamma_form["panels"] for x in (lo, hi)]
        assert gamma_form["converged"] is True
        assert "inf" in ends and min(x for x in ends if x != "inf") == 1.0

    def test_ill_conditioned_pd_pair_reports_every_item(self, tmp_path):
        # sigma spans 2.2e-8 .. 6.0e7, yet A and B are each PD on their own
        # spectra: the chain items run and the pair ends in a full report.
        pair = tmp_path / "pair.json"
        out = tmp_path / "r.json"
        main(["gen", "--seed", "3", "--dim", "3", "--cond", "1e8", "-o", str(pair)])
        assert main(["verify", "-i", str(pair), "-o", str(out)]) == 1
        items = json.loads(out.read_text())["items"]
        assert len(items) == 19
        for it in items:
            assert not it["skipped"] and isinstance(it["residual"], float), it["name"]
        passed = {it["name"]: it["pass"] for it in items}
        # log_difference_representation also guards the chain's grouping:
        # stacking u[P/u^2] with u[B P, P/u] caps that tree on this pair.
        assert passed["chain_identity"] and passed["log_difference_representation"]

    def test_identity_failure_exits_one(self, tmp_path, monkeypatch):
        pair = tmp_path / "pair.json"
        main(["gen", "--seed", "1", "--dim", "3", "-o", str(pair)])
        fake = {"schema": 1, "all_pass": False, "items": []}
        monkeypatch.setattr(cli, "run_verification_suite", lambda *a, **k: fake)
        rc = main(["verify", "-i", str(pair), "-o", str(tmp_path / "r.json")])
        assert rc == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_raising_shared_route_exits_two_without_report(self, tmp_path, monkeypatch, capsys, threads):
        pair = tmp_path / "pair.json"
        out = tmp_path / "r.json"
        main(["gen", "--seed", "17", "--dim", "3", "-o", str(pair)])

        def boom(*args, **kwargs):
            raise ValueError("chain failed")

        monkeypatch.setattr(cli, "proof_chain_integrals", boom)
        monkeypatch.setenv("FRENKEL_THREADS", threads)
        assert main(["verify", "-i", str(pair), "-o", str(out)]) == 2
        assert "frenkel: error: chain failed" in capsys.readouterr().err
        assert not out.exists()

    def test_no_route_is_left_running_after_a_raise(self, tmp_path, monkeypatch, capsys):
        # The chain raises at once while dlog, read only by items after the
        # chain's readers, still sleeps: main must not return before it ends.
        pair = tmp_path / "pair.json"
        out = tmp_path / "r.json"
        main(["gen", "--seed", "17", "--dim", "3", "-o", str(pair)])
        finished = threading.Event()

        def boom(*args, **kwargs):
            raise ValueError("chain failed")

        def slow_dlog_in(*args):
            time.sleep(0.5)
            finished.set()
            return frechet.dlog_in(*args)

        monkeypatch.setattr(cli, "proof_chain_integrals", boom)
        monkeypatch.setattr(cli, "frechet", types.SimpleNamespace(**{**vars(frechet), "dlog_in": slow_dlog_in}))
        monkeypatch.setenv("FRENKEL_THREADS", "2")
        assert main(["verify", "-i", str(pair), "-o", str(out)]) == 2
        assert finished.is_set()
        assert "frenkel: error: chain failed" in capsys.readouterr().err
        assert not out.exists()

    def test_hermiticity_defect_exits_two(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        main(["gen", "--seed", "3", "--dim", "4", "-o", str(pair)])
        obj = json.loads(pair.read_text())
        obj["A"]["re"][0][1] += 1e-3
        pair.write_text(json.dumps(obj))
        assert main(["verify", "-i", str(pair), "-o", str(tmp_path / "r.json")]) == 2
        assert "matrix A" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf", "1.0"])
    def test_out_of_range_tol_exits_two_without_report(self, tmp_path, capsys, tol):
        pair = tmp_path / "pair.json"
        out = tmp_path / "r.json"
        assert main(["gen", "--seed", "1", "--dim", "3", "-o", str(pair)]) == 0
        rc = []
        # --tol=VALUE, so that argparse does not take "-1e-8" for an option.
        argv = ["verify", "-i", str(pair), f"--tol={tol}", "-o", str(out)]
        runner = threading.Thread(target=lambda: rc.append(main(argv)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), f"verify --tol {tol} did not finish"
        assert rc == [2]
        assert "tol must be in [1e-12, 1e-2]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_two(self, tmp_path):
        rc = main(["verify", "-i", str(tmp_path / "nope.json"), "-o", str(tmp_path / "r.json")])
        assert rc == 2

    def test_diagnostics_mode_embeds_panel_logs(self, tmp_path):
        pair = tmp_path / "pair.json"
        report_path = tmp_path / "report.json"
        main(["gen", "--seed", "31", "--dim", "3", "-o", str(pair)])
        assert main(["verify", "-i", str(pair), "--diagnostics", "-o", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        diag = report["diagnostics"]
        for key in ("gamma_form", "t_line"):
            assert diag[key]["evaluations"] > 0
            assert diag[key]["converged"] is True
            assert len(diag[key]["panels"]) >= 1
        # The suite's own quadratures, equal to direct calls.
        A, B = read_pair(pair)
        direct = {"gamma_form": cli._panel_log(cli.rhs_frg1(A, B, 1e-8)), "t_line": cli._panel_log(cli.rhs_frg(A, B, 1e-8))}
        assert diag == json.loads(json.dumps(direct))


class TestThreadSetting:
    """FRENKEL_THREADS parsing; no test here starts a thread."""

    @pytest.mark.parametrize("raw, want", [("1", 1), ("3", 3), (" 2 ", 2), ("100000", 100000)])
    def test_accepts_positive_integers(self, monkeypatch, raw, want):
        monkeypatch.setenv("FRENKEL_THREADS", raw)
        assert cli._threads() == want

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_default_is_min_of_eight_and_nproc(self, monkeypatch, raw):
        monkeypatch.setenv("FRENKEL_THREADS", raw)
        assert cli._threads() == min(8, os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["0", "-1", "-64", "two", "1.5"])
    def test_rejects_values_below_one_and_non_integers(self, monkeypatch, raw):
        monkeypatch.setenv("FRENKEL_THREADS", raw)
        with pytest.raises(ValueError, match="FRENKEL_THREADS"):
            cli._threads()

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_verify_exits_two_on_bad_setting(self, tmp_path, monkeypatch, capsys, raw):
        pair = tmp_path / "pair.json"
        out = tmp_path / "r.json"
        assert main(["gen", "--seed", "2", "--dim", "3", "-o", str(pair)]) == 0
        monkeypatch.setenv("FRENKEL_THREADS", raw)
        assert main(["verify", "-i", str(pair), "-o", str(out)]) == 2
        assert "FRENKEL_THREADS must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestPanelFanOutInVerify:
    """verify with the driver's panel fan-out forced on, sharing the item executor."""

    def test_forced_fan_out_keeps_bytes_and_finishes(self, tmp_path, monkeypatch):
        cases = {"pd": ["--dim", "6"], "singular": ["--dim", "12", "--singular-b"]}
        pools = []
        real_executor = workers.executor

        def counting(n):
            pools.append(n)
            return real_executor(n)

        monkeypatch.setattr(workers, "executor", counting)
        for case, gen_flags in cases.items():
            pair = tmp_path / f"pair_{case}.json"
            assert main(["gen", "--seed", "29", *gen_flags, "-o", str(pair)]) == 0
            outs = {}
            for threads, min_s in (("1", math.inf), ("1", 0.0), ("2", 0.0), ("8", 0.0)):
                monkeypatch.setenv("FRENKEL_THREADS", threads)
                monkeypatch.setattr(quadrature, "FAN_OUT_MIN_S", min_s)
                out = tmp_path / f"report_{case}_{threads}_{min_s}.json"
                rc = []
                pools.clear()
                runner = threading.Thread(target=lambda: rc.append(main(["verify", "-i", str(pair), "--diagnostics", "-o", str(out)])))
                runner.start()
                runner.join(timeout=120)
                assert not runner.is_alive(), f"verify did not finish ({case}, {threads} threads)"
                assert rc == [0]
                # One executor lookup for the suite, the rest from panel fan-outs.
                assert (pools.count(int(threads)) > 1 if threads != "1" else pools == [1]), (threads, pools)
                outs[threads, min_s] = out.read_bytes()
            assert len(set(outs.values())) == 1, case


class TestSharedRoutes:
    """Each route the suite shares runs once per pair, and --diagnostics reuses it.

    The clipped-pencil integrals run on one route per node set: on PD pairs
    the chain also yields rhs_frg1's result and the trace's u part, elsewhere
    rhs_frg1 yields that part; rhs_frg yields the trace's s part.
    """

    @staticmethod
    def gen(tmp_path, seed, dim, flags):
        pair = tmp_path / "pair.json"
        main(["gen", "--seed", seed, "--dim", dim, *flags, "-o", str(pair)])
        return pair

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("diagnostics", [False, True])
    def test_each_shared_route_runs_once(self, tmp_path, monkeypatch, threads, diagnostics):
        expected = {
            # dlog(B1, A1), from the pair's decomposition of B1, is shared
            # by the two dlog oracles and bdlog_product_oracle.
            "pd": {
                "delta_operator": 1,
                "proof_chain_integrals": 1,
                "rhs_frg(trace)": 1,
                "trace_pairing_check": 1,
                "dlog_in": 1,
            },
            "singular-b": {"delta_operator": 1, "rhs_frg1(trace)": 1, "rhs_frg(trace)": 1, "dlog_in": 1},
        }
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name + "".join(f"({key})" for key in kwargs))
                return fn(*args, **kwargs)

            return wrapper

        for name in ("delta_operator", "rhs_frg1", "rhs_frg", "proof_chain_integrals"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        # The suite's trace comes from the shared routes, never from frenkel_trace.
        monkeypatch.setattr(quadrature, "frenkel_trace", counted("frenkel_trace", quadrature.frenkel_trace))
        # Only the suite's own frechet calls count, not those inside frechet.
        proxy = types.SimpleNamespace(**vars(frechet))
        for name in ("trace_pairing_check", "dlog", "dlog_in"):
            setattr(proxy, name, counted(name, getattr(frechet, name)))
        monkeypatch.setattr(cli, "frechet", proxy)
        monkeypatch.setenv("FRENKEL_THREADS", threads)
        for kind, flags in (("pd", []), ("singular-b", ["--singular-b"])):
            pair = self.gen(tmp_path, "23", "4", flags)
            argv = ["verify", "-i", str(pair), "-o", str(tmp_path / "r.json")] + (["--diagnostics"] if diagnostics else [])
            calls.clear()
            assert main(argv) == 0
            assert Counter(calls) == expected[kind], kind

    @pytest.mark.parametrize("flags", [[], ["--singular-b"]], ids=["pd", "singular-b"])
    def test_shared_routes_start_before_their_readers(self, tmp_path, monkeypatch, flags):
        pair = self.gen(tmp_path, "23", "6", flags)
        starts = []  # names in start order; list.append is atomic

        def started(name, fn):
            def wrapper(*args, **kwargs):
                starts.append(name)
                return fn(*args, **kwargs)

            return wrapper

        gamma_form = {"main_identity_gamma_form", "form_equivalence", "trace_formula", "quadrature_psd"}
        chain = {"chain_identity", "log_difference_representation", "dlog_representation"}
        readers = {"rhs_frg": {"form_equivalence", "trace_formula"}}
        if flags:
            readers["rhs_frg1"] = gamma_form
        else:
            readers["proof_chain_integrals"] = gamma_form | chain
        for name in ("rhs_frg1", "rhs_frg", "proof_chain_integrals"):
            monkeypatch.setattr(cli, name, started(name, getattr(cli, name)))
        real_items = cli._suite_items
        monkeypatch.setattr(cli, "_suite_items", lambda *a: [(n, started(n, t)) for n, t in real_items(*a)])
        monkeypatch.setenv("FRENKEL_THREADS", "2")
        assert main(["verify", "-i", str(pair), "-o", str(tmp_path / "r.json")]) == 0
        routes = [name for name in starts if name in ("rhs_frg1", "rhs_frg", "proof_chain_integrals")]
        assert sorted(routes) == sorted(readers)
        for route in routes:
            assert all(starts.index(route) < starts.index(item) for item in readers[route]), (route, starts)


class TestSuiteLapackWork:
    """The suite reads each operand's spectrum from the pair that holds it."""

    @pytest.mark.parametrize("flags, most", [([], 46), (["--singular-b"], 45)], ids=["pd", "singular-b"])
    def test_single_matrix_calls(self, tmp_path, monkeypatch, flags, most):
        pair = tmp_path / "pair.json"
        assert main(["gen", "--seed", "1", "--dim", "16", "--cond", "1e3", *flags, "-o", str(pair)]) == 0
        A, B = read_pair(pair)
        calls = Counter()
        for name in ("eigh", "eigvalsh", "inv"):

            def lapack(M, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += np.ndim(M) == 2
                return _real(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, lapack)
        monkeypatch.setenv("FRENKEL_THREADS", "1")
        run_verification_suite(A, B, 1e-8)
        assert sum(calls.values()) <= most, dict(calls)

    def test_a_definite_reads_a1_decomposition(self, monkeypatch):
        A, B = generate_pair(RunConfig(command="gen", seed=1, dim=16, condition_target=1e3))
        pair = cli.prepare_pair(A, B)
        lapack = count_lapack_on(monkeypatch, pair.A)
        assert cli._definiteness(pair) == (True, True)
        pair.a1_decomposition
        assert dict(lapack) == {("eigh", 0): 1}


class TestModuleEntryPoint:
    def test_python_m_frenkel_help(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "frenkel", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verify" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr


class TestPencilCommand:
    def test_csv_matches_library(self, tmp_path):
        pair = tmp_path / "pair.json"
        curves_path = tmp_path / "curves.csv"
        main(["gen", "--seed", "2", "--dim", "3", "-o", str(pair)])
        rc = main(
            ["pencil", "-i", str(pair), "--from", "-2", "--to", "2", "--points", "41", "-o", str(curves_path)]
        )
        assert rc == 0
        lines = curves_path.read_text().strip().split("\n")
        assert lines[0] == "gamma,lambda_1,lambda_2,lambda_3"
        assert len(lines) == 42
        from frenkel.pencil import eigencurves

        A, B = read_pair(pair)
        grid = np.linspace(-2, 2, 41)
        curves = eigencurves(A, B, grid)
        row5 = [float(x) for x in lines[5].split(",")]
        assert row5[0] == pytest.approx(grid[4])
        assert row5[1:] == pytest.approx(list(curves[:, 4].astype(float)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ends", [("nan", "1"), ("0", "inf"), ("-inf", "inf")])
    def test_non_finite_grid_exits_two(self, tmp_path, capsys, ends):
        pair, out = tmp_path / "pair.json", tmp_path / "curves.csv"
        main(["gen", "--seed", "2", "--dim", "3", "-o", str(pair)])
        assert main(["pencil", "-i", str(pair), f"--from={ends[0]}", f"--to={ends[1]}", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "frenkel: error: eigencurves: the grid must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_exits_two(self, tmp_path, capsys, points):
        pair, out = tmp_path / "pair.json", tmp_path / "curves.csv"
        main(["gen", "--seed", "2", "--dim", "3", "-o", str(pair)])
        assert main(["pencil", "-i", str(pair), "--from", "0", "--to", "1", f"--points={points}", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"frenkel: error: --points must be at least 1, got {points}\n"
        assert not out.exists()

    def test_one_point(self, tmp_path):
        pair, out = tmp_path / "pair.json", tmp_path / "curves.csv"
        main(["gen", "--seed", "2", "--dim", "3", "-o", str(pair)])
        assert main(["pencil", "-i", str(pair), "--from", "0.5", "--to", "1", "--points", "1", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 0.5


class TestTruncateCommand:
    def test_experiment_runs(self, tmp_path):
        config = tmp_path / "exp.json"
        out = tmp_path / "series.csv"
        config.write_text(
            json.dumps({"law": "power", "param": 1.5, "signs": "alt", "N": 16, "p": 2.0, "seed": 7})
        )
        assert main(["truncate", "--config", str(config), "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 17

    def test_bad_config_exits_two(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"law": "power", "param": 0.1, "signs": "pos", "N": 8, "p": 2.0, "seed": 1}))
        assert main(["truncate", "--config", str(config), "-o", str(tmp_path / "s.csv")]) == 2

    def test_seeded_signs_accept_seed_minus_one(self, tmp_path):
        # -1 draws the signs from seed 0 and keeps the trivial rotation.
        config, out = tmp_path / "exp.json", tmp_path / "s.csv"
        config.write_text(json.dumps({"law": "power", "param": 1.5, "signs": "seeded", "N": 8, "p": 2.0, "seed": -1}))
        assert main(["truncate", "--config", str(config), "-o", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 9


class TestProbeCommand:
    def test_growth_csv(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        out = tmp_path / "growth.csv"
        main(["gen", "--seed", "13", "--dim", "5", "--unsupported", "-o", str(pair)])
        rc = main(["probe", "-i", str(pair), "--checkpoints", "10,100,1000", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,witness_quadratic_form"
        assert len(lines) == 4
        assert "slope=" in capsys.readouterr().out

    @pytest.mark.parametrize("last", ["1e20", "1e300", "inf", "nan"])
    def test_checkpoint_beyond_the_zero_band_exits_two(self, tmp_path, capsys, last):
        pair = tmp_path / "pair.json"
        out = tmp_path / "g.csv"
        main(["gen", "--seed", "4", "--dim", "4", "--unsupported", "-o", str(pair)])
        assert main(["probe", "-i", str(pair), "--checkpoints", f"10,{last}", "-o", str(out)]) == 2
        assert "t_max" in capsys.readouterr().err
        assert not out.exists()

    def test_no_checkpoint_exits_two(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        out = tmp_path / "g.csv"
        main(["gen", "--seed", "4", "--dim", "4", "--unsupported", "-o", str(pair)])
        assert main(["probe", "-i", str(pair), "--checkpoints", "", "-o", str(out)]) == 2
        assert "divergence_probe: needs at least one checkpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("checkpoints, token", [("10,abc", "abc"), ("10,,100", ""), ("10, ,100", ""), ("10,", "")])
    def test_malformed_checkpoint_exits_two(self, tmp_path, capsys, checkpoints, token):
        pair = tmp_path / "pair.json"
        out = tmp_path / "g.csv"
        main(["gen", "--seed", "4", "--dim", "4", "--unsupported", "-o", str(pair)])
        assert main(["probe", "-i", str(pair), f"--checkpoints={checkpoints}", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"frenkel: error: --checkpoints: {token!r} is not a number\n"
        assert not out.exists()

    def test_whitespace_around_checkpoints_accepted(self, tmp_path):
        pair = tmp_path / "pair.json"
        main(["gen", "--seed", "4", "--dim", "4", "--unsupported", "-o", str(pair)])
        spaced, plain = tmp_path / "spaced.csv", tmp_path / "plain.csv"
        assert main(["probe", "-i", str(pair), "--checkpoints", " 10 , 100 ", "-o", str(spaced)]) == 0
        assert main(["probe", "-i", str(pair), "--checkpoints", "10,100", "-o", str(plain)]) == 0
        assert spaced.read_bytes() == plain.read_bytes()

    def test_repeated_checkpoint_exits_two(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        out = tmp_path / "g.csv"
        main(["gen", "--seed", "4", "--dim", "4", "--unsupported", "-o", str(pair)])
        assert main(["probe", "-i", str(pair), "--checkpoints", "10,10,100", "-o", str(out)]) == 2
        assert "divergence_probe: checkpoints must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["1", "2"])
    @pytest.mark.parametrize("cond", ["1", "1e3", "1e6"])
    def test_zero_b_pair(self, tmp_path, capsys, seed, cond):
        # gen --dim 1 --unsupported makes B = 0: the integrand is A / gamma,
        # so the slope is the witness mass and no checkpoint is beyond reach.
        pair = tmp_path / "pair.json"
        report = tmp_path / "r.json"
        main(["gen", "--seed", seed, "--dim", "1", "--cond", cond, "--unsupported", "-o", str(pair)])
        assert read_pair(pair)[1][0, 0] == 0.0
        assert main(["verify", "-i", str(pair), "-o", str(report)]) == 0
        probe = json.loads(report.read_text())["probe"]
        assert probe["slope"] == pytest.approx(probe["witness_mass"], rel=1e-9)
        capsys.readouterr()
        assert main(["probe", "-i", str(pair), "-o", str(tmp_path / "g.csv")]) == 0
        fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
        assert float(fields["slope"]) == pytest.approx(float(fields["witness_mass"]), rel=1e-9)

    def test_supported_pair_exits_two(self, tmp_path):
        pair = tmp_path / "pair.json"
        main(["gen", "--seed", "14", "--dim", "4", "-o", str(pair)])
        rc = main(["probe", "-i", str(pair), "-o", str(tmp_path / "g.csv")])
        assert rc == 2

    def test_tol_matches_verify(self, tmp_path):
        # The CSV values are those of verify's probe block at the same tol.
        pair = tmp_path / "pair.json"
        report = tmp_path / "r.json"
        csv = tmp_path / "g.csv"
        main(["gen", "--seed", "1", "--dim", "8", "--unsupported", "-o", str(pair)])
        assert main(["verify", "-i", str(pair), "--tol", "1e-4", "-o", str(report)]) == 0
        assert main(["probe", "-i", str(pair), "--tol", "1e-4", "-o", str(csv)]) == 0
        values = [float(line.split(",")[1]) for line in csv.read_text().splitlines()[1:]]
        assert values == json.loads(report.read_text())["probe"]["values"]
        default = tmp_path / "default.csv"
        assert main(["probe", "-i", str(pair), "-o", str(default)]) == 0
        assert default.read_text() != csv.read_text()

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf", "1.0", "1e-13"])
    def test_out_of_range_tol_exits_two_without_csv(self, tmp_path, capsys, tol):
        pair = tmp_path / "pair.json"
        out = tmp_path / "g.csv"
        main(["gen", "--seed", "4", "--dim", "4", "--unsupported", "-o", str(pair)])
        assert main(["probe", "-i", str(pair), f"--tol={tol}", "-o", str(out)]) == 2
        assert "tol must be in [1e-12, 1e-2]" in capsys.readouterr().err
        assert not out.exists()


def _pair_text(edit) -> str:
    """A valid dim-2 pair file, passed through edit(obj) -> obj."""
    A, B = generate_pair(RunConfig(command="gen", seed=1, dim=2))
    return json.dumps(edit(json.loads(pair_json(A, B))))


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


MALFORMED_PAIRS = {
    "not JSON": lambda: "{",
    "top level an array": lambda: _pair_text(lambda obj: [obj["A"], obj["B"]]),
    "A a list": lambda: _pair_text(lambda obj: {**obj, "A": obj["A"]["re"]}),
    "re an object": lambda: _pair_text(lambda obj: {**obj, "A": {**obj["A"], "re": {"0": 1.0}}}),
    "re holds objects": lambda: _pair_text(lambda obj: {**obj, "A": {**obj["A"], "re": [[{}, 0.0], [0.0, 1.0]]}}),
    "B missing": lambda: _pair_text(lambda obj: _without(obj, "B")),
    "re missing": lambda: _pair_text(lambda obj: {**obj, "B": _without(obj["B"], "re")}),
    "n a float": lambda: _pair_text(lambda obj: {**obj, "A": {**obj["A"], "n": 2.5}}),
    "n a string": lambda: _pair_text(lambda obj: {**obj, "A": {**obj["A"], "n": "2"}}),
    "n a boolean": lambda: _pair_text(lambda obj: {**obj, "A": {"n": True, "re": [[1.0]], "im": [[0.0]]}}),
    # JSON booleans and numeric strings are not numbers, though float() takes them.
    "re holds a boolean": lambda: _pair_text(lambda obj: {**obj, "A": {**obj["A"], "re": [[True, 0.0], [0.0, 1.0]]}}),
    "re holds a numeric string": lambda: _pair_text(lambda obj: {**obj, "B": {**obj["B"], "re": [["2.5", 0.0], [0.0, 1.0]]}}),
    "im holds a boolean": lambda: _pair_text(lambda obj: {**obj, "B": {**obj["B"], "im": [[False, 0.0], [0.0, False]]}}),
    "re ragged": lambda: _pair_text(lambda obj: {**obj, "A": {**obj["A"], "re": [[1.0, 0.0], [0.0]]}}),
    "re beyond float": lambda: _pair_text(lambda obj: {**obj, "A": {**obj["A"], "re": [[10**400, 0.0], [0.0, 1.0]]}}),
}
GOOD_CONFIG = {"law": "power", "param": 1.5, "signs": "alt", "N": 16, "p": 2.0, "seed": 7}
MALFORMED_CONFIGS = {
    "not JSON": "[",
    "top level an array": json.dumps([GOOD_CONFIG]),
    "N missing": json.dumps(_without(GOOD_CONFIG, "N")),
    "N a float": json.dumps({**GOOD_CONFIG, "N": 8.9}),
    "N a string": json.dumps({**GOOD_CONFIG, "N": "16"}),
    "seed a float": json.dumps({**GOOD_CONFIG, "seed": 1.7}),
    "param a list": json.dumps({**GOOD_CONFIG, "param": [1.5]}),
    "param a boolean": json.dumps({**GOOD_CONFIG, "param": True}),
    "param a numeric string": json.dumps({**GOOD_CONFIG, "param": "1.5"}),
    "param beyond float": json.dumps({**GOOD_CONFIG, "param": 10**400}),
    "param NaN": json.dumps({**GOOD_CONFIG, "param": math.nan}),
    "param Infinity": json.dumps({**GOOD_CONFIG, "param": math.inf}),
    "param 1e400": json.dumps(GOOD_CONFIG).replace('"param": 1.5', '"param": 1e400'),
    "seeded signs with seed -2": json.dumps({**GOOD_CONFIG, "signs": "seeded", "seed": -2}),
    "p a boolean": json.dumps({**GOOD_CONFIG, "p": True}),
    "p a numeric string": json.dumps({**GOOD_CONFIG, "p": "2"}),
}
# Cases that once reached LAPACK or NumPy unnamed, or wrote the CSV of a
# rank-one model (param inf), with the message that names the field now.
CONFIG_MESSAGES = {
    "param NaN": "param must be finite",
    "param Infinity": "param must be finite",
    "param 1e400": "param must be finite",
    "seeded signs with seed -2": "rotation_seed must be >= -1 for seeded signs",
}


class TestMalformedInput:
    # Each case exits 2 with one error line naming the document, before any
    # output file is opened; none raises out of main.
    @pytest.mark.parametrize("case", list(MALFORMED_PAIRS))
    @pytest.mark.parametrize("command", ["verify", "probe", "pencil"])
    def test_pair_file(self, tmp_path, capsys, command, case):
        pair, out = tmp_path / "pair.json", tmp_path / "out"
        pair.write_text(MALFORMED_PAIRS[case]())
        grid = ["--from", "0", "--to", "1"] if command == "pencil" else []
        assert main([command, "-i", str(pair), *grid, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("frenkel: error: pair file: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(MALFORMED_CONFIGS))
    def test_truncate_config(self, tmp_path, capsys, case):
        config, out = tmp_path / "exp.json", tmp_path / "series.csv"
        config.write_text(MALFORMED_CONFIGS[case])
        assert main(["truncate", "--config", str(config), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("frenkel: error: truncate config: ") and err.count("\n") == 1, err
        assert CONFIG_MESSAGES.get(case, "") in err
        assert not out.exists()


class TestSuiteDirect:
    def test_report_deterministic_across_threads(self, monkeypatch):
        A, B = generate_pair(RunConfig(command="gen", seed=21, dim=4))
        reports = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("FRENKEL_THREADS", threads)
            reports.append(json.dumps(run_verification_suite(A, B, 1e-8), indent=2))
        assert reports[0] == reports[1] == reports[2]
