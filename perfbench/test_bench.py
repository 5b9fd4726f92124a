"""Self-test of the benchmark: every workload at toy size, the printed
metric names and units, the digests, and failure accounting.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED_WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def toy(workload, seed=1, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return lines, result, digest


def test_benchmark_json_matches_the_runner():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == [
        (name, unit) for name, unit in run.END_TO_END if name in run.RESULT_METRICS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == tracing.per_layer_spec()
    assert set(LISTED_WORKLOADS) <= set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", LISTED_WORKLOADS)
def test_every_end_to_end_metric_is_printed(workload):
    lines, result, digest = toy(workload)
    assert result["correct"]
    for name, unit in run.END_TO_END:
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # Same seed, same outputs; the held-out seed prints the same metrics.
    assert toy(workload)[2] == digest
    assert set(toy(workload, seed=101)[1]["metrics"]) == set(result["metrics"])


# Layers each workload is meant to move; the traced run must see them called.
TRACED_LAYERS = {
    "verify-mixed": ("cli.suite.s", "divergence.delta_operator.calls", "quadrature.proof_chain_integrals.calls", "lapack.eigh.calls"),
    "sweep-small": (
        "divergence.delta_operator.calls",
        "quadrature.rhs_frg1.calls",
        "quadrature.rhs_frg.calls",
        "quadrature.frenkel_trace.calls",
        "quadrature.rhs_frg1.evals",
        "quadrature.adaptive.calls",
    ),
    "budget-large": ("schatten.budget_e_p.calls", "schatten.budget_e_p.evals", "lapack.eigvalsh.calls"),
}


@pytest.mark.parametrize("workload", LISTED_WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_matches_digest(workload):
    lines, result, digest = toy(workload, trace=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert [name for name in TRACED_LAYERS[workload] if not result["metrics"][name]["value"] > 0] == []
    assert digest == toy(workload)[2]


def test_known_defects_count_in_fail_share():
    # dlog_fd_oracle fails at cond 1e3; verify-illcond pairs all fail.
    _, mixed, _ = toy("verify-mixed")
    assert mixed["correct"] and mixed["failed"] > 0
    lines, illcond, _ = toy("verify-illcond")
    assert illcond["correct"] and illcond["failed"] == illcond["attempted"]
    assert any(line.startswith("fail_share 1.0 ") for line in lines)


def _measure(workload, tmp_path):
    wl = workloads.WORKLOADS[workload]
    cells = wl.deck(1, toy=True)
    wl.prepare(cells, str(tmp_path))
    plain, _, deck_walls, _ = run.measure(wl, cells, 0.01)
    return plain, run.end_to_end([1.0], plain, deck_walls)


def test_corrupted_residual_counts_in_fail_share(tmp_path, monkeypatch):
    real = workloads.quadrature.rhs_frg1

    def off_by_a_little(A, B, tol):
        res = real(A, B, tol)
        return type(res)(**{**res.__dict__, "value": res.value + 1e-5})

    monkeypatch.setattr(workloads.quadrature, "rhs_frg1", off_by_a_little)
    plain, e2e = _measure("sweep-small", tmp_path)
    assert e2e["fail_share"] == 1.0 and not any(out.known_defect for out, _ in plain)


def test_known_defect_is_only_the_measured_one():
    cell = {"kind": "pd", "cond": 1e3}
    assert workloads.fd_oracle_defect(cell, ["dlog_fd_oracle"])
    assert workloads.fd_oracle_defect({**cell, "kind": "commuting"}, ["dlog_fd_oracle"])
    assert not workloads.fd_oracle_defect({**cell, "cond": 10.0}, ["dlog_fd_oracle"])
    assert not workloads.fd_oracle_defect({**cell, "kind": "singular-b"}, ["dlog_fd_oracle"])
    assert not workloads.fd_oracle_defect(cell, ["dlog_fd_oracle", "trace_formula"])
    assert not workloads.fd_oracle_defect(cell, ["trace_formula"])


def test_corrupted_report_counts_in_fail_share(tmp_path, monkeypatch):
    real = workloads.cli.main

    def corrupting_main(argv):
        rc = real(argv)
        if argv[0] == "verify":
            path = Path(argv[argv.index("-o") + 1])
            rep = json.loads(path.read_text())
            rep["items"][0]["residual"] = 1.0  # pass flag left as written
            path.write_text(json.dumps(rep))
        return rc

    monkeypatch.setattr(workloads.cli, "main", corrupting_main)
    plain, e2e = _measure("verify-mixed", tmp_path)
    assert e2e["fail_share"] == 1.0 and not any(out.known_defect for out, _ in plain)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", LISTED_WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_steps_below_failed_units():
    inf = float("inf")
    assert run.tail([1.0] * 10 + [inf] * 15) == (1.0, 40.0, 15)
    assert run.tail([float(i) for i in range(30)]) == (19.0, 2000 / 30, 10)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0, 0)
