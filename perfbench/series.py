"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/series.py --seeds 1-10 --out series.json [--workload NAME ...] [--trace 1]

For every workload and seed it runs perfbench/run.py with BENCHMARK.json's
run_seconds, then reports per metric the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median,
next to the metric's bound.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[1] for line in lines if line.startswith("digest "))
    return result


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if None in values:
            out[name] = {"values": values}
            continue
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        med = statistics.median(values)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, required=True, help="inclusive range such as 1-10")
    ap.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [one_run(workload, seed, bench["run_seconds"], args.trace) for seed in args.seeds]
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "fail_share": [r["failed"] / r["attempted"] for r in runs],
            "digests": [r["digest"] for r in runs],
            "metrics": summarise(runs, bounds),
        }
        for name, m in summary[workload]["metrics"].items():
            if m.get("spread") is not None:
                print(f"{workload} {name} median {m['median']:.6g} spread {m['spread']:.4f} bound {m['bound']}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
