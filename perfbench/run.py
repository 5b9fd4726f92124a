"""frenkel benchmark runner.

    python3 perfbench/run.py --workload verify-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; frenkel is imported from ./src.
Every workload is one closed-loop client in one process.  A run repeats
whole decks of seeded cells until --seconds have passed, checks every
unit, and prints human-readable lines followed by one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The traced run executes each unit untraced and then traced,
compares their output digests, and reports the goodput lost to tracing as
trace.goodput_gap.

Set-up (import frenkel, generate the inputs, run one untimed warm-up unit)
is measured SETUP_SAMPLES times: once in this process and otherwise in
fresh interpreters, half of them before the timed part and half after it,
so the samples span the run; setup_s is the median.  Thread variables
are set from THREAD_ENV before numpy loads, whatever the caller's
environment holds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
THREAD_VARS = ("FRENKEL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("verify-mixed", "sweep-small", "budget-large", "verify-illcond")
# Thread settings of every workload, applied before numpy loads; FRENKEL_THREADS
# stays at its default, min(8, nproc).  BLAS runs on one thread: inside the
# verify suite's item pool, default BLAS threads oversubscribe the cores and
# double verify time at n=32, and a multi-threaded eigvalsh in budget-large
# waits on the slowest core, which on a shared 2-core machine made its
# run-to-run spread twice that of the single-threaded workloads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (
    ("setup_s", "s"),
    ("goodput_per_s", "units/s"),
    ("unit_p50_s", "s"),
    ("unit_tail_s", "s"),
    ("fail_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
# fail_share is 0 on workloads without known defects, so the JSON result
# line carries it as "failed"/"attempted" instead of as a metric.
RESULT_METRICS = ("setup_s", "goodput_per_s", "unit_p50_s", "unit_tail_s", "peak_rss_mb")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny decks, for the benchmark's self-test")
    ap.add_argument("--setup-only", action="store_true", help="measure one set-up and print its seconds")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup(args, workdir: Path):
    """Import frenkel, build and prepare the deck, run the warm-up unit."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import frenkel
    import workloads

    if Path(frenkel.__file__).resolve().parent != SRC / "frenkel":
        raise SystemExit(f"run.py: frenkel imported from {frenkel.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    cells = wl.deck(args.seed, args.toy)
    wl.prepare(cells, str(workdir))
    wl.run(cells[0])
    return wl, cells, time.perf_counter() - t0


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_unit(wl, cell, Outcome):
    t0 = time.perf_counter()
    try:
        out = wl.run(cell)
    except Exception as exc:  # a raised exception is a failed unit, never a crashed run
        out = Outcome(False, False, "", f"{type(exc).__name__}: {exc}")
    return out, time.perf_counter() - t0


def measure(wl, cells, seconds: float, tracer=None):
    """Run whole decks until `seconds` have passed.

    Returns the untraced (outcome, seconds) records, the traced ones (empty
    without a tracer), the wall time of each deck, and the run digest over
    the first deck's outputs.  A unit whose output differs
    from the first output of its cell fails as nondeterministic.
    """
    from workloads import Outcome, sha256_hex

    first: dict[int, str] = {}
    plain, traced = [], []

    def settle(k, out):
        if out.digest and first.setdefault(k, out.digest) != out.digest:
            return Outcome(False, False, out.digest, f"output digest differs from the cell's first run; {out.detail}")
        return out

    deck_walls = []
    t_start = time.perf_counter()
    while True:
        t_deck = time.perf_counter()
        for k, cell in enumerate(cells):
            out, dt = run_unit(wl, cell, Outcome)
            plain.append((settle(k, out), dt))
            if tracer is not None:
                tracer.unit = len(traced)
                tracer.install()
                try:
                    out, dt = run_unit(wl, cell, Outcome)
                finally:
                    tracer.uninstall()
                traced.append((settle(k, out), dt))
        deck_walls.append(time.perf_counter() - t_deck)
        if time.perf_counter() - t_start >= seconds:
            break
    digest = sha256_hex("".join(first.get(k, "") for k in range(len(cells))).encode())
    return plain, traced, deck_walls, digest


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Failed units are infinitely late; when that percentile falls on one,
    the highest finite percentile is taken.  With too few samples the
    slowest finite unit is reported.  Returns (value, percentile, beyond).
    """
    ordered = sorted(times)
    n = len(ordered)
    finite = sum(t != float("inf") for t in ordered)
    k = min(n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1, finite - 1)
    if k < 0:
        return float("inf"), 100.0, 0
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def environment() -> dict:
    import numpy as np
    from frenkel import cli

    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def llc() -> str:
        best = (0, "unknown")
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                level = int((index / "level").read_text())
                size = (index / "size").read_text().strip()
            except (OSError, ValueError):
                continue
            best = max(best, (level, size))
        return best[1]

    def git_commit() -> str:
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                return (ROOT / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return "unknown (not a git checkout)"

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "llc": llc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "frenkel_threads_effective": cli._threads(),
        "commit": git_commit(),
    }


def end_to_end(setups, plain, deck_walls) -> dict:
    """The end-to-end metrics of an untraced run.

    goodput_per_s is the passed units over the whole timed wall time, so
    machine noise averages out over the run, not over a few decks.
    """
    passed = sum(out.passed for out, _ in plain)
    times = [dt if out.passed else float("inf") for out, dt in plain]
    value, pct, beyond = tail(times)
    return {
        "setup_s": statistics.median(setups),
        "goodput_per_s": passed / sum(deck_walls),
        "unit_p50_s": statistics.median(times),
        "unit_tail_s": value,
        "unit_tail_pct": pct,
        "unit_tail_beyond": beyond,
        "fail_share": (len(plain) - passed) / len(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def number(x: float):
    return x if x == x and abs(x) != float("inf") else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frenkel" / "__init__.py").is_file():
        print(f"run.py: no frenkel sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.pop(var, None)
    os.environ.update(THREAD_ENV)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(setup(args, workdir)[2])
            return 0
        children = 0 if args.trace else SETUP_SAMPLES - 1  # a traced run reports no setup_s
        setups = [setup_in_child(args) for _ in range(children // 2)]
        wl, cells, own_setup = setup(args, workdir)
        setups.append(own_setup)
        import tracing

        tracer = tracing.Tracer() if args.trace else None
        plain, traced, deck_walls, digest = measure(wl, cells, args.seconds, tracer)
        setups += [setup_in_child(args) for _ in range(children - children // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = plain + traced
    attempted = len(records)
    failed = sum(not out.passed for out, _ in records)
    correct = all(out.passed or out.known_defect for out, _ in records)
    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(plain)} units in {len(deck_walls)} deck(s) of {len(cells)}, {sum(deck_walls):.3f} s timed")
    print(f"digest {digest}")
    details = sorted({out.detail for out, _ in records if not out.passed})
    for detail in details:
        print(f"failure: {detail}")
    if args.trace:
        # Both sides ran the same units, so the goodput ratio is the time ratio.
        gap = 1.0 - sum(dt for _, dt in plain) / sum(dt for _, dt in traced)
        report_bytes = sum(out.report_bytes for out, _ in traced)
        metrics = tracing.layer_metrics(tracer.spans, len(traced), report_bytes, gap)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(str(trace_path))
        print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
    else:
        e2e = end_to_end(setups, plain, deck_walls)
        for name, unit in END_TO_END:
            extra = ""
            if name == "setup_s":
                extra = f"  (median of {', '.join(f'{s:.4f}' for s in setups)})"
            elif name == "unit_tail_s":
                extra = f"  (p{e2e['unit_tail_pct']:.1f} of {len(plain)} units, {e2e['unit_tail_beyond']} beyond)"
            elif name == "fail_share":
                extra = f"  ({failed} of {attempted} units; all failures are known program defects: {correct})"
            print(f"{name} {e2e[name]!r} {unit}{extra}")
        metrics = {name: {"value": number(e2e[name]), "unit": unit} for name, unit in END_TO_END if name in RESULT_METRICS}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
