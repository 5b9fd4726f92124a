"""The benchmark's workloads: seeded inputs, one unit of work, and its checks.

A workload is a deck of cells built from the workload seed.  Setting up
writes or synthesises every cell's input once; a unit runs one cell and
returns an Outcome.  Importing this module imports numpy and frenkel, so
the runner imports it inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library routes are called through their modules, so the traced run's
# patched module attributes see every call.
from frenkel import cli, divergence, quadrature, schatten
from tracing import CLI_ITEMS

QUAD_TOL = 1e-8
BUDGET_TOL = 1e-6

DIVERGENT_ITEMS = ("divergence_growth_slope",)

KIND_FLAGS = {
    "pd": [],
    "commuting": ["--commuting"],
    "singular-b": ["--singular-b"],
    "unsupported": ["--unsupported"],
}


@dataclass(frozen=True)
class Outcome:
    """Result of one unit.

    passed: every item and every benchmark check held.  known_defect: the
    unit failed only in ways listed as program defects of the workload, so
    it counts in fail_share without marking the run incorrect.  digest is
    the SHA-256 of the unit's output bytes.
    """

    passed: bool
    known_defect: bool
    digest: str
    detail: str = ""
    report_bytes: int = 0


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- verify


def check_verify_report(cell: dict, rc: int, text: str) -> tuple[list[str], list[str]]:
    """Check one `frenkel verify` report against its generator cell.

    Returns (failed_items, broken): failed_items are suite items the report
    itself marks failed; broken lists inconsistencies the benchmark found
    (malformed report, pass flag disagreeing with residual and threshold,
    wrong dichotomy, exit code disagreeing with all_pass).
    """
    broken = []
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [], [f"report is not JSON: {exc}"]
    expected = "divergent" if cell["kind"] == "unsupported" else "finite"
    if rep.get("dichotomy") != expected:
        broken.append(f"dichotomy {rep.get('dichotomy')!r}, generator kind {cell['kind']!r}")
    if rep.get("schema") != 1 or rep.get("dim") != cell["dim"]:
        broken.append("schema or dim mismatch")
    items = rep.get("items", [])
    names = tuple(it.get("name") for it in items)
    if names != (DIVERGENT_ITEMS if expected == "divergent" else CLI_ITEMS):
        broken.append(f"unexpected item list {names}")
    failed = []
    for it in items:
        if it.get("skipped"):
            continue
        residual, threshold = it.get("residual"), it.get("threshold")
        if not isinstance(residual, (int, float)) or not isinstance(threshold, (int, float)):
            broken.append(f"{it.get('name')}: non-numeric residual or threshold")
            continue
        if bool(it.get("pass")) != (residual <= threshold):
            broken.append(f"{it.get('name')}: pass flag disagrees with residual {residual!r} <= {threshold!r}")
        if not residual <= threshold:
            failed.append(it.get("name"))
    all_pass = not failed
    if rep.get("all_pass") is not all_pass:
        broken.append("all_pass disagrees with the items")
    if rc != (0 if all_pass else 1):
        broken.append(f"exit code {rc} with all_pass {all_pass}")
    want_diag = cell["diagnostics"] and expected == "finite"
    if ("diagnostics" in rep) != want_diag:
        broken.append("diagnostics block present/absent against the flag")
    return failed, broken


def fd_oracle_defect(cell: dict, failed: list[str]) -> bool:
    """The measured defect: dlog_fd_oracle alone fails, on pd and commuting pairs at cond 1e3."""
    return cell["kind"] in ("pd", "commuting") and cell["cond"] == 1e3 and set(failed) == {"dlog_fd_oracle"}


def any_failure(cell: dict, failed: list[str]) -> bool:
    return True


@dataclass
class VerifyWorkload:
    """In-process `frenkel gen` + `frenkel verify`, one pair file per cell."""

    name: str
    dims: tuple
    conds: tuple
    kinds: tuple = tuple(KIND_FLAGS)
    # known_defect(cell, failed_items) is true when the failures are a listed program defect.
    known_defect: Callable[[dict, list], bool] = fd_oracle_defect
    known_defect_exit2: bool = False

    def deck(self, seed: int, toy: bool) -> list[dict]:
        dims = self.dims[:1] if toy else self.dims
        cells = []
        # Dims interleave, so heavy pairs spread over the deck and the first
        # cell, the warm-up unit, is the cheapest.  A quarter of the
        # (dim, kind) combinations carry --diagnostics, one per dim and one
        # per kind.
        for cond, (j, kind), (i, dim) in itertools.product(self.conds, enumerate(self.kinds), enumerate(dims)):
            cells.append(
                {
                    "dim": dim,
                    "kind": kind,
                    "cond": cond,
                    "diagnostics": (i + j) % 4 == 0,
                    "seed": seed * 1000 + len(cells),
                }
            )
        return cells

    def prepare(self, cells: list[dict], workdir: str) -> None:
        for k, cell in enumerate(cells):
            cell["pair"] = os.path.join(workdir, f"pair_{k}.json")
            cell["report"] = os.path.join(workdir, f"report_{k}.json")
            argv = ["gen", "--seed", str(cell["seed"]), "--dim", str(cell["dim"]), "--cond", repr(cell["cond"])]
            if cli.main(argv + KIND_FLAGS[cell["kind"]] + ["-o", cell["pair"]]) != 0:
                raise RuntimeError(f"frenkel gen failed for {cell}")

    def run(self, cell: dict) -> Outcome:
        argv = ["verify", "-i", cell["pair"], "--tol", "1e-8", "-o", cell["report"]]
        if cell["diagnostics"]:
            argv.append("--diagnostics")
        if os.path.exists(cell["report"]):
            os.remove(cell["report"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc == 2:
            detail = "exit 2: " + (err.getvalue().strip().splitlines() or ["no message"])[-1]
            return Outcome(False, self.known_defect_exit2, sha256_hex(detail.encode()), detail)
        with open(cell["report"], "rb") as fh:
            data = fh.read()
        failed, broken = check_verify_report(cell, rc, data.decode())
        known = not broken and self.known_defect(cell, failed)
        detail = "; ".join(broken + [f"item {name} failed" for name in failed])
        return Outcome(not failed and not broken, known, sha256_hex(data), detail, len(data))


# ---------------------------------------------------------------- sweep

# Acceptance thresholds of criteria 1 to 3.
SWEEP_LIMITS = {"main": 1e-6, "forms": 2e-8, "trace": 1e-6, "trace_consistency": 1e-8}


def sweep_residuals(A, B) -> tuple[dict, bytes]:
    rep = divergence.delta_operator(A, B)
    r1 = quadrature.rhs_frg1(A, B, QUAD_TOL)
    r2 = quadrature.rhs_frg(A, B, QUAD_TOL)
    ft = quadrature.frenkel_trace(A, B, QUAD_TOL)
    residuals = {
        "main": float(np.linalg.norm(r1.value - rep.delta, 2)),
        "forms": float(np.linalg.norm(r1.value - r2.value, 2)),
        "trace": abs(ft - rep.trace_div),
        "trace_consistency": rep.residual_trace_consistency,
    }
    data = rep.delta.tobytes() + r1.value.tobytes() + r2.value.tobytes() + np.float64(ft).tobytes()
    return residuals, data


@dataclass
class SweepWorkload:
    """Library routes on small seeded PD pairs, the criterion-1 to 3 shape."""

    name: str
    dims: tuple = (1, 2, 3, 4, 5, 6, 7, 8)
    conds: tuple = (2.0, 10.0, 50.0, 100.0)
    reps: int = 4

    def deck(self, seed: int, toy: bool) -> list[dict]:
        dims, reps = (self.dims[:3], 1) if toy else (self.dims, self.reps)
        grid = itertools.product(range(reps), self.conds, dims)
        return [{"dim": dim, "cond": cond, "seed": seed * 1000 + k} for k, (_, cond, dim) in enumerate(grid)]

    def prepare(self, cells: list[dict], workdir: str) -> None:
        for cell in cells:
            config = cli.RunConfig(command="gen", seed=cell["seed"], dim=cell["dim"], condition_target=cell["cond"])
            cell["pair"] = cli.generate_pair(config)

    def run(self, cell: dict) -> Outcome:
        residuals, data = sweep_residuals(*cell["pair"])
        over = [f"{k} residual {v!r} > {SWEEP_LIMITS[k]!r}" for k, v in residuals.items() if not v <= SWEEP_LIMITS[k]]
        return Outcome(not over, False, sha256_hex(data), "; ".join(over))


# ---------------------------------------------------------------- budget


def dominated_pair(N: int, seed: int):
    """Criterion 9's dominated family: geometric 0.6 against power 2.0."""
    a = schatten.CompactModel(master_dim=N, law="geom", param=0.6, signs="pos", rotation_seed=seed, p=2.0)
    b = schatten.CompactModel(master_dim=N, law="power", param=2.0, signs="pos", rotation_seed=seed, p=2.0)
    return schatten.synth_compact(a), schatten.synth_compact(b)


def budget_drift_ok(p: float, n_lo: int, v_lo: float, n_hi: int, v_hi: float) -> bool:
    """Relative drift between consecutive N at most 1e-3.

    For p = 1 the budget of the power-2 law grows with N by design: adding
    eigenvalue i adds at most b_i = i^-2, so the increase from n_lo to n_hi
    is at most 1/n_lo - 1/n_hi, and the drift must stay within that tail
    plus the same 1e-3 relative slack.
    """
    slack = 1e-3 * abs(v_lo)
    if p == 1:
        return -slack <= v_hi - v_lo <= (1.0 / n_lo - 1.0 / n_hi) + slack
    return abs(v_hi - v_lo) <= slack


@dataclass
class BudgetWorkload:
    """schatten.budget_e_p on large dominated pairs."""

    name: str
    # An odd number of sizes puts the median unit inside the middle size's
    # times rather than between two sizes.  The sizes sit close enough that
    # unit-to-unit noise blurs them into one spread of times, so the median
    # and the tail draw on units of more than one size: with N 64/80/96
    # their bootstrap error within a run was 5-7 %, with 72/80/88 3-4 %.
    sizes: tuple = (72, 80, 88)
    ps: tuple = (math.inf, 2.0, 1.0)

    def deck(self, seed: int, toy: bool) -> list[dict]:
        sizes = (48, 64) if toy else self.sizes
        return [{"N": N, "p": p, "seed": seed} for p in self.ps for N in sizes]

    def prepare(self, cells: list[dict], workdir: str) -> None:
        pairs = {}
        prev = None
        for cell in cells:
            if cell["N"] not in pairs:
                pairs[cell["N"]] = dominated_pair(cell["N"], cell["seed"])
            cell["pair"] = pairs[cell["N"]]
            cell["prev"] = prev if prev is not None and prev["p"] == cell["p"] else None
            prev = cell

    def run(self, cell: dict) -> Outcome:
        value = schatten.budget_e_p(*cell["pair"], cell["p"], tol=BUDGET_TOL)
        cell["value"] = value
        problems = []
        if not (math.isfinite(value) and value > 0):
            problems.append(f"budget {value!r} not finite and positive")
        prev = cell["prev"]
        if prev is not None and "value" in prev:
            if not budget_drift_ok(cell["p"], prev["N"], prev["value"], cell["N"], value):
                problems.append(f"drift N={prev['N']}->{cell['N']}: {prev['value']!r} -> {value!r}")
        return Outcome(not problems, False, sha256_hex(repr(value).encode()), "; ".join(problems))


WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload(
            name="verify-mixed",
            dims=(8, 16, 24, 32),
            conds=(10.0, 1e3),
        ),
        SweepWorkload(name="sweep-small"),
        BudgetWorkload(name="budget-large"),
        # Every pair fails at this commit; all its failures are listed defects.
        VerifyWorkload(
            name="verify-illcond",
            dims=(3, 4, 5, 6),
            conds=(1e6, 1e8),
            kinds=("pd",),
            known_defect=any_failure,
            known_defect_exit2=True,
        ),
    )
}
