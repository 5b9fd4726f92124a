"""Batch front door: pair generation, the identity verification suite,
pencil curve export, truncation experiments, and the divergence probe.

Reports are byte-reproducible: a fixed item list, seeded inputs and no
wall-clock data in the output mean repeated runs (at any FRENKEL_THREADS
setting) serialize identically.  Exit codes: 0 all checks pass, 1 some
identity failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import wait
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import frechet, pencil, resolvent, schatten, workers
from .divergence import DELTA_PSD_SLACK, PreparedPair, _block_chain, delta_operator, embed, prepare_pair
from .io import json_ready, load_object, read_pair, write_csv, write_pair
from .linalg import hermitian_part, matrix_log, opnorm, parts, random_unitary, rebuild
from .quadrature import DEFAULT_TOL, _scalar_total, divergence_probe, proof_chain_integrals, rhs_frg, rhs_frg1

COMMANDS = ("gen", "verify", "pencil", "truncate", "probe")
# The divergence probe's checkpoints in verify's report and probe's default.
PROBE_CHECKPOINTS = (10.0, 100.0, 1000.0, 10000.0)


@dataclass(frozen=True)
class RunConfig:
    """Validated options of one batch invocation."""

    command: str
    seed: int = 0
    dim: int = 4
    tol: float = DEFAULT_TOL
    commuting: bool = False
    singular_b: bool = False
    unsupported: bool = False
    condition_target: float = 100.0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not (1 <= self.dim <= 512):
            raise ValueError("dim must be in [1, 512]")
        if not (1e-12 <= self.tol <= 1e-2):
            raise ValueError("tol must be in [1e-12, 1e-2]")
        if not (1.0 <= self.condition_target <= 1e10):
            raise ValueError("condition target must be in [1, 1e10]")
        if self.unsupported and self.commuting:
            raise ValueError("unsupported pairs are generated non-commuting")


def _spread(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    base = np.logspace(0.0, -math.log10(cond), n) if (n > 1 and cond > 1) else np.ones(n)
    jitter = rng.uniform(0.8, 1.25, n)
    scale = rng.uniform(0.5, 2.0)
    return np.sort(base * jitter)[::-1] * scale


def generate_pair(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded PSD/PD pair construction, byte-reproducible from the seed.

    commuting: both matrices share one eigenbasis.  singular_b: B loses its
    trailing third of eigenvalues and A is built inside range(B) (support
    containment holds).  unsupported: B singular but A full rank, so the
    support dichotomy fails and the divergence is infinite.
    """
    rng = np.random.default_rng(config.seed)
    n = config.dim
    cond = config.condition_target
    U = random_unitary(n, rng)
    a_evs = _spread(rng, n, cond)
    b_evs = _spread(rng, n, cond)
    Ub = U if config.commuting else random_unitary(n, rng)
    k = max(1, n // 3)  # how many eigenvalues B loses when it is singular
    if config.unsupported:
        b_evs[n - k :] = 0.0
        return rebuild(U, a_evs), rebuild(Ub, b_evs)
    if config.singular_b:
        b_evs[n - k :] = 0.0
        B = rebuild(Ub, b_evs)
        r = n - k
        V = Ub[:, :r]
        if config.commuting:
            A1 = np.diag(a_evs[:r]).astype(complex)
        else:
            G = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            W, _ = np.linalg.qr(G)
            A1 = rebuild(W, a_evs[:r])
        A = hermitian_part(V @ A1 @ V.conj().T)
        return A, B
    return rebuild(U, a_evs), rebuild(Ub, b_evs)


def _threads() -> int:
    """The effective FRENKEL_THREADS (see workers.thread_count)."""
    return workers.thread_count()


def _definiteness(pair: PreparedPair) -> tuple[bool, bool]:
    """(B positive definite, A and B positive definite) for a prepared pair
    with support containment."""
    b_pd = pair.V is None  # B has full rank: its spectrum clears the zero band
    return b_pd, b_pd and pair.a_definite


def _suite_routes(pair: PreparedPair, tol: float) -> dict:
    """name -> (route, *args) for every result that several suite items
    read, longest first.

    The routes are looked up in the module globals when the suite runs.  A
    route only runs where the items that read it do: the chain needs A and
    B positive definite, the trace pairing B.  On a full-rank B, dlog(B1, A1)
    is dlog(B, A), read by the two dlog oracles as well.

    The clipped-pencil integrals run on two routes, one per node set (see
    quadrature.clipped_integrals): the gamma and u nodes, where on PD pairs
    the chain also yields rhs_frg1's result and the trace's u part, and
    elsewhere rhs_frg1 yields that part; and the s nodes, where rhs_frg
    yields the trace's s part.
    """
    A, B = pair.A, pair.B
    b_pd, both_pd = _definiteness(pair)
    if both_pd:
        routes = {"proof_chain_integrals": (partial(proof_chain_integrals, forms=True), A, B, tol)}
    else:
        routes = {"rhs_frg1": (partial(rhs_frg1, trace=True), A, B, tol)}
    routes["rhs_frg"] = (partial(rhs_frg, trace=True), A, B, tol)
    routes["delta_operator"] = (delta_operator, A, B)
    if b_pd:
        routes["trace_pairing_check"] = (frechet.trace_pairing_check, B, A)
    routes["dlog"] = (frechet.dlog, pair.B1, pair.A1)
    return routes


def _gamma_form(pair: PreparedPair, route) -> tuple:
    """(rhs_frg1's result, the trace's u part), from the route of the gamma
    and u nodes in _suite_routes."""
    return route("proof_chain_integrals")[1:] if _definiteness(pair)[1] else route("rhs_frg1")


def _suite_items(pair: PreparedPair, tol: float, route):
    """The fixed list of (name, thunk); each thunk returns a result dict.

    pair is prepared, with support containment holding.  The table at the
    end states once whether an item needs B, or A and B, positive definite
    (logs of B, the chain integrals); where the pair does not, its thunk
    returns {"skipped": True}, and the restriction route items cover it.
    route(name) is the result of the shared route of that name in
    _suite_routes.
    """
    A, B = pair.A, pair.B
    b_pd, both_pd = _definiteness(pair)
    scale_tr = max(1.0, abs(float(np.trace(A).real)))

    def main_identity():
        delta = route("delta_operator").delta
        r, _ = _gamma_form(pair, route)
        return {"residual": float(np.linalg.norm(r.value - delta, 2)), "threshold": 100 * tol}

    def form_equivalence():
        r1, _ = _gamma_form(pair, route)
        r2, _ = route("rhs_frg")
        return {"residual": float(np.linalg.norm(r1.value - r2.value, 2)), "threshold": 2 * tol}

    def trace_formula():
        d = route("delta_operator").trace_div
        # frenkel_trace's sum, s part first, of the parts the two routes yield.
        trace = _scalar_total([route("rhs_frg")[1], _gamma_form(pair, route)[1]])
        return {"residual": abs(trace - d), "threshold": 100 * tol}

    def trace_consistency():
        rep = route("delta_operator")
        return {
            "residual": rep.residual_trace_consistency,
            "threshold": 1e-8 * (1 + abs(rep.trace_div)),
        }

    def pairing_trace():
        r1, _ = route("trace_pairing_check")
        return {"residual": r1, "threshold": 1e-9 * scale_tr}

    def pairing_identity():
        _, r2 = route("trace_pairing_check")
        return {"residual": r2, "threshold": 1e-10}

    def chain_identity():
        pc, u, _ = route("proof_chain_integrals")
        return {"residual": float(np.linalg.norm(u.value + pc.v - pc.w - pc.chain, 2)), "threshold": 10 * tol}

    def log_difference_representation():
        pc = route("proof_chain_integrals")[0]
        return {"residual": pc.residual_log_difference, "threshold": 10 * tol}

    def dlog_representation():
        pc = route("proof_chain_integrals")[0]
        return {"residual": pc.residual_dlog_representation, "threshold": 10 * tol}

    def log_resolvent_oracle():
        return {
            "residual": float(np.linalg.norm(resolvent.log_resolvent(B, tol) - matrix_log(B), 2)),
            "threshold": 1e-6,
        }

    def abs_resolvent_oracle():
        target = parts(A - B).absolute_value
        got = resolvent.abs_resolvent(A - B, tol)
        return {"residual": float(np.linalg.norm(got - target, 2)), "threshold": 1e-6}

    def dlog_resolvent_oracle():
        got = resolvent.dlog_resolvent(B, A, tol)
        return {"residual": float(np.linalg.norm(got - route("dlog"), 2)), "threshold": 1e-6}

    def dlog_fd_oracle():
        got = frechet.dlog_fd_oracle(B, A)
        return {"residual": float(np.linalg.norm(got - route("dlog"), 2)), "threshold": 1e-7}

    def bdlog_product_oracle():
        pr = resolvent.bdlog_product(A, B, tol)
        target = embed(pair.V, pair.B1 @ route("dlog"), A.shape[0])
        residual = float(np.linalg.norm(pr.value - target, 2))
        bound_excess = max(0.0, pr.value_norm - pr.bound * (1 + 1e-6) - tol)
        return {
            "residual": max(residual, bound_excess),
            "threshold": 1e-6,
            "norm": pr.value_norm,
            "bound": pr.bound,
        }

    def alogdiff_oracle():
        li = resolvent.alogdiff_integral(A, B, tol)
        target = _block_chain(A, B)
        residual = float(np.linalg.norm(li.value - target, 2))
        excess = 0.0
        if li.within_a is not None and not li.within_a:
            excess = max(excess, li.value_norm - li.bound_a)
        if li.within_b is not None and not li.within_b:
            excess = max(excess, li.value_norm - li.bound_b)
        return {"residual": max(residual, excess), "threshold": 1e-6}

    def kato_bound():
        # At A = B the positive parts are equal and the bound's
        # gap log(1/gap) tends to 0: both sides are 0.
        lhs, rhs = (0.0, 0.0) if np.array_equal(A, B) else pencil.kato_continuity_check(A, B)
        return {"residual": lhs - rhs * (1 + 1e-9), "threshold": 0.0, "lhs": lhs, "rhs": rhs}

    def araki_bound():
        lhs, rhs = pencil.araki_check(A, B)
        return {"residual": lhs - rhs * (1 + 1e-9), "threshold": 0.0, "lhs": lhs, "rhs": rhs}

    def delta_psd():
        rep = route("delta_operator")
        scale = max(opnorm(rep.delta), 1.0)
        return {"residual": -rep.delta_min_eigenvalue, "threshold": DELTA_PSD_SLACK * scale}

    def quadrature_psd():
        r, _ = _gamma_form(pair, route)
        min_eig = float(np.linalg.eigvalsh(r.value).min())
        return {"residual": -min_eig, "threshold": r.error_estimate + 1e-10}

    table = [
        ("main_identity_gamma_form", True, main_identity),
        ("form_equivalence", True, form_equivalence),
        ("trace_formula", True, trace_formula),
        ("trace_consistency", True, trace_consistency),
        ("pairing_trace", b_pd, pairing_trace),
        ("pairing_identity", b_pd, pairing_identity),
        ("chain_identity", both_pd, chain_identity),
        ("log_difference_representation", both_pd, log_difference_representation),
        ("dlog_representation", both_pd, dlog_representation),
        ("log_resolvent_oracle", b_pd, log_resolvent_oracle),
        ("abs_resolvent_oracle", True, abs_resolvent_oracle),
        ("dlog_resolvent_oracle", b_pd, dlog_resolvent_oracle),
        ("dlog_fd_oracle", b_pd, dlog_fd_oracle),
        ("bdlog_product_oracle", True, bdlog_product_oracle),
        ("alogdiff_oracle", both_pd, alogdiff_oracle),
        ("kato_bound", True, kato_bound),
        ("araki_bound", True, araki_bound),
        ("delta_psd", True, delta_psd),
        ("quadrature_psd", True, quadrature_psd),
    ]
    return [(name, thunk if met else (lambda: {"skipped": True})) for name, met, thunk in table]


def run_verification_suite(A: np.ndarray, B: np.ndarray, tol: float, diagnostics: bool = False) -> dict:
    """Run every identity check on one pair and assemble the JSON report.

    Pairs without support containment route to the divergence probe instead;
    their single check is the growth slope against log t.  diagnostics adds
    the panel logs of the suite's own two quadratures.  FRENKEL_THREADS
    sizes the shared executor that the shared routes, the items and the
    panel chunks of their quadratures run on.
    """
    pair = prepare_pair(A, B)
    report = {"schema": 1, "dim": int(A.shape[0]), "tol": tol}
    if not pair.support.holds:
        record = divergence_probe(A, B, PROBE_CHECKPOINTS, tol)
        slope_ok = record.slope >= 0.9 * record.witness_mass
        report["dichotomy"] = "divergent"
        report["witness"] = json_ready(record.witness)
        report["probe"] = {
            "checkpoints": json_ready(record.checkpoints),
            "values": json_ready(record.values),
            "slope": json_ready(record.slope),
            "witness_mass": json_ready(record.witness_mass),
        }
        report["items"] = [
            {
                "name": "divergence_growth_slope",
                "residual": json_ready(0.9 * record.witness_mass - record.slope),
                "threshold": 0.0,
                "pass": bool(slope_ok),
            }
        ]
        report["all_pass"] = bool(slope_ok)
        return report

    report["dichotomy"] = "finite"

    def route(name):
        return routes[name].result()

    items = _suite_items(pair, tol, route)
    # The executor the quadrature driver fans panel chunks out over too, at
    # any FRENKEL_THREADS.  Its queue is FIFO and the routes go in first, so
    # an item only waits on a route that is running or done, and a route
    # never waits on an item.
    pool = workers.executor(_threads())
    t0 = time.perf_counter()
    routes = {name: pool.submit(*spec) for name, spec in _suite_routes(pair, tol).items()}
    futures = [pool.submit(thunk) for _, thunk in items]
    # Nothing is left running, also when a route or an item raises.
    wait([*routes.values(), *futures])
    results = [(name, fut.result()) for (name, _), fut in zip(items, futures)]
    wall = time.perf_counter() - t0

    entries = []
    all_pass = True
    for name, out in results:
        if out.get("skipped"):
            entries.append({"name": name, "skipped": True, "pass": True})
            continue
        ok = out["residual"] <= out["threshold"]
        entry = {"name": name, "skipped": False, "pass": bool(ok)}
        for key, val in out.items():
            entry[key] = json_ready(val)
        entries.append(entry)
        all_pass = all_pass and ok
    report["items"] = entries
    report["all_pass"] = bool(all_pass)
    if diagnostics:
        report["diagnostics"] = {
            "gamma_form": _panel_log(_gamma_form(pair, route)[0]),
            "t_line": _panel_log(route("rhs_frg")[0]),
        }
    # Timings stay out of the report so repeated runs serialize identically.
    print(f"suite: {len(entries)} items in {wall:.2f}s (wall)", file=sys.stderr)
    return report


def _cmd_gen(args) -> int:
    config = RunConfig(
        command="gen",
        seed=args.seed,
        dim=args.dim,
        commuting=args.commuting,
        singular_b=args.singular_b,
        unsupported=args.unsupported,
        condition_target=args.cond,
    )
    A, B = generate_pair(config)
    write_pair(args.output, A, B, seed=args.seed)
    return 0


def _panel_log(result) -> dict:
    return {
        "panels": [[json_ready(iv[0]), json_ready(iv[1]), json_ready(err)] for iv, err in result.panels],
        "evaluations": result.evaluations,
        "error_estimate": json_ready(result.error_estimate),
        "tail_bound": json_ready(result.tail_bound),
        "converged": result.converged,
    }


def _cmd_verify(args) -> int:
    RunConfig(command="verify", tol=args.tol)  # range check only
    A, B = read_pair(args.input)
    report = run_verification_suite(A, B, args.tol, diagnostics=args.diagnostics)
    text = json.dumps(report, indent=2)
    with open(args.output, "w") as fh:
        fh.write(text)
        fh.write("\n")
    return 0 if report["all_pass"] else 1


def _cmd_pencil(args) -> int:
    A, B = read_pair(args.input)
    with np.errstate(invalid="ignore"):  # a non-finite end: eigencurves rejects the grid
        grid = np.linspace(args.lo, args.hi, args.points)
    curves = pencil.eigencurves(A, B, grid)
    pencil.write_eigencurves_csv(args.output, grid, curves)
    return 0


def _cmd_truncate(args) -> int:
    model = schatten.model_from_config(load_object(args.config, "truncate config"))
    T = schatten.synth_compact(model)
    series = schatten.truncation_series(T, model.p)
    schatten.write_series_csv(args.output, series)
    return 0


def _cmd_probe(args) -> int:
    RunConfig(command="probe", tol=args.tol)  # range check only
    A, B = read_pair(args.input)
    checkpoints = [float(tok) for tok in args.checkpoints.split(",") if tok.strip()]
    record = divergence_probe(A, B, checkpoints, args.tol)
    write_csv(
        args.output,
        ["t", "witness_quadratic_form"],
        ([t, v] for t, v in zip(record.checkpoints, record.values)),
    )
    slope = "nan" if record.slope is None else f"{record.slope:.17g}"
    print(f"slope={slope} witness_mass={record.witness_mass:.17g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frenkel",
        description="Batch verification of the operator-divergence integral identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded PSD pair")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dim", type=int, default=4)
    g.add_argument("--commuting", action="store_true")
    g.add_argument("--singular-b", dest="singular_b", action="store_true")
    g.add_argument("--unsupported", action="store_true")
    g.add_argument("--cond", type=float, default=100.0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    v = sub.add_parser("verify", help="run the identity suite on a pair file")
    v.add_argument("-i", "--input", required=True)
    v.add_argument("--tol", type=float, default=DEFAULT_TOL)
    v.add_argument("--diagnostics", action="store_true", help="embed quadrature panel logs in the report")
    v.add_argument("-o", "--output", required=True)
    v.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pencil", help="export eigenvalue curves of A - gamma B")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.add_argument("--points", type=int, default=401)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_pencil)

    t = sub.add_parser("truncate", help="run a truncation experiment from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("-o", "--output", required=True)
    t.set_defaults(func=_cmd_truncate)

    b = sub.add_parser("probe", help="growth probe for a pair without support containment")
    b.add_argument("-i", "--input", required=True)
    b.add_argument("--checkpoints", default=",".join(f"{t:g}" for t in PROBE_CHECKPOINTS))
    b.add_argument("--tol", type=float, default=DEFAULT_TOL)
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=_cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _threads()  # a bad FRENKEL_THREADS is a usage error for every command
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"frenkel: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
