"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps the public entry points of each frenkel module, and
numpy.linalg's eigh, eigvalsh and inv, by replacing the module attribute in
every module that holds it; library code is untouched.  Spans
{name, start, end, parent, unit} stay in memory and are written out when
the run ends.  Counts come from the returned QuadratureResults and from the
argument shapes.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

CLI_ITEMS = (
    "main_identity_gamma_form",
    "form_equivalence",
    "trace_formula",
    "trace_consistency",
    "pairing_trace",
    "pairing_identity",
    "chain_identity",
    "log_difference_representation",
    "dlog_representation",
    "log_resolvent_oracle",
    "abs_resolvent_oracle",
    "dlog_resolvent_oracle",
    "dlog_fd_oracle",
    "bdlog_product_oracle",
    "alogdiff_oracle",
    "kato_bound",
    "araki_bound",
    "delta_psd",
    "quadrature_psd",
)
DIVERGENCE = ("delta_operator", "trace_divergence", "restrict_pair", "relative_spectrum")
FRECHET = ("dlog", "dlog_fd_oracle")
ROUTES = ("rhs_frg1", "rhs_frg", "frenkel_trace", "proof_chain_integrals", "divergence_probe")
LINALG_STACKS = ("positive_part_stack", "positive_eig_stack", "support_relation", "require_psd")
LAPACK = ("eigh", "eigvalsh", "inv")
RESOLVENT = ("log_resolvent", "abs_resolvent", "dlog_resolvent", "bdlog_product", "alogdiff_integral")
PENCIL = ("find_crossings", "kato_continuity_check", "araki_check")

# Real flops per matrix of order n, textbook counts (Golub & Van Loan):
# tridiagonal reduction 4n^3/3 for eigenvalues only, about 9n^3 with
# eigenvectors, 2n^3 for an inverse; complex arithmetic costs four times as
# much.  Computed from shapes, not measured.
_FLOPS = {"eigh": lambda n: 9.0 * n**3, "eigvalsh": lambda n: 4.0 * n**3 / 3.0, "inv": lambda n: 2.0 * n**3}


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    unit: int
    counts: dict = field(default_factory=dict)


def _matrices(shape) -> int:
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _stack_counts(args, out) -> dict:
    return {"matrices": _matrices(args[0].shape)}


def _lapack_counts(kind: str) -> Callable:
    def counts(args, out):
        shape = getattr(args[0], "shape", ())
        if len(shape) < 2:
            return {}
        complex_factor = 4 if args[0].dtype.kind == "c" else 1
        return {"matrices": _matrices(shape), "flops": _FLOPS[kind](shape[-1]) * _matrices(shape) * complex_factor}

    return counts


def _adaptive_counts(args, res) -> dict:
    return {"evals": res.evaluations, "panels": len(res.panels), "capped": int(not res.converged)}


def _item_counts(args, out) -> dict:
    if out.get("skipped"):
        return {"skipped": 1}
    return {"run": 1, "failed": int(not out["residual"] <= out["threshold"])}


# (module, attribute, span name, counter)
TARGETS = (
    [("frenkel.cli", "run_verification_suite", "cli.suite", None), ("frenkel.io", "read_pair", "io.read_pair", None)]
    + [("frenkel.divergence", f, f"divergence.{f}", None) for f in DIVERGENCE]
    + [("frenkel.frechet", f, f"frechet.{f}", None) for f in FRECHET]
    + [("frenkel.quadrature", f, f"quadrature.{f}", None) for f in ROUTES]
    + [
        ("frenkel.quadrature", "_adaptive", "quadrature.adaptive", _adaptive_counts),
        ("frenkel.quadrature", "_positive_proj_stack", "quadrature._positive_proj_stack", _stack_counts),
        ("frenkel.schatten", "_clipped_eigs", "schatten._clipped_eigs", _stack_counts),
        ("frenkel.schatten", "budget_e_p", "schatten.budget_e_p", None),
    ]
    + [("frenkel.linalg", f, f"linalg.{f}", _stack_counts) for f in LINALG_STACKS]
    + [("numpy.linalg", f, f"lapack.{f}", _lapack_counts(f)) for f in LAPACK]
    + [("frenkel.resolvent", f, f"resolvent.{f}", None) for f in RESOLVENT]
    + [("frenkel.pencil", f, f"pencil.{f}", None) for f in PENCIL]
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better); values are per unit."""
    spec = [("cli.suite.s", "s/unit", "lower")]
    spec += [(f"cli.item.{item}.self_s", "s/unit", "lower") for item in CLI_ITEMS]
    spec += [(f"cli.items.{k}", "items/unit", "higher" if k == "run" else "lower") for k in ("run", "skipped", "failed", "error")]
    spec += [("cli.parallel_speedup", "ratio", "higher")]
    for prefix, names, kinds in (
        ("divergence", DIVERGENCE, ("calls", "s")),
        ("frechet", FRECHET, ("calls", "s")),
        ("quadrature", ROUTES, ("calls", "s", "evals")),
        ("quadrature", ("adaptive",), ("calls", "s", "self_s", "evals", "panels", "capped")),
        ("linalg", LINALG_STACKS, ("calls", "s", "matrices")),
        ("quadrature", ("_positive_proj_stack",), ("calls", "s", "matrices")),
        ("schatten", ("_clipped_eigs",), ("calls", "s", "matrices")),
        ("lapack", LAPACK, ("calls", "s", "matrices")),
        ("resolvent", RESOLVENT, ("s", "evals", "capped")),
        ("pencil", PENCIL, ("calls", "s")),
        ("schatten", ("budget_e_p",), ("calls", "s", "evals")),
    ):
        for name in names:
            for kind in kinds:
                unit = {"s": "s/unit", "self_s": "s/unit", "capped": "calls/unit"}.get(kind, f"{kind}/unit")
                spec.append((f"{prefix}.{name}.{kind}", unit, "lower"))
        if names == ("adaptive",):
            spec.append(("quadrature.adaptive.useful_ratio", "ratio", "higher"))
        if prefix == "lapack":
            spec.append(("lapack.flops_computed", "flop/unit", "lower"))
    spec += [("io.read_pair.s", "s/unit", "lower"), ("io.report_bytes", "bytes/unit", "lower"), ("io.write.s", "s/unit", "lower")]
    spec.append(("trace.goodput_gap", "ratio", "lower"))
    return spec


class _TimedWriter:
    """File proxy that records each write and the close as io.write spans."""

    def __init__(self, tracer: "Tracer", fh):
        self._tracer = tracer
        self._fh = fh

    def write(self, text):
        return self._tracer.call("io.write", self._fh.write, (text,))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tracer.call("io.write", self._fh.close, ())
        return False


class Tracer:
    """Span recorder with per-thread parent stacks; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs=None, counter=None, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        except Exception:
            self.spans.append(Span(sid, name, start, time.perf_counter(), parent, self.unit, {"error": 1}))
            raise
        finally:
            stack.pop()
        end = time.perf_counter()
        self.spans.append(Span(sid, name, start, end, parent, self.unit, counter(args, out) if counter else {}))
        return out

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    def _suite_items(self, original):
        """Wrap each suite item thunk; items run on pool threads, so the
        enclosing suite span is passed as their parent explicitly."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            return [
                (name, functools.partial(self.call, f"cli.item.{name}", thunk, (), None, _item_counts, parent))
                for name, thunk in original(*args, **kwargs)
            ]

        return traced

    def _open(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _TimedWriter(self, fh) if "w" in mode else fh

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "numpy.linalg" or mod_name.split(".")[0] == "frenkel"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for mod_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._wrap(name, original, counter))
        cli = sys.modules["frenkel.cli"]
        self._replace_everywhere(cli._suite_items, self._suite_items(cli._suite_items))
        # cli writes reports through the builtin open; a module global shadows it.
        self._patches.append((cli, "open", None))
        cli.open = self._open

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            if original is None:
                delattr(mod, attr)
            else:
                setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "id": s.sid, "unit": s.unit, **s.counts}))
                fh.write("\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, hi = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > hi:
            total += b - max(a, hi)
            hi = b
    return total


def layer_metrics(spans: list[Span], n_units: int, report_bytes: int, goodput_gap: float) -> dict:
    """Aggregate spans into the per-layer metrics of per_layer_spec(), per traced unit.

    goodput_gap is the tracing overhead: the share of untraced goodput lost
    when the same units run traced.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    # Descendant adaptive evaluations and capped integrals; spans are
    # appended when they end, so every child precedes its parent.
    below: dict[int, list[int]] = {}
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        sub = below.pop(s.sid, [0, 0])
        if s.name == "quadrature.adaptive":
            sub = [sub[0] + s.counts["evals"], sub[1] + s.counts["capped"]]
        if s.parent is not None:
            acc = below.setdefault(s.parent, [0, 0])
            acc[0] += sub[0]
            acc[1] += sub[1]
        duration = s.end - s.start
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())]
        t = totals.setdefault(s.name, {})
        for key, value in (("calls", 1), ("s", duration), ("self_s", duration - _covered(kids)), ("sub_evals", sub[0]), ("sub_capped", sub[1]), *s.counts.items()):
            t[key] = t.get(key, 0) + value

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    per = max(n_units, 1)
    out = {}
    for name, unit, _ in per_layer_spec():
        head, _, kind = name.rpartition(".")
        if name == "cli.parallel_speedup":
            suite = get("cli.suite", "s")
            value = sum(get(f"cli.item.{i}", "s") for i in CLI_ITEMS) / suite if suite else 0.0
        elif name == "quadrature.adaptive.useful_ratio":
            evals = get("quadrature.adaptive", "evals")
            value = 15 * get("quadrature.adaptive", "panels") / evals if evals else 0.0
        elif name == "lapack.flops_computed":
            value = sum(get(f"lapack.{f}", "flops") for f in LAPACK) / per
        elif name == "io.report_bytes":
            value = report_bytes / per
        elif name == "trace.goodput_gap":
            value = goodput_gap
        elif head == "cli.items":
            value = sum(get(f"cli.item.{i}", kind) for i in CLI_ITEMS) / per
        elif head != "quadrature.adaptive" and kind in ("evals", "capped"):
            value = get(head, f"sub_{kind}") / per
        else:
            value = get(head, kind) / per
        out[name] = {"value": value, "unit": unit}
    return out
