"""Names that code outside the test suite uses must keep resolving, and
the CLI pipeline must end in a report for every kind of pair it generates.

perfbench/tracing.py replaces (module, attribute) pairs at run time, and the
scripts under demos/ import the library's public names, so a refactor that
renames or deletes one of them breaks only the traced benchmark run or a
demo; these tests run them and fail at once instead.
"""

import ast
import importlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "frenkel"
TRACING = ROOT / "perfbench" / "tracing.py"
BENCH_SELF_TEST = ROOT / "perfbench" / "test_bench.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.TARGETS
    missing = [
        (module, attr)
        for module, attr, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    # The tracer patches by identity, in every module that holds the object:
    # one function behind two targets would be traced under both span names.
    objects = [getattr(importlib.import_module(module), attr) for module, attr, *_ in tracing.TARGETS]
    assert len({id(obj) for obj in objects}) == len(objects)


GEN_KINDS = {"pd": [], "commuting": ["--commuting"], "singular-b": ["--singular-b"], "unsupported": ["--unsupported"]}


@pytest.mark.parametrize("kind, dim, cond", list(itertools.product(GEN_KINDS, ("1", "2", "3"), ("1", "1e3"))))
def test_gen_verify_smoke(monkeypatch, tmp_path, kind, dim, cond):
    # Every gen kind at the smallest dims: verify ends in exit 0 or 1 with a
    # report of the item list perfbench's checker expects, never in an
    # exception or exit 2.  On an unsupported pair, the probe export at its
    # default checkpoints and tol holds the report's probe values.
    tracing = _load_tracing(monkeypatch)
    cli = importlib.import_module("frenkel.cli")
    pair, out = tmp_path / "pair.json", tmp_path / "report.json"
    assert cli.main(["gen", "--seed", "1", "--dim", dim, "--cond", cond, *GEN_KINDS[kind], "-o", str(pair)]) == 0
    assert cli.main(["verify", "-i", str(pair), "-o", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    names = tuple(item["name"] for item in report["items"])
    assert names == (("divergence_growth_slope",) if kind == "unsupported" else tracing.CLI_ITEMS)
    if kind == "unsupported":
        csv = tmp_path / "probe.csv"
        assert cli.main(["probe", "-i", str(pair), "-o", str(csv)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in csv.read_text().splitlines()[1:]]
        assert [t for t, _ in rows] == report["probe"]["checkpoints"]
        assert [v for _, v in rows] == report["probe"]["values"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_from_any_directory(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_suite_items_keep_the_tracer_contract(monkeypatch):
    # The tracer wraps cli._suite_items: it unpacks (name, thunk) pairs,
    # names its spans after tracing.CLI_ITEMS and counts a thunk returning
    # {"skipped": True} as skipped.
    tracing = _load_tracing(monkeypatch)
    cli = importlib.import_module("frenkel.cli")
    prepare_pair = importlib.import_module("frenkel.divergence").prepare_pair
    B = np.diag([2.0, 1.0, 0.0]).astype(complex)  # singular B, A inside range(B)
    A = np.diag([1.0, 3.0, 0.0]).astype(complex)
    pair = prepare_pair(A, B)
    routes = cli._suite_routes(pair, 1e-8)
    items = cli._suite_items(pair, 1e-8, lambda name: routes[name][0](*routes[name][1:]))
    assert all(len(item) == 2 and callable(item[1]) for item in items)
    assert tuple(name for name, _ in items) == tracing.CLI_ITEMS
    outs = {name: thunk() for name, thunk in items}
    skipped = {name for name, out in outs.items() if tracing._item_counts((), out).get("skipped")}
    assert skipped == {
        "pairing_trace",
        "pairing_identity",
        "chain_identity",
        "log_difference_representation",
        "dlog_representation",
        "log_resolvent_oracle",
        "dlog_resolvent_oracle",
        "dlog_fd_oracle",
        "alogdiff_oracle",
    }
    assert all(outs[name] == {"skipped": True} for name in skipped)


@pytest.mark.parametrize("kind", ["pd", "commuting", "singular-b"])
def test_suite_route_table_matches_the_items(kind):
    # verify runs every route of cli._suite_routes ahead of the items, so a
    # route no item reads is wasted work, and an item that reads a name
    # outside the table has no result to wait on.
    cli = importlib.import_module("frenkel.cli")
    prepare_pair = importlib.import_module("frenkel.divergence").prepare_pair
    A, B = cli.generate_pair(
        cli.RunConfig(command="gen", seed=5, dim=4, commuting=kind == "commuting", singular_b=kind == "singular-b")
    )
    pair = prepare_pair(A, B)
    routes = cli._suite_routes(pair, 1e-8)
    reads = set()

    def route(name):
        assert name in routes, name
        reads.add(name)
        fn, *args = routes[name]
        return fn(*args)

    for _, thunk in cli._suite_items(pair, 1e-8, route):
        thunk()
    assert reads == set(routes)


def _traced_layers(workload):
    """perfbench's TRACED_LAYERS[workload], read from its self-test's source."""
    tree = ast.parse(BENCH_SELF_TEST.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED_LAYERS"]:
            return ast.literal_eval(node.value)[workload]
    raise AssertionError("perfbench/test_bench.py has no TRACED_LAYERS")


def test_verify_calls_the_routes_perfbench_traces(monkeypatch, tmp_path):
    # perfbench's self-test requires the traced verify-mixed run to call
    # these routes, and verify reaches them through cli's module globals.
    # Each runs once per PD pair.
    routes = [
        layer.split(".")[1]
        for layer in _traced_layers("verify-mixed")
        if layer.split(".")[0] in ("divergence", "quadrature") and layer.endswith(".calls")
    ]
    assert sorted(routes) == ["delta_operator", "proof_chain_integrals"]
    cli = importlib.import_module("frenkel.cli")
    calls = []
    for name in routes:
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
    pair = tmp_path / "pair.json"
    assert cli.main(["gen", "--seed", "1", "--dim", "4", "-o", str(pair)]) == 0
    assert cli.main(["verify", "-i", str(pair), "-o", str(tmp_path / "r.json")]) in (0, 1)
    assert sorted(calls) == sorted(routes)


def _owners(names) -> set:
    """"module.owner" for every use of the names in the package source, where
    owner is the top-level function, class or assignment the use sits in."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = top.name
            else:
                owner = ",".join(ast.unparse(t) for t in getattr(top, "targets", ())) or type(top).__name__
            for node in ast.walk(top):
                if getattr(node, "id", None) in names or (isinstance(node, ast.Attribute) and node.attr in names):
                    out.add(f"{path.stem}.{owner}")
    return out


def test_json_is_parsed_only_in_io():
    # Every JSON input goes through frenkel.io.load_object, which rejects a
    # malformed document with a ValueError naming it, so the CLI exits 2.
    parsers = {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("load", "loads") and getattr(node.value, "id", None) == "json"
    }
    assert parsers == {"io"}


def test_one_clipped_pencil_core():
    # Every clipped-pencil integral goes through quadrature.clipped_integrals,
    # and quadrature._form_domain owns each form's coordinate, domain, kinks
    # and pencil.  The panel-tree driver has three other callers, which
    # integrate no clipped pencil on a form's domain: the generic matrix
    # integral, the probe's log-gamma windows and the resolvent half-line.
    assert _owners({"_adaptive"}) == {
        "quadrature.clipped_integrals",
        "quadrature.adaptive_matrix_integral",
        "quadrature.divergence_probe",
        "resolvent._halfline",
    }
    # The pencils are built only from the forms' table, and by the probe's
    # witness form on its own log-gamma coordinate.
    assert _owners({"_gamma_pencil", "_u_pencil", "_PENCILS"}) == {
        "quadrature._PENCILS",
        "quadrature._form_domain",
        "quadrature._witness_form",
    }
