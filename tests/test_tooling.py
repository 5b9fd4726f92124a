"""Names that code outside the test suite uses must keep resolving, and
the CLI pipeline must end in a report for every kind of pair it generates.

perfbench/tracing.py replaces (module, attribute) pairs at run time, and the
scripts under demos/ import the library's public names, so a refactor that
renames or deletes one of them breaks only the traced benchmark run or a
demo; these tests run them and fail at once instead.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from test_gate import GATED_ENTRY_POINTS

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


OUTSIDE_TESTS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) + DEMOS


def _passed_arguments() -> set:
    """(callee, keyword) for every keyword argument and (callee, index) for
    every positional argument passed outside the test suite, in src/frenkel,
    perfbench/ and demos/; partial(f, ...) counts as passing its arguments
    after f to f."""
    out = set()
    for path in OUTSIDE_TESTS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "id", getattr(func, "attr", None)) == "partial" and args:
                func, args = args[0], args[1:]
            callee = getattr(func, "id", getattr(func, "attr", None))
            out.update((callee, kw.arg) for kw in node.keywords if kw.arg is not None)
            out.update((callee, index) for index in range(len(args)))
    return out


def _is_option(param: inspect.Parameter) -> bool:
    """A keyword-only parameter, or a positional-or-keyword one that
    defaults to None or a bool (a switch)."""
    if param.kind is inspect.Parameter.KEYWORD_ONLY:
        return True
    return param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD and (param.default is None or isinstance(param.default, bool))


# Options that only the tests set on purpose: the probe-kink tests compare
# find_crossings against the sign-scan route that method forces.
TEST_ONLY_OPTIONS = {("find_crossings", "method")}


def test_every_public_option_is_used():
    # An option of a public callable that only the tests pass is a knob no
    # command, workload or demo turns, so every one must be passed somewhere
    # outside tests/, by keyword or at its position.
    import frenkel

    passed = _passed_arguments()
    unused = {
        (name, param.name)
        for name in frenkel.__all__
        if callable(getattr(frenkel, name))
        for index, param in enumerate(inspect.signature(getattr(frenkel, name)).parameters.values())
        if _is_option(param) and not {(name, param.name), (name, index)} & passed
    }
    assert unused == TEST_ONLY_OPTIONS


def _public_dataclasses() -> dict:
    """name -> class of every dataclass that frenkel.__all__ names or that a
    public callable is annotated to return."""
    import frenkel

    out = {}
    for name in frenkel.__all__:
        obj = getattr(frenkel, name)
        if dataclasses.is_dataclass(obj):
            out[name] = obj
        elif callable(obj):
            ret = inspect.signature(obj).return_annotation
            cls = getattr(sys.modules[obj.__module__], ret, None) if isinstance(ret, str) else ret
            if dataclasses.is_dataclass(cls):
                out[cls.__name__] = cls
    return out


# Fields that only the tests read on purpose: the margin of psd_order, a
# reference the tests check the PSD order against.
TEST_ONLY_FIELDS = {"PsdOrderVerdict.margin"}


def test_every_public_field_is_read():
    # A field of a public result that no module, perfbench file or demo
    # reads as an attribute is carried only for the tests.
    read = {
        node.attr
        for path in OUTSIDE_TESTS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    classes = _public_dataclasses()
    assert {"ProductIntegral", "PartsDecomposition", "DivergenceReport", "PsdOrderVerdict"} <= set(classes)
    unread = {
        f"{name}.{f.name}" for name, cls in classes.items() for f in dataclasses.fields(cls) if f.name not in read
    }
    assert unread == TEST_ONLY_FIELDS


# Public names that only the test suite reaches: the clipped operator, the
# PSD order and its constant, the positive part and the generic matrix
# integral, which the tests check against the paper's definitions.
TEST_ONLY_NAMES = {"o_gamma", "psd_order", "domination_tau", "positive_part", "adaptive_matrix_integral"}


def _referenced_names(path: Path, skip_definitions: bool) -> set:
    """Names a file reads as an ast Name, an attribute of a frenkel module or
    an import; with skip_definitions, a read inside the top-level definition
    of the same name does not count.  Only module attributes count, so a
    field such as PartsDecomposition.positive_part does not reach the
    function linalg.positive_part."""
    modules = {p.stem for p in SRC.glob("*.py")} | {"frenkel"}
    out = set()
    for top in ast.parse(path.read_text()).body:
        defined = set()
        if skip_definitions and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            defined = {top.name}
        elif skip_definitions and isinstance(top, ast.Assign):
            defined = {getattr(t, "id", None) for t in top.targets}
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out |= {node.id} - defined
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", getattr(node.value, "attr", None)) in modules:
                out |= {node.attr} - defined
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                out |= {alias.name.rsplit(".", 1)[-1] for alias in node.names} - defined
    return out


def test_every_public_name_is_reached_outside_the_tests():
    # A public name that no module, perfbench file or demo reaches is API
    # that only the tests hold up.  A tracer target is wrapped, not called,
    # so it is no reference.
    import frenkel

    reached = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            reached |= _referenced_names(path, skip_definitions=True)
    for path in sorted((ROOT / "perfbench").glob("*.py")) + DEMOS:
        reached |= _referenced_names(path, skip_definitions=False)
    unreached = {name for name in frenkel.__all__ if name not in reached}
    assert unreached == TEST_ONLY_NAMES


# Operand parameters: a public callable that takes one of these must admit
# it through the operand gate (linalg.as_hermitian, as_hermitian_pair).
OPERAND_PARAMETERS = {"A", "B", "T", "T1", "T2"}

# Public kernels, which take the Hermitian part of what they are handed: the
# package calls them on admitted operands and on intermediates, which the
# gate would reject (an empty range(B) block) or only check again.
KERNELS = {
    "eig_hermitian": "decomposes admitted operands and range(B) blocks; rejects non-finite entries itself",
    "matrix_log": "the logs of dlog_fd_oracle's pencils B +/- tA",
    "opnorm": "norms of intermediates such as A - embed(V, A1, n)",
    "parts": "clips pencils A - gamma B, and the suite's A - B",
    "positive_part": "the tests' reference clip of a pencil",
    "schatten_norm": "norms of differences such as |T1| - |T2| in araki_check",
    "truncate": "the leading blocks of truncation_series' admitted master operator",
}


def _enters_through_prepare_pair(fn) -> bool:
    """The first statement of fn past its docstring assigns
    prepare_pair(A, B) or supported_pair(A, B)."""
    body = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0].body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    first = body[0]
    return (
        isinstance(first, ast.Assign)
        and isinstance(first.value, ast.Call)
        and getattr(first.value.func, "id", None) in ("prepare_pair", "supported_pair")
        and [ast.unparse(arg) for arg in first.value.args] == ["A", "B"]
    )


def test_every_public_operand_passes_the_gate():
    # Each public function with an operand parameter is in the gate test's
    # table, enters through prepare_pair (which admits its operands), or is
    # a listed kernel: a new public entry point cannot skip the gate.
    import frenkel
    from frenkel import divergence

    assert _enters_through_prepare_pair(divergence.supported_pair)
    takes_operands = {
        name
        for name in frenkel.__all__
        if inspect.isfunction(getattr(frenkel, name))
        and OPERAND_PARAMETERS & set(inspect.signature(getattr(frenkel, name)).parameters)
    }
    prepared = {name for name in takes_operands if _enters_through_prepare_pair(getattr(frenkel, name))}
    assert set(KERNELS) <= takes_operands
    assert set(KERNELS).isdisjoint(set(GATED_ENTRY_POINTS) | prepared)
    assert takes_operands - set(GATED_ENTRY_POINTS) - prepared - set(KERNELS) == set()
