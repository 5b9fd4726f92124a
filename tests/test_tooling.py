"""Names that code outside the test suite uses must keep resolving.

perfbench/tracing.py replaces (module, attribute) pairs at run time, and the
scripts under demos/ import the library's public names, so a refactor that
renames or deletes one of them breaks only the traced benchmark run or a
demo; these tests run them and fail at once instead.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_tracer_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        (module, attr)
        for module, attr, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_from_any_directory(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
