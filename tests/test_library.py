"""The public surface: exports that resolve, imports that are used, traced names that exist."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import chainlab
from chainlab.core import DefectReport, validate_almost_chain

from oracles import build_family

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "chainlab").glob("*.py"))


def _tracer_layers() -> dict:
    """The LAYERS table of perfbench/tracer.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS table")


@pytest.mark.parametrize(
    "layer,fn", [(layer, fn) for layer, fns in _tracer_layers().items() for fn in fns])
def test_traced_layers_resolve(layer, fn):
    # The benchmark's traced mode patches chainlab.<layer>.<fn> by name.
    assert callable(vars(importlib.import_module(f"chainlab.{layer}")).get(fn))


def test_defect_report_keeps_flagged_pairs():
    report = validate_almost_chain(build_family(["10", "11"]), 0)
    assert isinstance(report, DefectReport)
    assert report.flagged_pairs == ((0, 1),)


def test_all_lists_exactly_the_public_bindings():
    public = {name for name, value in vars(chainlab).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert all(hasattr(chainlab, name) for name in chainlab.__all__)
    assert len(set(chainlab.__all__)) == len(chainlab.__all__)
    assert set(chainlab.__all__) == public


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_modules_use_every_name_they_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_a_leftover():
    assert _unused_imports("import json\nfrom bisect import bisect_left\nx = 1\n") == [
        "json", "bisect_left"]
    assert _unused_imports("from a import b as c\nc()\n") == []
