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


def _uncalled(sources: dict[str, str], tracer: str) -> list[str]:
    """`module.name` or `module.Class.name` of each public function, method or
    property in `sources` (module name -> source) that nothing names.

    A name counts as called where a module names it as an `ast.Name` or an
    `ast.Attribute`, or where the tracer's source holds it as a string constant
    or an attribute.  Names with a leading underscore, dunders included, are
    skipped.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    named |= {node.value if isinstance(node, ast.Constant) else node.attr
              for node in ast.walk(ast.parse(tracer))
              if isinstance(node, ast.Attribute)
              or isinstance(node, ast.Constant) and isinstance(node.value, str)}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{fn.name}", fn.name) for fn in node.body
                            if isinstance(fn, ast.FunctionDef)]
    return [path for path, name in defined if not name.startswith("_") and name not in named]


def test_every_public_function_has_a_caller():
    """The library is what the commands call: every public function, method and
    property of `src/chainlab` is named by the library itself.  The one
    exception is the benchmark's tracer, which times `core.is_barely_alternating`
    by name and reads `core.DefectReport.flagged_pairs`; nothing else calls them.
    """
    sources = {p.stem: p.read_text() for p in MODULES if p.name != "__init__.py"}
    assert _uncalled(sources, (ROOT / "perfbench" / "tracer.py").read_text()) == []


def test_uncalled_scan_sees_a_leftover():
    source = ("def used():\n    return 1\n\ndef spare():\n    return used()\n\n"
              "class C:\n    @property\n    def size(self):\n        return 0\n\n"
              "    def _hidden(self):\n        return self.size\n\n"
              "    def timed(self):\n        pass\n")
    assert _uncalled({"m": source}, "") == ["m.spare", "m.C.timed"]
    assert _uncalled({"m": source}, "import m\nLAYERS = ('timed',)\nm.spare\n") == []
