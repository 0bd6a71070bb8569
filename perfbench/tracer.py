"""In-process tracer for chainlab's layers, and its self-test.

`Tracer` replaces the public functions listed in `LAYERS` by timing wrappers
in every namespace that binds them: the `chainlab` package and its five
modules.  The CLI reaches most of them as `core.X` or `adj.X`, but `adjust`
and `lineop` import `alternation_witness` by name, and `adjust_family` and
`continuity_harness` reach `insert_point` and `compute_triples` through
their own module globals, so patching only one module would miss calls.
Each call records a span (name, parent span, start, end) in memory; leaving
the context restores every original binding.

Run the self-test on tiny inputs with

    python3 perfbench/tracer.py
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import workloads

LAYERS = {
    "core": ("validate_almost_chain", "family_from_text", "family_to_text",
             "chain_witness", "alternation_witness", "is_barely_alternating"),
    "adjust": ("adjust_family", "insert_point", "adjustment_report_to_text"),
    "lineop": ("compute_triples", "continuity_harness", "coincident_schedule",
               "triple_table_to_text", "harness_report_to_text", "operator_norm",
               "norm_witness"),
    "generators": ("family_from_config", "initial_segment_chain", "perturbed_chain",
                   "marciszewski_family"),
    "cli": ("main",),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Functions that call other traced functions, and the metric for their self time.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "adjust.adjust_family": "adjust.adjust_family.self_s",
    "lineop.compute_triples": "lineop.compute_triples.self_s",
    "lineop.continuity_harness": "lineop.continuity_harness.self_s",
    "generators.family_from_config": "generators.family_from_config.self_s",
    "generators.perturbed_chain": "generators.perturbed_chain.self_s",
}


def _defect_counts(args, report) -> dict[str, int]:
    k = len(args[0])
    flagged = len(report.flagged_pairs)
    kept = getattr(report, "pair_defects", None)
    return {"pairs": k * (k - 1) // 2, "flagged": flagged,
            "defects_kept": flagged if kept is None else len(kept)}


# Counters read from a call's arguments and result once the pass is over,
# so that computing them adds nothing to any span.
COUNTERS = {
    "core.validate_almost_chain": _defect_counts,
    "core.family_from_text": lambda args, result: {"bytes": len(args[0])},
    "core.family_to_text": lambda args, result: {"bytes": len(result)},
    "adjust.adjust_family": lambda args, result: {
        "insertions": len(result[1].receipts), "total_cost": result[1].total_cost},
}

COUNTER_METRICS = (
    "core.validate_almost_chain.pairs", "core.validate_almost_chain.defects_kept",
    "core.validate_almost_chain.flagged", "core.family_from_text.bytes",
    "core.family_to_text.bytes", "adjust.adjust_family.insertions",
    "adjust.adjust_family.total_cost",
)

UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "calls": "count", "bytes": "B",
         "useful_ratio": "ratio"}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name in TRACED:
        names += [f"{name}.s", f"{name}.calls"]
        if name in SELF_TIME:
            names.append(SELF_TIME[name])
    return names + [*COUNTER_METRICS, "core.validate_almost_chain.useful_ratio",
                    "trace.overhead_s"]


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")


def load_cli():
    """Import chainlab from the checkout's `src` and return its cli module."""
    if str(workloads.SRC) not in sys.path:
        sys.path.insert(0, str(workloads.SRC))
    return importlib.import_module("chainlab.cli")


def _namespaces() -> list[dict]:
    load_cli()
    names = ["chainlab"] + [f"chainlab.{layer}" for layer in LAYERS]
    return [vars(importlib.import_module(n)) for n in names]


class Tracer:
    """Context manager that traces every function in LAYERS while active."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []
        self._stack: list[int] = []
        self._pending: list[tuple[str, tuple, object]] = []
        self._patched: list[tuple[dict, str, object, object]] = []
        self._originals: list[object] = []

    def _wrap(self, name: str, fn):
        spans, stack, pending = self.spans, self._stack, self._pending
        counted = name in COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, parent, 0.0, 0.0))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if counted:
                pending.append((name, args, result))
            return result

        return traced

    def __enter__(self) -> Tracer:
        namespaces = _namespaces()
        for name in TRACED:
            layer, fn = name.split(".")
            original = vars(sys.modules[f"chainlab.{layer}"])[fn]
            self._originals.append(original)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if value is original:
                        ns[attr] = wrapper
                        self._patched.append((ns, attr, original, wrapper))
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original, _ in reversed(self._patched):
            ns[attr] = original

    def unpatched(self) -> list[str]:
        """Namespace bindings that still hold an original traced function."""
        originals = {id(o) for o in self._originals}
        return [f"{ns['__name__']}.{attr} is not traced"
                for ns in _namespaces() for attr, value in ns.items()
                if id(value) in originals]

    def leftovers(self) -> list[str]:
        """Wrappers still bound after the context has exited."""
        wrappers = {id(w) for _, _, _, w in self._patched}
        return [f"{ns['__name__']}.{attr} still traced"
                for ns in _namespaces() for attr, value in ns.items()
                if id(value) in wrappers]

    def summary(self) -> dict[str, float]:
        """Inclusive time, self time, calls and counters per traced function."""
        total: defaultdict[str, float] = defaultdict(float)
        children: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for name, parent, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[self.spans[parent][0]] += end - start
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.s"] = total[name]
            out[f"{name}.calls"] = calls[name]
            if name in SELF_TIME:
                out[SELF_TIME[name]] = total[name] - children[name]
        for key in COUNTER_METRICS:
            out[key] = 0
        for name, args, result in self._pending:
            for key, value in COUNTERS[name](args, result).items():
                out[f"{name}.{key}"] += value
        kept = out["core.validate_almost_chain.defects_kept"]
        out["core.validate_almost_chain.useful_ratio"] = (
            out["core.validate_almost_chain.flagged"] / kept if kept else 0.0)
        return out


def run_command(cli, command: workloads.Command, out: Path) -> tuple[int, float]:
    """Run one CLI command through `cli.main` in this process, stdout to `out`."""
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        start = perf_counter()
        try:
            code = cli.main(list(command.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        return code, perf_counter() - start


def self_test(work: Path) -> list[str]:
    """Trace every workload at tiny size and check the tracer's assumptions.

    Asserts that every binding is patched while tracing and restored after,
    the expected call counts (two `compute_triples` per `operator`, k
    `insert_point` per `adjust`), and each workload's bypass claim.
    """
    cli = load_cli()
    problems: list[str] = []
    for name, build in workloads.WORKLOADS.items():
        sizes = workloads.TINY[name]
        workload = build(7, work, **sizes)
        with open(work / "prepare.out", "w") as fh, contextlib.redirect_stdout(fh):
            for argv in workload.prepare:
                if cli.main(list(argv)) != 0:
                    problems.append(f"{name}: prepare {argv[0]} failed")
        stats = []
        for i, command in enumerate(workload.commands):
            out = work / f"{name}-{i}.out"
            with Tracer() as tracer:
                problems += tracer.unpatched()
                code, _ = run_command(cli, command, out)
            problems += tracer.leftovers()
            if code != 0:
                problems.append(f"{name}: {command.label} exited {code}")
            problems += [f"{name}: {p}" for p in command.verify(out)]
            s = tracer.summary()
            if s["cli.main.calls"] != 1:
                problems.append(f"{name}: cli.main traced {s['cli.main.calls']} times")
            stats.append((command.label, s))

        def calls(prefixes: tuple[str, ...], label: str | None = None) -> float:
            return sum(v for cmd, s in stats if label in (None, cmd)
                       for k, v in s.items()
                       if k.endswith(".calls") and k.startswith(prefixes))

        if name == "check_dense":
            if calls(("core.validate_almost_chain.",)) != 1:
                problems.append("check_dense: validate_almost_chain not called once")
            if calls(("adjust.", "lineop.", "generators.")):
                problems.append("check_dense: calls into adjust, lineop or generators")
        elif name == "rebuild_wide":
            if calls(("lineop.compute_triples.",), "operator") != 2:
                problems.append("rebuild_wide: operator did not call compute_triples twice")
            if calls(("adjust.insert_point.",), "adjust") != sizes["count"]:
                problems.append("rebuild_wide: insert_point calls != k")
            if calls(("core.validate_almost_chain.",)):
                problems.append("rebuild_wide: defect scan ran")
        elif name == "sweep_grid":
            if calls(("core.family_from_text.", "core.family_to_text.")):
                problems.append("sweep_grid: family text I/O ran")
            if not calls(("generators.marciszewski_family.",)):
                problems.append("sweep_grid: marciszewski generator did not run")
    return problems


if __name__ == "__main__":
    with workloads.scratch_dir() as work:
        found = self_test(work)
    for problem in found:
        print(f"FAIL {problem}", file=sys.stderr)
    print("tracer self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
