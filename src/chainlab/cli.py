"""Command-line front end: generate, validate, adjust and analyse families.

Every command reads and writes the textual formats of the library modules,
takes an explicit seed wherever randomness is involved, and produces
byte-identical output for identical inputs.  `--input -` reads stdin;
omitting `--output` writes stdout (except `adjust`, whose adjusted family
always goes to a file while the receipt report goes to stdout).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import adjust as adj
from . import core, generators, lineop

COMMANDS = (
    "generate", "check", "adjust", "compat", "gap", "triples", "operator", "sweep",
)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise core.InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise core.InputError(f"cannot write {path}: {exc}") from exc


def _load_family(path: str) -> core.ChainFamily:
    return core.family_from_text(_read_text(path))


def _chain_verdict(witness: core.ChainWitness | None) -> str:
    if witness is None:
        return "ok"
    return (
        f"witness n={witness.n} x={core.format_index(witness.x)} "
        f"y={core.format_index(witness.y)}"
    )


def _alternation_verdict(witness: core.AlternationWitness | None) -> str:
    if witness is None:
        return "ok"
    xs = " ".join(
        f"x{i}={core.format_index(x)}"
        for i, x in enumerate((witness.x1, witness.x2, witness.x3, witness.x4), 1)
    )
    return f"witness n={witness.n} {xs}"


# --- commands ------------------------------------------------------------------


# `generate --kind` -> (generator config kind, the flags that config takes).
_GENERATE_KINDS = {
    "chain": ("initial-chain", ("ground_size", "count")),
    "perturbed": ("perturbed", ("ground_size", "count", "flips")),
    "marciszewski": ("marciszewski", ("depth", "count")),
    "sign": ("sign-matrix", ("ground_size", "count")),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.config is not None:
        cfg = generators.generator_config_from_text(_read_text(args.config))
    else:
        kind, flags = _GENERATE_KINDS[args.kind]
        cfg = {"kind": kind, "seed": args.seed, **{f: getattr(args, f) for f in flags}}
    family = generators.family_from_config(cfg)
    _write_text(args.output, core.family_to_text(family))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    family = _load_family(args.input)
    report = core.validate_almost_chain(family, args.budget)
    flagged = " ".join(
        f"({core.format_index(x)},{core.format_index(y)})={size}"
        for (x, y), size in report.over_budget.items()
    )
    lines = [
        f"chain: {_chain_verdict(core.chain_witness(family))}",
        f"barely_alternating: {_alternation_verdict(core.alternation_witness(family))}",
        f"max_defect: {report.max_defect_size}",
        f"budget: {args.budget}",
        f"over_budget: {flagged or 'none'}",
    ]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _resolve_order(
    family: core.ChainFamily, text: str, mode: str, seed: int
) -> tuple[Fraction, ...] | None:
    if mode == "sorted":
        return None
    if mode == "given":
        _, entries = core.family_entries_from_text(text)
        return tuple(x for x, _ in entries)
    order = list(family.indices)
    random.Random(seed).shuffle(order)
    return tuple(order)


def _cmd_adjust(args: argparse.Namespace) -> int:
    if args.output in (None, "-"):
        raise core.InputError(
            "adjust writes the receipt report to stdout; give the adjusted "
            "family a file --output"
        )
    text = _read_text(args.input)
    family = core.family_from_text(text)
    order = _resolve_order(family, text, args.order, args.seed)
    adjusted, report = adj.adjust_family(family, order)
    _write_text(args.output, core.family_to_text(adjusted))
    sys.stdout.write(adj.adjustment_report_to_text(report))
    return 0


def _cmd_compat(args: argparse.Namespace) -> int:
    if len(args.input) != 2:
        raise core.InputError("compat needs --input given exactly twice")
    left, right = (_load_family(path) for path in args.input)
    witness = adj.compatibility_witness(left, right)
    if witness is None:
        _write_text(args.output, "compatible\n")
    else:
        _write_text(args.output, _alternation_verdict(witness) + "\n")
    return 0


def _parse_gap_instance(
    text: str,
) -> tuple[list[core.SetBits], list[core.SetBits]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise core.InputError(f"gap instance is not valid JSON: {exc}") from exc
    expected = {"ground_size", "ascending", "descending"}
    if not isinstance(doc, dict) or set(doc) != expected:
        raise core.InputError(
            "gap instance must have exactly ground_size, ascending, descending"
        )
    ground = core.GroundSet(doc["ground_size"])

    def tower(key: str) -> list[core.SetBits]:
        rows = doc[key]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise core.InputError(f"{key} must be a list of element lists")
        return [core.SetBits.from_elements(ground, r) for r in rows]

    return tower("ascending"), tower("descending")


def _cmd_gap(args: argparse.Namespace) -> int:
    ascending, descending = _parse_gap_instance(_read_text(args.input))
    interpolant = adj.interpolate_gap(ascending, descending, args.budget)
    ground = interpolant.ground
    asc_entries = []
    for n, u in enumerate(ascending):
        bound = core.SetBits.empty(ground)
        for m in range(min(n + 1, len(descending))):
            bound |= u - descending[m]
        escaped = u - interpolant
        asc_entries.append(
            {
                "position": n,
                "escaped": list(escaped.elements()),
                "bound": list(bound.elements()),
                "covered": escaped.is_subset(bound),
            }
        )
    desc_entries = []
    for m, v in enumerate(descending):
        bound = core.SetBits.empty(ground)
        for n in range(min(m, len(ascending))):
            bound |= ascending[n] - v
        excess = interpolant - v
        desc_entries.append(
            {
                "position": m,
                "excess": list(excess.elements()),
                "bound": list(bound.elements()),
                "covered": excess.is_subset(bound),
            }
        )
    doc = {
        "interpolant": list(interpolant.elements()),
        "ascending_exceptions": asc_entries,
        "descending_exceptions": desc_entries,
    }
    _write_text(args.output, json.dumps(doc, indent=2) + "\n")
    return 0


def _model_for(family: core.ChainFamily, args: argparse.Namespace) -> lineop.LineModel:
    if args.model is None:
        return lineop.LineModel.from_dense(family.indices)
    return lineop.model_from_text(_read_text(args.model))


def _cmd_triples(args: argparse.Namespace) -> int:
    family = _load_family(args.input)
    model = _model_for(family, args)
    table = lineop.compute_triples(family, model)
    _write_text(args.output, lineop.triple_table_to_text(table))
    return 0


def _cmd_operator(args: argparse.Namespace) -> int:
    family = _load_family(args.input)
    model = _model_for(family, args)
    table = lineop.compute_triples(family, model)
    lines = [f"norm: {lineop.operator_norm(table)}"]
    witness = lineop.norm_witness(table, model.carrier)
    if witness is not None:
        n, f_witness = witness
        achieved = lineop.apply_operator(f_witness, table).on_ground[n]
        lines.append(f"witness_n: {n}")
        lines.append(f"witness_value: {achieved}")
    if args.function is not None:
        f = lineop.function_from_text(_read_text(args.function))
    else:
        f = lineop.FunctionOnLine({p: p for p in model.carrier})
    schedule = lineop.coincident_schedule(table)
    lines.append(f"harness_steps: {len(schedule)}")
    if schedule:
        report = lineop.continuity_harness(family, model, schedule, f)
        lines.append(lineop.harness_report_to_text(report).rstrip("\n"))
    if args.function is not None:
        extended = lineop.apply_operator(f, table)
        lines.append("# n\tEf")
        for n in sorted(extended.on_ground):
            lines.append(f"{n}\t{extended.on_ground[n]}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


_SWEEP_HEADER = (
    "kind\tparam\trep\tseed\tground_size\tindices\tmax_defect"
    "\ttotal_cost\tmax_cost\tnorm\tbarely_ok"
)


def _sweep_cell(args: argparse.Namespace, param: int, rep: int) -> str:
    """One grid row: `param` is the flips (perturbed) or depth (marciszewski) value."""
    seed = args.seed * 1_000_003 + 913 * param + rep
    if args.kind == "perturbed":
        shape = {"ground_size": args.ground_size, "count": args.count, "flips": param}
    else:
        shape = {"depth": param, "count": min(args.count, (1 << param) - 1)}
    family = generators.family_from_config({"kind": args.kind, "seed": seed, **shape})
    defects = core.validate_almost_chain(family, 0)
    adjusted, report = adj.adjust_family(family)
    barely = core.is_barely_alternating(adjusted)
    table = lineop.compute_triples(adjusted, lineop.LineModel.from_dense(adjusted.indices))
    norm = lineop.operator_norm(table)
    return (
        f"{args.kind}\t{param}\t{rep}\t{seed}\t{family.ground.size}\t{len(family)}"
        f"\t{defects.max_defect_size}\t{report.total_cost}\t{report.max_cost}"
        f"\t{norm}\t{'yes' if barely else 'no'}"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.kind == "perturbed":
        grid = range(args.flips + 1)
    elif args.depth < 3:
        raise core.InputError("sweep needs --depth of at least 3")
    else:
        grid = range(3, args.depth + 1)
    rows = [_sweep_cell(args, param, rep) for param in grid for rep in range(args.reps)]
    _write_text(args.output, "\n".join([_SWEEP_HEADER, *rows]) + "\n")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "check": _cmd_check,
    "adjust": _cmd_adjust,
    "compat": _cmd_compat,
    "gap": _cmd_gap,
    "triples": _cmd_triples,
    "operator": _cmd_operator,
    "sweep": _cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlab",
        description="Generate, validate, adjust and analyse almost chains of finite sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a family produced by a named generator")
    p.add_argument("--kind", choices=tuple(_GENERATE_KINDS), default="chain")
    p.add_argument("--config", help="generator config JSON (overrides the flags)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-size", type=int, default=16)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--flips", type=int, default=1)
    p.add_argument("--output")

    p = sub.add_parser("check", help="chain / barely-alternating / defect verdicts")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("adjust", help="rebuild a family as a barely alternating one")
    p.add_argument("--input", required=True)
    p.add_argument("--order", choices=("sorted", "given", "random"), default="sorted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("compat", help="merge two conditions and re-check")
    p.add_argument("--input", action="append", required=True,
                   help="family file; give exactly twice")
    p.add_argument("--output")

    p = sub.add_parser("gap", help="interpolate between an ascending and a descending tower")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("triples", help="per-element evaluation points of a family")
    p.add_argument("--input", required=True)
    p.add_argument("--model")
    p.add_argument("--output")

    p = sub.add_parser("operator", help="norm, witness and limit harness of the extension")
    p.add_argument("--input", required=True)
    p.add_argument("--model")
    p.add_argument("--function")
    p.add_argument("--output")

    p = sub.add_parser("sweep", help="parameter grid of generate/adjust/operator runs")
    p.add_argument("--kind", choices=("perturbed", "marciszewski"), default="perturbed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-size", type=int, default=32)
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--flips", type=int, default=3, help="largest flips value in the grid")
    p.add_argument("--depth", type=int, default=6, help="largest depth value in the grid")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--output")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except core.InputError as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return 1
    except lineop.InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
