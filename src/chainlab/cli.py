"""Command-line front end: generate, validate, adjust and analyse families.

Every command reads and writes the textual formats of the library modules,
takes an explicit seed wherever randomness is involved, and produces
byte-identical output for identical inputs.  `--input -` reads stdin.  A
command returns its text and `main` writes it to `--output`, or stdout when
omitted; `adjust` writes its family to its own file and returns receipts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from itertools import compress
from typing import Sequence

from . import adjust as adj
from . import core, generators, lineop

def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise core.InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write a file, or stdout for None or "-", flushed; a failed write is an InputError."""
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        if path is None or path == "-":
            path = "stdout"
            # Closing drops what the failed flush left buffered, so exit has nothing to write.
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise core.InputError(f"cannot write {path}: {exc}") from exc


def _load_family(path: str) -> core.ChainFamily:
    return core.family_from_text(_read_text(path))


def _verdict(witness: core.ChainWitness | core.AlternationWitness | None) -> str:
    """`ok`, or the witness's element and each index named by its field."""
    if witness is None:
        return "ok"
    xs = (f"{name}={core.format_index(x)}" for name, x in zip(witness._fields[1:], witness[1:]))
    return f"witness n={witness.n} {' '.join(xs)}"


# --- commands ------------------------------------------------------------------


# `generate --kind` -> (generator config kind, the flags that config takes).
_GENERATE_KINDS = {
    "chain": ("initial-chain", ("ground_size", "count")),
    "perturbed": ("perturbed", ("ground_size", "count", "flips")),
    "marciszewski": ("marciszewski", ("depth", "count")),
    "sign": ("sign-matrix", ("ground_size", "count")),
}


def _cmd_generate(args: argparse.Namespace) -> str:
    if args.config is not None:
        cfg = generators.generator_config_from_text(_read_text(args.config))
    else:
        kind, flags = _GENERATE_KINDS[args.kind]
        cfg = {"kind": kind, "seed": args.seed, **{f: getattr(args, f) for f in flags}}
    return core.family_to_text(generators.family_from_config(cfg))


def _cmd_check(args: argparse.Namespace) -> str:
    family = _load_family(args.input)
    report = core.validate_almost_chain(family, args.budget)
    names = list(map(core.format_index, family.indices))
    rows = []
    for i, columns, sizes in report.flagged_rows:  # one join per row, no string per pair
        head = f"({names[i]},"
        seps = {d: f")={d} {head}" for d in set(sizes)}  # closes a pair, opens the next
        picked = compress(names, core._digit_flags(columns))
        if len(seps) == 1:
            rows.append(head + seps[sizes[0]].join(picked) + f")={sizes[0]}")
        else:  # the names interleaved with the separators of all sizes but the last
            pieces = [head] * (2 * len(sizes))
            pieces[1::2] = picked
            pieces[2::2] = map(seps.__getitem__, sizes[:-1])
            rows.append("".join(pieces) + f")={sizes[-1]}")
    lines = [
        f"chain: {_verdict(core.chain_witness(family))}",
        f"barely_alternating: {_verdict(core.alternation_witness(family))}",
        f"max_defect: {report.max_defect_size}",
        f"budget: {args.budget}",
        f"over_budget: {' '.join(rows) or 'none'}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_adjust(args: argparse.Namespace) -> str:
    if args.family_output in (None, "-"):
        raise core.InputError(
            "adjust writes the receipt report to stdout; give the adjusted "
            "family a file --output"
        )
    text = _read_text(args.input)
    if args.order == "given":
        family, order = core.family_with_file_order(text)
    else:
        family, order = core.family_from_text(text), None
    del text  # the parsed family replaces the document: free it before the output is built
    if args.order == "random":
        order = list(family.indices)
        random.Random(args.seed).shuffle(order)
    adjusted, report = adj.adjust_family(family, order)
    _write_text(args.family_output, core.family_to_text(adjusted))
    return adj.adjustment_report_to_text(report)


def _cmd_compat(args: argparse.Namespace) -> str:
    if len(args.input) != 2:
        raise core.InputError("compat needs --input given exactly twice")
    left, right = (_load_family(path) for path in args.input)
    witness = adj.compatibility_witness(left, right)
    return "compatible\n" if witness is None else _verdict(witness) + "\n"


def _parse_gap_instance(text: str) -> tuple[core.GroundSet, list[int], list[int]]:
    doc = core.parse_json(text, "gap instance")
    expected = {"ground_size", "ascending", "descending"}
    if not isinstance(doc, dict) or set(doc) != expected:
        raise core.InputError(
            "gap instance must have exactly ground_size, ascending, descending"
        )
    ground = core.GroundSet(doc["ground_size"])

    def tower(key: str) -> list[int]:
        rows = doc[key]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise core.InputError(f"{key} must be a list of element lists")
        return [ground.mask_of(r) for r in rows]

    return ground, tower("ascending"), tower("descending")


def _exception_entries(key: str, exceptions: list[int], bounds: list[int]) -> list[dict]:
    return [
        {
            "position": i,
            key: list(core.iter_bits(e)),
            "bound": list(core.iter_bits(b)),
            "covered": e & ~b == 0,
        }
        for i, (e, b) in enumerate(zip(exceptions, bounds))
    ]


def _cmd_gap(args: argparse.Namespace) -> str:
    ground, ascending, descending = _parse_gap_instance(_read_text(args.input))
    w, asc_bounds, desc_bounds = adj.gap_exceptions(ground, ascending, descending, args.budget)
    doc = {
        "interpolant": list(core.iter_bits(w)),
        "ascending_exceptions": _exception_entries(
            "escaped", [u & ~w for u in ascending], asc_bounds
        ),
        "descending_exceptions": _exception_entries(
            "excess", [w & ~v for v in descending], desc_bounds
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


def _model_for(family: core.ChainFamily, args: argparse.Namespace) -> lineop.LineModel:
    if args.model is None:
        return lineop.LineModel._of_family(family)
    return lineop.model_from_text(_read_text(args.model))


def _cmd_triples(args: argparse.Namespace) -> str:
    family = _load_family(args.input)
    return lineop.triple_table_to_text(lineop.compute_triples(family, _model_for(family, args)))


def _cmd_operator(args: argparse.Namespace) -> str:
    family = _load_family(args.input)
    model = _model_for(family, args)
    table = lineop.compute_triples(family, model)
    lines = [f"norm: {lineop.operator_norm(table)}"]
    witness = lineop.norm_witness(table)
    if witness is not None:
        n, f_witness = witness
        lines.append(f"witness_n: {n}")
        lines.append(f"witness_value: {table.signed_sum(f_witness, n)}")
    if args.function is not None:
        f = lineop.function_from_text(_read_text(args.function))
    else:
        f = {p: p for p in model.carrier}
    schedule = lineop.coincident_schedule(table)
    lines.append(f"harness_steps: {len(schedule)}")
    if schedule:
        report = lineop.continuity_harness(family, model, schedule, f)
        lines.append(lineop.harness_report_to_text(report).rstrip("\n"))
    if args.function is not None:
        lines.append("# n\tEf")
        lines += (f"{n}\t{v}" for n, v in lineop.apply_operator(f, table).items())
    return "\n".join(lines) + "\n"


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
    # Only the maximum is read: a budget no defect can exceed keeps no pairs.
    defects = core.validate_almost_chain(family, family.ground.size)
    adjusted, report = adj.adjust_family(family)
    # compute_triples refuses a family that is not barely alternating: rows read "yes".
    table = lineop.compute_triples(adjusted, lineop.LineModel._of_family(adjusted))
    norm = lineop.operator_norm(table)
    return (
        f"{args.kind}\t{param}\t{rep}\t{seed}\t{family.ground.size}\t{len(family)}"
        f"\t{defects.max_defect_size}\t{report.total_cost}\t{report.max_cost}"
        f"\t{norm}\tyes"
    )


def _cmd_sweep(args: argparse.Namespace) -> str:
    # The caps and the grid's floors are checked before any grid cell is built.
    if args.kind == "perturbed":
        size = core.GroundSet(args.ground_size).size
        grid = range(args.flips + 1)
    elif args.depth < 3:
        raise core.InputError("sweep needs --depth of at least 3")
    else:
        size = generators.dyadic_ground(args.depth).size
        grid = range(3, args.depth + 1)
    if not grid:
        raise core.InputError("sweep needs --flips of at least 0")
    generators.check_count(args.count)
    for flag in ("count", "reps"):
        if getattr(args, flag) < 1:
            raise core.InputError(f"sweep needs --{flag} of at least 1")
    if args.kind == "perturbed":
        generators.check_flips(args.flips, args.ground_size)
    if len(grid) * args.reps > core.MAX_FAMILY_SIZE:
        raise core.InputError(f"sweep grid of {len(grid)} values times {args.reps} reps "
                              f"exceeds the cap {core.MAX_FAMILY_SIZE}")
    count = args.count if args.kind == "perturbed" else min(args.count, size)
    generators.check_family_bits(count, size)  # the last grid value makes the largest cell
    rows = [_sweep_cell(args, param, rep) for param in grid for rep in range(args.reps)]
    return "\n".join([_SWEEP_HEADER, *rows]) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlab",
        description="Generate, validate, adjust and analyse almost chains of finite sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)  # main writes what `run` returns
        return p

    p = command("generate", _cmd_generate, "write a family produced by a named generator")
    p.add_argument("--kind", choices=tuple(_GENERATE_KINDS), default="chain")
    p.add_argument("--config", help="generator config JSON (overrides the flags)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-size", type=int, default=16)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--flips", type=int, default=1)
    p.add_argument("--output")

    p = command("check", _cmd_check, "chain / barely-alternating / defect verdicts")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--output")

    p = command("adjust", _cmd_adjust, "rebuild a family as a barely alternating one")
    p.set_defaults(output=None)  # the receipts go to stdout
    p.add_argument("--input", required=True)
    p.add_argument("--order", choices=("sorted", "given", "random"), default="sorted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, dest="family_output", metavar="OUTPUT")

    p = command("compat", _cmd_compat, "merge two conditions and re-check")
    p.add_argument("--input", action="append", required=True,
                   help="family file; give exactly twice")
    p.add_argument("--output")

    p = command("gap", _cmd_gap, "interpolate between an ascending and a descending tower")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--output")

    p = command("triples", _cmd_triples, "per-element evaluation points of a family")
    p.add_argument("--input", required=True)
    p.add_argument("--model")
    p.add_argument("--output")

    p = command("operator", _cmd_operator, "norm, witness and limit harness of the extension")
    p.add_argument("--input", required=True)
    p.add_argument("--model")
    p.add_argument("--function")
    p.add_argument("--output")

    p = command("sweep", _cmd_sweep, "parameter grid of generate/adjust/operator runs")
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
        _write_text(args.output, args.run(args))
        return 0
    except core.InputError as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
