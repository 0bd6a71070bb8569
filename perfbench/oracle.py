"""Output checks for the benchmark, computed on plain int masks.

Nothing here imports chainlab: every verdict is recomputed from the family
files with Python ints, so a defect in the library's own checkers cannot
hide a wrong answer.  Each `verify_*` function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path


def load_family(path: Path) -> tuple[int, list[str], list[int]]:
    """Ground size, index strings in file order, and one int mask per entry."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    indices = [e["index"] for e in doc["entries"]]
    masks = []
    for e in doc["entries"]:
        m = 0
        for n in e["set"]:
            m |= 1 << n
        masks.append(m)
    return doc["ground_size"], indices, masks


def verify_family_shape(path: Path, ground_size: int, count: int) -> list[str]:
    size, indices, _ = load_family(path)
    problems = []
    if size != ground_size:
        problems.append(f"{path.name}: ground_size {size}, expected {ground_size}")
    if len(indices) != count:
        problems.append(f"{path.name}: {len(indices)} entries, expected {count}")
    return problems


def _field(lines: list[str], key: str) -> str | None:
    for line in lines:
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


def verify_check(family: Path, output: Path, budget: int) -> list[str]:
    """`max_defect` and the number of over-budget pairs of a `check` report."""
    _, _, masks = load_family(family)
    worst = 0
    flagged = 0
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            d = (a & ~b).bit_count()
            if d > worst:
                worst = d
            if d > budget:
                flagged += 1
    lines = output.read_text(encoding="utf-8").splitlines()
    problems = []
    if _field(lines, "max_defect") != str(worst):
        problems.append(f"check: max_defect {_field(lines, 'max_defect')!r}, expected {worst}")
    over = _field(lines, "over_budget")
    shown = 0 if over in (None, "none") else len(over.split(" "))
    if over is None or shown != flagged:
        problems.append(f"check: {shown} over-budget pairs shown, expected {flagged}")
    return problems


def verify_adjust(family: Path, adjusted: Path, report: Path) -> list[str]:
    """Adjusted family is a chain on the same indices; receipt cost is exact."""
    size, indices, masks = load_family(family)
    adj_size, adj_indices, adj_masks = load_family(adjusted)
    problems = []
    if adj_size != size or adj_indices != indices:
        problems.append("adjust: adjusted family has other ground or indices")
        return problems
    if any(a & ~b for a, b in zip(adj_masks, adj_masks[1:])):
        problems.append("adjust: adjusted family is not a chain")
    cost = sum((a ^ b).bit_count() for a, b in zip(adj_masks, masks))
    lines = report.read_text(encoding="utf-8").splitlines()
    total = lines[-1].split()[1] if lines and lines[-1].startswith("# total_cost=") else None
    if total != f"total_cost={cost}":
        problems.append(f"adjust: report says {total!r}, recomputed total_cost={cost}")
    if len(lines) != len(indices) + 2:
        problems.append(f"adjust: {len(lines) - 2} receipt rows for {len(indices)} indices")
    return problems


def triple_positions(masks: list[int], ground_size: int) -> list[tuple[int, int, int]]:
    """First entry, first exit after it, first re-entry after that, per element.

    Positions index the sorted entries; a missing point falls back to the
    last position, which is the carrier maximum of the dense line model.
    """
    top = len(masks) - 1
    first = [[top] * ground_size for _ in range(3)]
    seen_in = seen_out = seen_back = 0
    for pos, m in enumerate(masks):
        was_in, was_out = seen_in, seen_out
        fresh = (
            m & ~seen_in,
            was_in & ~m & ~seen_out,
            was_out & m & ~seen_back,
        )
        seen_in |= fresh[0]
        seen_out |= fresh[1]
        seen_back |= fresh[2]
        for stage, bits in enumerate(fresh):
            while bits:
                low = bits & -bits
                first[stage][low.bit_length() - 1] = pos
                bits ^= low
    return list(zip(*first))


def _pattern(p: tuple[int, int, int]) -> str:
    x0, x1, x2 = p
    if x0 == x1 == x2:
        return "x0=x1=x2"
    if x0 == x1:
        return "x0=x1<x2"
    if x1 == x2:
        return "x0<x1=x2"
    return "x0<x1<x2"


def verify_triples(adjusted: Path, output: Path) -> list[str]:
    """N ordered rows whose points are the entry / exit / re-entry positions."""
    size, indices, masks = load_family(adjusted)
    expected = ["# n\tx0\tx1\tx2\tpattern"] + [
        f"{n}\t{indices[p[0]]}\t{indices[p[1]]}\t{indices[p[2]]}\t{_pattern(p)}"
        for n, p in enumerate(triple_positions(masks, size))
    ]
    rows = output.read_text(encoding="utf-8").splitlines()
    if rows == expected:
        return []
    bad = next((i for i, (a, b) in enumerate(zip(rows, expected)) if a != b), None)
    return [f"triples: {len(rows) - 1} rows for {size} elements, first mismatch at line {bad}"]


def verify_operator(adjusted: Path, output: Path) -> list[str]:
    """Norm is 3 exactly when some triple is strict; the limit identity holds."""
    size, _, masks = load_family(adjusted)
    strict = any(a < b < c for a, b, c in triple_positions(masks, size))
    lines = output.read_text(encoding="utf-8").splitlines()
    problems = []
    norm = _field(lines, "norm")
    if norm != ("3" if strict else "1"):
        problems.append(f"operator: norm {norm!r} but strict triple present={strict}")
    if "# identity\tok" not in lines:
        problems.append("operator: report lacks '# identity\\tok'")
    return problems


def verify_sweep(output: Path, rows: int) -> list[str]:
    """Every grid cell is reported and its adjusted family is barely alternating."""
    lines = output.read_text(encoding="utf-8").splitlines()
    body = lines[1:]
    problems = []
    if len(body) != rows:
        problems.append(f"sweep: {len(body)} rows, expected {rows}")
    if not lines or lines[0].split("\t")[-1] != "barely_ok":
        problems.append("sweep: header does not end in barely_ok")
    not_ok = sum(1 for row in body if row.split("\t")[-1] != "yes")
    if not_ok:
        problems.append(f"sweep: {not_ok} rows with barely_ok != yes")
    return problems
