"""Constructive adjustment of almost chains into barely alternating families.

The workhorse is one-point insertion: a new index x with candidate set A_x
enters an existing condition as B_x = (A_x ∪ A) \\ (A_x \\ C), where A and C
are the sets at the immediate predecessor and successor (empty set and full
ground at the boundaries).  Every ground element then agrees with one of the
two neighbours, so the insertion can never create a new 1,0,1,0 pattern and
iterating it over any insertion order turns an arbitrary family into a barely
alternating one while recording the cost of every change.

The module also carries the two combinatorial tools used when comparing
conditions: pairwise compatibility (merge and re-check) and sunflower
extraction over finite index sets, plus the interpolant construction that
threads a single set between an ascending and a descending tower.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import (
    AlternationWitness,
    ChainFamily,
    IndexValue,
    InputError,
    SetBits,
    alternation_witness,
)

# Exhaustive sunflower search is attempted only below this many candidate
# combinations; above it the greedy heuristic's verdict stands.
_EXHAUSTIVE_COMBO_LIMIT = 200_000


class SunflowerNotFoundError(LookupError):
    """No sunflower of the requested size exists among the inputs."""


@dataclass(frozen=True)
class InsertionReceipt:
    """Record of a single insertion: what was produced and what it cost."""

    inserted_index: IndexValue
    produced_set: SetBits
    predecessor: IndexValue | None
    successor: IndexValue | None
    delta_from_input: SetBits

    @property
    def cost(self) -> int:
        return len(self.delta_from_input)


@dataclass(frozen=True)
class AdjustmentReport:
    receipts: tuple[InsertionReceipt, ...]
    total_cost: int
    max_cost: int


@dataclass(frozen=True)
class SunflowerDecomposition:
    """Selected input sets written as a common root plus pairwise disjoint petals."""

    root: tuple[IndexValue, ...]
    petals: tuple[tuple[IndexValue, ...], ...]
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        root = frozenset(self.root)
        sizes = {len(p) for p in self.petals}
        if len(sizes) > 1:
            raise InputError(f"petals must have equal size, got sizes {sorted(sizes)}")
        seen: set[IndexValue] = set()
        for petal in self.petals:
            p = frozenset(petal)
            if p & root:
                raise InputError(f"petal {petal} meets the root")
            if p & seen:
                raise InputError(f"petal {petal} meets another petal")
            seen |= p


def insert_point(
    fam: ChainFamily, x: IndexValue, candidate: SetBits
) -> tuple[ChainFamily, InsertionReceipt]:
    """Insert index x into the condition `fam`, reshaping its candidate set.

    The produced set is (candidate ∪ A) \\ (candidate \\ C) for the neighbour
    sets A (predecessor, empty at the left boundary) and C (successor, full
    ground at the right boundary).  Elements inside the candidate end up
    agreeing with C, elements outside it with A, so a barely alternating
    condition stays barely alternating.
    """
    if candidate.ground != fam.ground:
        raise InputError(
            f"candidate ground size {candidate.ground.size} != condition ground "
            f"size {fam.ground.size}"
        )
    pos = bisect_left(fam.indices, x)
    if pos < len(fam.indices) and fam.indices[pos] == x:
        raise InputError(f"index {x} already present")
    below = fam.sets[pos - 1] if pos > 0 else SetBits.empty(fam.ground)
    above = fam.sets[pos] if pos < len(fam.sets) else SetBits.full(fam.ground)
    produced = (candidate | below) - (candidate - above)
    receipt = InsertionReceipt(
        inserted_index=x,
        produced_set=produced,
        predecessor=fam.indices[pos - 1] if pos > 0 else None,
        successor=fam.indices[pos] if pos < len(fam.indices) else None,
        delta_from_input=produced ^ candidate,
    )
    extended = ChainFamily(
        fam.ground,
        fam.indices[:pos] + (x,) + fam.indices[pos:],
        fam.sets[:pos] + (produced,) + fam.sets[pos:],
    )
    return extended, receipt


def adjust_family(
    family: ChainFamily, order: tuple[IndexValue, ...] | None = None
) -> tuple[ChainFamily, AdjustmentReport]:
    """Rebuild the family by inserting its indices one at a time.

    `order` must be a permutation of the family's indices; it defaults to the
    sorted order.  The output family has the same index set and is barely
    alternating by construction; in fact, because every insertion is squeezed
    between nested neighbours, iterating from the empty condition always
    produces a chain (insertion order only changes the cost).  The report
    records every change made, with B_x Δ A_x always inside
    (A \\ A_x) ∪ (A_x \\ C) for the neighbour sets at insertion time.  A
    family that is already a chain is returned unchanged at zero cost,
    whatever the order.
    """
    if order is None:
        order = family.indices
    else:
        order = tuple(order)
        if tuple(sorted(order)) != family.indices:
            raise InputError("order is not a permutation of the family's indices")
    cond = ChainFamily(family.ground, (), ())
    receipts = []
    for x in order:
        cond, receipt = insert_point(cond, x, family.set_at(x))
        receipts.append(receipt)
    costs = [r.cost for r in receipts]
    report = AdjustmentReport(
        receipts=tuple(receipts),
        total_cost=sum(costs),
        max_cost=max(costs, default=0),
    )
    return cond, report


def merge_conditions(c1: ChainFamily, c2: ChainFamily) -> ChainFamily:
    """Union of two conditions; shared indices must carry identical sets."""
    if c1.ground != c2.ground:
        raise InputError(
            f"ground mismatch: size {c1.ground.size} vs {c2.ground.size}"
        )
    merged = dict(c1.pairs())
    for x, s in c2.pairs():
        if x in merged and merged[x] != s:
            raise InputError(f"conditions disagree at shared index {x}")
        merged[x] = s
    return ChainFamily.from_pairs(c1.ground, merged.items())


def compatibility_witness(c1: ChainFamily, c2: ChainFamily) -> AlternationWitness | None:
    """Witness that the merged condition alternates too much, else None."""
    return alternation_witness(merge_conditions(c1, c2))


def conditions_compatible(c1: ChainFamily, c2: ChainFamily) -> bool:
    return compatibility_witness(c1, c2) is None


def _as_frozensets(index_sets) -> list[frozenset[IndexValue]]:
    return [frozenset(s) for s in index_sets]


def _build_decomposition(
    sets: list[frozenset[IndexValue]], root: frozenset[IndexValue], members: list[int]
) -> SunflowerDecomposition:
    return SunflowerDecomposition(
        root=tuple(sorted(root)),
        petals=tuple(tuple(sorted(sets[i] - root)) for i in members),
        members=tuple(members),
    )


def delta_system_extract(
    index_sets, target_count: int
) -> SunflowerDecomposition:
    """Find >= target_count input sets whose pairwise intersections coincide.

    Within each group of equally sized sets, candidate roots are the pairwise
    intersections tried most-frequent first, packing petals greedily in input
    order; when the heuristic fails on a small instance, an exhaustive scan
    over combinations settles the verdict.  Raises SunflowerNotFoundError
    when no sunflower of the requested size exists.
    """
    if target_count < 2:
        raise InputError(f"target_count must be at least 2, got {target_count}")
    sets = _as_frozensets(index_sets)
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(len(s), []).append(i)

    for size in sorted(groups):
        positions = groups[size]
        if len(positions) < target_count:
            continue
        counts = Counter(sets[i] & sets[j] for i, j in combinations(positions, 2))
        candidates = sorted(
            counts, key=lambda r: (-counts[r], len(r), tuple(sorted(r)))
        )
        for root in candidates:
            chosen: list[int] = []
            used: frozenset[IndexValue] = frozenset()
            for p in positions:
                if root <= sets[p]:
                    petal = sets[p] - root
                    if not petal & used:
                        chosen.append(p)
                        used |= petal
            if len(chosen) >= target_count:
                return _build_decomposition(sets, root, chosen)

    for size in sorted(groups):
        positions = groups[size]
        if (
            len(positions) < target_count
            or comb(len(positions), target_count) > _EXHAUSTIVE_COMBO_LIMIT
        ):
            continue
        for combo in combinations(positions, target_count):
            root = sets[combo[0]] & sets[combo[1]]
            if all(
                sets[i] & sets[j] == root for i, j in combinations(combo, 2)
            ):
                return _build_decomposition(sets, root, list(combo))

    raise SunflowerNotFoundError(
        f"no sunflower of size {target_count} among the {len(sets)} input sets"
    )


def interpolate_gap(
    ascending: list[SetBits], descending: list[SetBits], defect_budget: int
) -> SetBits:
    """Thread one set between an ascending and a descending tower.

    Requires |U_n \\ V_m| <= defect_budget for every pair (validated).  The
    result W = ⋃_n (U_n \\ ⋃_{m<=n} (U_n \\ V_m)) satisfies, for all valid
    n and m,

        U_n \\ W  ⊆  ⋃_{m<=n} (U_n \\ V_m)
        W \\ V_m  ⊆  ⋃_{n<m}  (U_n \\ V_m)

    so every exception is covered by recorded defect sets.
    """
    if defect_budget < 0:
        raise InputError(f"defect_budget must be non-negative, got {defect_budget}")
    towers = list(ascending) + list(descending)
    if not towers:
        raise InputError("both towers are empty")
    ground = towers[0].ground
    for s in towers:
        if s.ground != ground:
            raise InputError("tower sets have mismatched grounds")
    for n, u in enumerate(ascending):
        for m, v in enumerate(descending):
            excess = len(u - v)
            if excess > defect_budget:
                raise InputError(
                    f"|U_{n} \\ V_{m}| = {excess} exceeds budget {defect_budget}"
                )
    result = SetBits.empty(ground)
    for n, u in enumerate(ascending):
        excluded = SetBits.empty(ground)
        for m in range(min(n + 1, len(descending))):
            excluded |= u - descending[m]
        result |= u - excluded
    return result


def adjustment_report_to_text(report: AdjustmentReport) -> str:
    """One line per receipt: index, cost, changed elements ('-' when none)."""
    lines = ["# index\tcost\tdelta"]
    for r in report.receipts:
        elems = " ".join(str(n) for n in r.delta_from_input.elements()) or "-"
        lines.append(
            f"{r.inserted_index.numerator}/{r.inserted_index.denominator}"
            f"\t{r.cost}\t{elems}"
        )
    lines.append(f"# total_cost={report.total_cost} max_cost={report.max_cost}")
    return "\n".join(lines) + "\n"
