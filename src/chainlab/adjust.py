"""Constructive adjustment of almost chains into barely alternating families.

The workhorse is one-point insertion: a new index x with candidate set A_x
enters an existing condition as B_x = (A_x ∪ A) \\ (A_x \\ C), where A and C
are the sets at the immediate predecessor and successor (empty set and full
ground at the boundaries).  Every ground element then agrees with one of the
two neighbours, so the insertion can never create a new 1,0,1,0 pattern and
iterating it over any insertion order turns an arbitrary family into a barely
alternating one while recording the cost of every change.

The module also carries the tools used when comparing conditions: pairwise
compatibility (merge and re-check) and the interpolant that threads one set
between an ascending and a descending tower.

Sets are int masks over the condition's `GroundSet` throughout: the
candidate of `insert_point`, the produced set and delta of its receipt,
and the towers, interpolant and bounds of the gap construction.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import accumulate, repeat
from operator import and_, or_, xor
from typing import NamedTuple

from .core import (
    AlternationWitness,
    ChainFamily,
    GroundSet,
    IndexValue,
    InputError,
    _tally,
    alternation_witness,
    format_index,
    iter_bits,
)

# What `adjust_family` counts against the output cap.
_HELD = "elements of the adjusted sets"


class InsertionReceipt(NamedTuple):
    """Record of a single insertion: what was produced and what it cost."""

    inserted_index: IndexValue
    produced_set: int
    predecessor: IndexValue | None
    successor: IndexValue | None
    delta_from_input: int

    @property
    def cost(self) -> int:
        return self.delta_from_input.bit_count()


class AdjustmentReport(NamedTuple):
    receipts: tuple[InsertionReceipt, ...]
    total_cost: int
    max_cost: int


def insert_point(
    fam: ChainFamily, x: IndexValue, candidate: int
) -> tuple[ChainFamily, InsertionReceipt]:
    """Insert index x into the condition `fam`, reshaping its candidate mask.

    The produced set is (candidate ∪ A) \\ (candidate \\ C) for the neighbour
    sets A (predecessor, empty at the left boundary) and C (successor, full
    ground at the right boundary).  Elements inside the candidate end up
    agreeing with C, elements outside it with A, so a barely alternating
    condition stays barely alternating.
    """
    fam.ground.check_mask(candidate, "candidate")
    pos = bisect_left(fam.indices, x)
    if pos < len(fam.indices) and not x < fam.indices[pos]:
        if fam.indices[pos] == x:
            raise InputError(f"index {x} already present")
        raise InputError(f"indices not strictly increasing at {x} >= {fam.indices[pos]}")
    masks, c = fam.masks, candidate
    below = masks[pos - 1] if pos > 0 else 0
    # At the right boundary `above` is the full ground, which holds all of c.
    above = masks[pos] if pos < len(masks) else c
    produced = (c & above) | (below & ~c)  # (c | below) & ~(c & ~above)
    receipt = InsertionReceipt(
        inserted_index=x,
        produced_set=produced,
        predecessor=fam.indices[pos - 1] if pos > 0 else None,
        successor=fam.indices[pos] if pos < len(fam.indices) else None,
        delta_from_input=produced ^ c,
    )
    extended = ChainFamily._trusted(
        fam.ground,
        fam.indices[:pos] + (x,) + fam.indices[pos:],
        masks[:pos] + (produced,) + masks[pos:],
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
    whatever the order.  In the sorted order every insertion lands at the
    right end, so B_i = A_i ∪ B_(i-1), one running union, with no insertion.
    In any order, more than MAX_OUTPUT_ITEMS elements in the sets built so
    far are refused before the next set is built.
    """
    indices, masks = family.indices, family.masks
    ranks = sorted_ranks = list(range(len(indices)))
    if order is not None:
        position = dict(zip(indices, ranks))
        ranks = [position.get(x, -1) for x in order]
        if len(ranks) != len(indices) or -1 in ranks or len(set(ranks)) != len(ranks):
            raise InputError("order is not a permutation of the family's indices")
    held = 0  # elements of the sets built so far
    if ranks == sorted_ranks:
        adjusted = []
        for union in accumulate(masks, or_):
            held = _tally(held, union, _HELD)
            adjusted.append(union)
        receipts = list(map(InsertionReceipt, indices, adjusted, (None, *indices),
                            repeat(None), map(xor, adjusted, masks)))
    else:
        # The condition is indexed by ranks, so every bisect compares ints.
        name = dict(enumerate(indices)).get  # rank -> point, None (no neighbour) -> None
        cond = ChainFamily._trusted(family.ground, (), ())
        receipts = []
        for r in ranks:
            cond, (_, produced, below, above, delta) = insert_point(cond, r, masks[r])
            held = _tally(held, produced, _HELD)
            receipts.append(InsertionReceipt(name(r), produced, name(below), name(above), delta))
        adjusted = cond.masks
    costs = [r.cost for r in receipts]
    report = AdjustmentReport(tuple(receipts), sum(costs), max(costs, default=0))
    return ChainFamily._trusted(family.ground, indices, tuple(adjusted)), report


def merge_conditions(c1: ChainFamily, c2: ChainFamily) -> ChainFamily:
    """Union of two conditions; shared indices must carry identical sets."""
    if c1.ground != c2.ground:
        raise InputError(f"ground mismatch: size {c1.ground.size} vs {c2.ground.size}")
    merged = dict(zip(c1.indices, c1.masks))
    for x, m in zip(c2.indices, c2.masks):
        if merged.setdefault(x, m) != m:
            raise InputError(f"conditions disagree at shared index {x}")
    return ChainFamily.from_pairs(c1.ground, merged.items())


def compatibility_witness(c1: ChainFamily, c2: ChainFamily) -> AlternationWitness | None:
    """Witness that the merged condition alternates too much, else None."""
    return alternation_witness(merge_conditions(c1, c2))


def gap_exceptions(
    ground: GroundSet, ascending: list[int], descending: list[int], defect_budget: int
) -> tuple[int, list[int], list[int]]:
    """Thread one set W between an ascending and a descending tower of masks.

    Requires |U_n \\ V_m| <= defect_budget for every pair (validated).  The
    result W = ⋃_n (U_n \\ ⋃_{m<=n} (U_n \\ V_m)) satisfies, for all valid
    n and m,

        U_n \\ W  ⊆  ⋃_{m<=n} (U_n \\ V_m)  =  U_n \\ (V_0 ∩ … ∩ V_n)
        W \\ V_m  ⊆  ⋃_{n<m}  (U_n \\ V_m)  =  (U_0 ∪ … ∪ U_{m-1}) \\ V_m

    so every exception is covered by recorded defect sets.  Returns W and
    these bounds, per ascending n and per descending m, from prefix meets of
    the descending tower and prefix unions of the ascending one (indices
    past the other tower's end stop at its last set).
    """
    if defect_budget < 0:
        raise InputError(f"defect_budget must be non-negative, got {defect_budget}")
    if not ascending and not descending:
        raise InputError("both towers are empty")
    for key, tower in (("ascending", ascending), ("descending", descending)):
        for i, m in enumerate(tower):
            ground.check_mask(m, f"{key} set {i}")
    for n, u in enumerate(ascending):
        size = u.bit_count()
        for m, v in enumerate(descending):
            defect = size - (u & v).bit_count()
            if defect > defect_budget:
                raise InputError(f"|U_{n} \\ V_{m}| = {defect} exceeds budget {defect_budget}")
    a, d = len(ascending), len(descending)
    # meets[j] = V_0 ∩ … ∩ V_{j-1} from -1, every bit; joins[j] = U_0 ∪ … ∪ U_{j-1}.
    meets = list(accumulate(descending, and_, initial=-1))
    joins = list(accumulate(ascending, or_, initial=0))
    ascending_bounds = [u & ~meets[min(n + 1, d)] for n, u in enumerate(ascending)]
    descending_bounds = [joins[min(m, a)] & ~v for m, v in enumerate(descending)]
    result = reduce(or_, (u & ~b for u, b in zip(ascending, ascending_bounds)), 0)
    return result, ascending_bounds, descending_bounds


def adjustment_report_to_text(report: AdjustmentReport) -> str:
    """One line per receipt: index, cost, changed elements ('-' when none)."""
    lines = ["# index\tcost\tdelta"]
    for r in report.receipts:
        elems = list(map(str, iter_bits(r.delta_from_input)))  # the cost is their count
        lines.append(f"{format_index(r.inserted_index)}\t{len(elems)}\t{' '.join(elems) or '-'}")
    lines.append(f"# total_cost={report.total_cost} max_cost={report.max_cost}")
    return "\n".join(lines) + "\n"
