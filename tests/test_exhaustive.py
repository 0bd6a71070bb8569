"""Every small input, against the brute-force oracles.

The families are all those over ground sizes N = 1, 2, 3 with k = 0..4 sets
at the indices 1..k: 5,053 of them.  Enumeration, unlike sampling, reaches
every input of this size, and most faults show on some small input (the
small-scope hypothesis).  Each fast path is checked here against its
oracle in `tests/oracles.py`: both defect engines, the flip counter behind
the witnesses, `adjust` in every insertion order, the line layer, the text
writer and both readers, and `gap` on every pair of short towers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations, product

import pytest

from chainlab import core
from chainlab.adjust import adjust_family, gap_exceptions
from chainlab.core import (
    ChainFamily,
    DefectReport,
    GroundSet,
    InputError,
    alternation_witness,
    chain_witness,
    family_from_text,
    family_to_text,
)
from chainlab.lineop import LineModel, coincident_schedule, compute_triples, norm_witness

from oracles import (
    brute_alternation_witness,
    brute_chain_witness,
    brute_coincident_schedule,
    brute_defect_report,
    brute_gap_exceptions,
    brute_insert_point,
    brute_norm_witness,
    brute_triples,
    counter_inputs,
    elements_of,
    flagged_sizes,
    point_triples,
    receipts_respect_bound,
)

INDICES = tuple(Fraction(x) for x in range(1, 5))
FAMILIES = [
    ChainFamily(GroundSet(size), INDICES[:k], masks)
    for size in (1, 2, 3) for k in range(5) for masks in product(range(1 << size), repeat=k)
]
# Each element n of a family becomes the run [RUN * n, RUN * n + RUN) of its scaled copy.
RUN = 200


def test_both_defect_engines_match_the_pair_loop_at_every_budget():
    assert len(FAMILIES) == len(set(FAMILIES)) == 5053
    for fam in FAMILIES:
        changes, width = counter_inputs(fam.masks)
        for budget in range(fam.ground.size + 1):
            worst, over = brute_defect_report(fam, budget)
            for engine, (found, rows) in (
                    ("scan", core._scan_rows(fam.masks, budget)),
                    ("counter", core._counter_rows(fam.masks, budget, changes, width))):
                assert (found, flagged_sizes(DefectReport(found, tuple(rows)))) == (
                    worst, list(over.items())), (engine, budget, fam)


def test_witnesses_match_the_index_scans():
    for fam in FAMILIES:
        assert chain_witness(fam) == brute_chain_witness(fam), fam
        assert alternation_witness(fam) == brute_alternation_witness(fam), fam


def _brute_insertion(size: int, condition: tuple, r: int, candidate: int) -> tuple:
    """`brute_insert_point` of INDICES[r] into the condition of (rank, mask) pairs:
    the condition it leaves, and the receipt's fields."""
    family = ChainFamily(GroundSet(size), tuple(INDICES[y] for y, _ in condition),
                         tuple(m for _, m in condition))
    extended, produced, delta, predecessor, successor = brute_insert_point(
        family, INDICES[r], candidate)
    return (tuple(zip(map(INDICES.index, extended.indices), extended.masks)),
            (INDICES[r], produced, predecessor, successor, delta))


def test_adjust_matches_iterated_insertion_in_every_order():
    """Every order of every family, the sorted one among them, against the
    oracle's insertions one by one.  The oracle's steps are keyed by ranks, so
    a lookup hashes no Fraction; the orders of one family share prefixes, and
    families share conditions.  `receipts_respect_bound` replays a run's
    receipts against the neighbour bound.  A receipt's check depends only on
    its step (condition, index, candidate), which fixes the receipt, so each
    run that meets a new step is replayed, and together they check every run.
    """
    orders = [[(p, tuple(map(INDICES.__getitem__, p))) for p in permutations(range(k))]
              for k in range(5)]
    steps: dict[tuple, tuple] = {}  # (size, condition, rank, candidate) -> (condition, receipt)
    runs = replayed = 0
    for fam in FAMILIES:
        size, masks = fam.ground.size, fam.masks
        for ranks, order in orders[len(masks)]:
            adjusted, report = adjust_family(fam, order)
            condition, receipts, seen = (), [], len(steps)
            for r in ranks:
                key = (size, condition, r, masks[r])
                if key not in steps:
                    steps[key] = _brute_insertion(*key)
                condition, receipt = steps[key]
                receipts.append(receipt)
            costs = [delta.bit_count() for *_, delta in receipts]
            assert report == (tuple(receipts), sum(costs), max(costs, default=0)), (order, fam)
            assert tuple(zip(adjusted.indices, adjusted.masks)) == tuple(
                (INDICES[r], m) for r, m in condition), (order, fam)
            if len(steps) > seen:
                assert receipts_respect_bound(fam, adjusted, report), (order, fam)
                replayed += 1
            runs += 1
    assert runs == 108521 and replayed > 0


def test_line_layer_matches_the_scans_on_every_barely_alternating_family():
    refused = 0
    for fam in FAMILIES:
        if not fam.indices:
            with pytest.raises(InputError, match="carrier must be nonempty"):
                LineModel._of_family(fam)
            continue
        if brute_alternation_witness(fam) is not None:
            with pytest.raises(InputError, match="not barely alternating"):
                compute_triples(fam, LineModel._of_family(fam))
            refused += 1
            continue
        table = compute_triples(fam, LineModel._of_family(fam))
        points = brute_triples(fam, fam.indices[-1])
        assert point_triples(table) == points, fam
        assert norm_witness(table) == brute_norm_witness(points, fam.indices), fam
        assert coincident_schedule(table) == brute_coincident_schedule(points), fam
    assert refused > 0


def _document(fam: ChainFamily) -> dict:
    return {"ground_size": fam.ground.size,
            "entries": [{"index": f"{x.numerator}/{x.denominator}", "set": sorted(elements_of(m))}
                        for x, m in zip(fam.indices, fam.masks)]}


def test_text_is_the_canonical_dump_and_both_spellings_read_back():
    for fam in FAMILIES:
        doc = _document(fam)
        text = family_to_text(fam)
        assert text == json.dumps(doc, indent=2) + "\n", fam
        assert family_from_text(text) == fam, fam
        assert family_from_text(json.dumps(doc, separators=(",", ":"))) == fam, fam


def test_long_runs_are_written_and_read_back_run_by_run(monkeypatch):
    """Scaled so that every nonempty set is runs of RUN elements: the writer
    copies them as table slices, and the reader must read each of them run
    by run (`core._run_pair`), and no empty one."""
    read = []
    real = core._run_pair
    monkeypatch.setattr(core, "_run_pair", lambda *args: read.append(pair := real(*args)) or pair)
    run, by_runs = (1 << RUN) - 1, 0
    for fam in FAMILIES:
        scaled = ChainFamily(GroundSet(RUN * fam.ground.size), fam.indices, tuple(
            sum(run << RUN * n for n in elements_of(m)) for m in fam.masks))
        read.clear()
        assert family_from_text(family_to_text(scaled)) == scaled, fam
        assert [pair is not None for pair in read] == [m != 0 for m in fam.masks], fam
        by_runs += len(read) - read.count(None)
    assert by_runs == 16787


def _outcome(gap, *args) -> object:
    """What `gap` returns, or the message of the InputError it raises."""
    try:
        return gap(*args)
    except InputError as exc:
        return str(exc)


def test_gap_matches_the_defect_table_on_every_pair_of_short_towers():
    for size in (1, 2):
        ground = GroundSet(size)
        towers = [list(t) for length in range(3) for t in product(range(1 << size), repeat=length)]
        for ascending, descending in product(towers, repeat=2):
            for budget in range(3):
                expected = ("both towers are empty" if not ascending and not descending
                            else _outcome(brute_gap_exceptions, ascending, descending, budget))
                assert _outcome(gap_exceptions, ground, ascending, descending, budget) == expected, (
                    ascending, descending, budget)
