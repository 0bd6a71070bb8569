"""Insertion formula, full adjustment, compatibility, interpolation."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as F

import pytest

from chainlab import adjust
from chainlab.adjust import (
    adjust_family,
    adjustment_report_to_text,
    compatibility_witness,
    insert_point,
    gap_exceptions,
    merge_conditions,
)
from chainlab.core import (
    ChainFamily,
    GroundSet,
    InputError,
    chain_witness,
    iter_bits,
    is_barely_alternating,
)
from chainlab.generators import (
    marciszewski_family,
    perturbed_chain,
    random_bit_indices,
    sample_cut_indices,
)

from oracles import (
    brute_alternation_witness,
    build_family,
    count_fraction_ops,
    mixed_corpus,
)


def _mask_at(fam, x):
    return fam.masks[fam.indices.index(x)]


def _neighbour_sets(fam, receipt):
    below = _mask_at(fam, receipt.predecessor) if receipt.predecessor is not None else 0
    above = (
        _mask_at(fam, receipt.successor)
        if receipt.successor is not None
        else (1 << fam.ground.size) - 1
    )
    return below, above


# --- insert_point ---------------------------------------------------------------


def test_insert_into_empty_condition_keeps_candidate():
    g = GroundSet(5)
    cond = ChainFamily(g, (), ())
    candidate = g.mask_of([1, 3])
    new_cond, receipt = insert_point(cond, F(1, 2), candidate)
    assert receipt.produced_set == candidate
    assert receipt.delta_from_input == 0
    assert receipt.predecessor is None and receipt.successor is None
    assert new_cond.indices == (F(1, 2),)


def test_insert_point_frozen_example():
    g = GroundSet(8)
    cond = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), g.mask_of([0, 1])),
            (F(3, 4), g.mask_of([1, 3, 4, 5, 7])),
        ],
    )
    candidate = g.mask_of([1, 3, 5])
    new_cond, receipt = insert_point(cond, F(1, 2), candidate)
    assert tuple(iter_bits(receipt.produced_set)) == (0, 1, 3, 5)
    assert receipt.predecessor == F(1, 4) and receipt.successor == F(3, 4)
    below, above = _neighbour_sets(cond, receipt)
    for m in range(8):
        assert (receipt.produced_set >> m & 1) == (below >> m & 1) or (
            (receipt.produced_set >> m & 1) == (above >> m & 1)
        )
    assert _mask_at(new_cond, F(1, 2)) == receipt.produced_set


def test_insert_without_predecessor_intersects_with_successor():
    g = GroundSet(6)
    above = g.mask_of([0, 2, 4])
    cond = ChainFamily.from_pairs(g, [(F(3, 4), above)])
    candidate = g.mask_of([0, 1, 2])
    _, receipt = insert_point(cond, F(1, 4), candidate)
    assert receipt.produced_set == candidate & above


def test_insert_point_input_errors():
    g = GroundSet(3)
    cond = ChainFamily.from_pairs(g, [(F(1, 2), 0)])
    with pytest.raises(InputError):
        insert_point(cond, F(1, 2), 0)
    with pytest.raises(InputError, match="candidate is not an int mask over ground size 3"):
        insert_point(cond, F(1, 4), (1 << GroundSet(4).size) - 1)
    with pytest.raises(InputError, match="candidate is not an int mask"):
        insert_point(cond, F(1, 4), F(0))
    with pytest.raises(InputError, match="not strictly increasing at nan >= 1/2"):
        insert_point(cond, float("nan"), 0)


def test_insert_point_agreement_and_preservation_fuzz():
    rng = random.Random(90210)
    for _ in range(400):
        base = mixed_corpus(rng.randrange(10**6), 1, 6, 10)[0]
        adjusted, _ = adjust_family(base)
        cond = adjusted
        assert is_barely_alternating(adjusted)
        size = adjusted.ground.size
        x = F(rng.randrange(1, 4096), 4096)
        if x in adjusted.indices:
            continue
        candidate = rng.getrandbits(size)
        new_cond, receipt = insert_point(cond, x, candidate)
        below, above = _neighbour_sets(cond, receipt)
        for m in range(size):
            agrees_below = (receipt.produced_set >> m & 1) == (below >> m & 1)
            agrees_above = (receipt.produced_set >> m & 1) == (above >> m & 1)
            assert agrees_below or agrees_above
        assert is_barely_alternating(new_cond)
        assert brute_alternation_witness(new_cond) is None


# --- adjust_family --------------------------------------------------------------


def test_adjust_chain_is_identity_for_any_order():
    rng = random.Random(3)
    g = GroundSet(6)
    chain = ChainFamily.from_pairs(
        g,
        [
            (F(1, 5), g.mask_of([0])),
            (F(2, 5), g.mask_of([0, 2])),
            (F(3, 5), g.mask_of([0, 2, 3])),
            (F(4, 5), g.mask_of([0, 1, 2, 3, 5])),
        ],
    )
    assert chain_witness(chain) is None
    for _ in range(10):
        order = list(chain.indices)
        rng.shuffle(order)
        out, report = adjust_family(chain, tuple(order))
        assert out == chain
        assert report.total_cost == 0 and report.max_cost == 0


def test_adjust_single_1010_trace_hand_run():
    fam = build_family(["1010"])
    out, report = adjust_family(fam)
    # sorted insertion keeps every set equal to {0}: the two empty candidates
    # each inherit their predecessor's element
    assert all(tuple(iter_bits(m)) == (0,) for m in out.masks)
    assert is_barely_alternating(out)
    assert report.total_cost == 2 and report.max_cost == 1
    assert out.indices == fam.indices


def test_adjust_output_never_contains_the_pattern():
    rng = random.Random(777)
    for _ in range(200):
        fam = mixed_corpus(rng.randrange(10**6), 1, 7, 8)[0]
        order = list(fam.indices)
        rng.shuffle(order)
        out, report = adjust_family(fam, tuple(order))
        assert out.indices == fam.indices
        assert brute_alternation_witness(out) is None
        assert report.total_cost == sum(r.cost for r in report.receipts)


def test_adjust_output_is_a_chain_for_every_order():
    # each insertion lands between nested neighbours (A <= B_x <= C), so
    # iterating from the empty condition can only ever build chains; this is
    # strictly stronger than the barely-alternating guarantee
    rng = random.Random(606)
    for _ in range(120):
        fam = mixed_corpus(rng.randrange(10**6), 1, 7, 10)[0]
        order = list(fam.indices)
        rng.shuffle(order)
        out, _ = adjust_family(fam, tuple(order))
        assert chain_witness(out) is None


def test_adjust_rejects_non_permutation_order():
    fam = build_family(["01", "10"])
    with pytest.raises(InputError):
        adjust_family(fam, (fam.indices[0],))
    with pytest.raises(InputError):
        adjust_family(fam, (fam.indices[0], fam.indices[0]))
    wide = build_family(["0110", "1001"])
    x0, x1, x2, x3 = wide.indices
    for order in ((x0, x1, x2, F(7, 8)), (x3, x1, x2, x1)):  # a foreign index; a repeat
        with pytest.raises(InputError, match="order is not a permutation of the family's"):
            adjust_family(wide, order)


def test_adjust_orders_by_rank_without_fraction_work(monkeypatch):
    fam = perturbed_chain(3, 24, sample_cut_indices(random.Random(5), 24, 40), 3)
    order = list(fam.indices)
    random.Random(6).shuffle(order)
    counts = count_fraction_ops(monkeypatch)
    adjust_family(fam)
    assert counts == {}
    adjust_family(fam, order)
    # One hash per index to build the position dict and one per lookup.
    assert counts == {"__hash__": 2 * len(fam)}


def test_sorted_order_adjusts_without_insertions(monkeypatch):
    fam = perturbed_chain(3, 24, sample_cut_indices(random.Random(5), 24, 40), 3)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return insert_point(*args)

    monkeypatch.setattr(adjust, "insert_point", counted)
    for order in (None, fam.indices, list(fam.indices)):
        adjust_family(fam, order)
    assert calls == []
    order = list(fam.indices)
    random.Random(6).shuffle(order)
    adjust_family(fam, order)
    assert len(calls) == len(fam)


def test_receipts_obey_structural_bound():
    rng = random.Random(404)
    for _ in range(150):
        fam = mixed_corpus(rng.randrange(10**6), 1, 8, 10)[0]
        order = list(fam.indices)
        rng.shuffle(order)
        out, report = adjust_family(fam, tuple(order))
        produced = {}
        g = fam.ground
        for r in report.receipts:
            below = produced[r.predecessor] if r.predecessor is not None else 0
            above = produced[r.successor] if r.successor is not None else (1 << g.size) - 1
            original = _mask_at(fam, r.inserted_index)
            assert r.produced_set ^ original == r.delta_from_input
            bound = (below & ~original) | (original & ~above)
            assert r.delta_from_input & ~bound == 0
            produced[r.inserted_index] = r.produced_set
        for x, m in zip(out.indices, out.masks):
            assert produced[x] == m


def test_adjust_marciszewski_instance():
    xs = random_bit_indices(random.Random(11), depth=6, count=20)
    fam = marciszewski_family(xs, 6)
    out, _ = adjust_family(fam)
    assert is_barely_alternating(out)
    assert brute_alternation_witness(out) is None


def test_adjustment_report_text_is_stable():
    fam = build_family(["1010"])
    _, report = adjust_family(fam)
    assert adjustment_report_to_text(report) == (
        "# index\tcost\tdelta\n"
        "1/5\t0\t-\n"
        "2/5\t1\t0\n"
        "3/5\t0\t-\n"
        "4/5\t1\t0\n"
        "# total_cost=2 max_cost=1\n"
    )


# --- compatibility --------------------------------------------------------------


def test_condition_is_compatible_with_itself():
    cond = build_family(["0110", "0011"])
    assert compatibility_witness(cond, cond) is None
    assert merge_conditions(cond, cond) == cond


def test_incompatible_merge_returns_least_witness():
    g = GroundSet(1)
    c1 = ChainFamily.from_pairs(g, [(F(1, 2), (1 << g.size) - 1)])
    c2 = ChainFamily.from_pairs(
        g,
        [
            (F(1, 8), (1 << g.size) - 1),
            (F(1, 4), 0),
            (F(3, 4), 0),
        ],
    )
    assert compatibility_witness(c1, c2) == (0, F(1, 8), F(1, 4), F(1, 2), F(3, 4))


def test_merge_requires_agreement_on_shared_indices():
    g = GroundSet(2)
    c1 = ChainFamily.from_pairs(g, [(F(1, 2), (1 << g.size) - 1)])
    c2 = ChainFamily.from_pairs(g, [(F(1, 2), 0)])
    with pytest.raises(InputError):
        merge_conditions(c1, c2)
    c3 = ChainFamily.from_pairs(GroundSet(3), [(F(1, 2), 0)])
    with pytest.raises(InputError):
        merge_conditions(c1, c3)


def test_block_adjustments_around_a_shared_index_are_compatible():
    # adjust two restrictions of one input to index blocks that overlap in a
    # single shared index; inserting the shared index first keeps its set
    # identical on both sides, and the merged condition stays clean
    rng = random.Random(888)
    for _ in range(40):
        fam = mixed_corpus(rng.randrange(10**6), 1, 9, 10)[0]
        if len(fam) < 3:
            continue
        s = rng.randrange(1, len(fam) - 1)
        pairs = list(zip(fam.indices, fam.masks))
        lower = ChainFamily.from_pairs(fam.ground, pairs[: s + 1])
        upper = ChainFamily.from_pairs(fam.ground, pairs[s:])
        shared = fam.indices[s]
        lower_order = (shared,) + lower.indices[:-1]
        upper_order = (shared,) + upper.indices[1:]
        left, _ = adjust_family(lower, lower_order)
        right, _ = adjust_family(upper, upper_order)
        assert _mask_at(left, shared) == _mask_at(right, shared) == _mask_at(fam, shared)
        assert compatibility_witness(left, right) is None
        merged = merge_conditions(left, right)
        assert brute_alternation_witness(merged) is None


def test_split_conditions_stay_compatible():
    rng = random.Random(1234)
    for _ in range(60):
        fam = mixed_corpus(rng.randrange(10**6), 1, 9, 10)[0]
        if len(fam) < 3:
            continue
        adjusted, _ = adjust_family(fam)
        split = rng.randrange(1, len(fam) - 1)
        pairs = list(zip(adjusted.indices, adjusted.masks))
        left = ChainFamily.from_pairs(fam.ground, pairs[: split + 1])
        right = ChainFamily.from_pairs(fam.ground, pairs[split:])
        assert compatibility_witness(left, right) is None
        assert merge_conditions(left, right) == adjusted


# --- gap interpolation ----------------------------------------------------------


def test_gap_exact_nested_towers():
    g = GroundSet(8)
    ascending = [0b0001, 0b0011, 0b0111]
    descending = [0b11111111, 0b0111_1111, 0b0011_1111]
    w = gap_exceptions(g, ascending, descending, 0)[0]
    for u in ascending:
        assert u & ~w == 0
    for v in descending:
        assert w & ~v == 0


def test_gap_single_pair_frozen():
    g = GroundSet(2)
    u0 = g.mask_of([0, 1])
    v0 = g.mask_of([1])
    w = gap_exceptions(g, [u0], [v0], 1)[0]
    assert tuple(iter_bits(w)) == (1,)
    assert tuple(iter_bits(u0 & ~w)) == (0,)
    assert (u0 & ~w) & ~(u0 & ~v0) == 0


def test_gap_precondition_violation_names_the_pair():
    g = GroundSet(4)
    u = g.mask_of([0, 1, 2])
    v = g.mask_of([3])
    with pytest.raises(InputError, match=r"U_0 .* V_0"):
        gap_exceptions(g, [u], [v], 2)


def test_gap_postconditions_on_fuzzed_towers():
    rng = random.Random(31337)
    for _ in range(120):
        size = rng.randint(4, 32)
        g = GroundSet(size)
        base = rng.getrandbits(size)
        up, down = [], []
        u = base & rng.getrandbits(size)
        v = base | rng.getrandbits(size)
        for _ in range(rng.randint(1, 6)):
            u |= base & rng.getrandbits(size)
            up.append(u)
        for _ in range(rng.randint(1, 6)):
            v &= base | rng.getrandbits(size)
            down.append(v)
        ascending = []
        for mask in up:
            extra = 0
            for _ in range(rng.randint(0, 2)):
                extra |= 1 << rng.randrange(size)
            ascending.append(mask | extra)
        descending = down
        budget = max(
            ((un & ~vm).bit_count() for un in ascending for vm in descending), default=0
        )
        w = gap_exceptions(g, ascending, descending, budget)[0]
        for n, un in enumerate(ascending):
            bound = 0
            for m in range(min(n + 1, len(descending))):
                bound |= un & ~descending[m]
            assert un & ~w & ~bound == 0
        for m, vm in enumerate(descending):
            bound = 0
            for n in range(min(m, len(ascending))):
                bound |= ascending[n] & ~vm
            assert w & ~vm & ~bound == 0


def test_gap_rejects_out_of_ground_masks_and_empty_instance():
    g = GroundSet(4)
    with pytest.raises(InputError, match="descending set 0 is not an int mask over ground size 4"):
        gap_exceptions(g, [0], [(1 << GroundSet(5).size) - 1], 0)
    with pytest.raises(InputError, match="ascending set 1 is not an int mask"):
        gap_exceptions(g, [0, F(0)], [], 0)
    with pytest.raises(InputError):
        gap_exceptions(g, [], [], 0)


def test_gap_exceptions_bounds_are_the_defect_unions():
    rng = random.Random(4242)
    for _ in range(60):
        size = rng.randint(1, 16)
        g = GroundSet(size)
        ascending = [rng.getrandbits(size) for _ in range(rng.randint(0, 4))]
        descending = [rng.getrandbits(size) for _ in range(rng.randint(0, 4))]
        if not ascending and not descending:
            continue
        w, asc_bounds, desc_bounds = gap_exceptions(g, ascending, descending, size)
        assert len(asc_bounds) == len(ascending) and len(desc_bounds) == len(descending)
        for n, u in enumerate(ascending):
            expected = 0
            for v in descending[: n + 1]:
                expected |= u & ~v
            assert asc_bounds[n] == expected
            assert u & ~w & ~asc_bounds[n] == 0
        for m, v in enumerate(descending):
            expected = 0
            for u in ascending[:m]:
                expected |= u & ~v
            assert desc_bounds[m] == expected
            assert w & ~v & ~desc_bounds[m] == 0


def test_gap_exceptions_memory_stays_near_the_towers():
    # 64 + 64 random towers over 2^14 elements hold 256 KiB, and their 4096
    # pairwise defects U_n \ V_m about 8.9 MiB: 2 MiB leaves no room for them.
    rng = random.Random(64)
    size = 1 << 14
    g = GroundSet(size)
    ascending = [rng.getrandbits(size) for _ in range(64)]
    descending = [rng.getrandbits(size) for _ in range(64)]
    tracemalloc.start()
    try:
        gap_exceptions(g, ascending, descending, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, f"peak {peak} B"
