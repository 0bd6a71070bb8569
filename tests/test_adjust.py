"""Insertion formula, full adjustment, compatibility, sunflowers, interpolation."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from chainlab.adjust import (
    SunflowerDecomposition,
    SunflowerNotFoundError,
    adjust_family,
    adjustment_report_to_text,
    compatibility_witness,
    conditions_compatible,
    delta_system_extract,
    insert_point,
    interpolate_gap,
    merge_conditions,
)
from chainlab.core import (
    ChainFamily,
    GroundSet,
    InputError,
    SetBits,
    is_barely_alternating,
    is_chain,
)
from chainlab.generators import DyadicGround, marciszewski_family, random_bit_indices

from oracles import brute_alternation_witness, brute_sunflower, build_family, mixed_corpus


def _neighbour_sets(fam, receipt):
    g = fam.ground
    below = fam.set_at(receipt.predecessor) if receipt.predecessor is not None else SetBits.empty(g)
    above = fam.set_at(receipt.successor) if receipt.successor is not None else SetBits.full(g)
    return below, above


# --- insert_point ---------------------------------------------------------------


def test_insert_into_empty_condition_keeps_candidate():
    g = GroundSet(5)
    cond = ChainFamily(g, (), ())
    candidate = SetBits.from_elements(g, [1, 3])
    new_cond, receipt = insert_point(cond, F(1, 2), candidate)
    assert receipt.produced_set == candidate
    assert not receipt.delta_from_input
    assert receipt.predecessor is None and receipt.successor is None
    assert new_cond.indices == (F(1, 2),)


def test_insert_point_frozen_example():
    g = GroundSet(8)
    cond = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), SetBits.from_elements(g, [0, 1])),
            (F(3, 4), SetBits.from_elements(g, [1, 3, 4, 5, 7])),
        ],
    )
    candidate = SetBits.from_elements(g, [1, 3, 5])
    new_cond, receipt = insert_point(cond, F(1, 2), candidate)
    assert receipt.produced_set.elements() == (0, 1, 3, 5)
    assert receipt.predecessor == F(1, 4) and receipt.successor == F(3, 4)
    below, above = _neighbour_sets(cond, receipt)
    for m in range(8):
        assert (m in receipt.produced_set) == (m in below) or (
            (m in receipt.produced_set) == (m in above)
        )
    assert new_cond.set_at(F(1, 2)) == receipt.produced_set


def test_insert_without_predecessor_intersects_with_successor():
    g = GroundSet(6)
    above = SetBits.from_elements(g, [0, 2, 4])
    cond = ChainFamily.from_pairs(g, [(F(3, 4), above)])
    candidate = SetBits.from_elements(g, [0, 1, 2])
    _, receipt = insert_point(cond, F(1, 4), candidate)
    assert receipt.produced_set == candidate & above


def test_insert_point_input_errors():
    g = GroundSet(3)
    cond = ChainFamily.from_pairs(g, [(F(1, 2), SetBits.empty(g))])
    with pytest.raises(InputError):
        insert_point(cond, F(1, 2), SetBits.empty(g))
    with pytest.raises(InputError):
        insert_point(cond, F(1, 4), SetBits.empty(GroundSet(4)))


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
        candidate = SetBits(adjusted.ground, rng.getrandbits(size))
        new_cond, receipt = insert_point(cond, x, candidate)
        below, above = _neighbour_sets(cond, receipt)
        for m in range(size):
            agrees_below = (m in receipt.produced_set) == (m in below)
            agrees_above = (m in receipt.produced_set) == (m in above)
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
            (F(1, 5), SetBits.from_elements(g, [0])),
            (F(2, 5), SetBits.from_elements(g, [0, 2])),
            (F(3, 5), SetBits.from_elements(g, [0, 2, 3])),
            (F(4, 5), SetBits.from_elements(g, [0, 1, 2, 3, 5])),
        ],
    )
    assert is_chain(chain)
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
    assert all(s.elements() == (0,) for s in out.sets)
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
        assert is_chain(out)


def test_adjust_rejects_non_permutation_order():
    fam = build_family(["01", "10"])
    with pytest.raises(InputError):
        adjust_family(fam, (fam.indices[0],))
    with pytest.raises(InputError):
        adjust_family(fam, (fam.indices[0], fam.indices[0]))


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
            below = produced[r.predecessor] if r.predecessor is not None else SetBits.empty(g)
            above = produced[r.successor] if r.successor is not None else SetBits.full(g)
            original = fam.set_at(r.inserted_index)
            assert r.produced_set ^ original == r.delta_from_input
            assert r.delta_from_input.is_subset((below - original) | (original - above))
            produced[r.inserted_index] = r.produced_set
        for x, s in out.pairs():
            assert produced[x] == s


def test_adjust_marciszewski_instance():
    xs = random_bit_indices(random.Random(11), depth=6, count=20)
    fam = marciszewski_family(xs, DyadicGround(6))
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
    assert conditions_compatible(cond, cond)
    assert merge_conditions(cond, cond) == cond


def test_incompatible_merge_returns_least_witness():
    g = GroundSet(1)
    c1 = ChainFamily.from_pairs(g, [(F(1, 2), SetBits.full(g))])
    c2 = ChainFamily.from_pairs(
        g,
        [
            (F(1, 8), SetBits.full(g)),
            (F(1, 4), SetBits.empty(g)),
            (F(3, 4), SetBits.empty(g)),
        ],
    )
    assert compatibility_witness(c1, c2) == (0, F(1, 8), F(1, 4), F(1, 2), F(3, 4))
    assert not conditions_compatible(c1, c2)


def test_merge_requires_agreement_on_shared_indices():
    g = GroundSet(2)
    c1 = ChainFamily.from_pairs(g, [(F(1, 2), SetBits.full(g))])
    c2 = ChainFamily.from_pairs(g, [(F(1, 2), SetBits.empty(g))])
    with pytest.raises(InputError):
        merge_conditions(c1, c2)
    c3 = ChainFamily.from_pairs(GroundSet(3), [(F(1, 2), SetBits.empty(GroundSet(3)))])
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
        pairs = list(fam.pairs())
        lower = ChainFamily.from_pairs(fam.ground, pairs[: s + 1])
        upper = ChainFamily.from_pairs(fam.ground, pairs[s:])
        shared = fam.indices[s]
        lower_order = (shared,) + lower.indices[:-1]
        upper_order = (shared,) + upper.indices[1:]
        left, _ = adjust_family(lower, lower_order)
        right, _ = adjust_family(upper, upper_order)
        assert left.set_at(shared) == right.set_at(shared) == fam.set_at(shared)
        assert conditions_compatible(left, right)
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
        left = ChainFamily.from_pairs(fam.ground, list(adjusted.pairs())[: split + 1])
        right = ChainFamily.from_pairs(fam.ground, list(adjusted.pairs())[split:])
        assert conditions_compatible(left, right)
        assert merge_conditions(left, right) == adjusted


# --- sunflower extraction -------------------------------------------------------


def test_sunflower_classic_example():
    out = delta_system_extract([{F(1), F(2)}, {F(1), F(3)}, {F(1), F(4)}], 3)
    assert out.root == (F(1),)
    assert out.petals == ((F(2),), (F(3),), (F(4),))
    assert out.members == (0, 1, 2)


def test_sunflower_disjoint_sets_have_empty_root():
    out = delta_system_extract(
        [{F(1), F(2)}, {F(3), F(4)}, {F(5), F(6)}], 3
    )
    assert out.root == ()
    assert len(out.members) == 3


def test_sunflower_not_found_and_bad_target():
    with pytest.raises(SunflowerNotFoundError):
        delta_system_extract([{F(1), F(2)}, {F(2), F(3)}, {F(1), F(3)}], 3)
    with pytest.raises(InputError):
        delta_system_extract([{F(1)}, {F(2)}], 1)


def test_sunflower_decomposition_validates_structure():
    with pytest.raises(InputError):
        SunflowerDecomposition(root=(F(1),), petals=((F(1),), (F(2),)), members=(0, 1))
    with pytest.raises(InputError):
        SunflowerDecomposition(root=(), petals=((F(1),), (F(1),)), members=(0, 1))
    with pytest.raises(InputError):
        SunflowerDecomposition(root=(), petals=((F(1),), (F(2), F(3))), members=(0, 1))


def test_sunflower_matches_brute_force_oracle():
    rng = random.Random(2024)
    pool = [F(k) for k in range(6)]
    for _ in range(150):
        sets = [set(rng.sample(pool, 3)) for _ in range(10)]
        expected = brute_sunflower(sets, 3)
        try:
            out = delta_system_extract(sets, 3)
        except SunflowerNotFoundError:
            assert expected is None
            continue
        assert expected is not None
        assert len(out.members) >= 3
        root = set(out.root)
        for i, petal in zip(out.members, out.petals):
            assert sets[i] == root | set(petal)
        for p, q in combinations(out.members, 2):
            assert sets[p] & sets[q] == root


def test_sunflower_respects_size_groups():
    sets = [{F(1)}, {F(1), F(2)}, {F(1), F(3)}, {F(1), F(4)}]
    out = delta_system_extract(sets, 3)
    assert 0 not in out.members


# --- gap interpolation ----------------------------------------------------------


def _tower_sets(ground, masks):
    return [SetBits(ground, m) for m in masks]


def test_gap_exact_nested_towers():
    g = GroundSet(8)
    ascending = _tower_sets(g, [0b0001, 0b0011, 0b0111])
    descending = _tower_sets(g, [0b11111111, 0b0111_1111, 0b0011_1111])
    w = interpolate_gap(ascending, descending, 0)
    for u in ascending:
        assert u.is_subset(w)
    for v in descending:
        assert w.is_subset(v)


def test_gap_single_pair_frozen():
    g = GroundSet(2)
    u0 = SetBits.from_elements(g, [0, 1])
    v0 = SetBits.from_elements(g, [1])
    w = interpolate_gap([u0], [v0], 1)
    assert w.elements() == (1,)
    assert (u0 - w).elements() == (0,)
    assert (u0 - w).is_subset(u0 - v0)


def test_gap_precondition_violation_names_the_pair():
    g = GroundSet(4)
    u = SetBits.from_elements(g, [0, 1, 2])
    v = SetBits.from_elements(g, [3])
    with pytest.raises(InputError, match=r"U_0 .* V_0"):
        interpolate_gap([u], [v], 2)


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
            ascending.append(SetBits(g, mask | extra))
        descending = _tower_sets(g, down)
        budget = max(
            (len(un - vm) for un in ascending for vm in descending), default=0
        )
        w = interpolate_gap(ascending, descending, budget)
        for n, un in enumerate(ascending):
            bound = SetBits.empty(g)
            for m in range(min(n + 1, len(descending))):
                bound |= un - descending[m]
            assert (un - w).is_subset(bound)
        for m, vm in enumerate(descending):
            bound = SetBits.empty(g)
            for n in range(min(m, len(ascending))):
                bound |= ascending[n] - vm
            assert (w - vm).is_subset(bound)


def test_gap_rejects_mixed_grounds_and_empty_instance():
    g = GroundSet(4)
    h = GroundSet(5)
    with pytest.raises(InputError):
        interpolate_gap([SetBits.empty(g)], [SetBits.empty(h)], 0)
    with pytest.raises(InputError):
        interpolate_gap([], [], 0)
