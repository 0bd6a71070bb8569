"""Checker behaviour on worked examples plus oracle agreement on fuzzed corpora."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from chainlab.core import (
    ChainFamily,
    GroundSet,
    InputError,
    SetBits,
    alternation_witness,
    chain_defect_set,
    chain_witness,
    defect,
    family_from_text,
    family_to_text,
    flip_count,
    is_barely_alternating,
    is_chain,
    membership_trace,
    validate_almost_chain,
)
from chainlab.generators import BitIndex, DyadicGround, marciszewski_family

from oracles import (
    brute_alternation_witness,
    brute_chain_witness,
    build_family,
    mixed_corpus,
    removal_makes_chain,
)


def test_trace_of_empty_sets_is_all_zero():
    g = GroundSet(4)
    fam = ChainFamily.from_pairs(g, [(F(i + 1, 4), SetBits.empty(g)) for i in range(3)])
    for n in range(4):
        assert membership_trace(fam, n) == "000"


def test_trace_direct_read_off():
    g = GroundSet(2)
    fam = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), SetBits.from_elements(g, [0])),
            (F(1, 2), SetBits.empty(g)),
            (F(3, 4), SetBits.from_elements(g, [0])),
        ],
    )
    assert membership_trace(fam, 0) == "101"
    assert membership_trace(fam, 1) == "000"


def test_trace_rejects_out_of_range_element():
    fam = build_family(["01"])
    with pytest.raises(InputError):
        membership_trace(fam, 1)
    with pytest.raises(InputError):
        membership_trace(fam, -1)


def test_trace_marciszewski_depth3_frozen():
    # Hand evaluation at depth 3 (ground = k/8 for k = 1..7):
    #   0.0101 -> 5/16,  nothing excluded,    set {1/8, 1/4}
    #   0.1011 -> 11/16, excludes 1/2,        set {1/8, 1/4, 3/8, 5/8}
    #   0.1101 -> 13/16, excludes 1/2,        set {1/8, 1/4, 3/8, 5/8, 3/4}
    fam = marciszewski_family(
        [BitIndex.from_string(w) for w in ("0101", "1011", "1101")],
        DyadicGround(3),
    )
    assert fam.indices == (F(5, 16), F(11, 16), F(13, 16))
    assert [s.elements() for s in fam.sets] == [(0, 1), (0, 1, 2, 4), (0, 1, 2, 4, 5)]
    assert membership_trace(fam, 1) == "111"  # ground element of 1/4
    assert membership_trace(fam, 2) == "011"  # ground element of 3/8
    assert membership_trace(fam, 3) == "000"  # ground element of 1/2


@pytest.mark.parametrize(
    "trace,expected", [("0000", 0), ("0101", 3), ("1010", 3), ("1", 0), ("0110110", 4)]
)
def test_flip_count(trace, expected):
    fam = build_family([trace])
    assert flip_count(fam, 0) == expected


def test_barely_alternating_accepts_0101_traces():
    fam = build_family(["0101", "0101", "0101"])
    assert is_barely_alternating(fam)
    assert alternation_witness(fam) is None


def test_barely_alternating_witness_is_least():
    traces = ["0000"] * 5 + ["1010"]
    fam = build_family(traces, indices=(F(1, 4), F(1, 2), F(3, 4), F(1)))
    assert alternation_witness(fam) == (5, F(1, 4), F(1, 2), F(3, 4), F(1))


def test_barely_alternating_witness_positions_in_long_trace():
    fam = build_family(["0110110"])
    w = alternation_witness(fam)
    assert w is not None
    # leftmost 1,0,1,0 subsequence sits at one-based positions 2, 4, 5, 7
    expected = [fam.indices[p] for p in (1, 3, 4, 6)]
    assert [w.x1, w.x2, w.x3, w.x4] == expected
    assert brute_alternation_witness(fam) == tuple(w)


def test_chain_verdicts():
    good = build_family(["0011", "0001"])
    assert is_chain(good)
    g = GroundSet(1)
    bad = ChainFamily.from_pairs(
        g, [(F(1, 4), SetBits.from_elements(g, [0])), (F(1, 2), SetBits.empty(g))]
    )
    assert chain_witness(bad) == (0, F(1, 4), F(1, 2))


def test_monotone_traces_characterize_chains():
    rng = random.Random(20240811)
    for _ in range(300):
        width = rng.randint(1, 6)
        traces = [
            "".join(rng.choice("01") for _ in range(width))
            for _ in range(rng.randint(1, 5))
        ]
        fam = build_family(traces)
        monotone = all(
            flip_count(fam, n) <= 1 and "10" not in membership_trace(fam, n)
            for n in range(fam.ground.size)
        )
        assert is_chain(fam) == monotone
        expected = brute_chain_witness(fam)
        got = chain_witness(fam)
        assert (got is None) == (expected is None)
        if expected is not None:
            assert tuple(got) == expected


def test_defect_examples_and_errors():
    g = GroundSet(4)
    fam = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), SetBits.from_elements(g, [0, 1, 3])),
            (F(1, 2), SetBits.from_elements(g, [1])),
        ],
    )
    assert defect(fam, F(1, 4), F(1, 2)).elements() == (0, 3)
    nested = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), SetBits.from_elements(g, [1])),
            (F(1, 2), SetBits.from_elements(g, [0, 1, 3])),
        ],
    )
    assert not defect(nested, F(1, 4), F(1, 2))
    with pytest.raises(InputError):
        defect(fam, F(1, 2), F(1, 4))
    with pytest.raises(InputError):
        defect(fam, F(1, 4), F(3, 4))


def test_defect_marciszewski_contained_in_excluded_dyadics():
    from chainlab.generators import excluded_dyadics

    ground = DyadicGround(3)
    xs = [BitIndex.from_string(w) for w in ("0101", "0111", "1011", "1101")]
    fam = marciszewski_family(xs, ground)
    by_value = {x.value: x for x in xs}
    for x, y in combinations(fam.indices, 2):
        d = defect(fam, x, y)
        allowed = set(excluded_dyadics(by_value[y], 3))
        assert all(ground.point(n) in allowed for n in d.elements())


def test_validate_almost_chain():
    chain = build_family(["0011", "0111"])
    assert validate_almost_chain(chain, 0).max_defect_size == 0
    g = GroundSet(4)
    fam = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), SetBits.from_elements(g, [0, 1, 3])),
            (F(1, 2), SetBits.from_elements(g, [1])),
        ],
    )
    report = validate_almost_chain(fam, 1)
    assert report.max_defect_size == 2
    assert report.flagged_pairs == ((F(1, 4), F(1, 2)),)
    assert not report.ok
    assert validate_almost_chain(fam, 2).ok
    with pytest.raises(InputError):
        validate_almost_chain(fam, -1)


def test_defect_scan_matches_pairwise_defects():
    for fam in mixed_corpus(4242, 300, 9, 12):
        sizes = {(x, y): len(defect(fam, x, y)) for x, y in combinations(fam.indices, 2)}
        for budget in (0, 1, 2):
            report = validate_almost_chain(fam, budget)
            assert report.max_defect_size == max(sizes.values(), default=0)
            assert report.over_budget == {p: d for p, d in sizes.items() if d > budget}
            assert report.flagged_pairs == tuple(p for p, d in sizes.items() if d > budget)


def test_chain_defect_set_examples():
    chain = build_family(["0011", "0111"])
    assert not chain_defect_set(chain)
    equal = build_family(["1111", "0000"])
    assert not chain_defect_set(equal)
    g = GroundSet(2)
    fam = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), SetBits.from_elements(g, [0])),
            (F(1, 2), SetBits.empty(g)),
            (F(3, 4), SetBits.from_elements(g, [0, 1])),
        ],
    )
    assert chain_defect_set(fam).elements() == (0,)


def test_chain_defect_set_is_minimal():
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        width = rng.randint(2, 5)
        traces = [
            "".join(rng.choice("01") for _ in range(width))
            for _ in range(rng.randint(1, 6))
        ]
        fam = build_family(traces)
        d = chain_defect_set(fam)
        assert removal_makes_chain(fam, d)
        if 0 < len(d) <= 8:
            checked += 1
            elems = d.elements()
            for k in range(len(elems)):
                for sub in combinations(elems, k):
                    proper = SetBits.from_elements(fam.ground, sub)
                    assert not removal_makes_chain(fam, proper)
    assert checked > 20


def test_empty_and_singleton_families_are_vacuously_fine():
    g = GroundSet(3)
    empty = ChainFamily(g, (), ())
    single = ChainFamily.from_pairs(g, [(F(1, 2), SetBits.from_elements(g, [0, 2]))])
    for fam in (empty, single):
        assert is_chain(fam)
        assert is_barely_alternating(fam)
        assert not chain_defect_set(fam)


def test_family_shape_is_validated():
    g = GroundSet(3)
    with pytest.raises(InputError):
        ChainFamily(g, (F(1, 2), F(1, 2)), (SetBits.empty(g), SetBits.empty(g)))
    with pytest.raises(InputError):
        ChainFamily(g, (F(1, 2),), ())
    with pytest.raises(InputError):
        ChainFamily.from_pairs(g, [(F(1, 2), SetBits.empty(g)), (F(1, 2), SetBits.empty(g))])
    with pytest.raises(InputError):
        ChainFamily(g, (F(1, 2),), (SetBits.empty(GroundSet(4)),))


def test_automaton_agrees_with_quantifier_definition():
    for fam in mixed_corpus(seed=101, count=250, max_indices=8, max_ground=10):
        expected = brute_alternation_witness(fam)
        got = alternation_witness(fam)
        assert (got is None) == (expected is None)
        if expected is not None:
            assert tuple(got) == expected


def test_pattern_characterization():
    # no 1,0,1,0 subsequence <=> every trace flips at most 3 times and a
    # 3-flip trace starts with a 0 block
    for fam in mixed_corpus(seed=202, count=250, max_indices=9, max_ground=8):
        characterized = all(
            flip_count(fam, n) <= 3
            and (flip_count(fam, n) < 3 or membership_trace(fam, n).startswith("0"))
            for n in range(fam.ground.size)
            if len(fam)
        )
        assert is_barely_alternating(fam) == characterized


def test_chain_implies_barely_alternating():
    rng = random.Random(55)
    for _ in range(100):
        width = rng.randint(1, 7)
        mask = 0
        masks = []
        size = rng.randint(1, 12)
        for _ in range(width):
            mask |= rng.getrandbits(size)
            masks.append(mask)
        g = GroundSet(size)
        fam = ChainFamily(
            g,
            tuple(F(i + 1, width + 1) for i in range(width)),
            tuple(SetBits(g, m) for m in masks),
        )
        assert is_chain(fam)
        assert is_barely_alternating(fam)


def test_defect_matches_trace_coordinates():
    for fam in mixed_corpus(seed=303, count=60, max_indices=6, max_ground=8):
        for (i, x), (j, y) in combinations(enumerate(fam.indices), 2):
            d = defect(fam, x, y)
            for n in range(fam.ground.size):
                trace = membership_trace(fam, n)
                assert (n in d) == (trace[i] == "1" and trace[j] == "0")


def test_serialization_round_trip_is_bit_exact():
    for fam in mixed_corpus(seed=404, count=40, max_indices=6, max_ground=12):
        text = family_to_text(fam)
        again = family_from_text(text)
        assert again == fam
        assert family_to_text(again) == text


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"ground_size": 2}',
        '{"ground_size": 0, "entries": []}',
        '{"ground_size": 2, "entries": [{"index": "1/2"}]}',
        '{"ground_size": 2, "entries": [{"index": "0.5", "set": []}]}',
        '{"ground_size": 2, "entries": [{"index": "1/2", "set": [1, 0]}]}',
        '{"ground_size": 2, "entries": [{"index": "1/2", "set": [2]}]}',
        '{"ground_size": 2, "entries": [], "extra": 1}',
    ],
)
def test_malformed_family_documents_are_rejected(text):
    with pytest.raises(InputError):
        family_from_text(text)
