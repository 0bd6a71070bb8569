"""Checker behaviour on worked examples plus oracle agreement on fuzzed corpora."""

from __future__ import annotations

import json
import random
import re
import time
import tracemalloc
from fractions import Fraction as F
from itertools import combinations

import pytest

from chainlab import core
from chainlab.adjust import adjust_family, insert_point
from chainlab.core import (
    MAX_GROUND_SIZE,
    MAX_INDEX_DIGITS,
    ChainFamily,
    GroundSet,
    InputError,
    alternation_witness,
    chain_witness,
    family_from_text,
    family_to_text,
    format_index,
    iter_bits,
    is_barely_alternating,
    parse_index,
    validate_almost_chain,
)
from chainlab.generators import (
    _excluded,
    dyadic_ground,
    family_from_config,
    marciszewski_family,
)

from oracles import (
    brute_alternation_witness,
    brute_chain_witness,
    brute_defect_report,
    build_family,
    count_fraction_ops,
    counter_inputs,
    flagged_sizes,
    flip_count,
    membership_trace,
    mixed_corpus,
    two_pass_family_with_file_order,
    word_value,
)


def test_trace_of_empty_sets_is_all_zero():
    g = GroundSet(4)
    fam = ChainFamily.from_pairs(g, [(F(i + 1, 4), 0) for i in range(3)])
    for n in range(4):
        assert membership_trace(fam, n) == "000"
    assert [core._flipped(fam.masks, flips) for flips in range(1, 5)] == [0] * 4


def test_trace_direct_read_off():
    g = GroundSet(2)
    fam = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), g.mask_of([0])),
            (F(1, 2), 0),
            (F(3, 4), g.mask_of([0])),
        ],
    )
    assert membership_trace(fam, 0) == "101"
    assert membership_trace(fam, 1) == "000"
    assert chain_witness(fam) == (0, F(1, 4), F(1, 2))
    assert alternation_witness(fam) is None


def test_trace_rejects_out_of_range_element():
    ground = build_family(["01"]).ground
    ground.check_element(0)
    for n in (1, -1, True, 0.0):
        with pytest.raises(InputError, match=rf"element {n!r} outside ground range \[0, 1\)"):
            ground.check_element(n)


def test_trace_marciszewski_depth3_frozen():
    # Hand evaluation at depth 3 (ground = k/8 for k = 1..7):
    #   0.0101 -> 5/16,  nothing excluded,    set {1/8, 1/4}
    #   0.1011 -> 11/16, excludes 1/2,        set {1/8, 1/4, 3/8, 5/8}
    #   0.1101 -> 13/16, excludes 1/2,        set {1/8, 1/4, 3/8, 5/8, 3/4}
    fam = marciszewski_family(["0101", "1011", "1101"], 3)
    assert fam.indices == (F(5, 16), F(11, 16), F(13, 16))
    assert [tuple(iter_bits(m)) for m in fam.masks] == [(0, 1), (0, 1, 2, 4), (0, 1, 2, 4, 5)]
    assert membership_trace(fam, 1) == "111"  # ground element of 1/4
    assert membership_trace(fam, 2) == "011"  # ground element of 3/8
    assert membership_trace(fam, 3) == "000"  # ground element of 1/2


@pytest.mark.parametrize(
    "trace,expected", [("0000", 0), ("0101", 3), ("1010", 3), ("1", 0), ("0110110", 4)]
)
def test_flip_count(trace, expected):
    # A trace is a chain's when it flips at most once, upward; the family is
    # barely alternating unless it flips three times from a 1 or four times.
    fam = build_family([trace])
    assert flip_count(fam, 0) == expected
    assert (chain_witness(fam) is None) == ("10" not in trace)
    barely = expected < 3 or expected == 3 and trace.startswith("0")
    assert (alternation_witness(fam) is None) == barely == is_barely_alternating(fam)


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
    assert chain_witness(good) is None
    g = GroundSet(1)
    bad = ChainFamily.from_pairs(
        g, [(F(1, 4), g.mask_of([0])), (F(1, 2), 0)]
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
        assert (chain_witness(fam) is None) == monotone
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
            (F(1, 4), g.mask_of([0, 1, 3])),
            (F(1, 2), g.mask_of([1])),
        ],
    )
    report = validate_almost_chain(fam, 0)
    assert report.max_defect_size == 2 and flagged_sizes(report) == [((0, 1), 2)]
    assert tuple(iter_bits(fam.masks[0] & ~fam.masks[1])) == (0, 3)
    assert chain_witness(fam) == (0, F(1, 4), F(1, 2))
    nested = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), g.mask_of([1])),
            (F(1, 2), g.mask_of([0, 1, 3])),
        ],
    )
    assert validate_almost_chain(nested, 0) == (0, ())
    assert brute_defect_report(nested, 0) == (0, {})
    with pytest.raises(InputError, match="budget must be non-negative, got -1"):
        validate_almost_chain(fam, -1)


def test_defect_marciszewski_contained_in_excluded_dyadics():
    xs = ["0101", "0111", "1011", "1101"]
    fam = marciszewski_family(xs, 3)
    heads = {word_value(x): int(x[:3], 2) for x in xs}
    for i, j in combinations(range(len(fam)), 2):
        d = fam.masks[i] & ~fam.masks[j]
        assert d & ~_excluded(heads[fam.indices[j]]) == 0


def test_validate_almost_chain():
    chain = build_family(["0011", "0111"])
    assert validate_almost_chain(chain, 0).max_defect_size == 0
    g = GroundSet(4)
    fam = ChainFamily.from_pairs(
        g,
        [
            (F(1, 4), g.mask_of([0, 1, 3])),
            (F(1, 2), g.mask_of([1])),
        ],
    )
    report = validate_almost_chain(fam, 1)
    assert report.max_defect_size == 2
    assert flagged_sizes(report) == [((0, 1), 2)] == list(brute_defect_report(fam, 1)[1].items())
    assert report.flagged_pairs == ((0, 1),)
    assert report.flagged_rows
    assert not validate_almost_chain(fam, 2).flagged_rows
    with pytest.raises(InputError):
        validate_almost_chain(fam, -1)


def test_defect_scan_matches_pairwise_defects():
    for fam in mixed_corpus(4242, 300, 9, 12):
        sizes = {
            (i, j): (fam.masks[i] & ~fam.masks[j]).bit_count()
            for i, j in combinations(range(len(fam)), 2)
        }
        for budget in (0, 1, 2):
            report = validate_almost_chain(fam, budget)
            over = [(p, d) for p, d in sizes.items() if d > budget]
            assert report.max_defect_size == max(sizes.values(), default=0)
            assert flagged_sizes(report) == over == list(brute_defect_report(fam, budget)[1].items())
            assert report.flagged_pairs == tuple(p for p, _ in over)


def test_empty_and_singleton_families_are_vacuously_fine():
    g = GroundSet(3)
    empty = ChainFamily(g, (), ())
    single = ChainFamily.from_pairs(g, [(F(1, 2), g.mask_of([0, 2]))])
    for fam in (empty, single):
        assert chain_witness(fam) is None
        assert is_barely_alternating(fam)


def test_family_shape_is_validated():
    g = GroundSet(3)
    with pytest.raises(InputError):
        ChainFamily(g, (F(1, 2), F(1, 2)), (0, 0))
    with pytest.raises(InputError):
        ChainFamily(g, (F(1, 2),), ())
    with pytest.raises(InputError):
        ChainFamily.from_pairs(g, [(F(1, 2), 0), (F(1, 2), 0)])
    with pytest.raises(InputError):
        ChainFamily(g, (F(1, 2),), ((1 << GroundSet(4).size) - 1,))


@pytest.mark.parametrize(
    "mask",
    [0b1000, -1, True, F(0)],
    ids=["above-full-mask", "negative", "bool", "fraction"],
)
def test_family_masks_must_be_int_masks_within_the_ground(mask):
    g = GroundSet(3)
    with pytest.raises(InputError, match="mask 1 is not an int mask over ground size 3"):
        ChainFamily(g, (F(1, 4), F(1, 2)), (0b111, mask))
    with pytest.raises(InputError, match="mask 0 is not an int mask"):
        ChainFamily.from_pairs(g, [(F(1, 2), mask)])


def _seconds(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


# At N = 2^20 one full mask has 2^20 bits, so per-set work that builds or
# scans one (recomputing the full mask, say) costs about 0.1 ms: these runs
# then take several times longer than the same runs over a 64-element ground.
def test_family_mask_checks_do_not_grow_with_the_ground():
    k = 1 << 14
    indices = tuple(F(i) for i in range(k))

    def build(size):
        masks = tuple(range(k - 1)) + (1 << (size - 1),)
        return _seconds(lambda: ChainFamily(GroundSet(size), indices, masks))

    small, large = build(64), build(MAX_GROUND_SIZE)
    assert large < 1.0 and large < 3 * small + 0.05


def test_right_boundary_insertions_do_not_grow_with_the_ground():
    def insert(size):
        fam = ChainFamily(GroundSet(size), tuple(F(i) for i in range(8)),
                          tuple((1 << i) - 1 for i in range(8)))
        receipts = []
        seconds = _seconds(lambda: receipts.extend(
            insert_point(fam, F(8 + i), 0b1010)[1] for i in range(1 << 12)))
        assert all(r.predecessor == F(7) and r.successor is None for r in receipts)
        assert {r.produced_set for r in receipts} == {0b1111111 | 0b1010}
        return seconds

    small, large = insert(64), insert(MAX_GROUND_SIZE)
    assert large < 1.0 and large < 3 * small + 0.05


def _peak_bytes(run):
    """Result of run() and the most memory it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mask_of_builds_over_the_span_of_its_elements():
    # Rows of a gap instance below 300 on a 2^20 ground: no 2^20-digit buffer.
    ground = GroundSet(MAX_GROUND_SIZE)
    mask, peak = _peak_bytes(lambda: ground.mask_of([299, 5, 7, 5]))
    assert mask == 1 << 299 | 1 << 7 | 1 << 5
    assert peak < 64 << 10
    assert ground.mask_of([]) == 0


def test_defect_scan_memory_does_not_grow_with_the_ground():
    # Neither engine builds a complement within the ground, so 256 empty
    # sets over 2^20 elements need no 2^20-bit mask on either.
    fam = ChainFamily(GroundSet(MAX_GROUND_SIZE), tuple(F(i) for i in range(256)), (0,) * 256)
    report, peak = _peak_bytes(lambda: validate_almost_chain(fam, 0))
    assert report == (0, ())
    assert peak < 1 << 20
    inputs = counter_inputs(fam.masks)
    for run in (lambda: core._scan_rows(fam.masks, 0),
                lambda: core._counter_rows(fam.masks, 0, *inputs)):
        rows, peak = _peak_bytes(run)
        assert rows == (0, [])
        assert peak < 1 << 20


def test_counter_engine_memory_does_not_grow_with_the_ground():
    # Columns exist only for the three toggling elements, one of them at the
    # top of a 2^20 ground; planes and columns are k bits wide, not N.
    top = 1 << (MAX_GROUND_SIZE - 1)
    start, entered, left = top, top | 0b101, top | 0b1
    masks = (start,) * 1000 + (entered,) * 20 + (left,) * 4
    inputs = counter_inputs(masks)
    (worst, rows), peak = _peak_bytes(lambda: core._counter_rows(masks, 0, *inputs))
    # Only element 2 ever leaves: each set holding it misses it in every later set without it.
    assert worst == 1
    assert rows == [(i, 0b1111 << 1020, (1, 1, 1, 1)) for i in range(1000, 1020)]
    assert peak < 1 << 20


def test_defect_scan_memory_stays_flat_when_one_wide_set_toggles_all():
    # 2^16 elements enter at the last of 2048 sets.  Their counter columns
    # would take 2^16 * 2048 bits (16 MiB) for 2^16 bits of masks, so the
    # rule keeps the scan, which ANDs zeros and holds one row.
    k, wide = 2048, (1 << (1 << 16)) - 1
    fam = ChainFamily(GroundSet(1 << 16), tuple(F(i) for i in range(k)), (0,) * (k - 1) + (wide,))
    report, peak = _peak_bytes(lambda: validate_almost_chain(fam, 0))
    assert report == (0, ())
    assert peak < 1 << 20


def test_engine_rule_follows_the_toggles(monkeypatch):
    picked = []
    for name in ("_scan_rows", "_counter_rows"):
        def spy(*args, name=name, engine=getattr(core, name)):
            picked.append(name)
            return engine(*args)
        monkeypatch.setattr(core, name, spy)
    near = family_from_config(
        {"kind": "perturbed", "seed": 1, "ground_size": 256, "count": 1000, "flips": 2})
    rng = random.Random(11)
    scattered = ChainFamily(near.ground, near.indices,
                            tuple(rng.getrandbits(256) for _ in near.masks))
    # Few toggles, but all 1000 elements enter at the last of 256 sets: the
    # counters' columns would take 256 times the bits of the masks.
    late = ChainFamily(GroundSet(1000), near.indices[:256], (0,) * 255 + ((1 << 1000) - 1,))
    assert not validate_almost_chain(near, 256).flagged_rows
    assert not validate_almost_chain(scattered, 256).flagged_rows
    assert not validate_almost_chain(late, 0).flagged_rows
    assert picked == ["_counter_rows", "_scan_rows", "_scan_rows"]


def test_index_digit_cap():
    at_cap = "-" + "9" * MAX_INDEX_DIGITS + "/1" + "0" * (MAX_INDEX_DIGITS - 1)
    assert format_index(parse_index(at_cap)) == at_cap
    for over in ("1" * (MAX_INDEX_DIGITS + 1), "1/" + "3" * (MAX_INDEX_DIGITS + 1)):
        with pytest.raises(InputError, match=f"exceeds {MAX_INDEX_DIGITS} digits"):
            parse_index(over)
    assert len(marciszewski_family(["1" * MAX_INDEX_DIGITS], 1)) == 1
    with pytest.raises(InputError, match=f"exceeds the cap {MAX_INDEX_DIGITS}"):
        marciszewski_family(["1" * (MAX_INDEX_DIGITS + 1)], 1)


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
            tuple(masks),
        )
        assert chain_witness(fam) is None
        assert is_barely_alternating(fam)


def test_defect_matches_trace_coordinates():
    # The scan's defect sizes count the elements whose trace reads 1 at x, 0 at y.
    for fam in mixed_corpus(seed=303, count=60, max_indices=6, max_ground=8):
        traces = [membership_trace(fam, n) for n in range(fam.ground.size)]
        sizes = dict(flagged_sizes(validate_almost_chain(fam, 0)))
        for i, j in combinations(range(len(fam)), 2):
            d = fam.masks[i] & ~fam.masks[j]
            for n, trace in enumerate(traces):
                assert bool(d >> n & 1) == (trace[i] == "1" and trace[j] == "0")
            assert sizes.get((i, j), 0) == sum(t[i] + t[j] == "10" for t in traces)


def test_serialization_round_trip_is_bit_exact():
    for fam in mixed_corpus(seed=404, count=40, max_indices=6, max_ground=12):
        text = family_to_text(fam)
        again = family_from_text(text)
        assert again == fam
        assert family_to_text(again) == text


def test_sparse_wide_document_reads_and_writes_in_small_memory():
    # 500 one-element sets over 2^20 elements: each set's buffer ends at its
    # last element and the writer formats lines up to the largest one held.
    doc = {"ground_size": MAX_GROUND_SIZE,
           "entries": [{"index": f"{2 * i + 1}/1024", "set": [i]} for i in range(500)]}
    text = json.dumps(doc)
    fam, peak = _peak_bytes(lambda: family_from_text(text))
    assert fam.masks == tuple(1 << i for i in range(500))
    assert peak < 4 << 20
    out, peak = _peak_bytes(lambda: family_to_text(fam))
    assert peak < 4 << 20
    assert out == json.dumps(doc, indent=2) + "\n"


def test_sparse_high_document_is_the_indent_2_json_dump():
    # One-element sets at the top of the widest ground: each sparse set
    # formats its own line, so no line is formatted for the 2^20 elements below.
    top = MAX_GROUND_SIZE - 500
    doc = {"ground_size": MAX_GROUND_SIZE,
           "entries": [{"index": f"{2 * i + 1}/1024", "set": [top + i]} for i in range(500)]}
    fam = family_from_text(json.dumps(doc))
    assert fam.masks == tuple(1 << (top + i) for i in range(500))
    out, peak = _peak_bytes(lambda: family_to_text(fam))
    assert peak < 1 << 20
    assert out == json.dumps(doc, indent=2) + "\n"


def test_every_write_path_together_is_the_indent_2_json_dump():
    # A dense set, a set of long runs, one short run high in a 2^14-digit set
    # (sparse, so written low bit by low bit) and a sparse set far above them.
    sets = [list(range(0, 300, 2)), list(range(100, 400)) + list(range(500, 900)),
            list(range(10_000, 10_130)), [MAX_GROUND_SIZE - 1]]
    doc = {"ground_size": MAX_GROUND_SIZE,
           "entries": [{"index": f"{i}/1", "set": s} for i, s in enumerate(sets)]}
    fam = family_from_text(json.dumps(doc))
    out, peak = _peak_bytes(lambda: family_to_text(fam))
    assert out == json.dumps(doc, indent=2) + "\n"
    assert peak < 1 << 20


def test_reading_a_wide_document_holds_masks_not_element_lists():
    # Each set becomes its mask inside the decode, so the document's lists of
    # ints, over 6 MiB here, are never held at once; the masks take 50 KiB.
    fam = family_from_config(
        {"kind": "perturbed", "seed": 1, "ground_size": 2048, "count": 200, "flips": 2})
    text = family_to_text(fam)
    parsed, peak = _peak_bytes(lambda: family_from_text(text))
    assert parsed == fam
    assert peak < 1 << 20


def test_long_runs_of_canonical_documents_never_reach_the_decoder(monkeypatch):
    # Every set of over 8 * _ELEMENTS_PER_EDGE elements in the writer's text
    # of the wide families, and of over 3 * _ELEMENTS_PER_EDGE in that of the
    # N = 256 one, is read run by run, so no such list reaches _set_mask.
    fam = family_from_config(
        {"kind": "perturbed", "seed": 1, "ground_size": 2048, "count": 400, "flips": 3})
    order = list(fam.indices)
    random.Random(1).shuffle(order)
    adjusted = adjust_family(fam, order)[0]
    small = family_from_config(
        {"kind": "perturbed", "seed": 1, "ground_size": 256, "count": 1000, "flips": 2})
    cases = [(8, fam, family_to_text(fam)), (8, adjusted, family_to_text(adjusted)),
             (3, small, family_to_text(small))]
    set_mask = core._set_mask
    bound = 0

    def short_lists_only(elems, limit):
        assert len(elems) <= bound * core._ELEMENTS_PER_EDGE, "a long set was decoded"
        return set_mask(elems, limit)

    monkeypatch.setattr(core, "_set_mask", short_lists_only)
    for bound, family, text in cases:
        assert family_from_text(text) == family


@pytest.mark.parametrize("odd", ["300.0", "true", "null", '"300"'])
def test_a_set_the_run_path_cannot_read_goes_to_the_decoder(odd):
    # The run path gives the set up, rather than raising, at a token in a
    # long run that is not a plain int; the hooked decode keeps it as a dict.
    elems = [str(n) for n in range(600)]
    elems[300] = odd
    body = ",".join(f"\n        {e}" for e in elems)
    text = (f'{{\n  "ground_size": 2048,\n  "entries": [\n    {{\n      "index": "1/2",'
            f'\n      "set": [{body}\n      ]\n    }}\n  ]\n}}\n')
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
    assert type(core._canonical_document(text)["entries"][0]) is dict
    with pytest.raises(InputError) as raised:
        family_from_text(text)
    with pytest.raises(InputError, match=re.escape(str(raised.value))):
        two_pass_family_with_file_order(text)


# Three sets of long runs on a ground of 2048, each read run by run as written.
_RUN_SETS = ChainFamily(GroundSet(2048), (F(1, 4), F(1, 2), F(3, 4)), (
    (1 << 600) - 1, (1 << 400) - 1 ^ (1 << 100) - 1 | (1 << 900) - 1 ^ (1 << 500) - 1,
    (1 << 1900) - 1 ^ (1 << 1000) - 1))


@pytest.mark.parametrize("old, new", [
    ('},\n    {\n      "index": "1/2"', '},\n     {\n      "index": "1/2"'),  # entry indent
    ('},\n    {\n      "index": "1/2"', '}, \n    {\n      "index": "1/2"'),  # separators
    ('},\n    {\n      "index": "1/2"', '} ,\n    {\n      "index": "1/2"'),
    ('},\n    {\n      "index": "1/2"', '}\n    {\n      "index": "1/2"'),
    ("\n        850,", "\n       850,"),  # an element's indent inside a long run
    ("\n        850,", "\n         850,"),
])
def test_the_walker_stops_or_decodes_where_the_layout_changes(old, new, monkeypatch):
    # A document that departs from the writer at one place is either refused
    # by the walker or has the set there decoded, and reads as the two-pass
    # reader reads it.
    text = family_to_text(_RUN_SETS)
    assert text.count(old) == 1
    edited = text.replace(old, new)
    at = edited.rfind(core._ENTRY_HEAD, 0, edited.index(new) + len(new))
    run_pair, read = core._run_pair, {}

    def recorded(text, i, limit):
        read[i] = run_pair(text, i, limit)
        return read[i]

    monkeypatch.setattr(core, "_run_pair", recorded)
    assert core._canonical_document(text) is not None and all(read.values())
    read.clear()
    assert core._canonical_document(edited) is None or (at in read and read[at] is None)
    monkeypatch.undo()
    assert _outcome(core.family_with_file_order, edited) == _outcome(
        two_pass_family_with_file_order, edited)


def test_a_read_builds_one_line_table_and_only_for_a_long_set():
    # The table of min(N, 2^14) lines is made once, at the first set that
    # the run reader tries.  A document of sets that close within 128 line
    # prefixes (`core._LINE`) of their first line never makes it.
    runs = family_to_text(_RUN_SETS)
    short = family_to_text(ChainFamily(GroundSet(1 << 20), (F(1, 2), F(3, 4)),
                                       (0b1011 << 500, (1 << 80) - 1 << 9000)))
    core._line_table.cache_clear()
    assert family_from_text(runs) == _RUN_SETS
    assert core._line_table.cache_info()[:2] == (2, 1)  # hits, misses
    core._line_table.cache_clear()
    family_from_text(short)
    assert core._line_table.cache_info().misses == 0


def _outcome(read, text):
    try:
        return read(text)
    except InputError as exc:
        return str(exc)


_GENERATOR_CONFIGS = [
    {"kind": "initial-chain", "seed": 4, "ground_size": 300, "count": 40},
    {"kind": "marciszewski", "seed": 4, "depth": 6, "count": 30},
    {"kind": "perturbed", "seed": 4, "ground_size": 300, "count": 40, "flips": 3},
    {"kind": "sign-matrix", "seed": 4, "ground_size": 300, "count": 40},
]


def _refuse_plain_decode(text, what):
    raise AssertionError("a well-formed document was decoded a second time")


@pytest.mark.parametrize("config", _GENERATOR_CONFIGS)
def test_sorted_documents_of_every_generator_read_in_one_decode(config, monkeypatch):
    # The plain decode, which only names errors, is never reached.
    fam = family_from_config(config)
    text = family_to_text(fam)
    monkeypatch.setattr(core, "parse_json", _refuse_plain_decode)
    assert core.family_with_file_order(text) == (fam, fam.indices)


@pytest.mark.parametrize("config", _GENERATOR_CONFIGS)
def test_unsorted_documents_of_every_generator_read_in_one_decode(config, monkeypatch):
    fam = family_from_config(config)
    doc = json.loads(family_to_text(fam))
    random.Random(6).shuffle(doc["entries"])
    order = tuple(parse_index(entry["index"]) for entry in doc["entries"])
    assert order != fam.indices
    monkeypatch.setattr(core, "parse_json", _refuse_plain_decode)
    assert core.family_with_file_order(json.dumps(doc)) == (fam, order)


def _repeated_key_documents():
    """A repeated key in the last entry of a canonical and of a compact
    document, and in the outer object."""
    text = family_to_text(family_from_config(_GENERATOR_CONFIGS[2]))
    close = text.rindex("\n    }")
    canonical = text[:close] + ',\n      "set": []' + text[close:]
    compact = json.dumps(json.loads(text), separators=(",", ":"))
    compact = compact[:-3] + ',"set":[]' + compact[-3:]  # before the last "}]}"
    outer = '{"ground_size":2,"entries":[],"ground_size":3}'
    return {"canonical": canonical, "compact": compact, "outer": outer}


@pytest.mark.parametrize("kind", ["canonical", "compact", "outer"])
def test_a_repeated_key_is_refused_without_a_second_decode(kind, monkeypatch):
    # The hook meets the key where the plain decode would, and words it the same.
    text = _repeated_key_documents()[kind]
    message = _outcome(two_pass_family_with_file_order, text)
    assert message.startswith("family document repeats the key ")
    monkeypatch.setattr(core, "parse_json", _refuse_plain_decode)
    assert _outcome(core.family_with_file_order, text) == message


def test_an_error_document_is_not_held_twice():
    # Unsorted sets stay lists in the hooked decode, which is freed before
    # the plain decode that names the error.
    doc = {"ground_size": 2048, "entries": [
        {"index": f"{i + 1}/100", "set": list(range(2047, 0, -2))} for i in range(100)]}
    text = json.dumps(doc)
    _, plain = _peak_bytes(lambda: json.loads(text))

    def read():
        with pytest.raises(InputError, match="set elements must be strictly increasing"):
            family_from_text(text)

    _, peak = _peak_bytes(read)
    assert peak < 1.5 * plain


def test_reading_an_in_order_document_compares_each_index_once(monkeypatch):
    fam = family_from_config(
        {"kind": "perturbed", "seed": 2, "ground_size": 32, "count": 50, "flips": 2})
    text = family_to_text(fam)
    counts = count_fraction_ops(monkeypatch)
    parsed = family_from_text(text)
    seen = dict(counts)
    monkeypatch.undo()
    assert seen == {"__lt__": len(fam) - 1}
    assert parsed == fam


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


def test_ground_size_cap():
    assert GroundSet(MAX_GROUND_SIZE).size == MAX_GROUND_SIZE
    with pytest.raises(InputError, match=f"ground size {MAX_GROUND_SIZE + 1} exceeds the cap"):
        GroundSet(MAX_GROUND_SIZE + 1)
    assert dyadic_ground(20).size == MAX_GROUND_SIZE - 1
    with pytest.raises(InputError, match="depth 21 puts the ground above the cap"):
        dyadic_ground(21)
