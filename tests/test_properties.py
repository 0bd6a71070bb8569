"""Property tests: the linear-time stages and the shared sweep against their definitions.

Each property compares a production routine with a direct recomputation
(`tests/oracles.py`, `json.dumps`, or a plain scan) on Hypothesis-drawn
inputs.  Runs are derandomized, so every run draws the same examples.
"""

from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlab import adjust as adj
from chainlab import core
from chainlab.adjust import (
    adjust_family,
    gap_exceptions,
    insert_point,
)
from chainlab.cli import main
from chainlab.core import (
    MAX_GROUND_SIZE,
    AlternationWitness,
    ChainFamily,
    GroundSet,
    InputError,
    alternation_witness,
    chain_witness,
    family_from_text,
    family_to_text,
    format_index,
    is_barely_alternating,
    iter_bits,
    validate_almost_chain,
)
from chainlab.generators import (
    GENERATOR_KINDS,
    _excluded,
    family_from_config,
    initial_segment_chain,
    marciszewski_family,
    perturbed_chain,
)
from chainlab.lineop import (
    LineModel,
    coincident_schedule,
    compute_triples,
    continuity_harness,
    harness_report_to_text,
    norm_witness,
    operator_norm,
    triple_table_to_text,
)

from oracles import (
    brute_alternation_witness,
    brute_chain_witness,
    brute_coincident_schedule,
    brute_defect_report,
    brute_excluded_dyadics,
    brute_fourth_flip_witness,
    brute_gap_exceptions,
    brute_harness_text,
    brute_insert_point,
    brute_marciszewski_family,
    brute_norm_witness,
    brute_over_budget_line,
    brute_perturbed_chain,
    brute_triple_table_text,
    brute_triples,
    counter_inputs,
    flagged_sizes,
    membership_trace,
    point_triples,
    two_pass_family_with_file_order,
)


CHECK = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def families(draw, max_ground=12, max_indices=10):
    """Unconstrained family: distinct indices on a fine grid, arbitrary sets."""
    size = draw(st.integers(1, max_ground))
    ground = GroundSet(size)
    grid = draw(st.sets(st.integers(-64, 64), max_size=max_indices))
    indices = tuple(F(v, 16) for v in sorted(grid))
    masks = draw(st.lists(st.integers(0, (1 << ground.size) - 1),
                          min_size=len(indices), max_size=len(indices)))
    return ChainFamily(ground, indices, tuple(masks))


@st.composite
def barely_alternating_families(draw, max_ground=12, max_indices=10):
    """Every trace has the shape 0..0 1..1 0..0 1..1, so no 1,0,1,0 occurs."""
    size = draw(st.integers(1, max_ground))
    k = draw(st.integers(0, max_indices))
    masks = [0] * k
    for n in range(size):
        cuts = sorted(draw(st.lists(st.integers(0, k), min_size=3, max_size=3)))
        for i in [*range(cuts[0], cuts[1]), *range(cuts[2], k)]:
            masks[i] |= 1 << n
    ground = GroundSet(size)
    indices = tuple(F(2 * i + 1, 2 * k + 2) for i in range(k))
    return ChainFamily(ground, indices, tuple(masks))


def _model(draw, dense, min_extra=0):
    """Carrier = dense points plus extra points, some above every dense point."""
    extra = draw(st.sets(st.integers(-40, 40).map(lambda v: F(v, 7)), min_size=min_extra,
                         max_size=4))
    carrier = tuple(sorted(set(dense) | extra))
    if not carrier:
        carrier = (F(1),)
    return LineModel(carrier, dense)


@CHECK
@given(st.data(), barely_alternating_families())
def test_triples_match_brute_force_on_barely_alternating(data, fam):
    model = _model(data.draw, fam.indices)
    table = compute_triples(fam, model)
    assert point_triples(table) == brute_triples(fam, model.carrier[-1])


@CHECK
@given(st.data(), families())
def test_triples_match_brute_force_on_adjusted_families(data, fam):
    order = tuple(data.draw(st.permutations(fam.indices)))
    adjusted, _ = adjust_family(fam, order)
    model = _model(data.draw, adjusted.indices)
    table = compute_triples(adjusted, model)
    assert point_triples(table) == brute_triples(adjusted, model.carrier[-1])


@CHECK
@given(st.data(), barely_alternating_families())
def test_rank_path_matches_point_triples(data, fam):
    # Carriers with no extra point above the dense set make max(K) the last
    # dense point, so an absent element's fallback must collapse onto it.
    model = _model(data.draw, fam.indices)
    table = compute_triples(fam, model)
    triples = brute_triples(fam, model.carrier[-1])
    schedule = coincident_schedule(table)
    assert schedule == brute_coincident_schedule(triples)
    witness = brute_norm_witness(triples, model.carrier)
    assert operator_norm(table) == (1 if witness is None else 3)
    assert norm_witness(table) == witness
    assert triple_table_to_text(table) == brute_triple_table_text(triples)
    if schedule:
        ints = data.draw(st.lists(st.integers(-3, 3), min_size=len(model.carrier),
                                  max_size=len(model.carrier)))
        values = {p: F(v) for p, v in zip(model.carrier, ints)}
        report = continuity_harness(fam, model, schedule, values)
        assert harness_report_to_text(report) == brute_harness_text(triples, schedule, values)


@CHECK
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=24),
    st.sets(st.integers(-2, 42), max_size=12),
)
def test_initial_segment_chain_matches_definition(position_grid, cut_grid):
    # positions v/4 (unsorted, repeats allowed); cuts (2c+1)/8 never hit them
    positions = [F(v, 4) for v in position_grid]
    cuts = [F(2 * c + 1, 8) for c in sorted(cut_grid)]
    fam = initial_segment_chain(positions, cuts)
    assert fam.indices == tuple(cuts)
    for x, m in zip(fam.indices, fam.masks):
        assert m == sum(1 << n for n, p in enumerate(positions) if p < x)


@st.composite
def marciszewski_words(draw):
    """A depth and bit words of length depth to depth+6, some with trailing zeros.

    The drawn words have distinct values, each ending in a 1 past the first
    `depth` bits, then zeros; one more word may be slipped in anywhere that
    is too short, sits on the depth grid, or repeats a drawn value.
    """
    depth = draw(st.integers(1, 6))

    def bits(low, high):
        return st.integers(low, high).flatmap(lambda n: st.text("01", min_size=n, max_size=n))

    word = st.tuples(bits(depth, depth + 5), st.integers(0, 5)).map(
        lambda t: t[0] + "1" + "0" * min(t[1], depth + 5 - len(t[0])))
    words = draw(st.lists(word, max_size=6, unique_by=lambda w: w.rstrip("0")))
    flaws = [None] * 3 + ["grid"] + ["short"] * (depth > 1) + ["duplicate"] * 2 * bool(words)
    flaw = draw(st.sampled_from(flaws))
    if flaw == "short":
        extra = draw(bits(1, depth - 1))
    elif flaw == "grid":
        extra = draw(bits(depth, depth)) + "0" * draw(st.integers(0, 6))
    elif flaw == "duplicate":
        extra = draw(st.sampled_from(words)) + "0" * draw(st.integers(0, 2))
    if flaw:
        words.insert(draw(st.integers(0, len(words))), extra)
    return depth, words


@CHECK
@given(marciszewski_words())
@example((5, ["011011", "0110110"]))
@example((4, ["011"]))
@example((4, ["0110"]))
@example((5, ["01101"]))
def test_marciszewski_family_matches_the_fraction_oracle(case):
    depth, words = case
    try:
        expected = brute_marciszewski_family(words, depth)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            marciszewski_family(words, depth)
        assert str(got.value) == str(exc)
        return
    fam = marciszewski_family(words, depth)
    assert (fam.indices, fam.masks) == (expected.indices, expected.masks)
    for word in words:
        excluded = _excluded(int(word[:depth], 2))
        points = tuple(F(n + 1, 1 << depth) for n in iter_bits(excluded))
        assert points == brute_excluded_dyadics(word, depth)


@CHECK
@given(st.lists(st.integers(0, 12), min_size=1, max_size=12), st.sets(st.integers(0, 12)))
def test_initial_segment_chain_rejects_cut_on_a_position(position_grid, cut_grid):
    positions = [F(v, 4) for v in position_grid]
    cuts = [F(c, 4) for c in sorted(cut_grid)]
    hits = [x for x in cuts if x in set(positions)]
    if hits:
        with pytest.raises(InputError, match=f"cut index {hits[0]} coincides"):
            initial_segment_chain(positions, cuts)
    else:
        initial_segment_chain(positions, cuts)


@st.composite
def perturbed_arguments(draw):
    """Seed, ground size, cuts and flips; cuts fall on, between, below and above the grid."""
    size = draw(st.integers(0, 20))
    scale = 2 * (size + 1) * draw(st.integers(1, 3))
    off_grid = st.integers(-4, scale + 4).map(lambda r: F(2 * r + 1, scale))  # odd / even
    cuts = draw(st.lists(off_grid, max_size=12))
    if draw(st.integers(0, 2)) == 0:  # one grid value: a position, 0, 1 or outside [0, 1]
        cuts.append(F(draw(st.integers(-2, size + 3)), size + 1))
    if draw(st.integers(0, 3)):  # mostly sorted, so that most draws build a family
        cuts = sorted(set(cuts))
    return draw(st.integers(0, 2**32)), size, tuple(cuts), draw(st.integers(0, size + 1))


@CHECK
@example((5, 4, (F(-1, 3), F(0), F(1, 7), F(1), F(9, 4)), 2))  # cuts <= 0 and >= 1
@example((5, 4, (F(1, 10), F(3, 5)), 1))  # 3/5 is the position of element 2
@example((5, 4, (F(3, 5), F(1, 10)), 1))  # unsorted before coincident
@example((5, 1, (F(1, 2),), 0))  # the one position of a one-element ground
@given(perturbed_arguments())
def test_perturbed_chain_matches_the_positional_construction(args):
    try:
        expected = brute_perturbed_chain(*args)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            perturbed_chain(*args)
        assert str(info.value) == str(exc)
    else:
        assert perturbed_chain(*args) == expected


@st.composite
def segment_families(draw, max_ground=1000, max_indices=8):
    """Initial segments with a few flipped elements, which the writer copies a
    run at a time, mixed with scattered sets, which it writes element by element."""
    size = draw(st.integers(64, max_ground))
    bits = st.integers(0, size - 1).map(lambda n: 1 << n)
    segment = st.builds(lambda cut, flips: ((1 << cut) - 1) ^ sum(set(flips)),
                        st.integers(0, size), st.lists(bits, max_size=2))
    masks = draw(st.lists(st.one_of(segment, st.integers(0, (1 << size) - 1)),
                          max_size=max_indices))
    return ChainFamily(GroundSet(size), tuple(F(i, 7) for i in range(len(masks))), tuple(masks))


@CHECK
@given(st.one_of(families(max_ground=70), segment_families()))
def test_family_text_is_the_indent_2_json_dump(fam):
    doc = {
        "ground_size": fam.ground.size,
        "entries": [
            {"index": format_index(x),
             "set": [n for n in range(fam.ground.size) if m >> n & 1]}
            for x, m in zip(fam.indices, fam.masks)
        ],
    }
    text = family_to_text(fam)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert family_from_text(text) == fam


_ODD_ELEMENTS = st.one_of(
    st.integers(-3, 70), st.booleans(), st.sampled_from([0.0, 1.0, 1.5, -0.5]),
    st.sampled_from(["0", "a"]), st.none(), st.lists(st.integers(0, 3), max_size=2),
)


@st.composite
def _document_sets(draw):
    """Mostly increasing ints that may overrun the ground, some with one odd element.

    Some hold a long run, which on a wide ground the reader takes run by
    run, so the odd element often lands inside a run it is reading.
    """
    elems = sorted(draw(st.sets(st.integers(0, 40), max_size=8)))
    if draw(st.integers(0, 3)) == 0:  # a long run, then the drawn elements past a gap
        start, stop = draw(st.integers(0, 400)), draw(st.integers(530, 800))
        elems = [*range(start, stop), *(stop + 1 + n for n in elems)]
    kind = draw(st.sampled_from(["increasing"] * 6 + ["odd", "repeat", "swap", "anything",
                                                      "as-float"]))
    if kind == "as-float" and elems:
        i = draw(st.integers(0, len(elems) - 1))
        elems[i] = float(elems[i])
    elif kind == "odd":
        elems.insert(draw(st.integers(0, len(elems))), draw(_ODD_ELEMENTS))
    elif kind == "repeat" and elems:
        elems.insert(draw(st.integers(0, len(elems))), draw(st.sampled_from(elems)))
    elif kind == "swap" and len(elems) > 1:
        i = draw(st.integers(0, len(elems) - 2))
        elems[i], elems[i + 1] = elems[i + 1], elems[i]
    elif kind == "anything":
        elems = draw(st.lists(_ODD_ELEMENTS, max_size=6))
    return elems


@CHECK
@given(
    st.one_of(st.sampled_from([True, 0, MAX_GROUND_SIZE + 1, *range(1, 65)]),
              st.sampled_from([300, 600, 2048])),
    st.lists(st.tuples(st.sampled_from([*(f"{v}/8" for v in range(-9, 10)), "1/2", "x"]),
                       _document_sets()), max_size=6),
)
@example(4, [("1/2", [0, 1.0])])
@example(4, [("1/2", [5, 1])])
@example(4, [("1/2", [True])])
@example(4, [("1/2", [False, 1])])
@example(4, [("1/2", [0, True, 2])])
@example(4, [("1/2", [0, 2]), ("1/4", [1]), ("3/4", [7])])
@example(MAX_GROUND_SIZE + 1, [("1/2", [MAX_GROUND_SIZE])])
# Entry-shaped objects where no entry belongs, and "set" before "index": the
# errors show each object as the document wrote it.
@example(4, [("1/2", [{"index": "1/4", "set": [1]}])])
@example(4, [({"index": "1/4", "set": [1]}, [0])])
@example({"index": "1/4", "set": [1]}, [("1/2", [0])])
@example(4, [{"set": [{"set": [0], "index": "1/4"}], "index": "1/2"}])
@example(4, [{"set": [{"index": "1/4", "set": [1]}], "index": "1/2", "extra": 0}])
@example(4, [{"set": [0, 3], "index": "1/2"}, {"set": [1], "index": "1/4"}])
@example(4, [{"index": "1/2", "set": [0], "extra": 0}])
@example(4, [{"set": [0], "indices": "1/2"}])
def test_family_reader_matches_the_two_pass_reader(ground_size, entries):
    # Compact, and in the writer's layout, which the reader may read run by run.
    doc = {"ground_size": ground_size, "entries": [
        e if isinstance(e, dict) else {"index": e[0], "set": e[1]} for e in entries]}
    for text in (json.dumps(doc), json.dumps(doc, indent=2) + "\n"):
        assert _outcome(core.family_with_file_order, text) == _outcome(
            two_pass_family_with_file_order, text)


def _outcome(read, text):
    """What a family reader returns for the text, or the message of its InputError."""
    try:
        return read(text)
    except InputError as exc:
        return str(exc)


@st.composite
def run_families(draw):
    """Sets of one to three runs of up to several hundred elements, some with
    flipped elements, on a ground of at least 129: sets the reader reads run by run."""
    size = draw(st.integers(129, 2048))
    run = st.tuples(st.integers(0, size - 1), st.integers(200, 700))
    flip = st.integers(0, size - 1).map(lambda n: 1 << n)

    def mask(runs, flips):
        m = 0
        for a, length in runs:
            m |= ((1 << min(length, size - a)) - 1) << a
        for f in flips:
            m ^= f
        return m

    masks = draw(st.lists(st.builds(mask, st.lists(run, min_size=1, max_size=3),
                                    st.lists(flip, max_size=2)), min_size=1, max_size=4))
    return ChainFamily(GroundSet(size), tuple(F(i + 1, 8) for i in range(len(masks))),
                       tuple(masks))


# Three long initial segments: deleting the newline before the first set's
# closing bracket leaves the text valid JSON, with the bracket on a line of
# its own no longer.
_SEGMENTS = ChainFamily(GroundSet(1024), (F(1, 4), F(1, 2), F(3, 4)),
                        ((1 << 300) - 1, (1 << 600) - 1 ^ 1 << 400, (1 << 900) - 1))
_FIRST_CLOSE = family_to_text(_SEGMENTS).index("\n      ]")


@CHECK
@given(run_families(), st.integers(0, 1 << 30), st.sampled_from(["insert", "delete", "replace"]),
       st.sampled_from(list('0123456789,-. \n[]{}"/et')))
@example(_SEGMENTS, _FIRST_CLOSE, "delete", "")
@example(_SEGMENTS, _FIRST_CLOSE + 7, "delete", "")
@example(_SEGMENTS, _FIRST_CLOSE, "insert", ",")
def test_one_character_edits_read_as_the_two_pass_reader_reads_them(fam, at, edit, char):
    text = family_to_text(fam)
    at %= len(text)
    edited = text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert"):]
    assert _outcome(core.family_with_file_order, edited) == _outcome(
        two_pass_family_with_file_order, edited)


def test_family_text_of_empty_family_and_empty_sets():
    g = GroundSet(3)
    for fam in (ChainFamily(g, (), ()),
                ChainFamily(g, (F(-1, 2), F(1, 3)), (0, 0))):
        doc = {"ground_size": 3,
               "entries": [{"index": format_index(x), "set": []} for x in fam.indices]}
        assert family_to_text(fam) == json.dumps(doc, indent=2) + "\n"


@CHECK
@given(st.integers(1, 300).flatmap(
    lambda size: st.tuples(st.just(size), st.integers(0, (1 << size) - 1))))
def test_mask_round_trip_through_elements(size_and_mask):
    size, mask = size_and_mask
    g = GroundSet(size)
    elements = tuple(n for n in range(size) if mask >> n & 1)
    assert tuple(iter_bits(mask)) == elements
    assert g.mask_of(elements) == mask
    assert g.mask_of(reversed(elements * 2)) == mask
    g.check_mask(mask, "mask")


def _family(size, masks):
    ground = GroundSet(size)
    indices = tuple(F(i + 1, len(masks) + 1) for i in range(len(masks)))
    return ChainFamily(ground, indices, tuple(masks))


# Edge shapes: no indices, fewer than four indices, a one-element ground.
EDGE_FAMILIES = (
    _family(1, []),
    _family(3, []),
    _family(1, [1, 0, 1]),
    _family(2, [3, 0, 2]),
    _family(1, [1, 0, 1, 0]),
    _family(1, [0, 1, 0, 1]),
)


def _with_edges(test):
    for fam in EDGE_FAMILIES:
        test = example(fam)(test)
    return test


@st.composite
def insertions(draw):
    """A family, an index off its grid (odd 32nds, some beyond both ends) and a candidate."""
    fam = draw(families())
    x = F(2 * draw(st.integers(-70, 70)) + 1, 32)
    return fam, x, draw(st.integers(0, (1 << fam.ground.size) - 1))


@CHECK
@example((_family(2, []), F(1, 32), 0b10))  # empty condition: both boundaries
@example((_family(3, [5, 6]), F(-1, 32), 0b011))  # below every index
@example((_family(3, [5, 6]), F(33, 32), 0b011))  # above every index
@given(insertions())
def test_insert_point_matches_the_set_formula(insertion):
    fam, x, candidate = insertion
    extended, receipt = insert_point(fam, x, candidate)
    expected, produced, delta, predecessor, successor = brute_insert_point(fam, x, candidate)
    assert extended == expected
    assert receipt.inserted_index == x
    assert (receipt.produced_set, receipt.delta_from_input) == (produced, delta)
    assert (receipt.predecessor, receipt.successor) == (predecessor, successor)


@CHECK
@given(families().flatmap(lambda fam: st.tuples(st.just(fam), st.one_of(
    st.none(), st.just(list(fam.indices)), st.permutations(fam.indices)))))
def test_adjust_family_is_iterated_insert_point(fam_and_order):
    """Any order, the sorted one too, given or by default (None)."""
    fam, order = fam_and_order
    adjusted, report = adjust_family(fam, order)
    cond = ChainFamily(fam.ground, (), ())
    receipts = []
    for x in fam.indices if order is None else order:
        cond, receipt = insert_point(cond, x, fam.masks[fam.indices.index(x)])
        receipts.append(receipt)
    assert adjusted == cond
    assert report.receipts == tuple(receipts)


@CHECK
@given(families().flatmap(lambda fam: st.tuples(st.just(fam), st.one_of(
    st.none(), st.permutations(fam.indices)))))
def test_adjust_at_the_output_cap_is_unchanged(fam_and_order):
    # The cap is the number of elements the adjusted sets hold; one less is refused.
    fam, order = fam_and_order
    cond = ChainFamily(fam.ground, (), ())
    for x in fam.indices if order is None else order:
        cond = insert_point(cond, x, fam.masks[fam.indices.index(x)])[0]
    held = sum(map(int.bit_count, cond.masks))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "MAX_OUTPUT_ITEMS", held)
        assert adjust_family(fam, order)[0] == cond
        if held:
            patch.setattr(core, "MAX_OUTPUT_ITEMS", held - 1)
            with pytest.raises(InputError, match=f"adjusted sets exceed the output cap {held - 1}"):
                adjust_family(fam, order)


@pytest.mark.parametrize("order", ["sorted", "random"])
def test_adjust_past_the_output_cap_is_one_input_error_line(monkeypatch, tmp_path, capsys,
                                                           order):
    # One-element sets {i}: sorted adjust holds 1 + 2 + ... + k elements.
    k = 12
    fam = _family(k, [1 << i for i in range(k)])
    path, out_path = tmp_path / "family.json", tmp_path / "adjusted.json"
    path.write_text(family_to_text(fam))
    argv = ["adjust", "--input", str(path), "--order", order, "--output", str(out_path)]
    shuffled = list(fam.indices)
    random.Random(0).shuffle(shuffled)  # adjust's default --seed
    adjusted = adjust_family(fam, None if order == "sorted" else shuffled)[0]
    held = sum(map(int.bit_count, adjusted.masks))
    assert order == "random" or held == k * (k + 1) // 2
    sets = []

    def tally(listed, mask, what="pairs over the budget", real=core._tally):
        sets.append(mask)
        return real(listed, mask, what)

    monkeypatch.setattr(adj, "_tally", tally)
    monkeypatch.setattr(core, "MAX_OUTPUT_ITEMS", held - 1)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and not out_path.exists()
    assert err == f"input-error: elements of the adjusted sets exceed the output cap {held - 1}\n"
    assert len(sets) == k  # the last set built is the one refused
    monkeypatch.setattr(core, "MAX_OUTPUT_ITEMS", 0)
    sets.clear()
    assert main(argv) == 1 and len(sets) == 1
    capsys.readouterr()


@CHECK
@_with_edges
@given(families())
def test_chain_witness_matches_brute_force(fam):
    witness = chain_witness(fam)
    assert (None if witness is None else tuple(witness)) == brute_chain_witness(fam)


@CHECK
@_with_edges
@given(families())
def test_alternation_witness_matches_brute_force(fam):
    witness = alternation_witness(fam)
    assert (None if witness is None else tuple(witness)) == brute_alternation_witness(fam)


@CHECK
@_with_edges
@given(families())
def test_barely_alternating_matches_brute_force(fam):
    assert is_barely_alternating(fam) == (brute_alternation_witness(fam) is None)


@CHECK
@_with_edges
@given(families())
def test_flip_counter_holds_the_elements_with_enough_flips(fam):
    # A trace flips at each adjacent change, counted from a leading 0: n flips
    # once on entering the first set that holds it.
    traces = ["0" + membership_trace(fam, n) for n in fam.ground.elements()]
    flips = [sum(a != b for a, b in zip(t, t[1:])) for t in traces]
    for least in range(1, 6):
        expected = sum(1 << n for n, f in enumerate(flips) if f >= least)
        assert core._flipped(fam.masks, least) == expected


@st.composite
def near_chains(draw, max_ground=40, max_indices=64):
    """A drawn first set, then up to three toggled elements per step."""
    size = draw(st.integers(1, max_ground))
    mask = draw(st.integers(0, (1 << size) - 1))
    masks = []
    for _ in range(draw(st.integers(0, max_indices))):
        for n in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            mask ^= 1 << n
        masks.append(mask)
    return _family(size, masks)


# Budgets 0, 1 and 2 flag some pairs of a row and not others; a budget of
# N (the ground size) flags none.
@pytest.mark.parametrize("budget_of", [lambda n: 0, lambda n: 1, lambda n: 2, lambda n: n],
                         ids=["0", "1", "2", "N"])
@CHECK
@_with_edges
@example(_family(2, [3]))
@given(st.one_of(families(), near_chains()))
def test_defect_scan_matches_brute_force(budget_of, fam):
    budget = budget_of(fam.ground.size)
    worst, over = brute_defect_report(fam, budget)
    report = validate_almost_chain(fam, budget)
    assert report.max_defect_size == worst
    assert flagged_sizes(report) == list(over.items())
    assert report.flagged_pairs == tuple(over)
    assert (not report.flagged_rows) == (not over)
    # Both row engines, whichever the rule picks, give the checked rows.
    rows = (worst, list(report.flagged_rows))
    assert core._scan_rows(fam.masks, budget) == rows
    assert core._counter_rows(fam.masks, budget, *counter_inputs(fam.masks)) == rows


@st.composite
def generated_families(draw):
    """A chain, a perturbed chain of 0 to 3 flips per set, or a Marciszewski family."""
    kind = draw(st.sampled_from(["initial-chain", "perturbed", "marciszewski"]))
    if kind == "marciszewski":
        depth = draw(st.integers(3, 7))
        shape = {"depth": depth, "count": draw(st.integers(0, (1 << depth) - 1))}
    else:
        size = draw(st.integers(3, 40))
        shape = {"ground_size": size, "count": draw(st.integers(0, 48))}
        if kind == "perturbed":
            shape["flips"] = draw(st.integers(0, 3))
    return family_from_config({"kind": kind, "seed": draw(st.integers(0, 2**32)), **shape})


# Row 0 is bounded by 2, under the largest defect 3 of row 1 but over budget 1.
_UNDER_WORST = _family(8, [0b11, 0b11100000, 0])
# Row 1 is skipped with bound 1; row 0 then needs it to reach its defect 4 (vs row 3).
_CARRIED = _family(8, [0b11100001, 0b1, 0b111, 0])


@pytest.mark.parametrize("budget_of", [
    lambda fam: 0, lambda fam: 1, lambda fam: 2,
    lambda fam: brute_defect_report(fam, 0)[0], lambda fam: fam.ground.size,
], ids=["0", "1", "2", "max", "N"])
@CHECK
@example(_UNDER_WORST)
@example(_CARRIED)
@given(generated_families())
def test_pruned_scan_matches_brute_force(budget_of, fam):
    budget = budget_of(fam)
    worst, over = brute_defect_report(fam, budget)
    report = core.DefectReport(*core._scan_rows(fam.masks, budget))
    assert report.max_defect_size == worst
    assert flagged_sizes(report) == list(over.items())
    assert all(columns for _, columns, _ in report.flagged_rows)


class _SlicedRows(tuple):
    """Masks that record the row of each slice `_scan_rows` takes, one per row scanned."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.scanned.append(key.start - 1)
        return tuple.__getitem__(self, key)


def _scanned_rows(masks, budget):
    sliced = _SlicedRows(masks)
    sliced.scanned = []
    return core._scan_rows(sliced, budget), sliced.scanned


def test_pruned_scan_examples():
    # Row 0 holds flagged pairs though its bound is under the largest defect.
    assert core._scan_rows(_UNDER_WORST.masks, 1) == (3, [(0, 0b110, (2, 2)), (1, 0b100, (3,))])
    assert _scanned_rows(_UNDER_WORST.masks, 1)[1] == [1, 0]
    # A skipped row keeps its bound for the rows before it.
    assert _scanned_rows(_CARRIED.masks, 8) == ((4, []), [2, 0])


def test_pruned_scan_of_a_chain_scans_one_row():
    fam = family_from_config({"kind": "initial-chain", "seed": 3, "ground_size": 40, "count": 30})
    assert all(a & ~b == 0 for a, b in zip(fam.masks, fam.masks[1:])) and fam.masks[-1]
    for budget in (0, 1, fam.ground.size):
        assert _scanned_rows(fam.masks, budget) == ((0, []), [len(fam) - 1])


def _over_budget_line(fam, budget):
    """The over_budget line of `check`, run through `main` on the family's document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "family.json")
        path.write_text(family_to_text(fam))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["check", "--input", str(path), "--budget", str(budget)]) == 0
    return out.getvalue().splitlines()[-1]


@pytest.mark.parametrize("budget_of", [lambda n: 0, lambda n: 1, lambda n: 2, lambda n: n],
                         ids=["0", "1", "2", "N"])
@CHECK
@_with_edges
@given(st.one_of(families(), near_chains()))
def test_check_over_budget_line_matches_brute_force(budget_of, fam):
    budget = budget_of(fam.ground.size)
    assert _over_budget_line(fam, budget) == brute_over_budget_line(fam, budget)


# Row 0 loses element 0, then 0 and 1, then 0 to 2, then only 1: defect sizes
# 1, 2, 3, 1, 1, ...; row 1 has sizes 1, 2, 1, 1, ...
_STAGED = [0b111111, 0b111110, 0b111100, 0b111000] + [0b111101] * 36


@pytest.mark.parametrize("fam, budget, engine, shape", [
    (_family(2, [0b11, 0b10] + [0b11] * 38), 0, "_counter_rows",
     lambda rows: [columns.bit_count() for _, columns, _ in rows] == [1]),
    (_family(6, _STAGED), 0, "_counter_rows",
     lambda rows: len(set(rows[0][2])) == 3 and len(set(rows[1][2])) == 2),
    (_family(4, [0b1011, 0b0110, 0b1101, 0b0001, 0b1111]), 1, "_scan_rows",
     lambda rows: [columns.bit_count() for _, columns, _ in rows] == [2, 1, 1]),
    (_family(3, [0b001] * 20 + [0b011] * 20), 0, "_counter_rows", lambda rows: not rows),
    (_family(3, [0b011, 0b101, 0b110]), 3, "_scan_rows", lambda rows: not rows),
], ids=["one-pair-row", "three-sizes", "scan-engine", "none-counters", "none-scan"])
def test_check_over_budget_line_examples(monkeypatch, fam, budget, engine, shape):
    assert shape(validate_almost_chain(fam, budget).flagged_rows)
    other = {"_counter_rows": "_scan_rows", "_scan_rows": "_counter_rows"}[engine]

    def refuse(*args):
        raise AssertionError(f"{other} ran")

    monkeypatch.setattr(core, other, refuse)
    assert _over_budget_line(fam, budget) == brute_over_budget_line(fam, budget)


def _forced(engine):
    """The engine `validate_almost_chain` must not run, and a stand-in that runs `engine`."""
    if engine == "_scan_rows":
        return "_counter_rows", lambda masks, budget, *_: core._scan_rows(masks, budget)
    return "_scan_rows", lambda masks, budget: core._counter_rows(
        masks, budget, *counter_inputs(masks))


@st.composite
def multi_size_families(draw):
    """A drawn family with a set of at least two elements spliced in, followed by
    copies of it less one and less two of them: that set's row flags defects 1 and 2."""
    fam = draw(st.one_of(families(), near_chains(max_ground=12, max_indices=24)))
    masks = list(fam.masks)
    size = max(fam.ground.size, 2)
    held = draw(st.integers(0, (1 << size) - 1).filter(lambda m: m.bit_count() >= 2))
    low = held & -held
    second = held & ~low
    second &= -second
    at = draw(st.integers(0, len(masks)))
    later = sorted(draw(st.lists(st.integers(at, len(masks)), min_size=2, max_size=2)))
    masks[later[1]:later[1]] = [held & ~low & ~second]
    masks[later[0]:later[0]] = [held & ~low]
    masks[at:at] = [held]
    return _family(size, masks)


@pytest.mark.parametrize("engine", ["_scan_rows", "_counter_rows"])
@CHECK
@example(_family(6, _STAGED))
@given(multi_size_families())
def test_forced_engine_rows_are_column_masks(engine, fam):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, *_forced(engine))
        report = validate_almost_chain(fam, 0)
        line = _over_budget_line(fam, 0)
    assert any(len(set(sizes)) > 1 for _, _, sizes in report.flagged_rows)
    for i, columns, sizes in report.flagged_rows:
        assert columns and columns >> (i + 1) << (i + 1) == columns
        assert len(sizes) == columns.bit_count()
    worst, over = brute_defect_report(fam, 0)
    assert report.max_defect_size == worst
    assert flagged_sizes(report) == list(over.items())
    assert line == brute_over_budget_line(fam, 0)


def test_rows_of_over_255_defect_sizes():
    # Each set drops one more element: row i meets 519 - i sizes, so the counter
    # engine looks the sizes of rows 0-263 up by column and names those of row
    # 264 on, 255 levels and fewer, one byte per column.
    fam = _family(530, [(1 << 530) - (1 << j) for j in range(520)])
    worst, over = brute_defect_report(fam, 0)
    for engine in ("_scan_rows", "_counter_rows"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, *_forced(engine))
            report = validate_almost_chain(fam, 0)
        assert (report.max_defect_size, flagged_sizes(report)) == (worst, list(over.items()))
        assert len(set(report.flagged_rows[0][2])) == 519


@pytest.mark.parametrize("engine", ["_scan_rows", "_counter_rows"])
@CHECK
@_with_edges
@given(st.one_of(families(), near_chains()))
def test_check_at_the_output_cap_is_unchanged(engine, fam):
    # Budget 0 flags the most pairs; the cap is their number.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, *_forced(engine))
        patch.setattr(core, "MAX_OUTPUT_ITEMS", len(brute_defect_report(fam, 0)[1]))
        assert _over_budget_line(fam, 0) == brute_over_budget_line(fam, 0)


@pytest.mark.parametrize("engine", ["_scan_rows", "_counter_rows"])
def test_check_past_the_output_cap_is_one_input_error_line(monkeypatch, tmp_path, capsys,
                                                          engine):
    fam = _family(6, _STAGED)
    over = brute_defect_report(fam, 0)[1]
    pairs, rows = len(over), len({i for i, _ in over})
    path = tmp_path / "family.json"
    path.write_text(family_to_text(fam))
    tallied = []

    def tally(flagged, columns, real=core._tally):
        tallied.append(columns)
        return real(flagged, columns)

    monkeypatch.setattr(core, *_forced(engine))
    monkeypatch.setattr(core, "_tally", tally)
    monkeypatch.setattr(core, "MAX_OUTPUT_ITEMS", pairs - 1)
    monkeypatch.setattr(core, "format_index", None)  # formatting a name would raise TypeError
    assert main(["check", "--input", str(path), "--budget", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input-error: pairs over the budget exceed the output cap {pairs - 1}\n"
    # Every flagged row is built, the last one refused.  At cap 0 the first is.
    assert rows > 1 and len(tallied) == rows
    monkeypatch.setattr(core, "MAX_OUTPUT_ITEMS", 0)
    tallied.clear()
    with pytest.raises(InputError, match="output cap 0"):
        validate_almost_chain(fam, 0)
    assert len(tallied) == 1


def _bin_bits(mask):
    """Set bits read off the binary digits."""
    return [n for n, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"]


@st.composite
def threshold_masks(draw):
    """A top bit and some lower bits, with the count near one bit per 64 digits."""
    ones = draw(st.integers(1, 8))
    length = 64 * ones + draw(st.integers(-1, 1))
    below = draw(st.sets(st.integers(0, length - 2), min_size=ones - 1, max_size=ones - 1))
    return (1 << (length - 1)) | sum(1 << n for n in below)


@CHECK
@example(0)
@example(1 << (MAX_GROUND_SIZE - 1))
@example(sum(1 << (64 * n) for n in range(254)) | 1 << 16383)  # 255 bits: low-bit walk
@example(sum(1 << (64 * n) for n in range(254)) | 1 << 16383 | 2)  # 256 bits: binary digits
@given(st.one_of(
    st.integers(0, 12).map(lambda s: (1 << (1 << s)) - 1),  # dense
    st.integers(0, 1 << 512),  # random
    st.lists(st.integers(0, 4095), max_size=6).map(lambda ns: sum({1 << n for n in ns})),
    threshold_masks(),
))
def test_iter_bits_matches_binary_digits(mask):
    assert list(iter_bits(mask)) == _bin_bits(mask)


@st.composite
def wide_masks(draw):
    """A top bit past 2^14 digits and up to 320 lower bits, some of them runs."""
    width = draw(st.integers((1 << 14) + 1, 1 << 16))
    below = draw(st.sets(st.integers(0, width - 2), max_size=320))
    run = draw(st.integers(0, width - 1))
    return (1 << (width - 1)) | sum(1 << n for n in below) | ((1 << run) - 1) * draw(st.booleans())


@CHECK
@example((1 << 16384) | sum(1 << n for n in range(0, 30, 2)))  # 16 bits: low-bit walk
@example((1 << 16384) | sum(1 << n for n in range(0, 32, 2)))  # 17 bits: str.rfind
@example((1 << 16399) | sum(1 << (16 * n + 1) for n in range(1023)))  # 1024 bits: str.rfind
@example((1 << 16399) | sum(1 << (16 * n + 1) for n in range(1024)))  # 1025 bits: digit flags
@example((1 << MAX_GROUND_SIZE) - 1)
@given(wide_masks())
def test_wide_masks_walk_and_write_by_their_binary_digits(mask):
    assert list(iter_bits(mask)) == _bin_bits(mask)
    fam = ChainFamily(GroundSet(mask.bit_length()), (F(1, 2),), (mask,))
    doc = {"ground_size": mask.bit_length(), "entries": [{"index": "1/2", "set": _bin_bits(mask)}]}
    assert family_to_text(fam) == json.dumps(doc, indent=2) + "\n"


def _low_bit_walk(mask):
    """Set bits, clearing the lowest one at a time."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


@st.composite
def high_masks(draw):
    """Over 16 bits, all within a few hundred digits of the top of a mask past 2^14 digits."""
    width = draw(st.integers((1 << 14) + 1, MAX_GROUND_SIZE))
    span = draw(st.integers(17, 600))
    below = draw(st.sets(st.integers(width - span, width - 2), min_size=16, max_size=span - 1))
    return (1 << (width - 1)) | sum(1 << n for n in below)


@CHECK
@example(sum(1 << n for n in range(MAX_GROUND_SIZE - 500, MAX_GROUND_SIZE)))  # CI's high.json
@example((1 << 16384) | sum(1 << n for n in range(1, 33, 2)))  # lowest set bit 1
@given(high_masks())
def test_shifted_walk_matches_the_low_bit_walk_on_high_masks(mask):
    assert list(core._low_bits(mask)) == _low_bit_walk(mask)


@CHECK
@given(st.data(), barely_alternating_families())
def test_compute_triples_never_shows_a_fourth_flip(data, fam):
    # Past x2_n every set holds n: refusing a second exit is the whole guarantee.
    model = _model(data.draw, fam.indices, min_extra=1)
    assert len(model.carrier) > len(fam.indices)
    assert brute_fourth_flip_witness(fam, compute_triples(fam, model)) is None


@CHECK
@_with_edges
# Element 1 flips a fourth time at index 3, before element 0 does at index 4.
@example(_family(2, [3, 0, 2, 1, 0]))
@given(families())
def test_compute_triples_refuses_exactly_the_alternating_families(fam):
    # The loop stops at the first fourth flip in index order; the message still
    # names the least 1,0,1,0 witness.
    witness = brute_alternation_witness(fam)
    model = LineModel(fam.indices + (F(10),), fam.indices)
    if witness is None:
        compute_triples(fam, model)
        return
    with pytest.raises(InputError) as refused:
        compute_triples(fam, model)
    assert str(refused.value) == (
        f"family is not barely alternating: witness {AlternationWitness(*witness)}")


@st.composite
def gap_instances(draw):
    """Towers of 0-5 arbitrary masks each, and a budget from 0 to the ground size."""
    size = draw(st.integers(1, 12))
    tower = st.lists(st.integers(0, (1 << size) - 1), max_size=5)
    return GroundSet(size), draw(tower), draw(tower), draw(st.integers(0, size))


def _outcome(gap, *args):
    try:
        return gap(*args)
    except InputError as e:
        return str(e)


@CHECK
@example((GroundSet(3), [], [0b101], 0))
@example((GroundSet(3), [0b111, 0b011], [], 0))
@example((GroundSet(3), [], [], 3))
@given(gap_instances())
def test_gap_exceptions_match_the_defect_table(instance):
    ground, ascending, descending, budget = instance
    got = _outcome(gap_exceptions, ground, ascending, descending, budget)
    if not ascending and not descending:
        assert got == "both towers are empty"
    else:
        assert got == _outcome(brute_gap_exceptions, ascending, descending, budget)


# --- cli.main on arbitrary documents ---------------------------------------------

_DOC_KEYS = ("ground_size", "entries", "index", "set", "ascending", "descending", "carrier",
             "dense", "values", "kind", "seed", "count", "flips", "depth", "X", "xs",
             "points", "Y", "rows")
_CONFIG_KEYS = ("seed", "ground_size", "count", "flips", "depth", "X", "xs", "points", "Y",
                "rows")
# Small ints keep every valid config cheap; the large ones are over every cap.
_INTS = st.integers(-3, 12) | st.sampled_from([2**31, 2**70, -(2**70)])
_INDEX_TEXT = st.sampled_from(
    ["1/2", "-1/3", "0/1", "3/4", "2/3", "1/0", "1/2\n", "\uff11/2", "0101", ""]
) | st.text(max_size=4)
_SCALARS = (st.none() | st.booleans() | _INTS | st.floats() | _INDEX_TEXT
            | st.sampled_from(GENERATOR_KINDS))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_DOC_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
_ELEMENTS = st.lists(st.integers(-1, 6) | _SCALARS, max_size=4)
_SHAPED = {
    "family": st.fixed_dictionaries({
        "ground_size": st.integers(-1, 6) | _JSON,
        "entries": st.lists(
            st.fixed_dictionaries({"index": _INDEX_TEXT, "set": _ELEMENTS | _JSON}) | _JSON,
            max_size=4),
    }),
    "gap": st.fixed_dictionaries({
        "ground_size": st.integers(-1, 6) | _JSON,
        "ascending": st.lists(_ELEMENTS | _SCALARS, min_size=1, max_size=3) | _JSON,
        "descending": st.lists(_ELEMENTS | _SCALARS, max_size=3) | _JSON,
    }),
    "config": st.fixed_dictionaries(
        {"kind": st.sampled_from(GENERATOR_KINDS)},
        optional={key: _JSON for key in _CONFIG_KEYS},
    ),
    "function": st.fixed_dictionaries(
        {"values": st.dictionaries(_INDEX_TEXT, _SCALARS, max_size=4) | _JSON}),
    "model": st.fixed_dictionaries({"carrier": st.lists(_INDEX_TEXT, max_size=4) | _JSON,
                                    "dense": st.lists(_INDEX_TEXT, max_size=4) | _JSON}),
}
_SMALL = st.integers(-1, 8)
_VALID_CONFIGS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("initial-chain"), "seed": _SMALL,
                           "ground_size": _SMALL, "count": _SMALL}),
    st.fixed_dictionaries({"kind": st.just("initial-chain"),
                           "points": st.lists(_INDEX_TEXT, max_size=3),
                           "X": st.lists(_INDEX_TEXT, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("marciszewski"), "depth": _SMALL, "seed": _SMALL,
                           "count": _SMALL}),
    st.fixed_dictionaries({"kind": st.just("marciszewski"), "depth": _SMALL,
                           "xs": st.lists(st.text("01", max_size=10), max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("perturbed"), "seed": _SMALL, "ground_size": _SMALL,
                           "count": _SMALL, "flips": _SMALL}),
    st.fixed_dictionaries({"kind": st.just("sign-matrix"), "seed": _SMALL,
                           "ground_size": _SMALL, "count": _SMALL}),
    st.fixed_dictionaries({"kind": st.just("sign-matrix"), "Y": st.lists(_INDEX_TEXT, max_size=2),
                           "rows": st.lists(st.lists(_SMALL | _INDEX_TEXT, max_size=3),
                                            max_size=2)}),
)


@st.composite
def _valid_gap(draw):
    size = draw(st.integers(1, 6))
    towers = st.lists(st.lists(st.integers(0, size - 1), max_size=size), max_size=3)
    return {"ground_size": size, "ascending": draw(towers), "descending": draw(towers)}


@st.composite
def cli_documents(draw, kind):
    """Raw bytes per document kind, all valid but `kind`: that one is valid, shaped,
    a JSON scalar, any JSON or not UTF-8.

    The valid family is barely alternating, and the valid model and function
    are built on its indices, so that `triples` and `operator` run to the end;
    the valid gap instance and generator config may still break a budget or a
    generator's own preconditions.
    """
    fam = draw(barely_alternating_families(max_ground=6, max_indices=6))
    points = [format_index(x) for x in fam.indices]
    carrier = points + ["2/1"]
    values = draw(st.lists(st.integers(-3, 3), min_size=len(carrier), max_size=len(carrier)))
    docs = {
        "family": family_to_text(fam),
        "gap": json.dumps(draw(_valid_gap())),
        "config": json.dumps(draw(_VALID_CONFIGS)),
        "function": json.dumps({"values": {p: f"{v}/1" for p, v in zip(carrier, values)}}),
        "model": json.dumps({"carrier": carrier, "dense": points}),
    }
    docs = {k: text.encode() for k, text in docs.items()}
    form = draw(st.sampled_from(["valid", "shaped", "scalar", "json", "bytes"]))
    if form == "bytes":
        docs[kind] = b"\xff" + draw(st.binary(max_size=6))
    elif form != "valid":
        value = {"shaped": _SHAPED[kind], "scalar": _SCALARS, "json": _JSON}[form]
        docs[kind] = json.dumps(draw(value)).encode()
    return docs


@pytest.mark.parametrize("kind", ["family", "gap", "config", "function", "model"])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_main_never_raises_on_any_document(kind, data):
    docs = data.draw(cli_documents(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for name, raw in docs.items():
            path[name] = str(Path(tmp, f"{name}.json"))
            Path(path[name]).write_bytes(raw)
        fam, out = path["family"], str(Path(tmp, "adjusted.json"))
        runs = [
            ("check", "--input", fam),
            *(("adjust", "--input", fam, "--order", order, "--output", out)
              for order in ("sorted", "given", "random")),
            ("compat", "--input", fam, "--input", fam),
            ("compat", "--input", fam, "--input", out),
            ("gap", "--input", path["gap"]),
            ("gap", "--input", path["gap"], "--budget", "6"),
            ("triples", "--input", fam),
            ("triples", "--input", fam, "--model", path["model"]),
            ("operator", "--input", fam),
            ("operator", "--input", fam, "--model", path["model"]),
            ("operator", "--input", fam, "--function", path["function"]),
            ("operator", "--input", fam, "--model", path["model"],
             "--function", path["function"]),
            ("generate", "--config", path["config"]),
        ]
        for argv in (argv for argv in runs if path[kind] in argv):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(list(argv))
            err = stderr.getvalue()
            assert code in (0, 1), argv
            if code:
                assert err.count("\n") == 1, (argv, err)
                assert err.startswith("input-error:"), (argv, err)
            else:
                assert err == "", (argv, err)
