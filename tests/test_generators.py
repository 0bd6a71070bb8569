"""Generator constructions: worked values, invariants, determinism, config ingestion."""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from chainlab import core, generators
from chainlab.core import (
    MAX_FAMILY_BITS,
    MAX_FAMILY_SIZE,
    MAX_INDEX_DIGITS,
    ChainFamily,
    GroundSet,
    InputError,
    chain_witness,
    iter_bits,
    validate_almost_chain,
)
from chainlab.generators import (
    _excluded,
    check_count,
    check_family_bits,
    dyadic_ground,
    family_from_config,
    from_sign_matrix,
    generator_config_from_text,
    initial_segment_chain,
    marciszewski_family,
    perturbed_chain,
    random_bit_indices,
    sample_cut_indices,
)

from oracles import (
    brute_defect_report,
    brute_excluded_dyadics,
    flagged_sizes,
    uniform_positions,
    word_value,
)


def test_initial_segment_chain_frozen():
    fam = initial_segment_chain(
        [F(1, 8), F(3, 8), F(5, 8)], [F(1, 4), F(1, 2), F(3, 4)]
    )
    assert [tuple(iter_bits(m)) for m in fam.masks] == [(0,), (0, 1), (0, 1, 2)]
    assert chain_witness(fam) is None


def test_initial_segment_chain_below_all_positions():
    fam = initial_segment_chain([F(1, 2), F(3, 4)], [F(1, 8), F(1, 4)])
    assert all(m == 0 for m in fam.masks)


def test_initial_segment_chain_errors():
    with pytest.raises(InputError):
        initial_segment_chain([F(1, 2)], [F(1, 2)])  # cut hits a position
    with pytest.raises(InputError):
        initial_segment_chain([F(1, 2)], [F(3, 4), F(1, 4)])  # unsorted cuts
    with pytest.raises(InputError):
        initial_segment_chain([], [F(1, 2)])  # empty ground


@pytest.mark.parametrize("build, own_checks", [
    (lambda: initial_segment_chain([F(5, 8), F(1, 8), F(3, 8)], [F(1, 4), F(1, 2), F(3, 4)]),
     ["cut indices"]),
    (lambda: family_from_config(
        {"kind": "initial-chain", "points": ["1/8", "3/8"], "X": ["1/4", "1/2", "3/4"]}),
     ["cut indices"]),
    (lambda: family_from_config(
        {"kind": "sign-matrix", "seed": 4, "ground_size": 40, "count": 30}), []),
    (lambda: from_sign_matrix([F(3, 4), F(1, 2)], [[-1, 2, F(-3)], [0, F(-1, 2), -1]]),
     ["indices", "mask", "mask"]),
], ids=["initial_segment_chain", "initial-chain-config", "seeded-sign-matrix", "from_sign_matrix"])
def test_initial_and_seeded_sign_families_are_checked_once(build, own_checks, monkeypatch):
    # The generator checks its cut order itself (the seeded draws are sorted)
    # and builds only masks inside the ground, so the family is built without
    # the constructor's second order check or its mask checks.  A sign family's
    # elements are enumerated from the ground, so none is checked against it;
    # the matrix's family is checked once, by the constructor.
    calls = []
    check_increasing = core.check_increasing

    def counted(values, noun):
        calls.append(noun)
        check_increasing(values, noun)

    monkeypatch.setattr(core, "check_increasing", counted)
    monkeypatch.setattr(generators, "check_increasing", counted)
    monkeypatch.setattr(GroundSet, "check_mask", lambda *args: calls.append("mask"))
    monkeypatch.setattr(GroundSet, "check_element", lambda *args: calls.append("element"))
    fam = build()
    monkeypatch.undo()
    assert calls == own_checks
    assert len(fam) > 1 and ChainFamily(*fam) == fam


def test_initial_segment_chain_is_always_a_chain():
    rng = random.Random(808)
    for _ in range(50):
        size = rng.randint(1, 64)
        points = sorted(
            F(v, 2048) for v in rng.sample(range(1, 2048, 2), size)
        )
        cuts = sample_cut_indices(rng, size, rng.randint(0, 50))
        cuts = tuple(x for x in cuts if x not in set(points))
        assert chain_witness(initial_segment_chain(points, cuts)) is None


# OR-ing in one element at a time copies the growing mask every time, so one
# cut above N positions costs O(N^2 / 64) word operations: 4x the ground then
# took about 10x as long, where a linear build takes about 4x.
def test_initial_segment_chain_is_linear_in_the_ground():
    def build(size):
        positions, cut = tuple(range(size)), (size,)
        seconds = []
        for _ in range(2):
            start = time.perf_counter()
            fam = initial_segment_chain(positions, cut)
            seconds.append(time.perf_counter() - start)
        assert fam.masks == ((1 << fam.ground.size) - 1,)
        return min(seconds)

    small, large = build(1 << 16), build(1 << 18)
    assert large < 1.0 and large < 6 * small + 0.02

def test_dyadic_ground_enumeration():
    # Element n is the dyadic (n+1)/8: the largest ground point below (n+1)/8 + 1/16.
    assert dyadic_ground(3).size == 7
    for n in range(7):
        x = format(n + 1, "03b") + "1"
        assert word_value(x) == F(n + 1, 8) + F(1, 16)
        assert marciszewski_family([x], 3).masks[0].bit_length() == n + 1
    with pytest.raises(InputError, match="depth must be a positive integer, got 0"):
        dyadic_ground(0)
    with pytest.raises(InputError, match="got True"):
        dyadic_ground(True)  # a bool is not an exact int depth


def test_excluded_dyadics_frozen_example():
    # word 0,1,1,0,1: the step at the second bit truncates to 0 and is
    # dropped; the other two steps give 0.010 = 1/4 and 0.01100 = 3/8
    excluded = _excluded(int("01101", 2))
    assert tuple(iter_bits(excluded)) == (7, 11)
    assert tuple(F(n + 1, 32) for n in iter_bits(excluded)) == (F(1, 4), F(3, 8))
    assert brute_excluded_dyadics("01101", 5) == (F(1, 4), F(3, 8))


def test_excluded_dyadics_all_zero_prefix():
    x = "0000001"
    assert _excluded(int(x[:6], 2)) == 0
    assert brute_excluded_dyadics(x, 6) == ()
    fam = marciszewski_family([x], 6)
    assert fam.masks[0] == 0  # the index sits below every ground point


def test_marciszewski_rejects_bad_indices():
    with pytest.raises(InputError, match="length 3 is shorter than depth 4"):
        marciszewski_family(["011"], 4)
    with pytest.raises(InputError, match="3/8 is a depth-4 dyadic"):
        marciszewski_family(["0110"], 4)
    with pytest.raises(InputError, match="13/32 is a depth-5 dyadic"):
        marciszewski_family(["01101"], 5)
    with pytest.raises(InputError, match="duplicate index value 27/64"):
        marciszewski_family(["011011", "0110110"], 5)  # one value, two spellings


@pytest.mark.parametrize(
    "word, message",
    [
        (5, "bit word must be nonempty over 0/1, got 5"),
        ("", "bit word must be nonempty over 0/1, got ''"),
        ("012", "bit word must be nonempty over 0/1, got '012'"),
        ("0-1", "bit word must be nonempty over 0/1, got '0-1'"),
        (True, "bit word must be nonempty over 0/1, got True"),
        (["0", "1"], "bit word must be nonempty over 0/1, got ['0', '1']"),
        (b"01", "bit word must be nonempty over 0/1, got b'01'"),
        ("1" * (MAX_INDEX_DIGITS + 1),
         f"bit word of {MAX_INDEX_DIGITS + 1} bits exceeds the cap {MAX_INDEX_DIGITS}"),
    ],
    ids=["int", "empty", "digit-2", "minus", "bool", "list", "bytes", "over-the-cap"],
)
def test_bit_words_are_nonempty_binary_strings_under_the_cap(word, message):
    with pytest.raises(InputError) as info:
        marciszewski_family(["0101", word], 3)
    assert str(info.value) == message


@pytest.mark.parametrize("depth", [0, 21, True, "3"])
def test_a_bad_word_is_named_before_a_bad_depth(depth):
    word_error = "bit word must be nonempty over 0/1, got '0120'"
    with pytest.raises(InputError, match=word_error):
        marciszewski_family(["0101", "0120"], depth)
    config = {"kind": "marciszewski", "depth": depth, "xs": ["0101", "0120"]}
    with pytest.raises(InputError, match=word_error):
        family_from_config(config)
    # Every word is checked before the depth, and the depth before each word's value.
    with pytest.raises(InputError, match="positive integer|puts the ground above the cap"):
        marciszewski_family(["0101", "0"], depth)


def test_marciszewski_reads_its_words_in_one_pass():
    xs = random_bit_indices(random.Random(31), 6, 24)
    assert marciszewski_family((x for x in xs), 6) == marciszewski_family(xs, 6)


def test_marciszewski_defects_fit_depth_budget():
    rng = random.Random(99)
    for depth in (3, 5, 8):
        xs = random_bit_indices(rng, depth, min(20, (1 << depth) - 1))
        fam = marciszewski_family(xs, depth)
        assert not validate_almost_chain(fam, depth).flagged_rows


def test_marciszewski_defects_sit_in_the_excluded_set():
    rng = random.Random(5)
    depth = 6
    xs = random_bit_indices(rng, depth, 12)
    fam = marciszewski_family(xs, depth)
    heads = {word_value(x): int(x[:depth], 2) for x in xs}
    for i, j in combinations(range(len(fam)), 2):
        assert fam.masks[i] & ~fam.masks[j] & ~_excluded(heads[fam.indices[j]]) == 0


def test_marciszewski_matches_per_element_oracle():
    rng = random.Random(6)
    depth = 5
    xs = random_bit_indices(rng, depth, 10)
    fam = marciszewski_family(xs, depth)
    by_value = {word_value(x): x for x in xs}
    for v, m in zip(fam.indices, fam.masks):
        banned = set(brute_excluded_dyadics(by_value[v], depth))
        points = [F(n + 1, 1 << depth) for n in range((1 << depth) - 1)]
        expected = tuple(n for n, p in enumerate(points) if p < v and p not in banned)
        assert tuple(iter_bits(m)) == expected


def test_min_edit_oracle_agrees_with_full_enumeration():
    # per-element minimisation is validated against enumerating every chain
    # over the same indices and ground (traces vary independently per element)
    from itertools import product

    from oracles import build_family, min_chain_edit_distance

    fam = build_family(["010", "110"])
    monotone = ["000", "001", "011", "111"]
    best = None
    for t0, t1 in product(monotone, repeat=2):
        candidate = build_family([t0, t1])
        dist = sum(
            (a ^ b).bit_count() for a, b in zip(fam.masks, candidate.masks)
        )
        best = dist if best is None else min(best, dist)
    assert min_chain_edit_distance(fam) == best == 2


def test_marciszewski_needs_genuine_modification():
    # exhaustive lower bound: small dyadic instances are not finite
    # adjustments of any chain at zero cost, and the required edits grow
    # with depth; adjustment cost can never undercut the bound because the
    # adjusted family is itself a chain
    from chainlab.adjust import adjust_family
    from oracles import min_chain_edit_distance

    rng = random.Random(14)
    floors = []
    for depth in (3, 4, 5):
        xs = random_bit_indices(rng, depth, (1 << depth) - 1)
        fam = marciszewski_family(xs, depth)
        floor = min_chain_edit_distance(fam)
        floors.append(floor)
        assert floor > 0
        _, report = adjust_family(fam)
        assert report.total_cost >= floor
    assert floors == sorted(floors)
    print(f"minimum chain-edit distances by depth 3..5: {floors}")


def test_perturbed_chain_zero_flips_is_the_plain_chain():
    cuts = sample_cut_indices(random.Random(1), 16, 8)
    fam = perturbed_chain(42, 16, cuts, 0)
    assert fam == initial_segment_chain(uniform_positions(16), cuts)
    assert chain_witness(fam) is None


def test_perturbed_chain_is_deterministic_and_flips_exactly():
    cuts = sample_cut_indices(random.Random(2), 16, 8)
    one = perturbed_chain(7, 16, cuts, 2)
    two = perturbed_chain(7, 16, cuts, 2)
    assert one == two
    assert perturbed_chain(8, 16, cuts, 2) != one
    base = initial_segment_chain(uniform_positions(16), cuts)
    for noisy, plain in zip(one.masks, base.masks):
        assert (noisy ^ plain).bit_count() == 2


def test_perturbed_chain_budget_observation():
    # Two flips per set tend to stay within a defect budget of 4; that is not
    # promised, so each verdict, at 4 and at 3, is the oracle's.
    for seed in range(20):
        cuts = sample_cut_indices(random.Random(seed + 100), 16, 8)
        fam = perturbed_chain(seed, 16, cuts, 2)
        for budget in (3, 4):
            report = validate_almost_chain(fam, budget)
            worst, over = brute_defect_report(fam, budget)
            assert (report.max_defect_size, flagged_sizes(report)) == (worst, list(over.items()))


def test_perturbed_chain_errors():
    cuts = sample_cut_indices(random.Random(3), 8, 4)
    with pytest.raises(InputError):
        perturbed_chain(0, 8, cuts, -1)
    with pytest.raises(InputError):
        perturbed_chain(0, 8, cuts, 9)


def test_sign_matrix_of_differences_is_the_initial_segment_chain():
    rng = random.Random(12)
    size = 12
    points = list(uniform_positions(size))
    cuts = sample_cut_indices(rng, size, 6)
    rows = [[p - y for p in points] for y in cuts]
    assert from_sign_matrix(cuts, rows) == initial_segment_chain(points, cuts)


def test_sign_matrix_positive_matrix_gives_empty_sets():
    fam = from_sign_matrix([F(1, 3), F(2, 3)], [[1, 1, 1], [1, 1, 1]])
    assert all(m == 0 for m in fam.masks)


def test_sign_matrix_random_signs_judged_by_the_validator():
    rng = random.Random(13)
    ys = sample_cut_indices(rng, 8, 5)
    rows = [[rng.choice((-1, 1)) for _ in range(8)] for _ in ys]
    fam = from_sign_matrix(ys, rows)
    report = validate_almost_chain(fam, 2)
    worst, over = brute_defect_report(fam, 2)
    assert (report.max_defect_size, flagged_sizes(report)) == (worst, list(over.items()))
    assert worst > 2  # this seed's signs break the budget, so pairs are flagged


def test_sign_matrix_rejects_ragged_rows():
    with pytest.raises(InputError):
        from_sign_matrix([F(1, 2), F(2, 3)], [[1, -1], [1]])
    with pytest.raises(InputError):
        from_sign_matrix([F(1, 2)], [[1], [1]])


def test_sample_cut_indices_avoid_uniform_positions():
    rng = random.Random(21)
    for size, count in ((4, 0), (4, 3), (4, 11), (16, 40)):
        cuts = sample_cut_indices(rng, size, count)
        assert len(cuts) == count == len(set(cuts))
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert not set(cuts) & set(uniform_positions(size))


def test_count_cap():
    check_count(0)
    check_count(MAX_FAMILY_SIZE)
    # depth 9 words have 9 + 8 bits, so exactly 2^16 distinct ones exist
    assert len(random_bit_indices(random.Random(3), 9, MAX_FAMILY_SIZE)) == MAX_FAMILY_SIZE
    over = f"count {MAX_FAMILY_SIZE + 1} exceeds the cap {MAX_FAMILY_SIZE}"
    for draw in (sample_cut_indices, random_bit_indices):
        with pytest.raises(InputError, match=over):
            draw(random.Random(3), 9, MAX_FAMILY_SIZE + 1)
        with pytest.raises(InputError, match="count must be non-negative, got -1"):
            draw(random.Random(3), 9, -1)


def test_random_bit_indices_are_usable():
    rng = random.Random(23)
    xs = random_bit_indices(rng, 5, 12)
    assert len({word_value(x) for x in xs}) == 12
    for x in xs:
        assert len(x) == 13
        assert (word_value(x) * 32).denominator > 1
    marciszewski_family(xs, 5)


def test_generator_configs_round_trip():
    explicit = {
        "kind": "initial-chain",
        "points": ["1/8", "3/8", "5/8"],
        "X": ["1/4", "1/2", "3/4"],
    }
    fam = family_from_config(explicit)
    assert [tuple(iter_bits(m)) for m in fam.masks] == [(0,), (0, 1), (0, 1, 2)]
    seeded = {"kind": "perturbed", "seed": 5, "ground_size": 12, "count": 4, "flips": 1}
    assert family_from_config(seeded) == family_from_config(dict(seeded))
    marc = {"kind": "marciszewski", "depth": 4, "xs": ["01011", "10111"]}
    assert len(family_from_config(marc)) == 2
    sign = {"kind": "sign-matrix", "Y": ["1/3", "2/3"], "rows": [["-1/2", 1], [1, 1]]}
    assert tuple(iter_bits(family_from_config(sign).masks[0])) == (0,)


def test_generator_configs_reject_bad_shapes():
    with pytest.raises(InputError):
        generator_config_from_text('{"kind": "mystery"}')
    with pytest.raises(InputError):
        generator_config_from_text("[]")
    with pytest.raises(InputError):
        family_from_config({"kind": "perturbed", "ground_size": 8, "flips": 1})
    with pytest.raises(InputError):
        family_from_config(
            {"kind": "marciszewski", "depth": 4, "xs": ["01011"], "count": 2}
        )
    with pytest.raises(InputError):
        family_from_config(
            {"kind": "initial-chain", "ground_size": 8, "count": 2, "extra": 1}
        )
    with pytest.raises(InputError, match="^cannot draw 257 distinct words of length 9$"):
        family_from_config({"kind": "marciszewski", "depth": 1, "count": 257})
    with pytest.raises(InputError, match="^config key 'count' must be an integer, got '3'$"):
        family_from_config({"kind": "perturbed", "ground_size": 8, "flips": 1, "count": "3"})
    # generator_config_from_text refuses an unknown kind first; a library caller can pass one.
    with pytest.raises(InputError, match="^unknown generator kind 'mystery'$"):
        family_from_config({"kind": "mystery"})


def test_the_bit_cap_admits_the_largest_measured_shape():
    assert MAX_FAMILY_BITS == 1 << 25
    check_family_bits(32, 1 << 20)
    check_family_bits(6400, 4096)
    with pytest.raises(InputError, match="^33 sets over 1048576 elements exceed the cap 33554432$"):
        check_family_bits(33, 1 << 20)
    fam = family_from_config({"kind": "initial-chain", "seed": 3, "ground_size": 4096,
                              "count": 6400})
    assert (len(fam), fam.ground.size) == (6400, 4096)


def test_explicit_cuts_over_the_bit_cap_are_refused_after_their_order():
    positions = range(1, (1 << 20) + 1)  # any increasing sequence of exact positions
    cuts = [F(2 * i + 1, 2) for i in range(33)]
    start = time.perf_counter()
    with pytest.raises(InputError, match="^33 sets over 1048576 elements exceed the cap"):
        initial_segment_chain(positions, cuts)
    with pytest.raises(InputError, match="^33 sets over 1048576 elements exceed the cap"):
        perturbed_chain(5, 1 << 20, cuts, 0)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(InputError, match="^cut indices not strictly increasing at 1/2 >= 1/2$"):
        initial_segment_chain(positions, cuts[:1] * 33)
    with pytest.raises(InputError, match="^cannot flip 1048577 distinct bits"):
        perturbed_chain(5, 1 << 20, cuts, (1 << 20) + 1)
