"""Constructors for concrete families: worked examples and seeded test fodder.

Three shapes matter in practice.  Initial-segment chains ({n : p_n < x}) are
the canonical nested families.  The dyadic construction keyed by binary
expansions produces genuine almost chains that are not chains: each index
omits the truncations of its own expansion sitting just below it, so lower
indices keep elements that higher ones drop.  Seeded perturbations and
sign-matrix ingestion supply reproducible noisy instances for the checkers
and the adjuster.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    MAX_FAMILY_BITS,
    MAX_FAMILY_SIZE,
    MAX_GROUND_SIZE,
    MAX_INDEX_DIGITS,
    ChainFamily,
    GroundSet,
    IndexValue,
    InputError,
    _mask_of,
    check_increasing,
    parse_index,
    parse_index_list,
    parse_json,
)


def dyadic_ground(depth: int) -> GroundSet:
    """The ground of the dyadics k/2^depth inside (0, 1), in order: 2^depth - 1 points."""
    if type(depth) is not int or depth < 1:
        raise InputError(f"depth must be a positive integer, got {depth!r}")
    if depth >= (MAX_GROUND_SIZE + 1).bit_length():
        raise InputError(f"depth {depth} puts the ground above the cap {MAX_GROUND_SIZE}")
    return GroundSet((1 << depth) - 1)


def check_bit_words(words: Iterable[str]) -> tuple[str, ...]:
    """The words, each a nonempty string of binary digits 0.b1 b2 ... bL within the cap."""
    words = tuple(words)
    for w in words:
        if not isinstance(w, str) or not w or set(w) - {"0", "1"}:
            raise InputError(f"bit word must be nonempty over 0/1, got {w!r}")
        if len(w) > MAX_INDEX_DIGITS:
            raise InputError(f"bit word of {len(w)} bits exceeds the cap {MAX_INDEX_DIGITS}")
    return words


def _excluded(head: int) -> int:
    """Mask of the excluded truncations of a word whose first `depth` bits read `head`.

    Scaled by 2^depth, the truncation t before a 1-bit is `head` with that
    bit and all below it cleared: ground point t - 1.  The one before the
    top 1-bit is 0, outside the ground.
    """
    excluded = 0
    t = head & (head - 1)
    while t:
        excluded |= 1 << (t - 1)
        t &= t - 1
    return excluded


def initial_segment_chain(
    points: Sequence[IndexValue], cut_indices: Sequence[IndexValue]
) -> ChainFamily:
    """Family A_x = {n : p_n < x} over ground positions p_n; always a chain.

    The positions are sorted once and merged with the cuts: each cut's set
    is the previous one plus the elements the walk passes, so the work is
    one sort plus at most N + k order comparisons and k equality tests.
    The passed elements are OR-ed in as one mask, built over their span.
    """
    positions = tuple(points)
    ground = GroundSet(len(positions))
    xs = tuple(cut_indices)
    check_increasing(xs, "cut indices")
    check_family_bits(len(xs), ground.size)
    ranked = sorted(range(ground.size), key=positions.__getitem__)
    masks = []
    mask = below = 0
    for x in xs:
        start = below
        while below < ground.size and positions[ranked[below]] < x:
            below += 1
        if below < ground.size and positions[ranked[below]] == x:
            raise InputError(f"cut index {x} coincides with a ground position")
        mask |= _mask_of(ranked[start:below])
        masks.append(mask)
    return ChainFamily._trusted(ground, xs, tuple(masks))  # masks of ranks below N


def marciszewski_family(words: Iterable[str], depth: int) -> ChainFamily:
    """Family A'_x = {q in ground : q < x, q not an excluded truncation of x}.

    Each x is a bit word 0.b1 b2 ... bL over the ground `dyadic_ground(depth)`.
    Every word's shape is checked first, then the depth, then each word on
    its own, then the size cap.  Each word must carry at least `depth` bits
    and must not itself be a dyadic of depth <= `depth`, so that every
    comparison with a ground point is strict.  The words are read in integer
    arithmetic.  With its trailing zeros dropped, a word names its value
    exactly and sorts as it does; read as the integer w of L bits, the ground
    points below it are the first `w >> (L - depth)`.  Each index becomes one
    Fraction at the end.
    """
    words = check_bit_words(words)
    ground = dyadic_ground(depth)
    heads: dict[str, int] = {}  # word without trailing zeros -> its first depth bits
    for digits in words:
        if len(digits) < depth:
            raise InputError(f"bit word of length {len(digits)} is shorter than depth {depth}")
        word = digits.rstrip("0")
        if len(word) <= depth:  # no 1-bit past the first depth: x is on the grid
            raise InputError(f"{_word_value(digits)} is a depth-{depth} dyadic; "
                             "comparisons would be ambiguous")
        if word in heads:
            raise InputError(f"duplicate index value {_word_value(digits)}")
        heads[word] = int(word, 2) >> (len(word) - depth)
    check_family_bits(len(heads), ground.size)
    ordered = sorted(heads)
    masks = (((1 << head) - 1) ^ _excluded(head) for head in map(heads.__getitem__, ordered))
    # Distinct words sort as their values, and each mask lies below 2^depth - 1.
    return ChainFamily._trusted(ground, tuple(map(_word_value, ordered)), tuple(masks))


def _word_value(word: str) -> IndexValue:
    """The value of the bit word 0.b1 b2 ... bL."""
    return Fraction(int(word, 2), 1 << len(word))


def uniform_segment_masks(size: int, xs: Sequence[IndexValue]) -> list[int]:
    """The masks of `initial_segment_chain` over positions (n+1)/(size+1), in closed form.

    With scaled, rem = divmod(p*(size+1), q), the positions m/(size+1) below
    a cut p/q are those with 1 <= m <= scaled, except that a zero rem puts
    the cut on position `scaled`: an error when that is one of 1..size.  The
    size cap is checked after every cut and before any mask is built.
    """
    check_increasing(xs, "cut indices")
    below = []
    for x in xs:
        scaled, rem = divmod(x.numerator * (size + 1), x.denominator)
        if rem == 0 and 1 <= scaled <= size:
            raise InputError(f"cut index {x} coincides with a ground position")
        below.append(min(max(scaled, 0), size))
    check_family_bits(len(xs), size)
    return [(1 << m) - 1 for m in below]


def check_count(count: int) -> None:
    """Refuse a count of indices below 0 or above MAX_FAMILY_SIZE."""
    if count < 0:
        raise InputError(f"count must be non-negative, got {count}")
    if count > MAX_FAMILY_SIZE:
        raise InputError(f"count {count} exceeds the cap {MAX_FAMILY_SIZE}")


def check_family_bits(count: int, size: int) -> None:
    """Refuse `count` sets over a ground of `size` above MAX_FAMILY_BITS in all."""
    if count * size > MAX_FAMILY_BITS:
        raise InputError(f"{count} sets over {size} elements exceed the cap {MAX_FAMILY_BITS}")


def check_flips(flips: int, size: int) -> None:
    """Refuse a per-set flip count below 0 or above the ground size."""
    if flips < 0:
        raise InputError(f"flips_per_set must be non-negative, got {flips}")
    if flips > size:
        raise InputError(f"cannot flip {flips} distinct bits in a ground of {size}")


def sample_cut_indices(rng: random.Random, size: int, count: int) -> tuple[IndexValue, ...]:
    """Draw `count` distinct cut indices that avoid the uniform positions.

    Values come from an odd-numerator grid (2r+1)/(2T(size+1)), so they can
    never equal any (n+1)/(size+1).
    """
    check_count(count)
    repeats = max(1, -(-count // (size + 1)))  # ceil
    slots = repeats * (size + 1)
    draws = rng.sample(range(slots), count)
    return tuple(Fraction(2 * r + 1, 2 * slots) for r in sorted(draws))


def random_bit_indices(rng: random.Random, depth: int, count: int) -> tuple[str, ...]:
    """Draw distinct bit words of length depth+8, final bit forced to 1.

    The forced tail bit keeps every value off the depth-`depth` dyadic grid.
    """
    check_count(count)
    length = depth + 8
    if count > (1 << (length - 1)):
        raise InputError(f"cannot draw {count} distinct words of length {length}")
    prefixes = rng.sample(range(1 << (length - 1)), count)
    return tuple(format(2 * p + 1, f"0{length}b") for p in prefixes)


def perturbed_chain(
    seed: int, size: int, cut_indices: Sequence[IndexValue], flips_per_set: int
) -> ChainFamily:
    """Initial-segment chain over uniform positions with seeded bit flips.

    Exactly `flips_per_set` distinct elements are toggled in each set, in
    index order, so the output is a deterministic function of its arguments.
    """
    check_flips(flips_per_set, size)
    ground, xs = GroundSet(size), tuple(cut_indices)
    rng = random.Random(seed)
    flipped = []
    for mask in uniform_segment_masks(size, xs):
        for n in rng.sample(range(size), flips_per_set):
            mask ^= 1 << n
        flipped.append(mask)
    # The cuts were checked in order and every flip lies in the ground.
    return ChainFamily._trusted(ground, xs, tuple(flipped))


def from_sign_matrix(
    indices: Sequence[IndexValue], rows: Sequence[Sequence[Fraction]]
) -> ChainFamily:
    """Family A_y = {n : h(y, n) < 0} from a dense matrix of rationals."""
    if len(indices) != len(rows):
        raise InputError(f"{len(indices)} indices but {len(rows)} matrix rows")
    if not rows:
        raise InputError("sign matrix has no rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"matrix is ragged, row lengths {sorted(widths)}")
    ground = GroundSet(widths.pop())
    negative = (_mask_of([n for n, v in enumerate(row) if v < 0]) for row in rows)
    return ChainFamily.from_pairs(ground, zip(indices, negative))


# --- generator configs --------------------------------------------------------
#
# A generator config is a JSON object {"kind": ..., ...} naming one of the
# constructors above, either with explicit data or with (seed, sizes) for the
# seeded samplers.  Unknown kinds and unknown keys are rejected.

GENERATOR_KINDS = ("initial-chain", "marciszewski", "perturbed", "sign-matrix")


def _check_keys(cfg: dict, allowed: set[str], required: set[str]) -> None:
    keys = set(cfg)
    unknown = keys - allowed
    if unknown:
        raise InputError(f"unknown config keys {sorted(unknown)} for kind {cfg['kind']!r}")
    missing = required - keys
    if missing:
        raise InputError(f"missing config keys {sorted(missing)} for kind {cfg['kind']!r}")


def _int_field(cfg: dict, key: str, default: int | None = None) -> int:
    value = cfg.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _matrix_rows(rows) -> list[tuple[IndexValue | int, ...]]:
    """Matrix rows from a config: lists of exact ints or 'p/q' strings."""
    if not isinstance(rows, list):
        raise InputError(f"'rows' must be a list of lists, got {rows!r}")
    out = []
    for row in rows:
        if not isinstance(row, list):
            raise InputError(f"matrix row must be a list of values, got {row!r}")
        out.append(tuple(v if type(v) is int else parse_index(v) for v in row))
    return out


def generator_config_from_text(text: str) -> dict:
    cfg = parse_json(text, "generator config")
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise InputError("generator config must be an object with a 'kind' key")
    if cfg["kind"] not in GENERATOR_KINDS:
        raise InputError(f"unknown generator kind {cfg['kind']!r}")
    return cfg


def family_from_config(cfg: dict) -> ChainFamily:
    """Run the generator described by a validated config object."""
    kind = cfg.get("kind")
    if kind == "initial-chain":
        if "points" in cfg or "X" in cfg:
            _check_keys(cfg, {"kind", "points", "X"}, {"kind", "points", "X"})
            return initial_segment_chain(parse_index_list(cfg["points"]), parse_index_list(cfg["X"]))
        _check_keys(cfg, {"kind", "seed", "ground_size", "count"}, {"kind", "ground_size", "count"})
        ground = GroundSet(_int_field(cfg, "ground_size"))
        rng = random.Random(_int_field(cfg, "seed", 0))
        xs = sample_cut_indices(rng, ground.size, _int_field(cfg, "count"))
        return ChainFamily._trusted(ground, xs, tuple(uniform_segment_masks(ground.size, xs)))
    if kind == "marciszewski":
        if "xs" in cfg:
            _check_keys(cfg, {"kind", "depth", "xs"}, {"kind", "depth", "xs"})
            words = cfg["xs"]
            if not isinstance(words, list):
                raise InputError(f"'xs' must be a list of bit words, got {words!r}")
            # Checked before the depth is read, so a bad word is named first.
            return marciszewski_family(check_bit_words(words), _int_field(cfg, "depth"))
        _check_keys(cfg, {"kind", "depth", "seed", "count"}, {"kind", "depth", "count"})
        depth = _int_field(cfg, "depth")
        dyadic_ground(depth)  # refused before the seed and count are read
        rng = random.Random(_int_field(cfg, "seed", 0))
        return marciszewski_family(random_bit_indices(rng, depth, _int_field(cfg, "count")), depth)
    if kind == "perturbed":
        allowed = {"kind", "seed", "ground_size", "flips", "X", "count"}
        _check_keys(cfg, allowed, {"kind", "ground_size", "flips"})
        size = GroundSet(_int_field(cfg, "ground_size")).size
        seed = _int_field(cfg, "seed", 0)
        if "X" in cfg:
            xs = parse_index_list(cfg["X"])
        elif "count" in cfg:
            xs = sample_cut_indices(random.Random(seed ^ 0x5EED), size, _int_field(cfg, "count"))
        else:
            raise InputError("perturbed config needs either 'X' or 'count'")
        return perturbed_chain(seed, size, xs, _int_field(cfg, "flips"))
    if kind == "sign-matrix":
        if "rows" in cfg or "Y" in cfg:
            _check_keys(cfg, {"kind", "Y", "rows"}, {"kind", "Y", "rows"})
            return from_sign_matrix(parse_index_list(cfg["Y"]), _matrix_rows(cfg["rows"]))
        _check_keys(cfg, {"kind", "seed", "ground_size", "count"}, {"kind", "ground_size", "count"})
        ground = GroundSet(_int_field(cfg, "ground_size"))
        rng = random.Random(_int_field(cfg, "seed", 0))
        ys = sample_cut_indices(rng, ground.size, _int_field(cfg, "count"))
        check_family_bits(len(ys), ground.size)
        # Each entry h(y, n) is rng.choice((-1, 1)); n is in A_y when it drew -1.
        masks = (_mask_of([n for n in ground.elements() if rng.choice((True, False))])
                 for _ in ys)
        return ChainFamily._trusted(ground, ys, tuple(masks))  # sorted draws, masks in the ground
    raise InputError(f"unknown generator kind {kind!r}")
