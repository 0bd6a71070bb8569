"""Exact data model for finite almost chains of subsets of {0, ..., N-1}.

A family assigns to each index x (an exact rational) a subset A_x of a fixed
finite ground set.  The module provides the decision procedures on such
families: the chain property (sets increase with the index), the
barely-alternating property (no ground element enters, leaves, re-enters and
leaves again along the sorted indices), and the defect calculus that measures
how far a family is from being a chain.

All values are immutable after construction and all arithmetic is exact:
indices are `fractions.Fraction`, sets are int bit masks (bit n = element n)
everywhere, in and out of the library.  `ChainFamily(ground, indices, masks)`
holds one mask per index, and `chain_defect_set` returns a mask.
`GroundSet.check_mask` is the one check that a mask lies in the ground;
`mask_of` and `iter_bits` convert between element lists and masks.
`GroundSet` and `ChainFamily` are `NamedTuple` records whose `__new__` runs
the checks; library code that has just built a checked shape skips them with
`tuple.__new__` (`ChainFamily._trusted`).  A record, like any `NamedTuple`,
equals a plain tuple of the same fields.  Witnesses returned by the checkers
are lexicographically least (least ground element first, then least index
tuple), so every verdict is reproducible byte for byte.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, compress, count
from operator import lt, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

# Exact rational index of a set in a family.  Fraction already guarantees the
# lowest-terms, positive-denominator normal form and exact total order.
IndexValue = Fraction


class InputError(ValueError):
    """A precondition on caller-supplied data does not hold."""


# Largest accepted ground size: every set is a mask of this many bits.
MAX_GROUND_SIZE = 1 << 20
# Largest number of indices a generator is asked to draw for one family.
MAX_FAMILY_SIZE = 1 << 16
# Largest count times ground size, the bits of its masks, a generator is asked to build.
MAX_FAMILY_BITS = 1 << 25
# Most digits in the numerator or denominator of a parsed index or value: a
# signed sum of three such values prints within Python's 4300-digit limit.
MAX_INDEX_DIGITS = 1000
# Most pairs one `validate_almost_chain` call may flag over its budget, and most
# elements the sets of one `adjust_family` result may hold.
MAX_OUTPUT_ITEMS = 1 << 25

# A set of up to _TABLE_LINES digits with over this many elements per run edge (bit of
# m ^ (m << 1)) is written run by run: `iter_bits` walks such edges bit by bit.
_ELEMENTS_PER_EDGE = 64
# Most lines in the element-line table the writer copies runs from and the reader reads by.
_TABLE_LINES = 1 << 14
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative mask, in increasing order."""
    if _sparse(mask, mask.bit_count()):
        return _low_bits(mask)
    return compress(count(), _digit_flags(mask))


def _sparse(mask: int, held: int) -> bool:
    """Whether `_low_bits` beats `_digit_flags`: under 1 set bit per 64 of up to 2^14
    binary digits, or under 1 per 16 past them, where it walks by `str.rfind`.
    This 2^14 is that walk's threshold, not `_TABLE_LINES`."""
    return held * (64 if mask.bit_length() <= 1 << 14 else 16) < mask.bit_length()


def _digit_flags(mask: int) -> bytes:
    """Per binary digit, lowest first, 1 if set else 0."""
    return bin(mask)[:1:-1].encode("ascii").translate(_BIT_FLAGS)


def _low_bits(mask: int) -> Iterator[int]:
    """Set bits, lowest first.  A low-bit step copies the mask: wide ones walk `str.rfind`."""
    if mask.bit_length() > 1 << 14 and mask.bit_count() > 16:  # one C call per bit
        shift = (mask & -mask).bit_length() - 1  # the digits start at the lowest set bit
        digits = bin(mask >> shift)
        p = len(digits)
        last = p - 1 + shift  # bit `shift` is the last digit
        while (p := digits.rfind("1", 0, p)) >= 0:
            yield last - p
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(elements: Sequence[int]) -> int:
    """Mask of non-negative int elements, via a digit string over their span [min, max]."""
    if not elements:
        return 0
    low, top = min(elements), max(elements)
    digits = bytearray(b"0") * (top - low + 1)
    for n in elements:
        digits[top - n] = 49  # ord("1"); bit n is digit top-n
    return int(digits, 2) << low


def check_increasing(values: Sequence, noun: str) -> None:
    """Refuse values that do not strictly increase, naming the first pair that does not."""
    for a, b in zip(values, values[1:]):
        if not a < b:
            raise InputError(f"{noun} not strictly increasing at {a} >= {b}")


class GroundSet(NamedTuple("GroundSet", [("size", int)])):
    """The finite ground set {0, ..., size-1}; its subsets are int masks."""

    __slots__ = ()

    def __new__(cls, size: int) -> GroundSet:
        if type(size) is not int or size < 1:
            raise InputError(f"ground size must be a positive integer, got {size!r}")
        if size > MAX_GROUND_SIZE:
            raise InputError(f"ground size {size} exceeds the cap {MAX_GROUND_SIZE}")
        return tuple.__new__(cls, (size,))

    def elements(self) -> range:
        return range(self.size)

    def check_element(self, n: int) -> None:
        if type(n) is not int or not 0 <= n < self.size:
            raise InputError(f"element {n!r} outside ground range [0, {self.size})")

    def check_mask(self, m: int, what: str) -> None:
        """Refuse anything but an exact int mask of elements of this ground."""
        if type(m) is not int or m < 0 or m.bit_length() > self.size:
            raise InputError(f"{what} is not an int mask over ground size {self.size}")

    def mask_of(self, elements: Iterable[int]) -> int:
        """The mask of the given elements, each checked against the ground."""
        elems = list(elements)
        for n in elems:
            self.check_element(n)
        return _mask_of(elems)


class ChainFamily(NamedTuple("ChainFamily", [("ground", GroundSet),
                                             ("indices", tuple[IndexValue, ...]),
                                             ("masks", tuple[int, ...])])):
    """A finite family of sets, one mask per strictly increasing rational index.

    The type enforces only shape (sorted distinct indices, masks within the
    ground); whether the family is a chain or barely alternating is decided
    by the explicit checkers below, never assumed.
    """

    __slots__ = ()

    def __new__(
        cls, ground: GroundSet, indices: tuple[IndexValue, ...], masks: tuple[int, ...]
    ) -> ChainFamily:
        if len(indices) != len(masks):
            raise InputError(f"{len(indices)} indices but {len(masks)} masks")
        check_increasing(indices, "indices")
        for i, m in enumerate(masks):
            ground.check_mask(m, f"mask {i}")
        return tuple.__new__(cls, (ground, indices, masks))

    @classmethod
    def _trusted(cls, *values: object) -> ChainFamily:
        return tuple.__new__(cls, values)

    @classmethod
    def from_pairs(
        cls, ground: GroundSet, pairs: Iterable[tuple[IndexValue, int]]
    ) -> ChainFamily:
        """Build a family from (index, mask) pairs, sorting by index."""
        items = sorted(pairs, key=lambda p: p[0])
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise InputError(f"duplicate index {a}")
        return cls(ground, tuple(x for x, _ in items), tuple(m for _, m in items))

    def __len__(self) -> int:
        return len(self.indices)


class AlternationWitness(NamedTuple):
    """Least (n, x1 < x2 < x3 < x4) with n in A_x1, out of A_x2, in A_x3, out of A_x4."""

    n: int
    x1: IndexValue
    x2: IndexValue
    x3: IndexValue
    x4: IndexValue


class ChainWitness(NamedTuple):
    """Least (n, x < y) with n in A_x but not in A_y."""

    n: int
    x: IndexValue
    y: IndexValue


def _flipped(masks: Sequence[int], flips: int) -> int:
    """Mask of the elements whose trace, from a leading 0, flips at least `flips` times.

    seen[e] holds the elements that have flipped e times so far: odd flips
    are entries, even ones exits.  So an element gains at most one flip per
    index, as each level wants the opposite membership to the one below it.
    """
    seen = [-1] + [0] * flips
    for m in masks:
        for e in range(flips, 0, -1):
            seen[e] |= seen[e - 1] & (m if e & 1 else ~m)
    return seen[flips]


def _least_witness(family: ChainFamily, witness: type) -> tuple | None:
    """Least `witness` (F indices): the least element that flips F times, at its first F flips."""
    flips = len(witness._fields) - 1
    hits = _flipped(family.masks, flips)
    if hits == 0:
        return None
    bit = hits & -hits
    xs = []
    for x, m in zip(family.indices, family.masks):
        if bool(m & bit) != len(xs) & 1:  # in after an even number of flips, out after odd
            xs.append(x)
            if len(xs) == flips:
                break
    return witness(bit.bit_length() - 1, *xs)


def alternation_witness(family: ChainFamily) -> AlternationWitness | None:
    """Least witness that the family is not barely alternating, else None.

    The forbidden configuration is a ground element n and indices
    x1 < x2 < x3 < x4 with n in A_x1 \\ A_x2 and n in A_x3 \\ A_x4, i.e. the
    trace of n contains 1,0,1,0 as a subsequence.
    """
    return _least_witness(family, AlternationWitness)


def is_barely_alternating(family: ChainFamily) -> bool:
    return not _flipped(family.masks, 4)


def chain_witness(family: ChainFamily) -> ChainWitness | None:
    """Least witness that the sets are not inclusion-increasing, else None."""
    return _least_witness(family, ChainWitness)


class DefectReport(NamedTuple):
    """The largest pairwise defect of a family and the pairs over a budget.

    Over-budget pairs are kept as positions: (i, columns, sizes) per flagged
    row i, where bit j of the mask `columns` is set for each flagged pair (i, j)
    and `sizes` holds their defects in j order.
    """

    max_defect_size: int
    flagged_rows: tuple[tuple[int, int, tuple[int, ...]], ...]

    @property
    def flagged_pairs(self) -> tuple[tuple[int, int], ...]:
        """Position pairs (i, j) whose defect exceeds the budget, in row order."""
        return tuple((i, j) for i, columns, _ in self.flagged_rows for j in iter_bits(columns))


def validate_almost_chain(family: ChainFamily, budget: int) -> DefectReport:
    """Measure every pairwise defect |A_x \\ A_y| (x < y) against a budget.

    Over-budget pairs are reported with their defect size, in (x, y) order,
    not raised; a chain family yields max_defect_size 0.  Both row engines
    count intersections, as |A_x \\ A_y| = |A_x| - |A_x & A_y|.  For k sets of
    up to 2^B - 1 elements and T = sum |A_i ^ A_(i-1)| toggles, the vertical
    counters of `_counter_rows` run when 2 (12 T + k B) is under the k^2 / 2
    pairs that `_scan_rows` popcounts at most (it skips the rows that a triangle
    bound rules out, most of a near-chain's) and their k-bit columns, one per
    element that ever toggles, take at most four times the bits of the masks.
    Either engine refuses, as it builds the rows, more than MAX_OUTPUT_ITEMS
    flagged pairs.
    """
    if budget < 0:
        raise InputError(f"budget must be non-negative, got {budget}")
    masks = family.masks
    k = len(masks)
    changes = list(map(int.__xor__, (0, *masks), masks))
    width = max(map(int.bit_count, masks), default=0).bit_length()
    toggles = sum(map(int.bit_count, changes))
    columns = reduce(or_, changes, 0).bit_count() * k  # bits of the counters' columns
    if 4 * (12 * toggles + k * width) < k * k and columns <= 4 * sum(map(int.bit_length, masks)):
        worst, rows = _counter_rows(masks, budget, changes, width)
    else:
        del changes  # the scan reads only the masks
        worst, rows = _scan_rows(masks, budget)
    return DefectReport(worst, tuple(rows))


def _scan_rows(masks: tuple[int, ...], budget: int) -> tuple[int, list]:
    """Largest defect and flagged rows, one C-level popcount pass per row scanned.

    Rows go last to first under a bound on their largest defect: by the
    triangle inequality |A_i \\ A_j| <= |A_i \\ A_(i+1)| + |A_(i+1) \\ A_j|, and
    a scanned row's bound is its largest defect.  A row bounded within both
    the budget and the largest defect so far is skipped.
    """
    worst = bound = after = flagged = 0
    rows = []
    for i in reversed(range(len(masks))):
        a = masks[i]
        size = a.bit_count()
        bound = min(size, size - (a & after).bit_count() + bound)
        after = a
        if bound <= min(budget, worst):  # no flagged pair, no new maximum
            continue
        inside = list(map(int.bit_count, map(a.__and__, masks[i + 1:])))
        bound = size - min(inside, default=size)
        worst = max(worst, bound)
        if bound > budget:
            flags = bytes(map((size - budget).__gt__, inside))  # 1 where defect > budget
            columns = int(flags[::-1].translate(_FLAG_DIGITS), 2) << (i + 1)
            flagged = _tally(flagged, columns)
            rows.append((i, columns, tuple(map(size.__sub__, compress(inside, flags)))))
    rows.reverse()
    return worst, rows


def _counter_rows(masks: tuple[int, ...], budget: int, changes: list[int],
                  width: int) -> tuple[int, list]:
    """Largest defect and flagged rows from vertical counters over the columns j.

    Bit j of planes[b] is bit b of |A_i & A_j|.  Row i comes from row i-1 by
    subtracting the column (bit j set when n is in A_j) of each n in
    changes[i] = A_i ^ A_(i-1) that leaves and adding that of each n that
    enters, in element order.  A count midway is that of a set within A_j, so
    none exceeds |A_j| and `width` planes hold it.
    """
    everything = (1 << len(masks)) - 1
    columns: dict[int, int] = {}
    toggles = list(map(list, map(iter_bits, changes)))
    for i, ns in enumerate(toggles):
        for n in ns:
            columns[n] = columns.get(n, 0) ^ (everything >> i << i)
    planes = [0] * width
    worst = flagged = 0
    rows = []
    for i, (a, ns) in enumerate(zip(masks, toggles)):
        for n in ns:  # bit i of n's column: is n in A_i, so entering?
            _ripple(planes, columns[n], 0 if columns[n] >> i & 1 else everything)
        size = a.bit_count()
        later = left = everything >> (i + 1) << (i + 1)
        least, group = _least_count(planes, later)
        worst = max(worst, size - least)
        levels = []  # (mask, defect size) per level over the budget; the masks are disjoint
        while left and size - least > budget:
            levels.append((group, size - least))
            left ^= group
            least, group = _least_count(planes, left)
        if levels:  # the flagged columns are the later ones no longer left
            flagged = _tally(flagged, later ^ left)
            rows.append((i, later ^ left, _level_sizes(levels, later ^ left)))
    return worst, rows


def _level_sizes(levels: list[tuple[int, int]], columns: int) -> tuple[int, ...]:
    """The sizes, in column order, of disjoint levels (mask, size) within the mask `columns`.

    One byte per column, lowest first, names its level 1, 2, ...; a column in
    no level is a zero byte and is dropped.
    """
    if len(levels) == 1:
        return (levels[0][1],) * levels[0][0].bit_count()
    if len(levels) > 255:  # too many to name in a byte: look each column's size up
        size_of = {j: d for g, d in levels for j in iter_bits(g)}
        return tuple(map(size_of.__getitem__, sorted(size_of)))
    named = sum(n * int.from_bytes(_digit_flags(g), "little") for n, (g, _) in enumerate(levels, 1))
    table = (None, *(d for _, d in levels))
    return tuple(map(table.__getitem__,
                     named.to_bytes(columns.bit_length(), "little").translate(None, b"\0")))


def _tally(listed: int, mask: int, what: str = "pairs over the budget") -> int:
    """The count of items listed so far with those of `mask`, refused past the output cap."""
    listed += mask.bit_count()
    if listed > MAX_OUTPUT_ITEMS:
        raise InputError(f"{what} exceed the output cap {MAX_OUTPUT_ITEMS}")
    return listed


def _ripple(planes: list[int], column: int, flip: int) -> None:
    """Add (flip 0) or subtract (flip all ones) a 0/1 column, stopping with the carry."""
    for b, p in enumerate(planes):
        planes[b] = p ^ column
        column &= p ^ flip  # the carry, or borrow, out of plane b
        if not column:
            return


def _least_count(planes: list[int], columns: int) -> tuple[int, int]:
    """The least count among the columns and those that reach it, top plane down."""
    least = 0
    for b in reversed(range(len(planes))):
        zeros = columns & ~planes[b]
        if zeros:
            columns = zeros
        else:
            least |= 1 << b
    return least, columns


def chain_defect_set(family: ChainFamily) -> int:
    """Mask of the least set D whose removal from every member makes the family a chain.

    Equals the union of A_x \\ A_y over all index pairs x < y; an element
    belongs to D exactly when its trace ever goes from 1 to 0, that is, when
    it flips twice, in and then out.
    """
    return _flipped(family.masks, 2)


# --- textual family format ---------------------------------------------------
#
# A family is stored as a JSON document
#   {"ground_size": N, "entries": [{"index": "p/q", "set": [n0, n1, ...]}, ...]}
# with entries sorted by index and each set listed in increasing order.  The
# writer is canonical, so write -> parse -> write is byte-identical.  Its
# layout is the pieces below: _DOC_HEAD, N, _ENTRIES, the entries joined by
# commas, _DOC_CLOSE; an entry is _ENTRY_HEAD, the index, _SET_HEAD, the
# element lines (_LINE, then digits) joined by commas, _SET_CLOSE.  An empty
# list closes unindented (`.lstrip()`).  The writer copies a set of runs
# averaging over 2 * _ELEMENTS_PER_EDGE elements one table slice per run.  In
# text laid out exactly so, the reader reads such a set back run by run
# (`_run_pair`) while its runs keep that average, two short ones aside.  At any
# doubt the set goes to the hooked decode, and text in any other layout is
# decoded in one go.

_DOC_HEAD = '{\n  "ground_size": '
_ENTRIES = ',\n  "entries": ['
_ENTRY_HEAD = '\n    {\n      "index": "'
_SET_HEAD = '",\n      "set": ['
_LINE = "\n        "
_SET_CLOSE = "\n      ]\n    }"
_DOC_CLOSE = "\n  ]\n}\n"
_HEAD_RE = re.compile(f"{re.escape(_DOC_HEAD)}([1-9][0-9]*){re.escape(_ENTRIES)}")
_LINE_RE = re.compile(f"{re.escape(_LINE)}([0-9]+)")
_INDEX_RE = re.compile(r"(-?)([0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def format_index(x: IndexValue) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_index(text: str) -> IndexValue:
    match = _INDEX_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise InputError(f"malformed index {text!r}, expected 'p/q'")
    sign, p, q = match.groups()
    if len(p) > MAX_INDEX_DIGITS or len(q or "") > MAX_INDEX_DIGITS:
        raise InputError(f"index numerator or denominator exceeds {MAX_INDEX_DIGITS} digits")
    return Fraction(int(sign + p), int(q or 1))


def parse_index_list(values: object) -> tuple[IndexValue, ...]:
    if not isinstance(values, list):
        raise InputError(f"expected a list of 'p/q' strings, got {values!r}")
    return tuple(parse_index(v) for v in values)


def parse_json(text: str, what: str) -> object:
    """The JSON value in `text`, or InputError naming the document.

    Beyond syntax errors, this refuses an object that repeats a key, an
    integer over Python's digit limit for text conversion (a ValueError) and
    nesting past the recursion limit.
    """
    try:
        return json.loads(text, object_pairs_hook=lambda pairs: _object(pairs, what))
    except InputError:  # a repeated key
        raise
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} cannot be parsed: {exc}") from exc


def _object(pairs: list[tuple[str, object]], what: str) -> dict:
    """`object_pairs_hook`: the object of `pairs`, refusing the first key they repeat."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InputError(f"{what} repeats the key {key!r}")
    return obj


def _set_mask(elems: list, limit: int) -> int | None:
    """Mask of a nonempty strictly increasing list of exact ints in [0, limit), else None.

    One loop checks the order and writes a digit per element into a buffer
    from the first element to the last.  Non-ints raise TypeError on the way,
    and a bool in an increasing list from 0 up can only be one of the first two.
    """
    low, top = elems[0], elems[-1]
    try:
        if not 0 <= low <= top < limit or bool in map(type, elems[:2]):
            return None
        digits = bytearray(b"0") * (top - low + 1)
        prev = low - 1
        for n in elems:
            if not prev < n:
                return None
            digits[top - n] = 49  # ord("1"); bit n is digit top-n
            prev = n
    except (TypeError, IndexError):
        return None
    return int(digits, 2) << low


def family_with_file_order(text: str) -> tuple[ChainFamily, tuple[IndexValue, ...]]:
    """Parse the family document; also return its indices in file order.

    A document in the writer's exact frame is read entry by entry
    (`_canonical_document`); any other is decoded in one go.  Either way
    each well-formed entry becomes an (index, mask) pair (`_run_pair` or
    `_entry_pair`), and `_walk_family` reads the result.  Only if that
    raises is the text decoded again by `parse_json` and walked, so the
    error names every object as the document wrote it.  The entry cap's
    refusal names none, and the hook keeps the entries' count, so it is
    raised as it stands (the canonical walk reads nothing past the cap).
    """
    try:
        doc = _canonical_document(text)
        return _walk_family(json.loads(text, object_pairs_hook=_entry_pair) if doc is None else doc)
    except (ValueError, RecursionError) as exc:  # InputError is a ValueError
        if exc.args == (f"entries exceed the cap {MAX_FAMILY_SIZE}",):
            raise
    # Leaving the handler freed the hooked document before the second decode.
    return _walk_family(parse_json(text, "family document"))


def _canonical_document(text: str) -> dict | None:
    """The ground size and entries of a document in `family_to_text`'s layout, else None.

    Each entry is read by `_run_pair` if it can be, else decoded alone from
    its `{` with the `_entry_pair` hook, which raises on text that is not
    JSON.  Any other departure from the layout gives None.  The walk stops
    at the entry past MAX_FAMILY_SIZE, which `_walk_family` refuses.
    """
    head = _HEAD_RE.match(text)
    if head is None:
        return None
    limit = min(int(head[1]), _TABLE_LINES)
    decode = json.JSONDecoder(object_pairs_hook=_entry_pair).raw_decode
    entries, i = [], head.end()
    while text.startswith(_ENTRY_HEAD, i):
        entry, i = _run_pair(text, i, limit) or decode(text, i + _ENTRY_HEAD.index("{"))
        entries.append(entry)
        if len(entries) > MAX_FAMILY_SIZE or (
                i == len(text) - len(_DOC_CLOSE) and text.endswith(_DOC_CLOSE)):
            return {"ground_size": int(head[1]), "entries": entries}  # one past the cap is refused
        if not text.startswith(",", i):
            return None
        i += 1
    return None


def _run_pair(text: str, i: int, limit: int) -> tuple | None:
    """((index, mask), end) for the entry whose head is at text[i], read run by run, else None.

    The entry must be in the writer's layout, with elements below `limit`.
    Line n of the table `_line_table(limit)` starts at starts[n]; if the run
    from element a, whose line starts at text[p], goes on to n, then line n
    starts at text[starts[n] - shift], shift being starts[a] - p.  So one
    probe there tells whether it does; a bisection of such probes finds where
    the run ends, and one `startswith` of its table slice reads it.  The line
    that holds text[starts[a + 127] - shift] tells how many elements the first
    128 lines miss: a set missing more than 64 goes to the decoder untried, as
    does one that closes within 128 line prefixes and one whose runs stop
    averaging over 2 * _ELEMENTS_PER_EDGE elements, two short runs aside.
    `_LINE_RE` reads every element line.
    """
    x = i + len(_ENTRY_HEAD)  # the index
    quote = text.find('"', x)
    p = quote + len(_SET_HEAD)  # the first element's line
    line = _LINE_RE.match(text, p)
    a = int(line[1]) if line else limit
    first = a + 2 * _ELEMENTS_PER_EDGE - 1
    if first >= limit or text.find("]", p, p + 2 * _ELEMENTS_PER_EDGE * len(_LINE)) >= 0:
        return None
    table, starts = _line_table(limit)
    shift = starts[a] - p
    line = _LINE_RE.match(text, text.rfind("\n", p, starts[first] - shift + 1))
    if line is None or int(line[1]) > first + _ELEMENTS_PER_EDGE:
        return None
    end = text.rfind("\n", p, text.find("]", p))  # the set's close
    last = text.rfind("\n", p, end)  # the last element's line
    line = _LINE_RE.match(text, last)
    top = int(line[1]) if line else limit
    if top >= limit or not (text.startswith(_SET_HEAD, quote) and text.startswith(_SET_CLOSE, end)):
        return None
    mask = held = runs = 0
    while True:
        if starts[top] - shift == last:  # a..top is one run
            b = top + 1
        else:
            lo, hi = a, top
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if text.startswith(table[starts[mid]:starts[mid + 1]], starts[mid] - shift):
                    lo = mid
                else:
                    hi = mid
            b = hi
        run = table[starts[a]:starts[b] - 1]
        if not text.startswith(run, p):
            return None
        mask |= ((1 << (b - a)) - 1) << a
        held += b - a
        runs += 1
        p += len(run)
        if b > top:
            break
        line = _LINE_RE.match(text, p + 1) if text.startswith(",", p) else None
        a = int(line[1]) if line else b
        if not b < a <= top or runs > held // (2 * _ELEMENTS_PER_EDGE) + 2:
            return None
        p += 1
        shift = starts[a] - p
    if p != end:
        return None
    return (text[x:quote], mask), end + len(_SET_CLOSE)  # `_walk_family` parses the index


def _element_lines(elements: Iterable[int]) -> list[str]:
    return [f"{_LINE}{n}" for n in elements]


@lru_cache(maxsize=1)
def _line_table(n: int) -> tuple[str, tuple[int, ...]]:
    """Element lines 0 to n - 1 joined by commas, and where each starts: the slice
    from starts[a] to starts[b] - 1 is lines a to b - 1 as the writer joins
    them.  The last table is kept, so a document's reads or writes build it once."""
    lines = _element_lines(range(n))
    return ",".join(lines), tuple(accumulate((len(line) + 1 for line in lines), initial=0))


def _entry_pair(pairs: list[tuple[str, object]]) -> object:
    """`object_pairs_hook`: (index, mask) for an entry whose set is a mask under the cap,
    else the object; an object that repeats a key is refused, as `parse_json` refuses it."""
    obj = _object(pairs, "family document")
    elems = obj.get("set") if len(obj) == 2 and "index" in obj else None
    mask = (_set_mask(elems, MAX_GROUND_SIZE) if elems else 0) if type(elems) is list else None
    return obj if mask is None else (obj["index"], mask)


def _walk_family(doc: object) -> tuple[ChainFamily, tuple[IndexValue, ...]]:
    """Read a decoded document entry by entry; errors come in order: more than
    MAX_FAMILY_SIZE entries, shape errors entry by entry (set, then index),
    the ground size, the first element outside [0, size) in file order, a
    repeated index.  An entry is a dict, or an `_entry_pair` whose mask,
    built under the cap, must fit the ground.  No set buffer is made for a
    ground size over the cap.  Increasing indices build the family with no
    second check, others via `from_pairs`.
    """
    if not isinstance(doc, dict) or set(doc) != {"ground_size", "entries"}:
        raise InputError("family document must have exactly ground_size and entries")
    size = doc["ground_size"]
    if not isinstance(size, int) or size < 1:
        raise InputError(f"bad ground_size {size!r}")
    if not isinstance(doc["entries"], list):
        raise InputError("entries must be a list")
    if len(doc["entries"]) > MAX_FAMILY_SIZE:
        raise InputError(f"entries exceed the cap {MAX_FAMILY_SIZE}")
    limit = size if type(size) is int and size <= MAX_GROUND_SIZE else 0
    indices: list[IndexValue] = []
    masks: list[int] = []
    stray = None
    for entry in doc["entries"]:
        if type(entry) is tuple:
            x, mask = entry
            if mask.bit_length() > limit:  # the plain walk names the stray element
                raise InputError("a set holds an element outside the ground")
        else:
            if not isinstance(entry, dict) or set(entry) != {"index", "set"}:
                raise InputError(f"entry must have exactly index and set: {entry!r}")
            x, elems = entry["index"], entry["set"]
            if not isinstance(elems, list):
                raise InputError(f"set must be a list of integers: {elems!r}")
            mask = _set_mask(elems, limit) if elems else 0
            if mask is None:
                if any(not isinstance(n, int) for n in elems):
                    raise InputError(f"set must be a list of integers: {elems!r}")
                if any(not a < b for a, b in zip(elems, elems[1:])):
                    raise InputError(f"set elements must be strictly increasing: {elems!r}")
                if stray is None:
                    stray = next((n for n in elems if type(n) is not int or not 0 <= n < size),
                                 None)
        indices.append(parse_index(x))
        masks.append(mask)
    ground = GroundSet(size)
    if stray is not None:
        ground.check_element(stray)
    order = tuple(indices)
    if all(map(lt, order, order[1:])):
        return ChainFamily._trusted(ground, order, tuple(masks)), order
    return ChainFamily.from_pairs(ground, zip(order, masks)), order


def family_from_text(text: str) -> ChainFamily:
    return family_with_file_order(text)[0]


def family_to_text(family: ChainFamily) -> str:
    """The canonical document, byte for byte `json.dumps(doc, indent=2) + "\n"`.

    Written directly: indices and elements are digits, '-' and '/', so
    nothing needs escaping.  A sparse set (`_sparse`) formats its own lines,
    bit by bit (`_low_bits`).  Every other set selects from shared lines, each
    formatted once, up to the largest element such a set holds: by its digit
    flags, or, for a set of long runs, one slice of `_line_table` per run.
    Each set's lines are joined once, then the document's pieces.
    """
    masks = family.masks
    helds = list(map(int.bit_count, masks))
    sparse = list(map(_sparse, masks, helds))
    lines = _element_lines(range(max(
        (m.bit_length() for m, is_sparse in zip(masks, sparse) if not is_sparse), default=0)))
    parts = [_DOC_HEAD, str(family.ground.size), _ENTRIES]
    sep = ""
    for x, m, held, is_sparse in zip(family.indices, masks, helds, sparse):
        if is_sparse:
            elems = ",".join(_element_lines(_low_bits(m)))
        elif (2 * _ELEMENTS_PER_EDGE < held and m.bit_length() <= _TABLE_LINES
                and (edges := m ^ (m << 1)).bit_count() * _ELEMENTS_PER_EDGE < held):
            table, starts = _line_table(min(len(lines), _TABLE_LINES))
            bits = iter_bits(edges)
            elems = ",".join([table[starts[a]:starts[b] - 1] for a, b in zip(bits, bits)])
        else:
            elems = ",".join(compress(lines, _digit_flags(m)))
        parts += (sep, _ENTRY_HEAD, format_index(x), _SET_HEAD, elems,
                  _SET_CLOSE if elems else _SET_CLOSE.lstrip())
        sep = ","
    parts.append(_DOC_CLOSE if sep else _DOC_CLOSE.lstrip())
    return "".join(parts)
