"""Exact data model for finite almost chains of subsets of {0, ..., N-1}.

A family assigns to each index x (an exact rational) a subset A_x of a fixed
finite ground set.  The module provides the decision procedures on such
families: the chain property (sets increase with the index), the
barely-alternating property (no ground element enters, leaves, re-enters and
leaves again along the sorted indices), and the defect calculus that measures
how far a family is from being a chain.

All values are immutable after construction and all arithmetic is exact:
indices are `fractions.Fraction`, sets are bit masks.  Witnesses returned by
the checkers are lexicographically least (least ground element first, then
least index tuple), so every verdict is reproducible byte for byte.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

# Exact rational index of a set in a family.  Fraction already guarantees the
# lowest-terms, positive-denominator normal form and exact total order.
IndexValue = Fraction


class InputError(ValueError):
    """A precondition on caller-supplied data does not hold."""


@dataclass(frozen=True)
class GroundSet:
    """The finite ground set {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if type(self.size) is not int or self.size < 1:
            raise InputError(f"ground size must be a positive integer, got {self.size!r}")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def elements(self) -> range:
        return range(self.size)

    def check_element(self, n: int) -> None:
        if type(n) is not int or not 0 <= n < self.size:
            raise InputError(f"element {n!r} outside ground range [0, {self.size})")


@dataclass(frozen=True)
class SetBits:
    """A subset of a ground set, stored as a bit mask (bit n = element n)."""

    ground: GroundSet
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.ground.full_mask:
            raise InputError(f"mask {self.mask:#x} does not fit ground of size {self.ground.size}")

    @classmethod
    def empty(cls, ground: GroundSet) -> SetBits:
        return cls(ground, 0)

    @classmethod
    def full(cls, ground: GroundSet) -> SetBits:
        return cls(ground, ground.full_mask)

    @classmethod
    def from_elements(cls, ground: GroundSet, elements: Iterable[int]) -> SetBits:
        mask = 0
        for n in elements:
            ground.check_element(n)
            mask |= 1 << n
        return cls(ground, mask)

    def _check_same_ground(self, other: SetBits) -> None:
        if self.ground != other.ground:
            raise InputError(
                f"ground mismatch: size {self.ground.size} vs {other.ground.size}"
            )

    def __contains__(self, n: int) -> bool:
        self.ground.check_element(n)
        return bool(self.mask >> n & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __or__(self, other: SetBits) -> SetBits:
        self._check_same_ground(other)
        return SetBits(self.ground, self.mask | other.mask)

    def __and__(self, other: SetBits) -> SetBits:
        self._check_same_ground(other)
        return SetBits(self.ground, self.mask & other.mask)

    def __sub__(self, other: SetBits) -> SetBits:
        self._check_same_ground(other)
        return SetBits(self.ground, self.mask & ~other.mask)

    def __xor__(self, other: SetBits) -> SetBits:
        self._check_same_ground(other)
        return SetBits(self.ground, self.mask ^ other.mask)

    def is_subset(self, other: SetBits) -> bool:
        self._check_same_ground(other)
        return self.mask & ~other.mask == 0

    def elements(self) -> tuple[int, ...]:
        return tuple(n for n in self.ground.elements() if self.mask >> n & 1)

    def __repr__(self) -> str:
        return f"SetBits({set(self.elements()) or '{}'} / {self.ground.size})"


@dataclass(frozen=True)
class ChainFamily:
    """A finite family of sets, one per strictly increasing rational index.

    The type enforces only shape (sorted distinct indices, matching ground);
    whether the family is a chain or barely alternating is decided by the
    explicit checkers below, never assumed.
    """

    ground: GroundSet
    indices: tuple[IndexValue, ...]
    sets: tuple[SetBits, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.sets):
            raise InputError(
                f"{len(self.indices)} indices but {len(self.sets)} sets"
            )
        for a, b in zip(self.indices, self.indices[1:]):
            if not a < b:
                raise InputError(f"indices not strictly increasing at {a} >= {b}")
        for s in self.sets:
            if s.ground != self.ground:
                raise InputError("family set over a different ground")

    @classmethod
    def from_pairs(
        cls, ground: GroundSet, pairs: Iterable[tuple[IndexValue, SetBits]]
    ) -> ChainFamily:
        """Build a family from (index, set) pairs, sorting by index."""
        items = sorted(pairs, key=lambda p: p[0])
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise InputError(f"duplicate index {a}")
        return cls(ground, tuple(x for x, _ in items), tuple(s for _, s in items))

    def __len__(self) -> int:
        return len(self.indices)

    def position(self, x: IndexValue) -> int:
        """Position of index x, or InputError when absent."""
        i = bisect_left(self.indices, x)
        if i == len(self.indices) or self.indices[i] != x:
            raise InputError(f"index {x} not in family")
        return i

    def set_at(self, x: IndexValue) -> SetBits:
        return self.sets[self.position(x)]

    def pairs(self) -> Iterator[tuple[IndexValue, SetBits]]:
        return iter(zip(self.indices, self.sets))


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


def membership_trace(family: ChainFamily, n: int) -> str:
    """Bit string over the sorted indices: character i is 1 iff n is in sets[i]."""
    family.ground.check_element(n)
    return "".join("1" if s.mask >> n & 1 else "0" for s in family.sets)


def flip_count(family: ChainFamily, n: int) -> int:
    """Number of adjacent membership changes of n along the sorted indices."""
    trace = membership_trace(family, n)
    return sum(1 for a, b in zip(trace, trace[1:]) if a != b)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _greedy_1010_positions(trace: str) -> tuple[int, int, int, int]:
    """Leftmost positions realizing 1,0,1,0 as a subsequence of the trace.

    Taking the earliest feasible position for each pattern character yields
    the lexicographically least such quadruple.
    """
    positions = []
    start = 0
    for wanted in "1010":
        p = trace.find(wanted, start)
        if p < 0:
            raise AssertionError("trace has no 1,0,1,0 subsequence")
        positions.append(p)
        start = p + 1
    return tuple(positions)  # type: ignore[return-value]


def _alternating_elements_mask(family: ChainFamily) -> int:
    # Automaton over the sorted indices, run bit-parallel across all ground
    # elements: state s1/s10/s101 holds the elements whose trace so far
    # contains 1 / 1,0 / 1,0,1 as a subsequence.
    full = family.ground.full_mask
    s1 = s10 = s101 = hit = 0
    for s in family.sets:
        m = s.mask
        not_m = full & ~m
        hit |= s101 & not_m
        s101 |= s10 & m
        s10 |= s1 & not_m
        s1 |= m
    return hit


def alternation_witness(family: ChainFamily) -> AlternationWitness | None:
    """Least witness that the family is not barely alternating, else None.

    The forbidden configuration is a ground element n and indices
    x1 < x2 < x3 < x4 with n in A_x1 \\ A_x2 and n in A_x3 \\ A_x4, i.e. the
    trace of n contains 1,0,1,0 as a subsequence.
    """
    hit = _alternating_elements_mask(family)
    if hit == 0:
        return None
    n = _lowest_bit(hit)
    quad = _greedy_1010_positions(membership_trace(family, n))
    x1, x2, x3, x4 = (family.indices[p] for p in quad)
    return AlternationWitness(n, x1, x2, x3, x4)


def is_barely_alternating(family: ChainFamily) -> bool:
    return _alternating_elements_mask(family) == 0


def chain_witness(family: ChainFamily) -> ChainWitness | None:
    """Least witness that the sets are not inclusion-increasing, else None."""
    bad = chain_defect_set(family).mask
    if bad == 0:
        return None
    n = _lowest_bit(bad)
    trace = membership_trace(family, n)
    i = trace.find("1")
    j = trace.find("0", i + 1)
    return ChainWitness(n, family.indices[i], family.indices[j])


def is_chain(family: ChainFamily) -> bool:
    return chain_witness(family) is None


def defect(family: ChainFamily, x: IndexValue, y: IndexValue) -> SetBits:
    """The witness set A_x \\ A_y for indices x < y of the family."""
    if not x < y:
        raise InputError(f"defect requires x < y, got {x} >= {y}")
    return family.set_at(x) - family.set_at(y)


@dataclass(frozen=True)
class DefectReport:
    """The largest pairwise defect of a family and the pairs over a budget."""

    max_defect_size: int
    budget: int
    over_budget: dict[tuple[IndexValue, IndexValue], int] = field(repr=False)

    @property
    def flagged_pairs(self) -> tuple[tuple[IndexValue, IndexValue], ...]:
        """Ordered pairs whose defect exceeds the budget."""
        return tuple(self.over_budget)

    @property
    def ok(self) -> bool:
        return not self.flagged_pairs


def validate_almost_chain(family: ChainFamily, budget: int) -> DefectReport:
    """Measure every pairwise defect |A_x \\ A_y| (x < y) against a budget.

    Over-budget pairs are reported with their defect size, in (x, y) order,
    not raised; a chain family yields max_defect_size 0.
    """
    if budget < 0:
        raise InputError(f"budget must be non-negative, got {budget}")
    indices = family.indices
    masks = [s.mask for s in family.sets]
    over: dict[tuple[IndexValue, IndexValue], int] = {}
    worst = 0
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            size = (a & ~masks[j]).bit_count()
            if size > worst:
                worst = size
            if size > budget:
                over[(indices[i], indices[j])] = size
    return DefectReport(worst, budget, over)


def chain_defect_set(family: ChainFamily) -> SetBits:
    """Least set D whose removal from every member makes the family a chain.

    Equals the union of A_x \\ A_y over all index pairs x < y; an element
    belongs to D exactly when its trace ever goes from 1 to 0, so consecutive
    pairs already cover the whole union.
    """
    full = family.ground.full_mask
    mask = 0
    for a, b in zip(family.sets, family.sets[1:]):
        mask |= a.mask & ~b.mask & full
    return SetBits(family.ground, mask)


# --- textual family format ---------------------------------------------------
#
# A family is stored as a JSON document
#   {"ground_size": N, "entries": [{"index": "p/q", "set": [n0, n1, ...]}, ...]}
# with entries sorted by index and each set listed in increasing order.  The
# writer is canonical, so write -> parse -> write is byte-identical.

_INDEX_RE = re.compile(r"^-?\d+(/\d*[1-9]\d*)?$")


def format_index(x: IndexValue) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_index(text: str) -> IndexValue:
    if not isinstance(text, str) or not _INDEX_RE.match(text):
        raise InputError(f"malformed index {text!r}, expected 'p/q'")
    return Fraction(text)


def family_entries_from_text(
    text: str,
) -> tuple[int, list[tuple[IndexValue, tuple[int, ...]]]]:
    """Parse the family document, preserving the file order of entries."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"family document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"ground_size", "entries"}:
        raise InputError("family document must have exactly ground_size and entries")
    size = doc["ground_size"]
    if not isinstance(size, int) or size < 1:
        raise InputError(f"bad ground_size {size!r}")
    if not isinstance(doc["entries"], list):
        raise InputError("entries must be a list")
    entries: list[tuple[IndexValue, tuple[int, ...]]] = []
    for entry in doc["entries"]:
        if not isinstance(entry, dict) or set(entry) != {"index", "set"}:
            raise InputError(f"entry must have exactly index and set: {entry!r}")
        elems = entry["set"]
        if not isinstance(elems, list) or any(not isinstance(n, int) for n in elems):
            raise InputError(f"set must be a list of integers: {elems!r}")
        if any(not a < b for a, b in zip(elems, elems[1:])):
            raise InputError(f"set elements must be strictly increasing: {elems!r}")
        entries.append((parse_index(entry["index"]), tuple(elems)))
    return size, entries


def family_from_text(text: str) -> ChainFamily:
    size, entries = family_entries_from_text(text)
    ground = GroundSet(size)
    return ChainFamily.from_pairs(
        ground, ((x, SetBits.from_elements(ground, elems)) for x, elems in entries)
    )


def family_to_text(family: ChainFamily) -> str:
    doc = {
        "ground_size": family.ground.size,
        "entries": [
            {"index": format_index(x), "set": list(s.elements())}
            for x, s in family.pairs()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
