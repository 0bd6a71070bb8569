"""Independent brute-force oracles and deterministic corpus builders.

Everything here recomputes properties straight from their quantifier
definitions (exhaustive scans over index tuples, subsets or traces) and never
calls the production decision procedures, so oracle/implementation agreement
is meaningful.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations

from chainlab.core import (
    MAX_INDEX_DIGITS,
    ChainFamily,
    GroundSet,
    InputError,
    parse_json,
)
from chainlab.generators import check_flips, initial_segment_chain


def build_family(traces: list[str], indices=None) -> ChainFamily:
    """Family whose membership trace at ground element n is traces[n]."""
    width = len(traces[0])
    assert all(len(t) == width for t in traces)
    ground = GroundSet(len(traces))
    if indices is None:
        indices = [Fraction(i + 1, width + 1) for i in range(width)]
    sets = []
    for i in range(width):
        mask = 0
        for n, trace in enumerate(traces):
            if trace[i] == "1":
                mask |= 1 << n
        sets.append(mask)
    return ChainFamily(ground, tuple(indices), tuple(sets))


def elements_of(mask: int) -> frozenset[int]:
    """The elements of a non-negative mask, read one bit at a time."""
    return frozenset(n for n in range(mask.bit_length()) if mask >> n & 1)


def mask_from(elements) -> int:
    """The mask of a set of elements, one bit per element."""
    return sum(1 << n for n in elements)


def membership_trace(family: ChainFamily, n: int) -> str:
    """Bit string over the sorted indices: character i is 1 iff n is in masks[i]."""
    return "".join("1" if m >> n & 1 else "0" for m in family.masks)


def flip_count(family: ChainFamily, n: int) -> int:
    """Number of adjacent membership changes of n along the sorted indices."""
    trace = membership_trace(family, n)
    return sum(a != b for a, b in zip(trace, trace[1:]))


def uniform_positions(size: int) -> tuple[Fraction, ...]:
    """Evenly spaced ground positions (n+1)/(size+1) inside (0, 1)."""
    return tuple(Fraction(n + 1, size + 1) for n in range(size))


def point_triples(table) -> tuple:
    """A TripleTable's rank triples read as carrier points."""
    return tuple(tuple(table.points[r] for r in t) for t in table.ranks)


def brute_alternation_witness(family: ChainFamily):
    """Least (n, x1..x4) with the 1,0,1,0 pattern, by full quadruple scan."""
    k = len(family.indices)
    for n in family.ground.elements():
        bits = [m >> n & 1 for m in family.masks]
        for i1, i2, i3, i4 in combinations(range(k), 4):
            if bits[i1] and not bits[i2] and bits[i3] and not bits[i4]:
                return (
                    n,
                    family.indices[i1],
                    family.indices[i2],
                    family.indices[i3],
                    family.indices[i4],
                )
    return None


def brute_triples(family: ChainFamily, top):
    """Per element: first entry, first exit after it, re-entry after that.

    A plain scan of each element's membership list; every point that does
    not exist falls back to `top`, the largest carrier point.
    """
    ys = family.indices
    triples = []
    for n in family.ground.elements():
        member = [m >> n & 1 for m in family.masks]
        first_in = next((i for i, m in enumerate(member) if m), None)
        if first_in is None:
            triples.append((top, top, top))
            continue
        first_out = next((i for i in range(first_in + 1, len(ys)) if not member[i]), None)
        if first_out is None:
            triples.append((ys[first_in], top, top))
            continue
        back_in = next((i for i in range(first_out + 1, len(ys)) if member[i]), None)
        triples.append(
            (ys[first_in], ys[first_out], ys[back_in] if back_in is not None else top)
        )
    return tuple(triples)


def brute_coincident_schedule(triples):
    """Sort the non-strict point triples, keep a componentwise non-decreasing chain."""
    candidates = sorted((t, n) for n, t in enumerate(triples) if not t[0] < t[1] < t[2])
    schedule = []
    last = None
    for t, n in candidates:
        if last is None or all(t[i] >= last[i] for i in range(3)):
            schedule.append((n, len(schedule)))
            last = t
    return tuple(schedule)


def brute_norm_witness(triples, carrier):
    """(n, values) scoring 3 at the first strict point triple, or None."""
    for n, (x0, x1, x2) in enumerate(triples):
        if x0 < x1 < x2:
            values = {p: Fraction(0) for p in carrier}
            values[x0] = Fraction(1)
            values[x1] = Fraction(-1)
            values[x2] = Fraction(1)
            return n, values
    return None


def brute_signed_sums(f, triples) -> list:
    """f(x0) - f(x1) + f(x2) per point triple, reading x0, x1 and x2 in that order.

    A point f does not define raises KeyError(point), the first one met.
    """
    return [f[x0] - f[x1] + f[x2] for x0, x1, x2 in triples]


def _pattern(x0, x1, x2) -> str:
    if x0 == x1 == x2:
        return "x0=x1=x2"
    if x0 == x1:
        return "x0=x1<x2"
    if x1 == x2:
        return "x0<x1=x2"
    return "x0<x1<x2"


def _name(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def brute_triple_table_text(triples) -> str:
    """The triples command's table, written straight from the point triples."""
    rows = [f"{n}\t{_name(x0)}\t{_name(x1)}\t{_name(x2)}\t{_pattern(x0, x1, x2)}"
            for n, (x0, x1, x2) in enumerate(triples)]
    return "\n".join(["# n\tx0\tx1\tx2\tpattern", *rows]) + "\n"


def brute_harness_text(triples, schedule, values) -> str:
    """The limit harness's report along a coincident schedule, from the point triples."""
    lines = ["# stage\tn\tx0\tx1\tx2\tpattern\tEf"]
    for n, stage in schedule:
        x0, x1, x2 = triples[n]
        ef = values[x0] - values[x1] + values[x2]
        lines.append(f"{stage}\t{n}\t{_name(x0)}\t{_name(x1)}\t{_name(x2)}"
                     f"\t{_pattern(x0, x1, x2)}\t{ef}")
    x0, x1, x2 = triples[schedule[-1][0]]
    z = x0 if x1 == x2 else x2
    lines += [f"# z\t{_name(z)}", f"# f(z)\t{values[z]}",
              f"# identity\t{'ok' if ef == values[z] else 'FAIL'}"]
    return "\n".join(lines) + "\n"


def brute_fourth_flip_witness(family: ChainFamily, triples):
    """Least (n, y) with y > x2_n and n outside the set at y, by full scan."""
    points = point_triples(triples)
    for n in family.ground.elements():
        x2 = points[n][2]
        for i, y in enumerate(family.indices):
            if y > x2 and not family.masks[i] >> n & 1:
                return (n, y)
    return None


def brute_gap_exceptions(ascending, descending, budget):
    """W and the two bound lists, read from the full table of defects U_n \\ V_m.

    Raises InputError at the first pair, row by row, whose defect is over budget.
    """
    table = [[u & ~v for v in descending] for u in ascending]
    for n, row in enumerate(table):
        for m, defect in enumerate(row):
            if defect.bit_count() > budget:
                raise InputError(
                    f"|U_{n} \\ V_{m}| = {defect.bit_count()} exceeds budget {budget}"
                )
    ascending_bounds = []
    for n, row in enumerate(table):
        bound = 0
        for defect in row[: n + 1]:
            bound |= defect
        ascending_bounds.append(bound)
    descending_bounds = []
    for m in range(len(descending)):
        bound = 0
        for row in table[:m]:
            bound |= row[m]
        descending_bounds.append(bound)
    w = 0
    for u, bound in zip(ascending, ascending_bounds):
        w |= u & ~bound
    return w, ascending_bounds, descending_bounds


def brute_chain_witness(family: ChainFamily):
    """Least (n, x, y) with x < y and n in A_x but not A_y, by full pair scan."""
    k = len(family.indices)
    for n in family.ground.elements():
        bits = [m >> n & 1 for m in family.masks]
        for i, j in combinations(range(k), 2):
            if bits[i] and not bits[j]:
                return (n, family.indices[i], family.indices[j])
    return None


def brute_defect_report(family: ChainFamily, budget: int):
    """Largest |A_x \\ A_y| over x < y, and the pairs over `budget`, by a per-pair loop.

    Returns (maximum, {(i, j): size}), keyed by the positions i < j of x and y,
    with the pairs in (x, y) order.
    """
    masks = family.masks
    over = {}
    worst = 0
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            size = (a & ~masks[j]).bit_count()
            if size > worst:
                worst = size
            if size > budget:
                over[(i, j)] = size
    return worst, over


def brute_over_budget_line(family: ChainFamily, budget: int) -> str:
    """`check`'s over_budget line, one `(x,y)=size` string per pair of `brute_defect_report`."""
    _, over = brute_defect_report(family, budget)
    x = family.indices
    flagged = " ".join(f"({_name(x[i])},{_name(x[j])})={size}" for (i, j), size in over.items())
    return f"over_budget: {flagged or 'none'}"


def flagged_sizes(report) -> list:
    """((i, j), size) for each over-budget pair of a DefectReport, in its row order:
    row i's columns mask read bit by bit, j ascending, against its sizes one for one."""
    return [((i, j), d) for i, columns, ds in report.flagged_rows
            for j, d in zip(sorted(elements_of(columns)), ds, strict=True)]


def counter_inputs(masks) -> tuple[list[int], int]:
    """The toggle masks A_i ^ A_(i-1) (A_(-1) empty) and the bit length of the
    largest set size, the inputs that core._counter_rows takes besides the masks."""
    changes = [a ^ b for a, b in zip((0,) + tuple(masks), masks)]
    return changes, max((m.bit_count() for m in masks), default=0).bit_length()


def removal_makes_chain(family: ChainFamily, removed: int) -> bool:
    """Does deleting the elements of mask `removed` from every member leave a chain?"""
    gone = elements_of(removed)
    stripped = ChainFamily(
        family.ground,
        family.indices,
        tuple(mask_from(elements_of(m) - gone) for m in family.masks),
    )
    return brute_chain_witness(stripped) is None


def min_chain_edit_distance(family: ChainFamily) -> int:
    """Fewest membership flips turning the family into an inclusion chain.

    Flipping element n in one set only changes the trace of n, so the global
    minimum splits into independent per-element problems: match each trace
    against every monotone 0..01..1 trace of the same width.
    """
    width = len(family.indices)
    monotone = ["0" * (width - k) + "1" * k for k in range(width + 1)]
    total = 0
    for n in family.ground.elements():
        trace = membership_trace(family, n)
        total += min(
            sum(a != b for a, b in zip(trace, m)) for m in monotone
        )
    return total


def word_value(word: str) -> Fraction:
    """The value of the bit word 0.b1 b2 ... bL, summed bit by bit."""
    return sum((Fraction(int(b), 1 << (i + 1)) for i, b in enumerate(word)), Fraction(0))


def brute_excluded_dyadics(word: str, depth: int) -> tuple[Fraction, ...]:
    """Truncations 0.b1...bn (n < depth) before each 1-bit b(n+1) of a bit word, dropping 0.

    A per-bit walk that adds up the truncation one Fraction at a time.
    """
    values = []
    t = Fraction(0)
    for n in range(depth):
        if word[n] == "1" and t > 0:
            values.append(t)
        t += Fraction(int(word[n]), 1 << (n + 1))
    return tuple(values)


def brute_marciszewski_family(words, depth: int) -> ChainFamily:
    """The dyadic family of bit-word strings, with each set read off point by point.

    x = 0.b1 b2 ... bL is summed bit by bit, and A'_x holds each ground point
    (n+1)/2^depth below x that is not an excluded truncation of x.  Words are
    refused in order: too short, on the depth grid, or a repeated value.
    """
    points = [Fraction(n + 1, 1 << depth) for n in range((1 << depth) - 1)]
    sets = {}
    for word in words:
        x = word_value(word)
        if len(word) < depth:
            raise InputError(f"bit word of length {len(word)} is shorter than depth {depth}")
        if (x * (1 << depth)).denominator == 1:
            raise InputError(f"{x} is a depth-{depth} dyadic; comparisons would be ambiguous")
        if x in sets:
            raise InputError(f"duplicate index value {x}")
        banned = brute_excluded_dyadics(word, depth)
        sets[x] = mask_from(n for n, p in enumerate(points) if p < x and p not in banned)
    indices = tuple(sorted(sets))
    return ChainFamily(GroundSet(len(points)), indices, tuple(sets[x] for x in indices))


def brute_insert_point(family: ChainFamily, x, candidate: int):
    """One-point insertion by the set formula (candidate ∪ A) \\ (candidate \\ C).

    A and C are the sets at the nearest indices below and above x, found by
    a full scan, with the empty set and the full ground at the boundaries.
    The algebra runs on frozensets of elements.  Returns the extended
    family, the produced mask, its difference from the candidate, and the
    predecessor and successor indices (None when absent).
    """
    g = family.ground
    members = [(y, elements_of(m)) for y, m in zip(family.indices, family.masks)]
    below = [(y, s) for y, s in members if y < x]
    above = [(y, s) for y, s in members if y > x]
    predecessor, a = below[-1] if below else (None, frozenset())
    successor, c = above[0] if above else (None, frozenset(g.elements()))
    cand = elements_of(candidate)
    produced = (cand | a) - (cand - c)
    extended = ChainFamily.from_pairs(
        g, [(y, mask_from(s)) for y, s in below + [(x, produced)] + above]
    )
    return extended, mask_from(produced), mask_from(produced ^ cand), predecessor, successor


def brute_perturbed_chain(seed: int, size: int, cut_indices, flips_per_set: int) -> ChainFamily:
    """The seeded perturbation by its definition: the initial segments below each
    cut, found by comparing the cut with every uniform position (the general
    `initial_segment_chain`), then `flips_per_set` seeded flips per set in index
    order.  This is the construction the closed form of `perturbed_chain` replaced.
    """
    check_flips(flips_per_set, size)
    base = initial_segment_chain(uniform_positions(size), cut_indices)
    rng = random.Random(seed)
    flipped = []
    for mask in base.masks:
        for n in rng.sample(range(size), flips_per_set):
            mask ^= 1 << n
        flipped.append(mask)
    return ChainFamily(base.ground, base.indices, tuple(flipped))


_TWO_PASS_INDEX_RE = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _two_pass_index(text) -> Fraction:
    if not isinstance(text, str) or not _TWO_PASS_INDEX_RE.fullmatch(text):
        raise InputError(f"malformed index {text!r}, expected 'p/q'")
    if any(len(part) > MAX_INDEX_DIGITS for part in text.lstrip("-").split("/")):
        raise InputError(f"index numerator or denominator exceeds {MAX_INDEX_DIGITS} digits")
    return Fraction(text)


def _two_pass_stray_element(elems: list, size: int):
    """First element that is not an exact int in [0, size), or None; raises on shape."""
    prev = -1
    for n in elems:
        if type(n) is not int or n <= prev:
            break
        prev = n
    else:
        return None if prev < size else elems[bisect_left(elems, size)]
    if any(not isinstance(n, int) for n in elems):
        raise InputError(f"set must be a list of integers: {elems!r}")
    if any(not a < b for a, b in zip(elems, elems[1:])):
        raise InputError(f"set elements must be strictly increasing: {elems!r}")
    return next(n for n in elems if type(n) is not int or not 0 <= n < size)


def _two_pass_mask(size: int, elems: list) -> int:
    digits = bytearray(b"0") * size
    for n in elems:
        digits[size - 1 - n] = 49  # ord("1"); bit n is digit size-1-n
    return int(digits, 2)


def two_pass_family_with_file_order(text: str):
    """The family reader that walks each set twice: one pass checks types,
    order and range, a second writes an N-digit buffer per set, and
    `from_pairs` sorts, checks duplicates and builds a checked family.
    Returns the family and its indices in file order, or raises InputError
    with the message the single-pass reader must give.
    """
    doc = parse_json(text, "family document")
    if not isinstance(doc, dict) or set(doc) != {"ground_size", "entries"}:
        raise InputError("family document must have exactly ground_size and entries")
    size = doc["ground_size"]
    if not isinstance(size, int) or size < 1:
        raise InputError(f"bad ground_size {size!r}")
    if not isinstance(doc["entries"], list):
        raise InputError("entries must be a list")
    entries = []
    stray = None
    for entry in doc["entries"]:
        if not isinstance(entry, dict) or set(entry) != {"index", "set"}:
            raise InputError(f"entry must have exactly index and set: {entry!r}")
        elems = entry["set"]
        if not isinstance(elems, list):
            raise InputError(f"set must be a list of integers: {elems!r}")
        bad = _two_pass_stray_element(elems, size)
        entries.append((_two_pass_index(entry["index"]), elems))
        if stray is None:
            stray = bad
    ground = GroundSet(size)
    if stray is not None:
        ground.check_element(stray)
    family = ChainFamily.from_pairs(ground, ((x, _two_pass_mask(size, elems)) for x, elems in entries))
    return family, tuple(x for x, _ in entries)


FRACTION_OPS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__")


def count_fraction_ops(monkeypatch) -> Counter:
    """Count every Fraction comparison and hash from now until the monkeypatch undoes."""
    counts: Counter = Counter()
    for name in FRACTION_OPS:
        def counted(*args, _name=name, _original=getattr(Fraction, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return counts


def receipts_respect_bound(family, adjusted, report) -> bool:
    """Replay the receipts and check each change against its neighbour bound.

    Neighbour sets are reconstructed from earlier receipts (inserted sets are
    never modified afterwards), so this does not consult the adjuster.  The
    set algebra runs on frozensets of elements.
    """
    g = family.ground
    given = {x: elements_of(m) for x, m in zip(family.indices, family.masks)}
    produced: dict[Fraction, frozenset[int]] = {}
    for r in report.receipts:
        below = produced[r.predecessor] if r.predecessor is not None else frozenset()
        above = (
            produced[r.successor] if r.successor is not None else frozenset(g.elements())
        )
        original = given[r.inserted_index]
        made = elements_of(r.produced_set)
        delta = elements_of(r.delta_from_input)
        if made ^ original != delta or r.cost != len(delta):
            return False
        if not delta <= (below - original) | (original - above):
            return False
        produced[r.inserted_index] = made
    return all(
        produced[x] == elements_of(m) for x, m in zip(adjusted.indices, adjusted.masks)
    )


def random_indices(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """Distinct sorted rational indices on a fine grid."""
    return tuple(
        sorted(Fraction(v, 4096) for v in rng.sample(range(1, 4096), count))
    )


def random_family(
    rng: random.Random, max_indices: int, max_ground: int
) -> ChainFamily:
    """Uniform random family; sets are unconstrained subsets."""
    count = rng.randint(0, max_indices)
    size = rng.randint(1, max_ground)
    ground = GroundSet(size)
    indices = random_indices(rng, count)
    sets = tuple(
        rng.getrandbits(size) for _ in range(count)
    )
    return ChainFamily(ground, indices, sets)


def random_chainlike_family(
    rng: random.Random, max_indices: int, max_ground: int, noise_flips: int
) -> ChainFamily:
    """Random inclusion chain with up to noise_flips random bit flips per set."""
    count = rng.randint(1, max_indices)
    size = rng.randint(1, max_ground)
    ground = GroundSet(size)
    indices = random_indices(rng, count)
    mask = 0
    sets = []
    for _ in range(count):
        mask |= rng.getrandbits(size)
        sets.append(mask)
    noisy = []
    for mask in sets:
        for _ in range(rng.randint(0, noise_flips)):
            mask ^= 1 << rng.randrange(size)
        noisy.append(mask)
    return ChainFamily(ground, indices, tuple(noisy))


def mixed_corpus(seed: int, count: int, max_indices: int, max_ground: int):
    """Half unconstrained families, half noisy chains; deterministic in the seed."""
    rng = random.Random(seed)
    families = []
    for i in range(count):
        if i % 2 == 0:
            families.append(random_family(rng, max_indices, max_ground))
        else:
            families.append(
                random_chainlike_family(rng, max_indices, max_ground, noise_flips=3)
            )
    return families
