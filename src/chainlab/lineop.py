"""Extension operator on a finite linear-order model of a compact line.

Given a barely alternating family indexed by a dense subset Y of a finite
carrier K, every ground element n gets three carrier points: the first index
whose set contains n, the first later index whose set omits it, and the first
later index whose set contains it again, each falling back to max(K) when no
such index exists.  A function f on K then extends to the ground by
Ef(n) = f(x0) - f(x1) + f(x2).

Because the family never alternates a fourth time, the signed sum is the
whole story: the operator is linear, restricts to the identity on K, and its
exact norm is 3 when some triple is strict and 1 otherwise.  Limits along
monotone schedules of ground elements are settled by a three-way decision
table on the final triple; a strict final triple is refused.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    ChainFamily,
    IndexValue,
    InputError,
    alternation_witness,
    check_increasing,
    format_index,
    iter_bits,
    parse_index,
    parse_index_list,
    parse_json,
)


class LineModel(NamedTuple("LineModel", [("carrier", tuple[IndexValue, ...]),
                                         ("dense_points", tuple[IndexValue, ...]),
                                         ("dense_ranks", tuple[int, ...])])):
    """Finite strictly increasing carrier with a chosen dense index subset."""

    __slots__ = ()

    def __new__(
        cls, carrier: tuple[IndexValue, ...], dense_points: tuple[IndexValue, ...]
    ) -> LineModel:
        if not carrier:
            raise InputError("carrier must be nonempty")
        check_increasing(carrier, "carrier")
        rank = {p: r for r, p in enumerate(carrier)}
        check_increasing(dense_points, "dense points")
        ranks = tuple(rank.get(y, -1) for y in dense_points)
        missing = [y for y, r in zip(dense_points, ranks) if r < 0]
        if missing:
            raise InputError(f"dense points {missing} not in the carrier")
        return tuple.__new__(cls, (carrier, dense_points, ranks))

    def __getnewargs__(self) -> tuple:  # copies and pickles derive dense_ranks again
        return self.carrier, self.dense_points

    @classmethod
    def _of_family(cls, family: ChainFamily) -> LineModel:
        """`LineModel(family.indices, family.indices)`, trusting the family's order."""
        if not family.indices:
            return cls((), ())  # refused: the carrier must be nonempty
        return tuple.__new__(cls, (family.indices, family.indices, tuple(range(len(family)))))


class TripleTable(NamedTuple("TripleTable", [("points", tuple[IndexValue, ...]),
                                             ("ranks", tuple[tuple[int, int, int], ...])])):
    """Per ground element n, the ranks of x0_n <= x1_n <= x2_n in the carrier `points`."""

    __slots__ = ()

    def __new__(
        cls, points: tuple[IndexValue, ...], ranks: tuple[tuple[int, int, int], ...]
    ) -> TripleTable:
        size = len(points)
        for n, t in enumerate(ranks):
            if not 0 <= t[0] <= t[1] <= t[2] < size:
                xs = ", ".join(str(points[r]) if 0 <= r < size else "off carrier" for r in t)
                raise InputError(f"triple at n={n} not ordered: {xs}")
        return tuple.__new__(cls, (points, ranks))

    def __len__(self) -> int:
        return len(self.ranks)

    def signed_sum(self, f: Mapping[IndexValue, Fraction], n: int) -> Fraction:
        """Ef(n) = f(x0_n) - f(x1_n) + f(x2_n)."""
        return next(_signed_sums(f, self.points, (self.ranks[n],)))


def _signed_sums(f: Mapping[IndexValue, Fraction], points: Sequence[IndexValue],
                 triples: Iterable[tuple[int, int, int]]) -> Iterator[Fraction]:
    """Ef per triple of ranks into `points`, reading f once per rank in first-use order."""
    value: dict[int, Fraction] = {}
    for t in triples:
        for r in t:
            if r not in value:
                value[r] = _value_at(f, points[r])
        v0, v1, v2 = map(value.__getitem__, t)
        # A triple with r1 == r2 sums to f(x0) exactly.  compute_triples never makes
        # r0 == r1 < r2: x1 equals x0 only when x1 is the fallback max(K), as x2 then is.
        yield v0 if t[1] == t[2] else v0 - v1 + v2


def _value_at(f: Mapping[IndexValue, Fraction], p: IndexValue) -> Fraction:
    """f(p) for a function given pointwise on carrier points."""
    try:
        return f[p]
    except KeyError:
        raise InputError(f"function not defined at carrier point {p}") from None


def compute_triples(family: ChainFamily, model: LineModel) -> TripleTable:
    """First-entry / first-exit / first-re-entry points for every ground element.

    The family's indices must be exactly the model's dense points and the
    family must be barely alternating; each empty search falls back to
    max(K).  Refusing a second exit is the no-fourth-flip guarantee: after
    x2_n, n's re-entry or max(K), n is in every set.
    """
    if family.indices != model.dense_points:
        raise InputError("family indices differ from the model's dense points")
    # Each element's entry, exit and re-entry positions, read off the toggles
    # from each set to the next; position k stands for max(K), the last carrier rank.
    k = len(family)
    size = family.ground.size
    first_in, first_out, back_in = [k] * size, [k] * size, [k] * size
    before = 0
    for i, m in enumerate(family.masks):
        toggles = before ^ m
        entries, before = toggles & m, m
        exits = toggles ^ entries
        for n in iter_bits(entries) if entries else ():  # a second entry is the re-entry
            (back_in if first_in[n] < k else first_in)[n] = i
        for n in iter_bits(exits) if exits else ():  # an adjusted chain has no exits
            if back_in[n] < k:  # a fourth flip
                raise InputError(
                    f"family is not barely alternating: witness {alternation_witness(family)}"
                )
            first_out[n] = i
    at = (model.dense_ranks + (len(model.carrier) - 1,)).__getitem__
    ranks = zip(map(at, first_in), map(at, first_out), map(at, back_in))
    # Positions only grow from entry to exit to re-entry, and so do the dense ranks.
    return tuple.__new__(TripleTable, (model.carrier, tuple(ranks)))


def apply_operator(f: Mapping[IndexValue, Fraction], triples: TripleTable) -> dict[int, Fraction]:
    """Ef on the ground: {n: the signed sum of f over n's triple}."""
    return dict(enumerate(_signed_sums(f, triples.points, triples.ranks)))


def triple_pattern(triple: tuple[IndexValue, IndexValue, IndexValue]) -> str:
    """Which coincidence the ordered triple exhibits, as a literal tag."""
    x0, x1, x2 = triple
    if x0 == x1 == x2:
        return "x0=x1=x2"
    if x0 == x1:
        return "x0=x1<x2"
    if x1 == x2:
        return "x0<x1=x2"
    return "x0<x1<x2"


def operator_norm(triples: TripleTable) -> Fraction:
    """Exact operator norm: 3 if some triple is strict, else 1.

    A strict triple admits a sup-norm-1 function scoring 1 - (-1) + 1 = 3;
    any coincidence collapses the signed sum to a single evaluation.
    """
    return Fraction(3 if any(t[0] < t[1] < t[2] for t in triples.ranks) else 1)


def norm_witness(triples: TripleTable) -> tuple[int, dict[IndexValue, Fraction]] | None:
    """Sup-norm-1 function on the carrier scoring 3 at the first strict triple, if any."""
    for n, (r0, r1, r2) in enumerate(triples.ranks):
        if r0 < r1 < r2:
            values = dict.fromkeys(triples.points, Fraction(0))
            values[triples.points[r0]] = Fraction(1)
            values[triples.points[r1]] = Fraction(-1)
            values[triples.points[r2]] = Fraction(1)
            return n, values
    return None


def limit_eval_point(x0: IndexValue, x1: IndexValue, x2: IndexValue) -> IndexValue:
    """Evaluation point determined by an ordered limit triple.

    The decision table: a collapsed triple evaluates at the common point, a
    coincidence of the last two at x0, of the first two at x2.  A strict
    triple has no consistent evaluation point and is refused.
    """
    if not x0 <= x1 <= x2:
        raise InputError(f"triple not ordered: {x0}, {x1}, {x2}")
    if x1 == x2:
        return x0
    if x0 == x1:
        return x2
    raise InputError(f"strict limit triple ({x0}, {x1}, {x2}) admits no evaluation point")


class HarnessStep(NamedTuple):
    stage: int
    ground_element: int
    ranks: tuple[int, int, int]
    operator_value: Fraction


class HarnessReport(NamedTuple):
    """Operator values along a schedule, with its limit verdict; steps hold ranks into `points`."""

    points: tuple[IndexValue, ...]
    steps: tuple[HarnessStep, ...]
    limit_point: IndexValue
    limit_value: Fraction
    identity_holds: bool


def continuity_harness(
    family: ChainFamily,
    model: LineModel,
    schedule: Sequence[tuple[int, int]],
    f: Mapping[IndexValue, Fraction],
) -> HarnessReport:
    """Follow Ef along a schedule of ground elements and settle its limit.

    Each schedule entry is (ground_element, stage_label).  The triples read
    in schedule order must be monotone in every coordinate; the final triple
    is put through the limit decision table and the report records whether
    the signed sum at the last stage equals f at the decided point (exact
    rational arithmetic, so this is an identity check, not a tolerance).
    """
    if not schedule:
        raise InputError("schedule must list at least one ground element")
    table = compute_triples(family, model)
    for n, _ in schedule:
        family.ground.check_element(n)
    ranks = [table.ranks[n] for n, _ in schedule]
    for coord in range(3):
        seq = [t[coord] for t in ranks]
        if seq != sorted(seq) and seq != sorted(seq, reverse=True):
            raise InputError(f"schedule triples not monotone in coordinate {coord}")
    values = _signed_sums(f, table.points, ranks)
    steps = tuple(HarnessStep(stage, n, t, v) for (n, stage), t, v in zip(schedule, ranks, values))
    final = steps[-1]
    # Points, not ranks, so that a strict final triple is named by its points.
    z = limit_eval_point(*map(table.points.__getitem__, final.ranks))
    limit_value = _value_at(f, z)
    return HarnessReport(table.points, steps, z, limit_value, final.operator_value == limit_value)


def coincident_schedule(table: TripleTable) -> tuple[tuple[int, int], ...]:
    """Monotone schedule over the elements whose triples show a coincidence.

    Candidates are sorted by triple and thinned to a componentwise
    non-decreasing chain, the finite stand-in for a convergent subsequence;
    strict triples never enter, so the resulting schedule always passes the
    limit decision table.
    """
    candidates = sorted((t, n) for n, t in enumerate(table.ranks) if not t[0] < t[1] < t[2])
    schedule = []
    last = None
    for t, n in candidates:
        if last is None or all(t[i] >= last[i] for i in range(3)):
            schedule.append((n, len(schedule)))
            last = t
    return tuple(schedule)


# --- textual formats ----------------------------------------------------------


def _triple_rows(points: tuple[IndexValue, ...], rows: Iterable[tuple[object, tuple]]) -> list[str]:
    """Tab-separated `head, x0, x1, x2, pattern` per (head, ranks), each point named once."""
    names = [format_index(p) for p in points]
    return [
        f"{head}\t{names[t[0]]}\t{names[t[1]]}\t{names[t[2]]}\t{triple_pattern(t)}"
        for head, t in rows
    ]


def triple_table_to_text(table: TripleTable) -> str:
    """Tab-separated rows: ground element, the three points, coincidence tag."""
    rows = _triple_rows(table.points, enumerate(table.ranks))
    return "\n".join(["# n\tx0\tx1\tx2\tpattern", *rows]) + "\n"


def harness_report_to_text(report: HarnessReport) -> str:
    """Tab-separated trajectory rows followed by the limit verdict rows."""
    steps = report.steps
    rows = _triple_rows(report.points, ((f"{s.stage}\t{s.ground_element}", s.ranks) for s in steps))
    lines = ["# stage\tn\tx0\tx1\tx2\tpattern\tEf"]
    lines += (f"{row}\t{s.operator_value}" for row, s in zip(rows, steps))
    lines.append(f"# z\t{format_index(report.limit_point)}")
    lines.append(f"# f(z)\t{report.limit_value}")
    lines.append(f"# identity\t{'ok' if report.identity_holds else 'FAIL'}")
    return "\n".join(lines) + "\n"


def function_from_text(text: str) -> dict[IndexValue, Fraction]:
    doc = parse_json(text, "function document")
    if not isinstance(doc, dict) or set(doc) != {"values"} or not isinstance(doc["values"], dict):
        raise InputError("function document must have exactly a 'values' object")
    f: dict[IndexValue, Fraction] = {}
    for p, v in doc["values"].items():
        x = parse_index(p)
        if x in f:  # another spelling of a point already read, such as 2/4 for 1/2
            raise InputError(f"duplicate point {x}")
        f[x] = parse_index(v)
    return f


def model_from_text(text: str) -> LineModel:
    doc = parse_json(text, "model document")
    if not isinstance(doc, dict) or set(doc) != {"carrier", "dense"}:
        raise InputError("model document must have exactly carrier and dense")
    return LineModel(parse_index_list(doc["carrier"]), parse_index_list(doc["dense"]))
