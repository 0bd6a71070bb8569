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
table on the final triple; a strict final triple is rejected as evidence of
an upstream violation.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .core import (
    ChainFamily,
    IndexValue,
    InputError,
    alternation_witness,
    format_index,
    iter_bits,
    membership_steps,
    parse_index,
    parse_json,
)


class InconsistencyError(RuntimeError):
    """A strict triple reached the limit decision table."""


class FourthFlipWitness(NamedTuple):
    """Least (n, y) with y past n's third point yet n outside the set at y."""

    n: int
    y: IndexValue


@dataclass(frozen=True)
class LineModel:
    """Finite strictly increasing carrier with a chosen dense index subset."""

    carrier: tuple[IndexValue, ...]
    dense_points: tuple[IndexValue, ...]

    def __post_init__(self) -> None:
        if not self.carrier:
            raise InputError("carrier must be nonempty")
        for a, b in zip(self.carrier, self.carrier[1:]):
            if not a < b:
                raise InputError(f"carrier not strictly increasing at {a} >= {b}")
        carrier = set(self.carrier)
        for a, b in zip(self.dense_points, self.dense_points[1:]):
            if not a < b:
                raise InputError(f"dense points not strictly increasing at {a} >= {b}")
        missing = [y for y in self.dense_points if y not in carrier]
        if missing:
            raise InputError(f"dense points {missing} not in the carrier")

    @classmethod
    def from_dense(cls, dense_points: Sequence[IndexValue]) -> LineModel:
        """Smallest model: the carrier is the dense set itself."""
        pts = tuple(dense_points)
        return cls(pts, pts)

    @property
    def max_point(self) -> IndexValue:
        return self.carrier[-1]


@dataclass(frozen=True)
class TripleTable:
    """Per ground element n, the ordered points (x0_n, x1_n, x2_n)."""

    triples: tuple[tuple[IndexValue, IndexValue, IndexValue], ...]

    def __post_init__(self) -> None:
        for n, (x0, x1, x2) in enumerate(self.triples):
            if not x0 <= x1 <= x2:
                raise InputError(f"triple at n={n} not ordered: {x0}, {x1}, {x2}")

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class FunctionOnLine:
    """Rational-valued function given pointwise on carrier points."""

    values: Mapping[IndexValue, Fraction]

    def value_at(self, p: IndexValue) -> Fraction:
        try:
            return self.values[p]
        except KeyError:
            raise InputError(f"function not defined at carrier point {p}") from None

    def sup_norm(self) -> Fraction:
        return max((abs(v) for v in self.values.values()), default=Fraction(0))


@dataclass(frozen=True)
class ExtendedFunction:
    """A function on the carrier together with its values on the ground."""

    on_carrier: FunctionOnLine
    on_ground: dict[int, Fraction]


def compute_triples(family: ChainFamily, model: LineModel) -> TripleTable:
    """First-entry / first-exit / first-re-entry points for every ground element.

    The family's indices must be exactly the model's dense points and the
    family must be barely alternating; each empty search falls back to
    max(K).
    """
    if family.indices != model.dense_points:
        raise InputError("family indices differ from the model's dense points")
    steps = membership_steps(family)
    if any(second_exit for *_, second_exit in steps):
        raise InputError(
            f"family is not barely alternating: witness {alternation_witness(family)}"
        )
    # Each element's entry, exit and re-entry positions, from the steps that
    # hold it; position k stands for max(K).
    k = len(family)
    points = family.indices + (model.max_point,)
    size = family.ground.size
    first_in, first_out, back_in = [k] * size, [k] * size, [k] * size
    for i, step in enumerate(steps):
        for new, where in zip(step, (first_in, first_out, back_in)):
            for n in iter_bits(new):
                where[n] = i
    at = points.__getitem__
    return TripleTable(tuple(zip(map(at, first_in), map(at, first_out), map(at, back_in))))


def apply_operator(f: FunctionOnLine, triples: TripleTable) -> ExtendedFunction:
    """Extend f to the ground by the signed sum over each element's triple."""
    on_ground = {
        n: f.value_at(x0) - f.value_at(x1) + f.value_at(x2)
        for n, (x0, x1, x2) in enumerate(triples.triples)
    }
    return ExtendedFunction(on_carrier=f, on_ground=on_ground)


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
    strict = any(t[0] < t[1] < t[2] for t in triples.triples)
    return Fraction(3) if strict else Fraction(1)


def norm_witness(
    triples: TripleTable, carrier: Sequence[IndexValue]
) -> tuple[int, FunctionOnLine] | None:
    """Sup-norm-1 function achieving value 3 at the first strict triple, if any."""
    for n, (x0, x1, x2) in enumerate(triples.triples):
        if x0 < x1 < x2:
            values = {p: Fraction(0) for p in carrier}
            values[x0] = Fraction(1)
            values[x1] = Fraction(-1)
            values[x2] = Fraction(1)
            return n, FunctionOnLine(values)
    return None


def fourth_flip_witness(
    family: ChainFamily, triples: TripleTable
) -> FourthFlipWitness | None:
    """Least (n, y) with y beyond x2_n but n missing from the set at y, else None.

    n fails when its last absence, from one backward sweep over the sets,
    is at or after the first index past x2_n, found by bisection.
    """
    if len(triples) != family.ground.size:
        raise InputError(
            f"triple table covers {len(triples)} elements, ground has {family.ground.size}"
        )
    full = family.ground.full_mask
    last_absent = [-1] * family.ground.size
    absent = 0
    for i in reversed(range(len(family))):
        new = full & ~(family.sets[i].mask | absent)
        for n in iter_bits(new):
            last_absent[n] = i
        absent |= new
    for n, (_, _, x2) in enumerate(triples.triples):
        i = bisect_right(family.indices, x2)
        if i <= last_absent[n]:
            while family.sets[i].mask >> n & 1:
                i += 1
            return FourthFlipWitness(n, family.indices[i])
    return None


def no_fourth_flip_check(family: ChainFamily, triples: TripleTable) -> bool:
    return fourth_flip_witness(family, triples) is None


def limit_eval_point(
    x0: IndexValue, x1: IndexValue, x2: IndexValue
) -> IndexValue:
    """Evaluation point determined by an ordered limit triple.

    The decision table: a collapsed triple evaluates at the common point, a
    coincidence of the last two at x0, of the first two at x2.  A strict
    triple has no consistent evaluation point and is rejected.
    """
    if not x0 <= x1 <= x2:
        raise InputError(f"triple not ordered: {x0}, {x1}, {x2}")
    if x1 == x2:
        return x0
    if x0 == x1:
        return x2
    raise InconsistencyError(
        f"strict limit triple ({x0}, {x1}, {x2}) admits no evaluation point; "
        "the source family alternates too much"
    )


class HarnessStep(NamedTuple):
    stage: int
    ground_element: int
    triple: tuple[IndexValue, IndexValue, IndexValue]
    operator_value: Fraction


@dataclass(frozen=True)
class HarnessReport:
    """Trajectory of operator values along a schedule, with its limit verdict."""

    steps: tuple[HarnessStep, ...]
    final_triple: tuple[IndexValue, IndexValue, IndexValue]
    limit_point: IndexValue
    limit_value: Fraction
    final_operator_value: Fraction
    identity_holds: bool


def _monotone(values: Sequence[IndexValue]) -> bool:
    return all(a <= b for a, b in zip(values, values[1:])) or all(
        a >= b for a, b in zip(values, values[1:])
    )


def continuity_harness(
    family: ChainFamily,
    model: LineModel,
    schedule: Sequence[tuple[int, int]],
    f: FunctionOnLine,
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
    seq = []
    for n, stage in schedule:
        family.ground.check_element(n)
        seq.append((n, stage, table.triples[n]))
    for coord in range(3):
        if not _monotone([t[coord] for _, _, t in seq]):
            raise InputError(f"schedule triples not monotone in coordinate {coord}")
    steps = tuple(
        HarnessStep(
            stage=stage,
            ground_element=n,
            triple=t,
            operator_value=f.value_at(t[0]) - f.value_at(t[1]) + f.value_at(t[2]),
        )
        for n, stage, t in seq
    )
    final = seq[-1][2]
    z = limit_eval_point(*final)
    limit_value = f.value_at(z)
    final_value = steps[-1].operator_value
    return HarnessReport(
        steps=steps,
        final_triple=final,
        limit_point=z,
        limit_value=limit_value,
        final_operator_value=final_value,
        identity_holds=final_value == limit_value,
    )


def coincident_schedule(table: TripleTable) -> tuple[tuple[int, int], ...]:
    """Monotone schedule over the elements whose triples show a coincidence.

    Candidates are sorted by triple and thinned to a componentwise
    non-decreasing chain, the finite stand-in for a convergent subsequence;
    strict triples never enter, so the resulting schedule always passes the
    limit decision table.
    """
    candidates = sorted(
        (t, n)
        for n, t in enumerate(table.triples)
        if triple_pattern(t) != "x0<x1<x2"
    )
    schedule = []
    last = None
    for t, n in candidates:
        if last is None or all(t[i] >= last[i] for i in range(3)):
            schedule.append((n, len(schedule)))
            last = t
    return tuple(schedule)


# --- textual formats ----------------------------------------------------------


def triple_table_to_text(table: TripleTable) -> str:
    """Tab-separated rows: ground element, the three points, coincidence tag."""
    lines = ["# n\tx0\tx1\tx2\tpattern"]
    for n, t in enumerate(table.triples):
        lines.append(
            f"{n}\t{format_index(t[0])}\t{format_index(t[1])}\t{format_index(t[2])}"
            f"\t{triple_pattern(t)}"
        )
    return "\n".join(lines) + "\n"


def harness_report_to_text(report: HarnessReport) -> str:
    """Tab-separated trajectory rows followed by the limit verdict rows."""
    lines = ["# stage\tn\tx0\tx1\tx2\tpattern\tEf"]
    for step in report.steps:
        x0, x1, x2 = step.triple
        lines.append(
            f"{step.stage}\t{step.ground_element}\t{format_index(x0)}"
            f"\t{format_index(x1)}\t{format_index(x2)}"
            f"\t{triple_pattern(step.triple)}\t{step.operator_value}"
        )
    lines.append(f"# z\t{format_index(report.limit_point)}")
    lines.append(f"# f(z)\t{report.limit_value}")
    lines.append(f"# identity\t{'ok' if report.identity_holds else 'FAIL'}")
    return "\n".join(lines) + "\n"


def function_to_text(f: FunctionOnLine) -> str:
    doc = {
        "values": {
            format_index(p): format_index(v)
            for p, v in sorted(f.values.items())
        }
    }
    return json.dumps(doc, indent=2) + "\n"


def function_from_text(text: str) -> FunctionOnLine:
    doc = parse_json(text, "function document")
    if not isinstance(doc, dict) or set(doc) != {"values"} or not isinstance(doc["values"], dict):
        raise InputError("function document must have exactly a 'values' object")
    return FunctionOnLine(
        {parse_index(p): parse_index(v) for p, v in doc["values"].items()}
    )


def model_to_text(model: LineModel) -> str:
    doc = {
        "carrier": [format_index(p) for p in model.carrier],
        "dense": [format_index(p) for p in model.dense_points],
    }
    return json.dumps(doc, indent=2) + "\n"


def model_from_text(text: str) -> LineModel:
    doc = parse_json(text, "model document")
    if not isinstance(doc, dict) or set(doc) != {"carrier", "dense"}:
        raise InputError("model document must have exactly carrier and dense")
    return LineModel(
        carrier=tuple(parse_index(p) for p in doc["carrier"]),
        dense_points=tuple(parse_index(p) for p in doc["dense"]),
    )
