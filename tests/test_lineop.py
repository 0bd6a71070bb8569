"""Triple computation, the extension operator, its norm, and the limit harness."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest

from chainlab.adjust import adjust_family
from chainlab.core import ChainFamily, GroundSet, InputError, chain_witness
from chainlab.generators import marciszewski_family, random_bit_indices
from chainlab.lineop import (
    LineModel,
    TripleTable,
    apply_operator,
    coincident_schedule,
    compute_triples,
    continuity_harness,
    function_from_text,
    harness_report_to_text,
    limit_eval_point,
    model_from_text,
    norm_witness,
    operator_norm,
    triple_pattern,
    triple_table_to_text,
)

from oracles import (
    brute_fourth_flip_witness,
    brute_signed_sums,
    brute_triples,
    build_family,
    count_fraction_ops,
    mixed_corpus,
    point_triples,
)

Y3 = (F(1, 4), F(1, 2), F(3, 4))
MODEL3 = LineModel(carrier=Y3 + (F(1),), dense_points=Y3)


def _family3(*traces):
    return build_family(list(traces), indices=Y3)


def test_triples_for_absent_element_all_fall_back_to_max():
    fam = _family3("000")
    table = compute_triples(fam, MODEL3)
    assert point_triples(table)[0] == (F(1), F(1), F(1))


def test_triples_frozen_examples():
    fam = _family3("011", "010")
    table = compute_triples(fam, MODEL3)
    assert point_triples(table) == ((F(1, 2), F(1), F(1)), (F(1, 2), F(3, 4), F(1)))


def test_triples_require_matching_dense_points_and_validation():
    fam = _family3("010")
    with pytest.raises(InputError):
        compute_triples(fam, LineModel(Y3[:2], Y3[:2]))
    bad = build_family(["1010"])
    with pytest.raises(InputError, match="witness"):
        compute_triples(bad, LineModel(bad.indices, bad.indices))


def test_triples_are_always_ordered():
    rng = random.Random(71)
    for _ in range(80):
        fam = mixed_corpus(rng.randrange(10**6), 1, 8, 10)[0]
        if not len(fam):
            continue
        adjusted, _ = adjust_family(fam)
        table = compute_triples(adjusted, LineModel(adjusted.indices, adjusted.indices))
        for x0, x1, x2 in point_triples(table):
            assert x0 <= x1 <= x2


def test_triple_table_rejects_unordered_rows():
    with pytest.raises(InputError):
        TripleTable((F(1), F(2), F(3)), ((1, 0, 2),))


def test_triple_table_rejects_ranks_off_the_carrier():
    for ranks in ((0, 1, 3), (-1, 0, 0)):
        with pytest.raises(InputError, match="not ordered: .*off carrier"):
            TripleTable((F(1), F(2), F(3)), (ranks,))


def test_model_shape_is_validated():
    with pytest.raises(InputError):
        LineModel(carrier=(), dense_points=())
    with pytest.raises(InputError):
        LineModel(carrier=(F(1), F(1)), dense_points=())
    with pytest.raises(InputError):
        LineModel(carrier=(F(1),), dense_points=(F(2),))
    for points, message in (((), "carrier must be nonempty"),
                            ((F(1), F(1)), "carrier not strictly increasing at 1 >= 1")):
        with pytest.raises(InputError, match=message):
            LineModel(points, points)


def test_model_of_family_makes_no_fraction_operation(monkeypatch):
    points = tuple(F(n, 41) for n in range(1, 41))
    fam = ChainFamily(GroundSet(1), points, (0,) * len(points))
    counts = count_fraction_ops(monkeypatch)
    model = LineModel._of_family(fam)
    assert not counts
    assert model.dense_ranks == tuple(range(len(points)))
    general = LineModel(points, tuple(list(points)))  # equal points, another tuple
    assert (model, hash(model), repr(model)) == (general, hash(general), repr(general))
    assert model.dense_ranks == general.dense_ranks
    with pytest.raises(InputError, match="carrier must be nonempty"):
        LineModel._of_family(ChainFamily(GroundSet(1), (), ()))


def test_operator_constant_function_stays_constant():
    fam = _family3("011", "010", "000")
    table = compute_triples(fam, MODEL3)
    f = {p: F(7, 3) for p in MODEL3.carrier}
    out = apply_operator(f, table)
    assert out == dict.fromkeys(range(len(table)), F(7, 3))


def test_operator_cancellation_when_first_two_coincide():
    table = TripleTable((F(1, 2), F(3, 4)), ((0, 0, 1),))
    f = {F(1, 2): F(5), F(3, 4): F(-2)}
    assert apply_operator(f, table) == {0: F(-2)}


def test_operator_step_function_substitution():
    # step that is 1 up to 1/2 and 0 beyond: Ef = f(1/2) - f(3/4) + f(1)
    table = TripleTable((F(1, 2), F(3, 4), F(1)), ((0, 1, 2),))
    f = {p: (F(1) if p <= F(1, 2) else F(0)) for p in MODEL3.carrier}
    assert apply_operator(f, table) == {0: F(1) - F(0) + F(0)}


def test_operator_requires_values_at_triple_points():
    table = TripleTable((F(1, 2), F(3, 4), F(1)), ((0, 1, 2),))
    with pytest.raises(InputError, match="function not defined at carrier point 3/4$"):
        apply_operator({F(1, 2): F(1)}, table)


def test_operator_is_linear():
    rng = random.Random(17)
    fam = _family3("011", "010", "001", "111")
    table = compute_triples(fam, MODEL3)
    for _ in range(50):
        rand_fraction = lambda: F(rng.randint(-8, 8), rng.randint(1, 8))
        f = {p: rand_fraction() for p in MODEL3.carrier}
        g = {p: rand_fraction() for p in MODEL3.carrier}
        a, b = rand_fraction(), rand_fraction()
        combo = {p: a * f[p] + b * g[p] for p in MODEL3.carrier}
        lhs = apply_operator(combo, table)
        ef = apply_operator(f, table)
        eg = apply_operator(g, table)
        assert lhs == {n: a * ef[n] + b * eg[n] for n in lhs}


def test_norm_is_one_without_a_strict_triple():
    assert operator_norm(TripleTable((F(1),), ((0, 0, 0),))) == 1
    assert operator_norm(TripleTable((F(1), F(2)), ((0, 0, 1), (0, 1, 1)))) == 1


def test_norm_is_three_with_a_strict_triple():
    mixed = TripleTable((F(1), F(2), F(3)), ((0, 0, 0), (0, 1, 2)))
    assert operator_norm(mixed) == 3
    n, f = norm_witness(mixed)
    assert n == 1
    assert max(map(abs, f.values())) == 1
    assert apply_operator(f, mixed)[1] == 3


def test_norm_bounds_every_unit_function():
    rng = random.Random(29)
    for _ in range(60):
        fam = mixed_corpus(rng.randrange(10**6), 1, 7, 8)[0]
        adjusted, _ = adjust_family(fam)
        model = LineModel(adjusted.indices, adjusted.indices) if len(adjusted) else None
        if model is None:
            continue
        table = compute_triples(adjusted, model)
        norm = operator_norm(table)
        assert norm <= 3
        f = {p: F(rng.randint(-6, 6), rng.randint(1, 6)) for p in model.carrier}
        sup_f = max(map(abs, f.values()))
        out = apply_operator(f, table)
        assert all(abs(v) <= norm * sup_f for v in out.values())


def test_chain_family_collapses_to_norm_one():
    rng = random.Random(31)
    for _ in range(40):
        size = rng.randint(1, 10)
        width = rng.randint(1, 6)
        mask = 0
        masks = []
        for _ in range(width):
            mask |= rng.getrandbits(size)
            masks.append(mask)
        fam = build_family(
            ["".join("1" if m >> n & 1 else "0" for m in masks) for n in range(size)]
        )
        assert chain_witness(fam) is None
        model = LineModel(fam.indices, fam.indices)
        table = compute_triples(fam, model)
        assert operator_norm(table) == 1
        for x0, x1, x2 in point_triples(table):
            assert x1 == x2 == model.carrier[-1] or x0 == x1 == x2


def test_fourth_flip_holds_for_all_adjusted_families():
    rng = random.Random(37)
    for _ in range(80):
        fam = mixed_corpus(rng.randrange(10**6), 1, 8, 10)[0]
        if not len(fam):
            continue
        adjusted, _ = adjust_family(fam)
        table = compute_triples(adjusted, LineModel(adjusted.indices, adjusted.indices))
        assert brute_fourth_flip_witness(adjusted, table) is None


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((F(1), F(1), F(1)), F(1)),
        ((F(1), F(2), F(2)), F(1)),
        ((F(1), F(1), F(2)), F(2)),
    ],
)
def test_limit_eval_point_decision_table(triple, expected):
    assert limit_eval_point(*triple) == expected


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((F(1), F(1), F(1)), "x0=x1=x2"),
        ((F(1), F(1), F(2)), "x0=x1<x2"),
        ((F(1), F(2), F(2)), "x0<x1=x2"),
        ((F(1), F(2), F(3)), "x0<x1<x2"),
    ],
)
def test_triple_pattern_names_each_coincidence(triple, expected):
    assert triple_pattern(triple) == expected


def test_limit_eval_point_errors():
    with pytest.raises(InputError):
        limit_eval_point(F(2), F(1), F(3))
    with pytest.raises(InputError, match="strict limit triple"):
        limit_eval_point(F(1), F(2), F(3))


def test_trichotomy_identity_on_accepted_triples():
    rng = random.Random(41)
    for _ in range(100):
        a, b = sorted(F(rng.randint(0, 30), 8) for _ in range(2))
        triple = rng.choice([(a, a, a), (a, b, b), (a, a, b)])
        z = limit_eval_point(*triple)
        f = {p: F(rng.randint(-9, 9), rng.randint(1, 5)) for p in {a, b}}
        assert f[triple[0]] - f[triple[1]] + f[triple[2]] == f[z]


def test_harness_constant_schedule():
    fam = _family3("000")  # triple (1, 1, 1) at the carrier top
    f = {p: p + 1 for p in MODEL3.carrier}
    report = continuity_harness(fam, MODEL3, [(0, 0), (0, 1), (0, 2)], f)
    assert report.limit_point == F(1)
    assert report.identity_holds
    assert all(step.operator_value == F(2) for step in report.steps)


def test_harness_final_coincidence_cancels():
    fam = _family3("011")  # triple (1/2, 1, 1): evaluation lands at 1/2
    f = {p: 3 * p for p in MODEL3.carrier}
    report = continuity_harness(fam, MODEL3, [(0, 0)], f)
    final = report.steps[-1]
    assert [report.points[r] for r in final.ranks] == [F(1, 2), F(1), F(1)]
    assert report.limit_point == F(1, 2)
    assert final.operator_value == f[F(1, 2)]
    assert report.identity_holds


def test_harness_rejects_non_monotone_schedules():
    fam = _family3("011", "000", "011")
    f = {p: p for p in MODEL3.carrier}
    with pytest.raises(InputError, match="monotone"):
        continuity_harness(fam, MODEL3, [(0, 0), (1, 1), (0, 2)], f)
    with pytest.raises(InputError):
        continuity_harness(fam, MODEL3, [], f)


def test_harness_flags_strict_final_triple():
    fam = _family3("010")  # (1/2, 3/4, 1) is strict in the extended carrier
    f = {p: p for p in MODEL3.carrier}
    with pytest.raises(InputError, match="strict limit triple"):
        continuity_harness(fam, MODEL3, [(0, 0)], f)


def test_harness_sums_a_strict_step_before_a_coincident_limit():
    # Element 0 reads (1/4, 1/2, 3/4), strict; element 1 is never in: (1, 1, 1).
    fam = _family3("101", "000")
    f = {F(1, 4): F(2), F(1, 2): F(-3), F(3, 4): F(5, 2), F(1): F(7)}
    report = continuity_harness(fam, MODEL3, [(0, 0), (1, 1)], f)
    table = compute_triples(fam, MODEL3)
    assert [triple_pattern(s.ranks) for s in report.steps] == ["x0<x1<x2", "x0=x1=x2"]
    assert [s.operator_value for s in report.steps] == [F(15, 2), F(7)]
    assert [s.operator_value for s in report.steps] == [table.signed_sum(f, n) for n in (0, 1)]
    assert (report.limit_point, report.limit_value, report.identity_holds) == (F(1), F(7), True)


class _CountingValues(dict):
    """Function values that count their lookups."""

    reads = 0

    def __getitem__(self, p):
        self.reads += 1
        return super().__getitem__(p)


def test_harness_reads_f_once_per_point():
    fam = _family3("011")  # triple (1/2, 1, 1) at every step
    values = _CountingValues({p: 3 * p for p in MODEL3.carrier})
    report = continuity_harness(fam, MODEL3, [(0, 0), (0, 1), (0, 2)], values)
    assert [step.operator_value for step in report.steps] == [F(3, 2)] * 3
    assert values.reads == 3  # 1/2 and 1 for the steps, then f(z) at z = 1/2


def test_harness_names_the_first_undefined_point_in_step_order():
    # Step order reads 1/2, then 1 (x1 of the first step) before 3/4 (x0 of
    # the second step), so 1 is the point reported.
    fam = _family3("011", "001")
    f = {F(1, 2): F(1)}
    with pytest.raises(InputError, match="carrier point 1$"):
        continuity_harness(fam, MODEL3, [(0, 0), (1, 1)], f)


def test_coincident_schedules_from_adjusted_families_never_flag():
    rng = random.Random(43)
    runs = 0
    for _ in range(60):
        xs = random_bit_indices(rng, 5, rng.randint(3, 12))
        fam = marciszewski_family(xs, 5)
        adjusted, _ = adjust_family(fam)
        model = LineModel(adjusted.indices, adjusted.indices)
        table = compute_triples(adjusted, model)
        schedule = coincident_schedule(table)
        if not schedule:
            continue
        runs += 1
        f = {p: F(rng.randint(-9, 9), rng.randint(1, 7)) for p in model.carrier}
        report = continuity_harness(adjusted, model, schedule, f)
        assert report.identity_holds
        for step in report.steps:
            assert triple_pattern(step.ranks) != "x0<x1<x2"
    assert runs > 30


def test_harness_report_text_is_stable():
    fam = _family3("011")
    f = {p: 2 * p for p in MODEL3.carrier}
    report = continuity_harness(fam, MODEL3, [(0, 0)], f)
    assert harness_report_to_text(report) == (
        "# stage\tn\tx0\tx1\tx2\tpattern\tEf\n"
        "0\t0\t1/2\t1/1\t1/1\tx0<x1=x2\t1\n"
        "# z\t1/2\n"
        "# f(z)\t1\n"
        "# identity\tok\n"
    )


def test_text_formats_round_trip():
    table = TripleTable((F(1, 2), F(3, 4), F(1)), ((0, 1, 2), (2, 2, 2)))
    assert triple_table_to_text(table) == (
        "# n\tx0\tx1\tx2\tpattern\n"
        "0\t1/2\t3/4\t1/1\tx0<x1<x2\n"
        "1\t1/1\t1/1\t1/1\tx0=x1=x2\n"
    )
    f = {F(1, 2): F(-3, 7), F(1): F(2)}
    assert function_from_text(json.dumps({"values": {"1/2": "-3/7", "1/1": "2"}})) == f
    doc = {"carrier": ["1/4", "1/2", "3/4", "1"], "dense": ["1/4", "1/2", "3/4"]}
    assert model_from_text(json.dumps(doc)) == MODEL3
    with pytest.raises(InputError):
        function_from_text("{}")
    with pytest.raises(InputError, match="^duplicate point 1/2$"):
        function_from_text(json.dumps({"values": {"1/2": "-1/1", "2/4": "5/1"}}))
    with pytest.raises(InputError):
        model_from_text('{"carrier": ["1/2"]}')


def _adjusted_models(seed: int, count: int):
    """(adjusted family, model) pairs over adjusted `mixed_corpus` families.

    Each nonempty family gets the model of its own indices and a model whose
    carrier also holds a point below, a point between each two indices and
    a point above them, so that max(K) is no dense point.
    """
    for fam in mixed_corpus(seed, count, max_indices=8, max_ground=10):
        adjusted, _ = adjust_family(fam)
        if not len(adjusted):
            continue
        ys = adjusted.indices
        extra = (ys[0] - 1, *((a + b) / 2 for a, b in zip(ys, ys[1:])), ys[-1] + 1)
        yield adjusted, LineModel._of_family(adjusted)
        yield adjusted, LineModel(tuple(sorted(ys + extra)), ys)


def test_compute_triples_tables_pass_the_checking_constructor():
    models = 0
    for adjusted, model in _adjusted_models(seed=2020, count=300):
        table = compute_triples(adjusted, model)
        assert table == TripleTable(table.points, table.ranks)
        assert point_triples(table) == brute_triples(adjusted, model.carrier[-1])
        models += 1
    assert models > 500


def test_every_ef_evaluation_matches_the_brute_signed_sums():
    rng = random.Random(2021)
    checked = missing = 0
    for adjusted, model in _adjusted_models(seed=2022, count=200):
        table = compute_triples(adjusted, model)
        triples = point_triples(table)
        f = {p: F(rng.randint(-9, 9), rng.randint(1, 5)) for p in model.carrier}
        if rng.random() < 0.5:  # a function missing some carrier points
            for p in rng.sample(model.carrier, rng.randint(1, len(model.carrier))):
                del f[p]
        schedule = coincident_schedule(table)
        runs = [
            (lambda: list(apply_operator(f, table).values()), triples),
            *((lambda n=n: [table.signed_sum(f, n)], [triples[n]]) for n in range(len(table))),
        ]
        if schedule:
            runs.append((lambda: [s.operator_value
                                  for s in continuity_harness(adjusted, model, schedule, f).steps],
                         [triples[n] for n, _ in schedule]))
        for run, expected_triples in runs:
            try:
                expected = brute_signed_sums(f, expected_triples)
            except KeyError as exc:
                missing += 1
                with pytest.raises(InputError, match=f"carrier point {exc.args[0]}$"):
                    run()
            else:
                assert run() == expected
                checked += 1
    assert checked > 500 and missing > 500


def test_a_coincident_triple_still_reads_x1_and_x2():
    # Element 0 reads (1/2, 1, 1): its sum is f(1/2), but f must be defined at 1 too.
    fam = _family3("011")
    table = compute_triples(fam, MODEL3)
    f = {F(1, 2): F(5), F(1, 4): F(0), F(3, 4): F(0)}
    for run in (lambda: apply_operator(f, table), lambda: table.signed_sum(f, 0),
                lambda: continuity_harness(fam, MODEL3, [(0, 0)], f)):
        with pytest.raises(InputError, match="carrier point 1$"):
            run()
