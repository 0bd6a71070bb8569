"""Acceptance suite: every exit criterion at its stated size and tolerance.

All checks are exact (rational/bit arithmetic, zero tolerance).  One pass/fail
line per criterion is printed; run with ``pytest tests/test_acceptance.py -v -s``
to see them.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest

import chainlab
from chainlab.adjust import adjust_family, compatibility_witness, conditions_compatible
from chainlab.core import (
    ChainFamily,
    GroundSet,
    SetBits,
    alternation_witness,
    flip_count,
    is_barely_alternating,
    is_chain,
    membership_trace,
)
from chainlab.generators import (
    DyadicGround,
    marciszewski_family,
    perturbed_chain,
    random_bit_indices,
    sample_cut_indices,
    uniform_positions,
    initial_segment_chain,
)
from chainlab.adjust import insert_point, interpolate_gap
from chainlab.lineop import (
    FunctionOnLine,
    InconsistencyError,
    LineModel,
    apply_operator,
    coincident_schedule,
    compute_triples,
    continuity_harness,
    no_fourth_flip_check,
    norm_witness,
    operator_norm,
)

from oracles import (
    brute_alternation_witness,
    mixed_corpus,
    random_family,
    receipts_respect_bound,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} {name}: FAIL")
        raise
    print(f"criterion {number:2d} {name}: PASS")


@lru_cache(maxsize=None)
def checker_corpus() -> tuple[ChainFamily, ...]:
    return tuple(mixed_corpus(seed=1001, count=1000, max_indices=12, max_ground=16))


@lru_cache(maxsize=None)
def adjustment_corpus() -> tuple[ChainFamily, ...]:
    """100 dyadic-expansion instances plus 100 perturbed chains."""
    rng = random.Random(30303)
    instances = []
    for i in range(100):
        depth = 4 + i % 7
        count = min((1 << depth) - 1, 10 + (i * 7) % 91)
        xs = random_bit_indices(rng, depth, count)
        instances.append(marciszewski_family(xs, DyadicGround(depth)))
    for i in range(100):
        size = 8 + (i * 3) % 57
        count = min(size, 5 + (i * 11) % 36)
        cuts = sample_cut_indices(rng, size, count)
        instances.append(perturbed_chain(rng.randrange(10**9), size, cuts, i % 4))
    return tuple(instances)


@lru_cache(maxsize=None)
def passing_families() -> tuple[ChainFamily, ...]:
    """Families that validate as barely alternating with no adjustment.

    Unlike adjusted output these are usually not chains, so they exercise the
    strict-triple (norm 3) side of the operator.
    """
    rng = random.Random(121212)
    out = []
    while len(out) < 150:
        fam = random_family(rng, 5, 12)
        if len(fam) and is_barely_alternating(fam):
            out.append(fam)
    return tuple(out)


@lru_cache(maxsize=None)
def adjusted_families() -> tuple[tuple[ChainFamily, ChainFamily], ...]:
    rng = random.Random(40404)
    out = []
    for i, fam in enumerate(adjustment_corpus()):
        if i % 5 == 0:
            order = list(fam.indices)
            rng.shuffle(order)
            order = tuple(order)
        else:
            order = None
        adjusted, report = adjust_family(fam, order)
        out.append((fam, adjusted, report))
    return tuple(out)


def test_c01_checker_oracle_equivalence():
    with criterion(1, "checker oracle equivalence"):
        start = time.monotonic()
        mismatches = 0
        for fam in checker_corpus():
            fast = alternation_witness(fam)
            slow = brute_alternation_witness(fam)
            if (fast is None) != (slow is None):
                mismatches += 1
            elif fast is not None and tuple(fast) != slow:
                mismatches += 1
        elapsed = time.monotonic() - start
        assert mismatches == 0
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_c02_pattern_characterization():
    with criterion(2, "pattern characterization"):
        mismatches = 0
        for fam in checker_corpus():
            characterized = all(
                flip_count(fam, n) <= 3
                and (
                    flip_count(fam, n) < 3
                    or membership_trace(fam, n).startswith("0")
                )
                for n in range(fam.ground.size)
            )
            if is_barely_alternating(fam) != characterized:
                mismatches += 1
        assert mismatches == 0


def test_c03_constructive_adjustment_at_scale():
    with criterion(3, "constructive adjustment at scale"):
        start = time.monotonic()
        violations = 0
        for original, adjusted, report in adjusted_families():
            if adjusted.indices != original.indices:
                violations += 1
            if not is_barely_alternating(adjusted):
                violations += 1
            if not receipts_respect_bound(original, adjusted, report):
                violations += 1
        elapsed = time.monotonic() - start
        assert violations == 0
        assert elapsed < 30.0, f"adjustment corpus took {elapsed:.1f}s"


def test_c04_density_step_law():
    with criterion(4, "density step pointwise agreement"):
        rng = random.Random(50505)
        calls = 0
        violations = 0
        while calls < 10_000:
            fam = mixed_corpus(rng.randrange(10**6), 1, 6, 16)[0]
            base, _ = adjust_family(fam)
            cond = base
            size = base.ground.size
            x = F(rng.randrange(1, 1 << 14), 1 << 14)
            if x in base.indices:
                continue
            candidate = SetBits(base.ground, rng.getrandbits(size))
            new_cond, receipt = insert_point(cond, x, candidate)
            calls += 1
            below = (
                base.set_at(receipt.predecessor)
                if receipt.predecessor is not None
                else SetBits.empty(base.ground)
            )
            above = (
                base.set_at(receipt.successor)
                if receipt.successor is not None
                else SetBits.full(base.ground)
            )
            produced = receipt.produced_set
            for m in range(size):
                if (m in produced) != (m in below) and (m in produced) != (m in above):
                    violations += 1
            if not is_barely_alternating(new_cond):
                violations += 1
        assert calls >= 10_000
        assert violations == 0


def test_c05_compatibility_kernel():
    with criterion(5, "pairwise compatibility"):
        rng = random.Random(60606)
        misclassified = 0
        done = 0
        for _, adjusted, _ in adjusted_families():
            if len(adjusted) < 3 or done >= 100:
                continue
            done += 1
            split = rng.randrange(1, len(adjusted) - 1)
            pairs = list(adjusted.pairs())
            left = ChainFamily.from_pairs(adjusted.ground, pairs[: split + 1])
            right = ChainFamily.from_pairs(adjusted.ground, pairs[split:])
            if not conditions_compatible(left, right):
                misclassified += 1
        assert done == 100
        for trial in range(20):
            g = GroundSet(trial + 1)
            n = rng.randrange(g.size)
            lo, a, b, hi = sorted(
                F(v, 4096) for v in rng.sample(range(1, 4096), 4)
            )
            elem = SetBits.from_elements(g, [n])
            # merged trace at n reads 1,0,1,0 across lo < a < b < hi
            c1 = ChainFamily.from_pairs(g, [(b, elem)])
            c2 = ChainFamily.from_pairs(
                g, [(lo, elem), (a, SetBits.empty(g)), (hi, SetBits.empty(g))]
            )
            witness = compatibility_witness(c1, c2)
            if witness is None or witness != (n, lo, a, b, hi):
                misclassified += 1
        assert misclassified == 0


def test_c06_gap_interpolation():
    with criterion(6, "gap interpolation exceptions"):
        rng = random.Random(70707)
        for _ in range(100):
            size = rng.randint(8, 64)
            g = GroundSet(size)
            base = rng.getrandbits(size)
            ascending = []
            u = base & rng.getrandbits(size)
            for _ in range(rng.randint(1, 8)):
                u |= base & rng.getrandbits(size)
                extra = 0
                for _ in range(rng.randint(0, 3)):
                    extra |= 1 << rng.randrange(size)
                ascending.append(SetBits(g, u | extra))
            descending = []
            v = base | rng.getrandbits(size)
            for _ in range(rng.randint(1, 8)):
                v &= base | rng.getrandbits(size)
                descending.append(SetBits(g, v))
            w = interpolate_gap(ascending, descending, 3)
            for n, un in enumerate(ascending):
                bound = SetBits.empty(g)
                for m in range(min(n + 1, len(descending))):
                    bound |= un - descending[m]
                assert (un - w).is_subset(bound)
            for m, vm in enumerate(descending):
                bound = SetBits.empty(g)
                for n in range(min(m, len(ascending))):
                    bound |= ascending[n] - vm
                assert (w - vm).is_subset(bound)


def test_c07_operator_norm():
    with criterion(7, "operator norm bound and witness"):
        # iterated insertion squeezes every produced set between chain
        # neighbours, so adjusted families are chains and collapse to norm 1
        for _, adjusted, _ in adjusted_families():
            model = LineModel.from_dense(adjusted.indices)
            table = compute_triples(adjusted, model)
            assert operator_norm(table) <= 3
            assert is_chain(adjusted) and operator_norm(table) == 1
        rng = random.Random(80808)
        for _ in range(25):
            size = rng.randint(4, 32)
            cuts = sample_cut_indices(rng, size, rng.randint(1, 20))
            chain = initial_segment_chain(uniform_positions(size), cuts)
            assert is_chain(chain)
            table = compute_triples(chain, LineModel.from_dense(chain.indices))
            assert operator_norm(table) == 1
        # strict triples come from families that validate as barely
        # alternating without adjustment; the witness must hit 3 exactly
        strict_seen = 0
        for fam in passing_families():
            model = LineModel.from_dense(fam.indices)
            table = compute_triples(fam, model)
            norm = operator_norm(table)
            assert norm <= 3
            witness = norm_witness(table, model.carrier)
            if witness is None:
                assert norm == 1
                continue
            strict_seen += 1
            n, f = witness
            assert f.sup_norm() == 1
            assert abs(apply_operator(f, table).on_ground[n]) == 3
            assert norm == 3
        assert strict_seen >= 50


def test_c08_extension_and_linearity():
    with criterion(8, "extension law and linearity"):
        rng = random.Random(90909)
        usable = [
            (adjusted, compute_triples(adjusted, LineModel.from_dense(adjusted.indices)))
            for _, adjusted, _ in adjusted_families()[:40]
        ]

        def rand_f(model_points):
            return FunctionOnLine(
                {p: F(rng.randint(-9, 9), rng.randint(1, 9)) for p in model_points}
            )

        checked = 0
        while checked < 100:
            adjusted, table = usable[rng.randrange(len(usable))]
            points = adjusted.indices
            f, g_fn = rand_f(points), rand_f(points)
            a = F(rng.randint(-6, 6), rng.randint(1, 6))
            b = F(rng.randint(-6, 6), rng.randint(1, 6))
            ef = apply_operator(f, table)
            assert all(ef.on_carrier.values[p] == f.values[p] for p in points)
            combo = FunctionOnLine(
                {p: a * f.values[p] + b * g_fn.values[p] for p in points}
            )
            lhs = apply_operator(combo, table).on_ground
            eg = apply_operator(g_fn, table).on_ground
            assert lhs == {n: a * ef.on_ground[n] + b * eg[n] for n in lhs}
            checked += 1


def test_c09_triple_soundness():
    with criterion(9, "triple soundness and limit table"):
        rng = random.Random(10101)
        schedules_run = 0
        validated = [adjusted for _, adjusted, _ in adjusted_families()]
        validated += list(passing_families())
        for fam in validated:
            model = LineModel.from_dense(fam.indices)
            table = compute_triples(fam, model)
            for x0, x1, x2 in table.triples:
                assert x0 <= x1 <= x2
            assert no_fourth_flip_check(fam, table)
            schedule = coincident_schedule(table)
            if not schedule:
                continue
            f = FunctionOnLine(
                {p: F(rng.randint(-9, 9), rng.randint(1, 9)) for p in model.carrier}
            )
            try:
                report = continuity_harness(fam, model, schedule, f)
            except InconsistencyError as exc:  # pragma: no cover - must not happen
                raise AssertionError(f"limit table rejected a derived triple: {exc}")
            assert report.identity_holds
            assert (
                report.final_operator_value
                == f.value_at(report.final_triple[0])
                - f.value_at(report.final_triple[1])
                + f.value_at(report.final_triple[2])
            )
            schedules_run += 1
        assert schedules_run >= 200


def _run_cli(args, cwd):
    # the child runs from `cwd`, so a relative PYTHONPATH would not find the package
    src = str(Path(chainlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chainlab.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_c10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism"):
        fam = tmp_path / "family.json"
        adjusted = tmp_path / "adjusted.json"
        configs = [
            (
                ["generate", "--kind", "perturbed", "--seed", "13",
                 "--ground-size", "24", "--count", "10", "--flips", "2",
                 "--output", str(fam)],
                fam,
            ),
            (
                ["adjust", "--input", str(fam), "--order", "random",
                 "--seed", "7", "--output", str(adjusted)],
                adjusted,
            ),
            (["check", "--input", str(adjusted), "--budget", "2"], None),
            (["operator", "--input", str(adjusted)], None),
            (
                ["sweep", "--kind", "perturbed", "--seed", "5",
                 "--ground-size", "12", "--count", "5", "--flips", "2",
                 "--reps", "2"],
                None,
            ),
        ]
        for args, artifact in configs:
            outputs = set()
            artifacts = set()
            for _ in range(5):
                outputs.add(_run_cli(args, tmp_path))
                if artifact is not None:
                    artifacts.add(artifact.read_bytes())
            assert len(outputs) == 1, f"stdout drifted for {args[0]}"
            if artifact is not None:
                assert len(artifacts) == 1, f"artifact drifted for {args[0]}"


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
