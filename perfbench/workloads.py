"""The benchmark's workloads: CLI command sequences and their output checks.

A workload is built from a seed and a working directory.  `prepare` lists
CLI invocations that make the inputs it reads but does not generate itself;
they run untimed.  `commands` is one pass of the timed sequence; each
command's `verify` checks its stdout with the int-mask checks in `oracle`.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


@dataclass(frozen=True)
class Command:
    label: str                  # the CLI command, used as the metric stem
    argv: tuple[str, ...]
    verify: Callable[[Path], list[str]]  # stdout file -> problems
    artifact: Path | None = None  # file the command writes besides stdout


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    commands: tuple[Command, ...]
    prepare: tuple[tuple[str, ...], ...] = field(default=())
    reads: tuple[Path, ...] = field(default=())  # family files, for provenance


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def check_dense(seed: int, work: Path, ground: int = 256, count: int = 1000,
                flips: int = 2, budget: int = 2) -> Workload:
    family = work / "dense.json"
    return Workload(
        name="check_dense",
        params={"N": ground, "k": count, "flips": flips, "budget": budget,
                "pairs": _pairs(count)},
        prepare=(("generate", "--kind", "perturbed", "--seed", str(seed),
                  "--ground-size", str(ground), "--count", str(count),
                  "--flips", str(flips), "--output", str(family)),),
        commands=(
            Command("check", ("check", "--input", str(family), "--budget", str(budget)),
                    lambda out: oracle.verify_check(family, out, budget)),
        ),
        reads=(family,),
    )


def rebuild_wide(seed: int, work: Path, ground: int = 2048, count: int = 400,
                 flips: int = 3) -> Workload:
    family = work / "wide.json"
    adjusted = work / "wide-adjusted.json"
    return Workload(
        name="rebuild_wide",
        params={"N": ground, "k": count, "flips": flips, "pairs": 0},
        commands=(
            Command("generate", ("generate", "--kind", "perturbed", "--seed", str(seed),
                                 "--ground-size", str(ground), "--count", str(count),
                                 "--flips", str(flips), "--output", str(family)),
                    lambda out: oracle.verify_family_shape(family, ground, count),
                    artifact=family),
            Command("adjust", ("adjust", "--input", str(family), "--order", "random",
                               "--seed", str(seed), "--output", str(adjusted)),
                    lambda out: oracle.verify_adjust(family, adjusted, out),
                    artifact=adjusted),
            Command("triples", ("triples", "--input", str(adjusted)),
                    lambda out: oracle.verify_triples(adjusted, out)),
            Command("operator", ("operator", "--input", str(adjusted)),
                    lambda out: oracle.verify_operator(adjusted, out)),
        ),
        reads=(family, adjusted),
    )


def sweep_grid(seed: int, work: Path, ground: int = 128, count: int = 160,
               flips: int = 6, reps: int = 3, depth: int = 11, m_count: int = 200,
               m_reps: int = 2) -> Workload:
    p_rows = (flips + 1) * reps
    m_sizes = [min(m_count, (1 << d) - 1) for d in range(3, depth + 1)]
    m_rows = len(m_sizes) * m_reps
    return Workload(
        name="sweep_grid",
        params={"perturbed": {"N": ground, "k": count, "flips": f"0..{flips}",
                              "reps": reps},
                "marciszewski": {"depth": f"3..{depth}", "k": m_count, "reps": m_reps},
                "families": p_rows + m_rows,
                "pairs": p_rows * _pairs(count) + m_reps * sum(map(_pairs, m_sizes))},
        commands=(
            Command("sweep", ("sweep", "--kind", "perturbed", "--seed", str(seed),
                              "--ground-size", str(ground), "--count", str(count),
                              "--flips", str(flips), "--reps", str(reps)),
                    lambda out: oracle.verify_sweep(out, p_rows)),
            Command("sweep", ("sweep", "--kind", "marciszewski", "--seed", str(seed),
                              "--depth", str(depth), "--count", str(m_count),
                              "--reps", str(m_reps)),
                    lambda out: oracle.verify_sweep(out, m_rows)),
        ),
    )


WORKLOADS = {"check_dense": check_dense, "rebuild_wide": rebuild_wide,
             "sweep_grid": sweep_grid}

# Sizes for the tracer self-test: every workload's command sequence on a
# family small enough to run in well under a second.
TINY = {
    "check_dense": {"ground": 16, "count": 12, "budget": 1},
    "rebuild_wide": {"ground": 24, "count": 10, "flips": 2},
    "sweep_grid": {"ground": 16, "count": 8, "flips": 2, "reps": 1, "depth": 4,
                   "m_count": 6, "m_reps": 1},
}
