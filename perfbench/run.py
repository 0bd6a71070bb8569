"""chainlab benchmark: time the CLI end to end, or trace its layers in process.

    python3 perfbench/run.py --workload check_dense --seed 1 --seconds 36 --trace 0

With `--trace 0` a single client runs the workload's CLI commands as a
closed loop, one fresh `python -m chainlab.cli` process per command, each
starting after the previous one exits, until `--seconds` have passed.  It
reports end-to-end medians over the passes, with each child's wall time
scaled to a reference host speed read just before and after it (see
`hostspeed.py`); the raw times are in the detail line.  With `--trace 1`
the same commands run through `chainlab.cli.main` in this process, in pairs of a
traced and an untraced pass, and it reports per-layer medians.  Every output
is checked (see `oracle.py`).  The last stdout line is the result object;
the line before it holds provenance, sample counts, per-command times and
the error rate.  See README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import tracer
import workloads

HARD_LIMIT_S = 170.0  # a run must end within 180 s; children are killed after this


class Failures:
    """Attempted and failed command invocations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)
            self.reasons += problems[: max(0, 10 - len(self.reasons))]


class Runner:
    """Starts `python` children one at a time and reaps each with os.wait4."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(workloads.SRC)] + ([path] if path else [])))
        # Children cache bytecode as an installed package would, whatever the
        # caller's environment says, so no command pays for compiling chainlab.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, args: list[str], out: Path) -> tuple[int, float, int]:
        """Exit code, wall seconds and peak RSS in KiB of one child process."""
        with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=stdout, stderr=stderr, env=self.env)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def cli(self, argv: tuple[str, ...], out: Path) -> tuple[int, float, int]:
        return self.run(["-m", "chainlab.cli", *argv], out)


def _digest(out: Path, artifact: Path | None) -> str:
    h = hashlib.sha256(out.read_bytes())
    if artifact is not None:
        h.update(artifact.read_bytes())
    return h.hexdigest()


class OutputCheck:
    """Verifies the first pass with the oracle, later passes by digest."""

    def __init__(self, workload: workloads.Workload, failures: Failures) -> None:
        self.workload = workload
        self.failures = failures
        self.reference: dict[int, str] = {}

    def __call__(self, i: int, code: int, out: Path) -> None:
        command = self.workload.commands[i]
        what = f"{self.workload.name} {command.label}"
        if code != 0:
            err = out.with_suffix(".err")
            detail = err.read_text(errors="replace").strip() if err.exists() else ""
            self.failures.record(what, [f"exit status {code} {detail}".strip()])
            return
        digest = _digest(out, command.artifact)
        if i not in self.reference:
            self.reference[i] = digest
            self.failures.record(what, command.verify(out))
        elif digest != self.reference[i]:
            self.failures.record(what, ["output bytes differ from the first pass"])
        else:
            self.failures.record(what, [])


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2], "samples": len(values)}


def _prepare(workload: workloads.Workload, runner: Runner, work: Path) -> None:
    """Untimed: compile chainlab's bytecode once, then make the workload's inputs."""
    code, _, _ = runner.run(["-c", "import chainlab.cli"], work / "prepare.out")
    if code != 0:
        raise RuntimeError("import chainlab.cli failed")
    for argv in workload.prepare:
        code, _, _ = runner.cli(argv, work / "prepare.out")
        if code != 0:
            err = (work / "prepare.err").read_text(errors="replace").strip()
            raise RuntimeError(f"preparing {workload.name} failed: {err}")


def _another_pass(spans: list[float], end: float, deadline: float) -> bool:
    """Start a pass if none has run, or if its expected midpoint is before `end`."""
    if not spans:
        return True
    now = time.monotonic()
    return now < deadline and now + statistics.median(spans) / 2 < end


def timed_run(workload, runner: Runner, seconds: float, work: Path, failures: Failures):
    """Closed loop of fresh CLI processes; returns end-to-end metrics and detail."""
    _prepare(workload, runner, work)
    check = OutputCheck(workload, failures)
    gauge = hostspeed.Gauge()
    last = None  # the latest reading, if nothing has run since it was taken

    def measure(args: list[str], out: Path) -> tuple[int, float, float, int]:
        """Exit code, reference and raw wall seconds, and peak RSS in KiB of one child."""
        nonlocal last
        before = last if last is not None else gauge.read()
        code, wall, kib = runner.run(args, out)
        last = gauge.read()
        return code, hostspeed.Gauge.scale(wall, before, last), wall, kib

    per_command: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {"wall_s": [], "setup_s": []}
    setup, walls, rss, spans = [], [], [], []
    end = time.monotonic() + seconds
    while _another_pass(spans, end, runner.deadline):
        started = time.monotonic()
        # One set-up sample per pass spreads them over the run, like the passes.
        code, wall, wall_raw, _ = measure(["-c", "import chainlab.cli"], work / "setup.out")
        if code != 0:
            raise RuntimeError("import chainlab.cli failed")
        setup.append(wall)
        raw["setup_s"].append(wall_raw)
        pass_times: dict[str, float] = {}
        pass_raw = pass_rss = 0
        for i, command in enumerate(workload.commands):
            out = work / f"{i}-{command.label}.out"
            code, wall, wall_raw, kib = measure(["-m", "chainlab.cli", *command.argv], out)
            check(i, code, out)
            if not walls:
                last = None  # the first pass ran the oracle since the last reading
            pass_times[command.label] = pass_times.get(command.label, 0.0) + wall
            pass_raw += wall_raw
            pass_rss = max(pass_rss, kib)
        for label, t in pass_times.items():
            per_command.setdefault(f"{label}_s", []).append(t)
        walls.append(sum(pass_times.values()))
        raw["wall_s"].append(pass_raw)
        rss.append(pass_rss / 1024)
        spans.append(time.monotonic() - started)
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: (statistics.median(v), units[name]) for name, v in samples.items()}
    detail = {
        "end_to_end": {name: _quartiles(v) for name, v in samples.items()},
        "per_command": {name: _quartiles(v) for name, v in per_command.items()},
        "raw_wall": {name: _quartiles(v) for name, v in raw.items()},
        "host_ms_per_chunk": _quartiles(gauge.readings),
        "passes": {**samples, **per_command, **{f"raw_{k}": v for k, v in raw.items()}},
    }
    return metrics, detail


def traced_run(workload, runner: Runner, seconds: float, work: Path, failures: Failures):
    """Alternating traced and untraced in-process passes; returns per-layer metrics."""
    _prepare(workload, runner, work)
    selftest_dir = work / "selftest"
    selftest_dir.mkdir()
    failures.record("tracer self-test", tracer.self_test(selftest_dir))
    cli = tracer.load_cli()
    check = OutputCheck(workload, failures)
    summaries, traced_s, untraced_s, spans = [], [], [], []

    def one_pass() -> float:
        total = 0.0
        for i, command in enumerate(workload.commands):
            out = work / f"{i}-{command.label}.out"
            code, wall = tracer.run_command(cli, command, out)
            check(i, code, out)
            total += wall
        return total

    end = time.monotonic() + seconds
    while _another_pass(spans, end, runner.deadline):
        started = time.monotonic()
        # Alternate which side runs first, so neither gains from going second.
        untraced_first = len(summaries) % 2 == 1
        if untraced_first:
            untraced_s.append(one_pass())
        with tracer.Tracer() as t:
            traced_s.append(one_pass())
        summaries.append(t.summary())
        if not untraced_first:
            untraced_s.append(one_pass())
        spans.append(time.monotonic() - started)
    metrics = {
        name: (statistics.median(s[name] for s in summaries), tracer.unit_of(name))
        for name in tracer.metric_names() if name != "trace.overhead_s"
    }
    # Differences of adjacent passes cancel the host's slow drifts in speed.
    metrics["trace.overhead_s"] = (
        statistics.median(t - u for t, u in zip(traced_s, untraced_s)), "s")
    detail = {"traced_cli_s": _quartiles(traced_s), "untraced_cli_s": _quartiles(untraced_s)}
    return metrics, detail


def provenance(nproc: int, cpu: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent))

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=workloads.ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {"git_rev": rev or "unknown",
            "dirty": None if status is None else bool(status),
            "python": platform.python_version(),
            "nproc": nproc,
            "pinned_cpu": cpu}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "chainlab" / "cli.py").is_file():
        print(f"chainlab sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    nproc = len(os.sched_getaffinity(0))
    cpu = hostspeed.pin_to_one_cpu()
    runner = Runner(time.monotonic() + HARD_LIMIT_S)
    failures = Failures()
    with workloads.scratch_dir() as work:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        run = traced_run if args.trace else timed_run
        try:
            metrics, detail = run(workload, runner, args.seconds, work, failures)
        except RuntimeError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
        input_bytes = sum(p.stat().st_size for p in workload.reads if p.exists())
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(nproc, cpu),
        "params": {**workload.params, "input_bytes": input_bytes},
        "error_rate": failures.failed / failures.attempted,
        "failures": failures.reasons,
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
