"""Host speed gauge: scales measured times to a fixed reference speed.

The benchmark runs on virtual CPUs of a shared host.  Their speed drifts by
up to half over spells of seconds to minutes, and it differs between the
two CPUs, in CPU time as much as in wall time.  A time measured in one
spell cannot be compared with one measured in another.

`Gauge.read()` times a fixed pure-Python reference loop (int masks, string
formatting and parsing, dict updates, building and sorting small records:
the kinds of work chainlab does) in the benchmark's own process, which
never imports chainlab.  `scale` turns a
wall time measured between two readings into reference seconds: the time
the same work would take on a host where one reference chunk takes
`REFERENCE_MS`.  A change to chainlab moves the measured time but not the
gauge, so it moves the scaled time by the same share.

`pin_to_one_cpu` keeps the benchmark and the children it starts on one CPU,
so that the gauge reads the speed of the CPU the children run on.
"""

from __future__ import annotations

import os
import time

REFERENCE_MS = 2.5   # ms per reference chunk at reference speed
READ_SECONDS = 0.15  # length of one reading

_MASK = (1 << 2048) - 12345


def reference_chunk() -> int:
    """A fixed amount of pure-Python work; the result only keeps it honest."""
    acc = 0
    rows = []
    for i in range(300):
        x = _MASK ^ (i * 0x9E3779B97F4A7C15 << (i % 1900))
        acc += (x & _MASK).bit_count()
        rows.append(format(x, "x"))
    for row in rows:
        acc ^= int(row, 16) & 0xFFFF
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    records = {i: (i, str(i), [i]) for i in range(2000)}
    ordered = sorted(records.values(), key=lambda r: -r[0])
    return acc + len(counts) + len(ordered)


class Gauge:
    """Readings of the host's speed, in ms per reference chunk."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        reference_chunk()  # warm up

    def read(self) -> float:
        start = time.perf_counter()
        chunks = 0
        while True:
            reference_chunk()
            chunks += 1
            elapsed = time.perf_counter() - start
            if elapsed >= READ_SECONDS:
                ms = elapsed * 1e3 / chunks
                self.readings.append(ms)
                return ms

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """`seconds` measured between readings `before` and `after`, in reference seconds."""
        return seconds * REFERENCE_MS / ((before + after) / 2)


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts, to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
