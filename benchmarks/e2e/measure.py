"""Measurement plumbing shared by the windows and the layer probes:
order statistics, the host-speed reference, answer digests, process
memory and I/O counters, and the in-memory span recorder behind ``--trace 1``.

Nothing here imports the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from collections import defaultdict
from typing import Any, Iterable, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted, non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample: the window took no such measurement")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))
    return float(ordered[rank])


#: What :func:`kernel_seconds` reads on the dev host at its usual speed.
REFERENCE_S = 0.006


def _kernel() -> float:
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - started


def kernel_seconds(cpus: Sequence[int] = ()) -> float:
    """Seconds this host takes right now over a fixed stretch of
    interpreter work that has nothing to do with the program under
    test: on the CPU this process happens to be on, or, given *cpus*,
    the mean over each of them in turn (the host's CPUs change speed
    one by one, so work spread over processes is read where it runs)."""
    if not cpus:
        return _kernel()
    home = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append(_kernel())
    finally:
        os.sched_setaffinity(0, home)
    return sum(readings) / len(readings)


class Pace:
    """Turns seconds measured on this host, now, into seconds at the
    reference speed.

    The dev host (two virtual CPUs that share a core with each other
    and the host with neighbours) steps between speeds 30 % apart and
    stays on one for seconds to minutes, so a rate read with a stopwatch
    spreads over 25-35 % between runs of the same code.  The kernel is
    read right before and right after every timed stretch, and the
    stretch is scaled by how far those two readings are from
    :data:`REFERENCE_S`.  End-to-end times and rates are reported that
    way; they compare across runs and hosts, not with a stopwatch.  The
    ``filter_over_parse`` ratio and the per-layer metrics are not scaled.
    """

    def __init__(self, cpus: Sequence[int] = ()) -> None:
        self.cpus = cpus
        self.last = kernel_seconds(cpus)

    def mark(self) -> None:
        """Read the kernel: a timed stretch starts here."""
        self.last = kernel_seconds(self.cpus)

    def factor(self) -> float:
        """Read the kernel: the stretch since the last reading ends
        here, and its seconds times this factor are reference seconds."""
        before, self.last = self.last, kernel_seconds(self.cpus)
        return 2 * REFERENCE_S / (before + self.last)


def digest(answers: Iterable[Iterable[str]]) -> str:
    """Order-independent fingerprint of one pass's per-document answers."""
    sha = hashlib.sha1()
    for matched in answers:
        sha.update(",".join(sorted(matched)).encode())
        sha.update(b";")
    return sha.hexdigest()


def _status_kb(pid: int | str, key: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pids: Iterable[int | str] = ("self",)) -> float:
    """Summed high-water resident set (``VmHWM``) of live processes."""
    return sum(_status_kb(pid, "VmHWM:") for pid in pids) / 1024.0


def written_bytes() -> int:
    """Bytes this process has passed to ``write``-family syscalls
    (``wchar``): over a sharded window, what the parent shipped to its
    workers' task pipes."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Spans kept in memory, written out when the run ends.

    A span is ``(name, start_ns, end_ns, parent, doc)`` plus free-form
    attributes; ``parent`` is the index of the causing span (-1 for a
    root) and ``doc`` the document (or chunk) the work belongs to.  A
    span marked ``aside`` overlaps its siblings (a delivery racing the
    publish ack) and is left out of the time budget.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        #: wall-clock seconds of the loops that recorded the spans; the
        #: budget must come to within 5 % of it
        self.wall = 0.0

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: int = -1, doc: int = -1, **attrs: Any
    ) -> int:
        span = {"name": name, "start_ns": start_ns, "end_ns": end_ns, "parent": parent, "doc": doc}
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        return len(self.spans) - 1

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    def budget(self) -> dict[str, float]:
        """Self time per span name, in seconds: a span's duration minus
        the part its children cover.  Root spans' self time is what no
        layer span accounts for."""
        budgeted = [
            (index, span)
            for index, span in enumerate(self.spans)
            if not span.get("attrs", {}).get("aside")
        ]
        covered: dict[int, int] = defaultdict(int)
        for _, span in budgeted:
            if span["parent"] >= 0:
                covered[span["parent"]] += span["end_ns"] - span["start_ns"]
        out: dict[str, float] = defaultdict(float)
        for index, span in budgeted:
            out[span["name"]] += (span["end_ns"] - span["start_ns"] - covered[index]) / 1e9
        return dict(out)
