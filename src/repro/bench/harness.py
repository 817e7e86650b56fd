"""Timed machine runs and the counters the figures plot."""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass

from repro.afa.automaton import WorkloadAutomata
from repro.afa.build import build_workload_automata
from repro.xmlstream.dtd import DTD
from repro.xmlstream.events import EventHandler
from repro.xmlstream.parser import count_bytes, parse_into
from repro.xpath.ast import XPathFilter
from repro.xpush.machine import XPushMachine
from repro.xpush.options import variant_options


def stamp() -> dict:
    """Where and on what a ``--json`` file was measured (``-dirty``: on
    uncommitted changes over that commit)."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def timed(callable_, *args, **kwargs) -> tuple[object, float]:
    start = time.perf_counter()
    result = callable_(*args, **kwargs)
    return result, time.perf_counter() - start


@dataclass
class VariantResult:
    """One data point of a figure: a machine variant on one workload."""

    variant: str
    queries: int
    filtering_seconds: float  # parse + filter, cold (the Fig. 5 metric)
    states: int  # Fig. 6 metric
    average_state_size: float  # Fig. 7 metric
    hit_ratio: float  # Fig. 8 metric
    bytes_processed: int
    build_seconds: float = 0.0
    warm_seconds: float | None = None  # second pass over same data

    @property
    def throughput_mb_s(self) -> float:
        if not self.filtering_seconds:
            return 0.0
        return self.bytes_processed / 1e6 / self.filtering_seconds

    @property
    def warm_throughput_mb_s(self) -> float | None:
        if not self.warm_seconds:
            return None
        return self.bytes_processed / 1e6 / self.warm_seconds


def measure_parse_only(stream_text: str) -> float:
    """Time to push-parse the stream into a handler that does nothing:
    the scanner the machine sits on, without the machine (the paper's
    parse-time floor series) — the best of five calls, so a floor
    is not one timing taken on a host stepping its clock."""
    return min(timed(parse_into, stream_text, EventHandler())[1] for _ in range(5))


def run_variant(
    variant: str,
    workload: WorkloadAutomata | list[XPathFilter],
    stream_text: str,
    dtd: DTD | None = None,
    warm_pass: bool = False,
) -> VariantResult:
    """Build a machine variant, run it cold over *stream_text*, and
    collect the figure counters.  ``warm_pass`` adds a second pass over
    the same data (the paper's "completed machine" measurement)."""
    if isinstance(workload, list):
        workload = build_workload_automata(workload)
    options = variant_options(variant)
    machine, build_seconds = timed(XPushMachine, workload, options, dtd)
    _, filter_seconds = timed(machine.filter_stream, stream_text)
    warm_seconds = None
    if warm_pass:
        machine.clear_results()
        _, warm_seconds = timed(machine.filter_stream, stream_text)
    return VariantResult(
        variant=variant,
        queries=len(workload.accepted_oids(workload.initial_sids)),
        filtering_seconds=filter_seconds,
        states=machine.state_count,
        average_state_size=machine.average_state_size,
        hit_ratio=machine.stats.hit_ratio,
        bytes_processed=count_bytes(stream_text),
        build_seconds=build_seconds,
        warm_seconds=warm_seconds,
    )
