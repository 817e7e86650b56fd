"""Tests for the benchmark harness itself (it feeds EXPERIMENTS.md)."""

import os

import pytest

from repro.bench import harness
from repro.bench.harness import VariantResult, measure_parse_only, run_variant, timed
from repro.bench.reporting import format_table, print_series_table
from repro.bench.workloads import (
    bench_scale,
    scaled,
    standard_stream,
    standard_workload,
    workload_stats,
)


def test_timed():
    value, seconds = timed(lambda x: x * 2, 21)
    assert value == 42
    assert seconds >= 0


def test_scaled_respects_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
    assert bench_scale() == 0.5
    assert scaled(1000) == 500
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
    assert scaled(1000, minimum=7) == 7


def test_standard_workload_statistics():
    filters, dataset = standard_workload(60, mean_predicates=1.15)
    stats = workload_stats(filters)
    assert stats["queries"] == 60
    assert 1.0 <= stats["predicates_per_query"] <= 1.6
    assert dataset.dtd.max_depth() == 7
    # Exact predicate counts override the mean.
    filters, _ = standard_workload(10, exact_predicates=4, seed=2)
    assert workload_stats(filters)["predicates_per_query"] == 4


def test_standard_stream_size_and_caching():
    a = standard_stream(30_000)
    b = standard_stream(30_000)
    assert a is b  # lru cached
    assert len(a.encode()) >= 30_000


def test_run_variant_produces_consistent_counters():
    filters, dataset = standard_workload(25, mean_predicates=1.15)
    stream = standard_stream(20_000)
    result = run_variant("TD", filters, stream, dtd=dataset.dtd, warm_pass=True)
    assert result.variant == "TD"
    assert result.queries == 25
    assert result.states > 0
    assert result.average_state_size > 0
    assert 0 < result.hit_ratio < 1
    assert result.bytes_processed == len(stream.encode())
    assert result.filtering_seconds > 0
    assert result.warm_seconds is not None
    # Warm ≈ no lazy construction; allow scheduler jitter headroom.
    assert result.warm_seconds <= result.filtering_seconds * 1.5
    assert result.throughput_mb_s > 0
    assert result.warm_throughput_mb_s > 0


def test_measure_parse_only_positive():
    assert measure_parse_only(standard_stream(20_000)) > 0


def test_measure_parse_only_is_the_best_of_five_parses(monkeypatch):
    readings = iter([0.9, 0.3, 0.7, 0.2, 0.8])
    calls = []

    def fake_timed(callable_, *args):
        calls.append(callable_)
        return None, next(readings)

    monkeypatch.setattr(harness, "timed", fake_timed)
    assert measure_parse_only("<a/>") == 0.2
    assert calls == [harness.parse_into] * 5


def test_format_table_alignment():
    text = format_table("T", ["a", "longheader"], [[1, 2.5], [333, 0.0001]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "longheader" in lines[2]
    assert "0.0001" in lines[4]
    # All rows padded to the same width.
    assert len({len(l) for l in lines[2:]}) <= 2


def test_print_series_table_returns_text(capsys, monkeypatch, tmp_path):
    report = tmp_path / "figures.txt"
    monkeypatch.setenv("REPRO_REPORT_FILE", str(report))
    text = print_series_table("Title", ["x"], [[1]])
    out = capsys.readouterr().out
    assert "Title" in out and "Title" in text
    assert "Title" in report.read_text()


def test_report_file_can_be_disabled(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_REPORT_FILE", "")
    monkeypatch.chdir(tmp_path)
    print_series_table("Quiet", ["x"], [[1]])
    capsys.readouterr()
    assert not (tmp_path / "figures_output.txt").exists()
