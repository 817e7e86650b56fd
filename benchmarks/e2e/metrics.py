"""The metric catalogue: names, units, directions, regression bounds and
what each per-layer metric is expected to move.

``BENCHMARK.json`` is generated from this module and
:data:`workloads.SPECS` (``run.py --write-manifest``); the README's
tables restate it.  Later issues refer to these names.

Every workload reports every metric.  The driver's contract requires
that, so the end-to-end list holds only what is meaningful on all six
workloads; ``subscribe_p50_ms`` and the open-loop ``delivery_*``
percentiles the issue listed as end-to-end are per-layer metrics here
(``xpush.layered.insert_ms``, ``serving.subscribe_p50_ms``,
``serving.delivery_p50/p95/p99_ms``) — a subscribe on the serial engine
is a full rebuild, i.e. ``setup_s`` again, and an in-process workload
has no delivery hop.  On ``served-fanout`` ``first_match_p50_ms`` is
the closed loop's send-to-tap-frame time; the open loop's median moved
by 20-31 % between ten-seed sets of the same code (what the host
charges to wake the server's idle CPU between sends), beyond the 25 % a
bound may be.  A ``first_match_p95_ms`` was measured and dropped for
the same reason: spread 20 % (cold, nasa-deep) to 32 % (served-fanout);
``serving.delivery_p95/p99_ms`` keep the tail per layer.
"""

from __future__ import annotations

from typing import Any

from workloads import SPECS

#: (name, unit, better, bound, meaning)
END_TO_END: tuple[tuple[str, str, str, float, str], ...] = (
    ("setup_s", "s", "lower", 0.25,
     "filter sources to ready: XPath parse + create_engine + forced lazy build "
     "(+ worker boot; + server spawn and subscribe-all over the wire on served-fanout); "
     "excludes data generation; median of >= 3, in reference-speed seconds (measure.Pace)"),
    ("docs_per_s", "docs/s", "higher", 0.25,
     "documents answered per reference-speed second, median over passes "
     "(served-fanout: the closed-loop phase)"),
    ("mb_per_s", "MB/s", "higher", 0.25,
     "UTF-8 megabytes of those documents per second (the abstract's unit)"),
    ("filter_over_parse", "ratio", "lower", 0.25,
     "filtering wall time over the parse-only floor (parse_into with a no-op handler) "
     "on the same documents, interleaved pass by pass, both by the stopwatch - Fig. 5's yardstick"),
    ("first_match_p50_ms", "ms", "lower", 0.25,
     "document submitted to first match notification: on_match fire in process, "
     "frame sent to tap frame read (closed loop) on served-fanout; "
     "reference-speed milliseconds"),
    ("peak_rss_mb", "MB", "lower", 0.20,
     "high-water resident set of the process running the engine "
     "(sharded: parent plus workers; served-fanout: the server child)"),
)

#: (name, unit, better, moves); the layer is the name's prefix
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("xmlstream.parse_ns_per_event", "ns", "lower",
     "docs_per_s and the filter_over_parse denominator on protein-warm and nasa-deep; ~nothing on protein-cold"),
    ("xmlstream.parse_mb_per_s", "MB/s", "higher", "as parse_ns_per_event"),
    ("xmlstream.events_per_doc", "count", "lower", "input shape; must not change"),
    ("xmlstream.dom_parse_us_per_doc", "us", "lower", "docs_per_s on protein-sharded only"),
    ("xmlstream.serialize_us_per_doc", "us", "lower", "docs_per_s on protein-sharded only"),
    ("xpath.parse_us_per_filter", "us", "lower", "setup_s everywhere; subscribe latency"),
    ("afa.build_ms", "ms", "lower", "setup_s; subscribe latency and docs_per_s on protein-churn"),
    ("afa.states", "count", "lower", "explains afa.build_ms; must not change under a pure speed-up"),
    ("afa.codegen_compile_ms", "ms", "lower", "setup_s if codegen becomes the default runtime"),
    ("xpush.warm_ns_per_event", "ns", "lower", "docs_per_s on protein-warm, nasa-deep"),
    ("xpush.cold_ns_per_event", "ns", "lower", "docs_per_s on protein-cold"),
    ("xpush.end_document_us", "us", "lower", "docs_per_s on nasa-deep (hundreds of oids per answer)"),
    ("xpush.hit_ratio", "ratio", "higher", "explains protein-cold docs_per_s; 1.0 on warm workloads"),
    ("xpush.states", "count", "lower", "peak_rss_mb; must not change under a pure speed-up"),
    ("xpush.avg_state_size", "count", "lower", "as xpush.states"),
    ("xpush.lookups_per_event", "count", "lower", "warm_ns_per_event"),
    ("xpush.push_computed", "count", "lower", "protein-cold docs_per_s"),
    ("xpush.value_computed", "count", "lower", "protein-cold docs_per_s"),
    ("xpush.pop_computed", "count", "lower", "protein-cold docs_per_s"),
    ("xpush.add_computed", "count", "lower", "protein-cold docs_per_s"),
    ("xpush.resident_bytes", "bytes", "lower", "peak_rss_mb"),
    ("xpush.table_entries", "count", "lower", "peak_rss_mb"),
    ("xpush.push_hit_ns", "ns", "lower", "docs_per_s on protein-warm"),
    ("xpush.push_miss_ns", "ns", "lower", "docs_per_s on protein-cold"),
    ("xpush.value_hit_ns", "ns", "lower", "docs_per_s on protein-warm"),
    ("xpush.value_miss_ns", "ns", "lower", "docs_per_s on protein-cold"),
    ("xpush.pop_hit_ns", "ns", "lower", "docs_per_s on protein-warm"),
    ("xpush.pop_miss_ns", "ns", "lower", "docs_per_s on protein-cold"),
    ("xpush.layered.insert_ms", "ms", "lower", "docs_per_s on protein-churn; serving.subscribe_p50_ms"),
    ("xpush.layered.compact_ms", "ms", "lower", "docs_per_s on protein-churn"),
    ("xpush.layered.compactions", "count", "lower",
     "docs_per_s on protein-churn; counted over the first three passes, so it repeats exactly"),
    ("xpush.layered.post_compact_docs_per_s", "docs/s", "higher", "docs_per_s on protein-churn"),
    ("engine.create_ms", "ms", "lower", "setup_s"),
    ("engine.overhead_us_per_doc", "us", "lower", "docs_per_s on protein-warm"),
    ("service.boot_s", "s", "lower", "setup_s on protein-sharded"),
    ("service.pickled_bytes_per_doc", "bytes", "lower",
     "docs_per_s on protein-sharded; a parse-once data plane must cut it and leave protein-warm still"),
    ("service.shard_busy_share", "ratio", "higher", "docs_per_s on protein-sharded (workers starved by transport when low)"),
    ("service.imbalance", "ratio", "lower", "docs_per_s on protein-sharded"),
    ("service.critical_path_p50_ms", "ms", "lower", "docs_per_s, first_match_p50_ms on protein-sharded"),
    ("service.inproc_docs_per_s", "docs/s", "higher", "single-threaded baseline of the sharded job"),
    ("serving.encode_us_per_frame", "us", "lower", "docs_per_s, first_match_p50_ms on served-fanout"),
    ("serving.decode_us_per_frame", "us", "lower", "docs_per_s, first_match_p50_ms on served-fanout"),
    ("serving.offer_us", "us", "lower", "first_match_p50_ms on served-fanout"),
    ("serving.subscribe_p50_ms", "ms", "lower", "setup_s on served-fanout"),
    ("serving.publish_ack_p50_ms", "ms", "lower", "docs_per_s on served-fanout"),
    ("serving.engine_hop_p50_ms", "ms", "lower", "docs_per_s on served-fanout"),
    ("serving.overhead_us_per_doc", "us", "lower", "docs_per_s on served-fanout"),
    ("serving.deliveries_per_doc", "count", "lower", "fan-out work per document; must not change"),
    ("serving.delivery_drops", "count", "lower",
     "refused or tap-dropped deliveries over one closed pass; above 0 voids the delivery numbers"),
    ("serving.delivery_p50_ms", "ms", "lower",
     "open loop, from the scheduled send time: what first_match_p50_ms on served-fanout "
     "becomes when the server idles between documents"),
    ("serving.delivery_p95_ms", "ms", "lower", "the tail first_match_p50_ms does not show"),
    ("serving.delivery_p99_ms", "ms", "lower", "tail of the same"),
    ("serving.backlog_end", "count", "lower", "growing backlog voids the open-loop numbers"),
    ("serving.generator_late_p99_ms", "ms", "lower", "above 1 ms voids the open-loop numbers"),
    ("trace.overhead_ratio", "ratio", "lower", "none (what tracing costs)"),
)

RUN_SECONDS = 8


def manifest() -> dict[str, Any]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": spec.name, "why": spec.why} for spec in SPECS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }
