"""The measured windows: what each workload kind runs while the clock is on.

Three windows cover the six workloads — :func:`engine_window` (any
in-process ``FilterEngine`` fed chunks: the serial and sharded
workloads), :func:`churn_window` (the layered engine with updates
between documents) and :func:`served_window` (a server child over
loopback, closed loop then open loop).  All of them time calls into the
public engine surface from outside, pass by pass, and return the raw
per-pass samples; ``run.py`` turns samples into metrics.

A window is sized by a :class:`Budget`: it keeps running whole passes
until ``seconds`` of measured time have gone by, and never fewer than
``min_passes``.  Timed metrics are medians over passes, so a longer
budget buys steadier numbers, not different ones.  Every pass and every
set-up is kept twice: by the stopwatch, and scaled to the reference
speed by the :class:`~measure.Pace` readings taken around it, which is
what the end-to-end times and rates are computed from.

With a :class:`~measure.Tracer` the churn, sharded and served windows
record one span per call into a layer; the serial workloads' spans come
from the tape replay in :mod:`layers`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from measure import Pace, Tracer, digest, peak_rss_mb, percentile, written_bytes
from repro.engine import EngineConfig, FilterEngine, create_engine
from repro.serving import encode_frame
from repro.xmlstream import EventHandler, document_to_xml, parse_forest, parse_into
from served import SENTINEL_OID, TAP, Session, server_cpus
from workloads import Inputs, open_loop_schedule, update_stream

T = TypeVar("T")

#: Forces whatever an engine builds lazily (the serial machine on first
#: filter call, worker boot + warm-up on the sharded service).
READY_DOC = "<e2e-ready/>"
#: ``xpush.layered.compactions`` counts those of the first this many
#: passes after the priming pass.  A traced churn window always runs
#: that many (two plain passes with a traced one between them); the
#: cut-down probe on other workloads runs exactly one.
COUNTED_PASSES = 3
#: One pass in this many, starting with the second, carries the
#: ``on_match`` hook on workloads that do not keep it wired (first-match
#: latency is sampled there).  Hooked passes are not throughput passes,
#: so any window of two or more throughput passes has latency samples.
HOOK_EVERY = 4


@dataclass
class Budget:
    seconds: float
    min_passes: int
    #: the engine is set up from scratch at least this many times, and
    #: until a second has gone into it (cheap set-ups are the noisy
    #: ones); ``setup_s`` is the median.  Probes that do not report it
    #: set up once.
    setups: int = 3

    def more_setups(self, taken: list[float]) -> bool:
        if self.setups == 1:
            return not taken
        return len(taken) < self.setups or (sum(taken) < 1.0 and len(taken) < 3 * self.setups)


@dataclass
class Samples:
    """Raw samples of one window."""

    documents: int  # per pass
    megabytes: float  # per pass
    walls: list[float] = field(default_factory=list)  # throughput passes, seconds
    #: the same passes and set-ups in reference-speed seconds (see
    #: :class:`measure.Pace`); ``first_match_ms`` is in reference speed too
    paced_walls: list[float] = field(default_factory=list)
    paced_setups: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)  # passes that recorded spans
    floors: list[float] = field(default_factory=list)  # parse-only floor per pass
    first_match_ms: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    #: answers of the first measured pass, one oid-set per document
    answers: list[frozenset[str]] = field(default_factory=list)
    #: churn only: the live oid set while each update group of that pass ran
    live_at: list[frozenset[str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: per-layer numbers the window itself can see
    layer: dict[str, float] = field(default_factory=dict)


def ready_engine(config: EngineConfig, sources: dict[str, str]) -> FilterEngine:
    """``create_engine`` plus everything it defers, from filter sources."""
    engine = create_engine(config, sources)
    engine.filter_events(())
    engine.filter_stream(READY_DOC)
    return engine


def timed_setup(config: EngineConfig, sources: dict[str, str]) -> tuple[FilterEngine, float]:
    started = time.perf_counter()
    engine = ready_engine(config, sources)
    return engine, time.perf_counter() - started


def set_up(budget: Budget, out: Samples, pace: Pace, build: Callable[[], T]) -> T:
    """Build the system under test from scratch as often as *budget*
    asks, timing each build into ``out.setups``; the last one built is
    kept, the others closed."""
    built = None
    while budget.more_setups(out.setups):
        if built is not None:
            built.close()
        pace.mark()
        started = time.perf_counter()
        built = build()
        seconds = time.perf_counter() - started
        out.setups.append(seconds)
        out.paced_setups.append(seconds * pace.factor())
    assert built is not None
    return built


def parse_floor(chunks: list[str], backend: str) -> float:
    """Seconds to push-parse *chunks* into a handler that does nothing."""
    handler = EventHandler()
    started = time.perf_counter()
    for chunk in chunks:
        parse_into(chunk, handler, backend=backend)
    return time.perf_counter() - started


class FirstMatch:
    """``on_match`` sink keeping the time of each document's first fire."""

    def __init__(self) -> None:
        self.first: dict[int, float] = {}

    def __call__(self, _oid: str, doc_index: int, _event_index: int) -> None:
        if doc_index not in self.first:
            self.first[doc_index] = time.perf_counter()


def filter_pass(
    engine: FilterEngine, chunks: list[str], hook: FirstMatch | None
) -> tuple[float, list[frozenset[str]], list[float]]:
    """One closed-loop pass: ``(wall seconds, answers, first-match ms)``.

    First-match latency runs from the ``filter_stream`` call that
    submitted the document's chunk to the first ``on_match`` fire for it.
    """
    answers: list[frozenset[str]] = []
    latencies: list[float] = []
    engine.on_match = hook
    try:
        started = time.perf_counter()
        if hook is None:
            for chunk in chunks:
                answers.extend(engine.filter_stream(chunk))
        else:
            first = hook.first
            for chunk in chunks:
                first.clear()
                submitted = time.perf_counter()
                answers.extend(engine.filter_stream(chunk))
                latencies.extend((at - submitted) * 1e3 for at in first.values())
        wall = time.perf_counter() - started
    finally:
        engine.on_match = None
    return wall, answers, latencies


def worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def engine_window(inputs: Inputs, budget: Budget, tracer: Tracer | None = None) -> Samples:
    """Serial and sharded workloads: chunks through ``filter_stream``.

    Warm workloads reuse one engine (an untimed pass fills its tables
    first); cold workloads build a fresh engine before every pass, and
    each build is one more ``setup_s`` sample.
    """
    spec, config, chunks = inputs.spec, inputs.config, inputs.chunks
    out = Samples(documents=len(inputs.docs), megabytes=sum(inputs.doc_bytes) / 1e6)
    # Shard workers run wherever the scheduler puts them.
    pace = Pace(sorted(os.sched_getaffinity(0)) if spec.kind == "sharded" else ())
    engine = set_up(budget, out, pace, lambda: ready_engine(config, inputs.sources))
    try:
        if not spec.cold:
            filter_pass(engine, chunks, None)
        hook = FirstMatch()
        sharded = spec.kind == "sharded"
        reference = ""
        index = 0
        spent = filtering = 0.0
        busy = shard_busy(engine)
        while len(out.walls) < budget.min_passes or spent < budget.seconds:
            pace.mark()
            if spec.cold and index:
                engine.close()
                engine, seconds = timed_setup(config, inputs.sources)
                out.setups.append(seconds)
                out.paced_setups.append(seconds * pace.factor())
            # A traced run alternates traced and plain passes on the one
            # warmed engine; their ratio is what tracing costs.
            traced = tracer is not None and sharded and index % 2 == 1
            hooked = spec.hook_always or (tracer is None and index % HOOK_EVERY == 1)
            shipped = written_bytes()
            if traced:
                wall, answers = traced_sharded_pass(engine, inputs, tracer)
                out.traced_walls.append(wall)
                latencies = []
            else:
                wall, answers, latencies = filter_pass(engine, chunks, hook if hooked else None)
            speed = pace.factor()
            out.first_match_ms.extend(ms * speed for ms in latencies)
            spent += wall
            filtering += wall
            if not traced and (spec.hook_always or not hooked):
                floor = parse_floor(chunks, config.backend)
                out.walls.append(wall)
                out.paced_walls.append(wall * speed)
                out.floors.append(floor)
                spent += floor
            fingerprint = digest(answers)
            if not index:
                out.answers, reference = answers, fingerprint
                if sharded:
                    # Read on one pass at a fixed position, so the count
                    # repeats exactly however many passes the budget fits.
                    out.layer["service.pickled_bytes_per_doc"] = (
                        (written_bytes() - shipped) / len(answers)
                    )
            out.attempted += len(answers)
            if fingerprint != reference:
                out.failed += len(answers)
            index += 1
        out.rss_mb = peak_rss_mb(["self", *worker_pids()])
        if sharded:
            out.layer.update(service_gauges(engine, busy, filtering))
            out.layer["service.boot_s"] = out.setups[-1]
    finally:
        engine.close()
    return out


def traced_sharded_pass(
    engine: FilterEngine, inputs: Inputs, tracer: Tracer
) -> tuple[float, list[frozenset[str]]]:
    """A sharded pass cut at the seams visible from outside: the DOM
    parse ``filter_stream`` would do, then ``filter_batch``.  Inside
    ``filter_batch`` the parent re-serialises each document; that cost
    is recorded as its own child span, measured on the same documents
    (the engine gives no hook to time it in place)."""
    answers: list[frozenset[str]] = []
    now = time.perf_counter_ns
    backend = inputs.config.backend
    wall = 0
    for index, chunk in enumerate(inputs.chunks):
        t0 = now()
        documents = parse_forest(chunk, backend=backend)
        t1 = now()
        answers.extend(engine.filter_batch(documents))  # type: ignore[attr-defined]
        t2 = now()
        wall += t2 - t0
        for document in documents:
            document_to_xml(document)
        serialise = now() - t2
        root = tracer.add("chunk", t0, t2, doc=index)
        tracer.add("xmlstream.dom_parse", t0, t1, root, index)
        batch = tracer.add("service.filter_batch", t1, t2, root, index)
        tracer.add("xmlstream.serialize", t1, t1 + serialise, batch, index)
    tracer.wall += wall / 1e9
    return wall / 1e9, answers


def shard_busy(engine: FilterEngine) -> float:
    """Seconds the shards have spent filtering so far, summed."""
    return sum(shard.get("busy_s", 0.0) for shard in engine.stats().get("per_shard", ()))


def service_gauges(engine: FilterEngine, busy_before: float, seconds: float) -> dict[str, float]:
    """Placement and transport gauges after *seconds* of filtering that
    began when the shards had been busy for *busy_before* seconds."""
    stats = engine.stats()
    return {
        "service.shard_busy_share": (shard_busy(engine) - busy_before) / (stats["shards"] * seconds),
        "service.imbalance": float(stats["imbalance"]),
        "service.critical_path_p50_ms": float(stats["critical_path_latency"]["p50_ms"]),
    }


# ----------------------------------------------------------------------
# Churn: updates beside reads on the layered engine
# ----------------------------------------------------------------------


def churn_window(
    inputs: Inputs,
    budget: Budget,
    tracer: Tracer | None = None,
    update_every: int | None = None,
) -> Samples:
    """One subscribe + one unsubscribe before every ``update_every``
    documents.  ``on_match`` stays wired: its cost is noise beside a
    delta rebuild.  A subscribe during which the engine's
    ``compactions`` counter advances is a compaction sample, every
    other one an insert sample.

    The untimed first pass runs the same schedule, so every timed pass
    starts where the previous one ended — just after a compaction when
    a pass holds ``compact_threshold`` updates, as ``protein-churn``'s
    does — and the passes are alike."""
    config, docs = inputs.config, inputs.docs
    every = update_every or inputs.spec.update_every
    out = Samples(documents=len(docs), megabytes=sum(inputs.doc_bytes) / 1e6)
    inserts: list[float] = []
    compacts: list[float] = []
    now = time.perf_counter_ns
    pace = Pace()
    engine = set_up(budget, out, pace, lambda: ready_engine(config, inputs.sources))
    try:
        updates = update_stream(inputs)
        live = set(inputs.sources)
        hook = FirstMatch()
        first = hook.first
        engine.on_match = hook
        compactions = engine.stats()["compactions"]
        counted_from = counted = 0
        spent = 0.0
        primed = False
        while not primed or len(out.walls) < budget.min_passes or spent < budget.seconds:
            # Traced and plain passes alternate (see engine_window).
            spans = tracer if primed and (len(out.walls) + len(out.traced_walls)) % 2 else None
            answers: list[frozenset[str]] = []
            live_at: list[frozenset[str]] = []
            latencies: list[float] = []
            pace.mark()
            started = time.perf_counter()
            for group in range(0, len(docs), every):
                incoming, xpath, outgoing = next(updates)
                t0 = now()
                engine.subscribe(incoming, xpath)
                t1 = now()
                engine.unsubscribe(outgoing)
                t2 = now()
                seen = engine.stats()["compactions"]
                compacted = seen != compactions
                compactions = seen
                if primed:
                    (compacts if compacted else inserts).append((t1 - t0) / 1e6)
                    if spans is not None:
                        name = "xpush.layered.compact" if compacted else "xpush.layered.subscribe"
                        root = spans.add("update", t0, t2, doc=group)
                        spans.add(name, t0, t1, root, group)
                        spans.add("xpush.layered.unsubscribe", t1, t2, root, group)
                live.add(incoming)
                live.discard(outgoing)
                live_at.append(frozenset(live))
                for offset, text in enumerate(docs[group : group + every]):
                    first.clear()
                    t0 = now()
                    answers.extend(engine.filter_stream(text))
                    t1 = now()
                    if first:
                        latencies.append(first[0] * 1e3 - t0 / 1e6)
                    if spans is not None:
                        spans.add("engine.filter_stream", t0, t1, doc=group + offset)
            wall = time.perf_counter() - started
            speed = pace.factor()
            if not primed:
                primed = True
                counted_from = compactions
                continue
            # Counted over a fixed stretch of the window, so the count
            # repeats exactly however many passes the budget fits.
            if len(out.walls) + len(out.traced_walls) < COUNTED_PASSES:
                counted = compactions - counted_from
            if spans is not None:
                spans.wall += wall
                out.traced_walls.append(wall)
                spent += wall
            else:
                floor = parse_floor(docs, config.backend)
                out.walls.append(wall)
                out.paced_walls.append(wall * speed)
                out.floors.append(floor)
                out.first_match_ms.extend(ms * speed for ms in latencies)
                spent += wall + floor
            # No answer may name a filter that was not live when its
            # document ran; equality with the reference engine is
            # checked on the sampled documents by the caller.
            out.attempted += len(answers)
            out.failed += sum(
                1 for i, matched in enumerate(answers) if not matched <= live_at[i // every]
            )
            if not out.answers:
                out.answers, out.live_at = answers, live_at
        out.rss_mb = peak_rss_mb()
        engine.on_match = None
        t0 = now()
        engine.compact()  # type: ignore[attr-defined]
        compacts.append((now() - t0) / 1e6)
        sample = docs[: max(every, len(docs) // 8)]
        wall, _, _ = filter_pass(engine, sample, None)
        out.layer.update(
            {
                "xpush.layered.insert_ms": percentile(inserts, 0.5),
                "xpush.layered.compact_ms": percentile(compacts, 0.5),
                "xpush.layered.compactions": float(counted),
                "xpush.layered.post_compact_docs_per_s": len(sample) / wall,
            }
        )
    finally:
        engine.close()
    return out


# ----------------------------------------------------------------------
# Served: socket to match frame
# ----------------------------------------------------------------------


def publish_frames(docs: list[str]) -> list[bytes]:
    return [encode_frame({"op": "publish", "xml": text}) for text in docs]


def _closed_pass(
    session: Session, docs: list[str], frames: list[bytes], tracer: Tracer | None
) -> tuple[float, list[frozenset[str]], list[float], list[float], list[int]]:
    """Publish every document and wait for each ack: ``(wall, answers,
    ack seconds, send-to-tap-frame ms, server seqs)``.  Traced, the
    frame is encoded inside the loop so the codec gets its span."""
    arrived = session.arrived
    now = time.perf_counter
    answers: list[frozenset[str]] = []
    acks: list[float] = []
    seqs: list[int] = []
    stamps: list[tuple[float, float, float]] = []
    started = now()
    for index, text in enumerate(docs):
        t0 = now()
        frame = frames[index] if tracer is None else encode_frame({"op": "publish", "xml": text})
        t1 = now()
        reply = session.roundtrip(frame)
        t2 = now()
        if not reply.get("ok", False):
            raise RuntimeError(f"publish refused: {reply.get('error')}")
        acks.append(t2 - t1)
        seqs.append(reply["seq"])
        answers.append(frozenset(reply["results"][0]))
        stamps.append((t0, t1, t2))
    wall = now() - started
    session.wait(lambda: seqs[-1] in arrived, 5.0)
    if tracer is not None:
        tracer.wall += wall
        hop = session.stats()["publish_latency"]["p50_ms"] / 1e3
        for index, (t0, t1, t2) in enumerate(stamps):
            ns = [int(t * 1e9) for t in (t0, t1, t2, t1 + hop)]
            root = tracer.add("doc", ns[0], ns[2], doc=index)
            tracer.add("serving.encode", ns[0], ns[1], root, index)
            rtt = tracer.add("serving.publish_rtt", ns[1], ns[2], root, index)
            # The server's own median receipt-to-answer time, laid
            # inside the round trip: what is left is wire and framing.
            tracer.add("serving.engine_hop", ns[1], min(ns[3], ns[2]), rtt, index)
            if seqs[index] in arrived:
                tracer.add(
                    "serving.delivery", ns[1], int(arrived[seqs[index]] * 1e9), root, index, aside=True
                )
    tapped = [
        (arrived[seq] - sent) * 1e3 for seq, (_, sent, _) in zip(seqs, stamps) if seq in arrived
    ]
    return wall, answers, acks, tapped, seqs


def _open_loop(
    session: Session, frames: list[bytes], schedule: list[float], first_seq: int
) -> tuple[list[float | None], list[float], int, int]:
    """Send ``frames`` (cycled) at the scheduled offsets whatever the
    server does, reading acks and tap frames while waiting for the next
    send: ``(delivery ms per document or None, generator lateness ms,
    backlog at the last send, acks refused or never received)``."""
    arrived, acks = session.arrived, session.acks
    now = time.perf_counter
    late: list[float] = []
    origin = now() + 0.01
    for k, due in enumerate(schedule):
        target = origin + due
        while now() < target:
            session.pump()
        late.append((now() - target) * 1e3)
        session.send(frames[k % len(frames)])
    last = first_seq + len(schedule) - 1
    # Sent but not yet on the tap, the document just sent aside.
    backlog = sum(1 for seq in range(first_seq, last) if seq not in arrived)
    session.wait(lambda: len(acks) == len(schedule) and last in arrived, 10.0)
    delivery = [
        (arrived[first_seq + k] - (origin + due)) * 1e3 if first_seq + k in arrived else None
        for k, due in enumerate(schedule)
    ]
    unanswered = len(schedule) - sum(1 for reply in acks if reply.get("ok", False))
    acks.clear()
    return delivery, late, backlog, unanswered


def served_window(inputs: Inputs, budget: Budget, tracer: Tracer | None = None) -> Samples:
    """Closed loop (publish, wait for the ack) for ~45 % of the budget,
    then an open loop at ``spec.open_rate`` documents per second for the
    rest, frames pre-encoded and pipelined on connection 1 while the
    generator timestamps the tap frames it reads off connection 2.  Open-loop
    latency runs from each document's *scheduled* send time; the first
    second (at most a fifth) of the schedule is discarded.

    ``first_match_ms`` is the closed loop's send-to-tap-frame time, as
    on every other workload.  The open loop's is reported per layer
    only (``serving.delivery_*``): with 2.5 ms between sends the server's
    CPU goes idle, and what the host charges to wake it moved the median
    by 20-31 % between runs of the same code, beyond any bound."""
    spec, docs = inputs.spec, inputs.docs
    sources = sentinel_sources(inputs)
    out = Samples(documents=len(docs), megabytes=sum(inputs.doc_bytes) / 1e6)
    pace = Pace(server_cpus())  # where most of a round trip is spent
    session = set_up(budget, out, pace, lambda: Session(sources, spec.consumers))
    try:
        frames = publish_frames(docs)
        _closed_pass(session, docs, frames, None)  # warm the lazy tables
        before = session.stats()

        acks: list[float] = []
        reference = ""
        last_seq = -1
        spent = 0.0
        while len(out.walls) < budget.min_passes or spent < budget.seconds * 0.45:
            # Traced and plain passes alternate (see engine_window).
            spans = tracer if (len(out.walls) + len(out.traced_walls)) % 2 else None
            pace.mark()
            wall, answers, pass_acks, tapped, seqs = _closed_pass(session, docs, frames, spans)
            speed = pace.factor()
            spent += wall
            last_seq = seqs[-1]
            if spans is not None:
                out.traced_walls.append(wall)
            else:
                floor = parse_floor(docs, inputs.config.backend)
                out.walls.append(wall)
                out.paced_walls.append(wall * speed)
                out.floors.append(floor)
                out.first_match_ms.extend(ms * speed for ms in tapped)
                acks.extend(pass_acks)
                spent += floor
            fingerprint = digest(answers)
            if not out.answers:
                out.answers, reference = answers, fingerprint
                # Counted over this one pass, so the counts repeat exactly.
                # A frame the tap loses later, in the open loop, is a
                # failed operation below.
                first = session.stats()
                out.layer["serving.deliveries_per_doc"] = (
                    first["deliveries"] - before["deliveries"]
                ) / len(answers)
                out.layer["serving.delivery_drops"] = float(
                    first["delivery_drops"] - before["delivery_drops"]
                    + first["consumers"][TAP]["dropped"] - before["consumers"][TAP]["dropped"]
                )
            out.attempted += 2 * len(answers)
            if fingerprint != reference:
                out.failed += len(answers)
            out.failed += sum(1 for seq in seqs if seq not in session.arrived)

        # An unset rate (a probe on another workload's documents) is
        # 40 % of what the closed loop just sustained.
        rate = spec.open_rate or max(1, int(0.4 * len(docs) / min(out.walls)))
        schedule = open_loop_schedule(rate, max(budget.seconds - spent, budget.seconds * 0.3))
        skip = min(len(schedule) // 5, rate)
        delivery, late, backlog, unanswered = _open_loop(session, frames, schedule, last_seq + 1)
        kept = [ms for ms in delivery[skip:] if ms is not None]
        out.attempted += 2 * len(schedule)
        out.failed += delivery.count(None) + unanswered + session.duplicates
        after = session.stats()
        out.rss_mb = peak_rss_mb([session.child.pid])
        out.layer.update(
            {
                "serving.subscribe_p50_ms": percentile(session.subscribe_seconds, 0.5) * 1e3,
                "serving.publish_ack_p50_ms": percentile(acks, 0.5) * 1e3,
                "serving.engine_hop_p50_ms": float(after["publish_latency"]["p50_ms"]),
                "serving.delivery_p50_ms": percentile(kept, 0.5),
                "serving.delivery_p95_ms": percentile(kept, 0.95),
                "serving.delivery_p99_ms": percentile(kept, 0.99),
                "serving.backlog_end": float(backlog),
                "serving.generator_late_p99_ms": percentile(late[skip:], 0.99),
            }
        )
    finally:
        session.close()
    return out


def sentinel_sources(inputs: Inputs) -> dict[str, str]:
    """The served workload plus the filter every document matches,
    which is what puts exactly one frame per document on the tap."""
    return {**inputs.sources, SENTINEL_OID: f"/{inputs.root_label}"}
