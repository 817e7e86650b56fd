"""Per-layer probes: each layer of the stack timed on its own, from
outside, through its public functions, on the workload's own inputs.

``--trace 1`` runs every probe on every workload, so a layer's cost can
be read against any input shape (framing a 45 KB ``nasa-deep`` document
versus a 1.6 KB Protein one) and every workload reports the same metric
set.  The layered, sharded and served windows double as probes: at full
size on the workload built around them, cut down on the others.

The serial machine is probed by replaying a recorded callback tape into
a bare :class:`~repro.xpush.XPushMachine` — no parser in the loop — once
untimed (``xpush.cold_ns_per_event`` / ``warm_ns_per_event``) and once
with a clock around every callback, where a call counts as a miss iff
the matching ``stats.*_computed`` counter advanced during it.  On the
serial workloads that second replay is also the traced run: it records
``doc -> xmlstream.parse -> xpush.events -> xpush.end_document`` spans.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import Any

from measure import Tracer, median
from repro.afa import build_workload_automata
from repro.engine import EngineConfig
from repro.serving import Consumer, FrameDecoder
from repro.xmlstream import EventHandler, document_to_xml, parse_forest, parse_into
from repro.xpath import parse_xpath
from repro.xpush import XPushMachine
from windows import (
    Budget,
    churn_window,
    engine_window,
    filter_pass,
    publish_frames,
    ready_engine,
    sentinel_sources,
    served_window,
    timed_setup,
)
from workloads import Inputs

#: Documents of the machine probe (its cold replays dominate a traced
#: run's cost); byte cap of the parser probe.
TAPE_DOCS = 120
PARSE_BYTES = 2_000_000


class _TapeRecorder(EventHandler):
    """Records SAX callbacks as ``(kind, argument)``: 0 start_element,
    1 text, 2 end_element (document boundaries are implicit)."""

    def __init__(self) -> None:
        self.tape: list[tuple[int, str]] = []

    def start_element(self, label: str) -> None:
        self.tape.append((0, label))

    def text(self, value: str) -> None:
        self.tape.append((1, value))

    def end_element(self, label: str) -> None:
        self.tape.append((2, label))


def record_tape(text: str, backend: str) -> list[tuple[int, str]]:
    recorder = _TapeRecorder()
    parse_into(text, recorder, backend=backend)
    return recorder.tape


def replay(machine: XPushMachine, tape: list[tuple[int, str]]) -> tuple[frozenset[str], int]:
    """Drive *machine* through one document; ``(answer, end_document ns)``."""
    calls = (machine.start_element, machine.text, machine.end_element)
    machine.start_document()
    for kind, argument in tape:
        calls[kind](argument)
    started = time.perf_counter_ns()
    answer = machine.end_document()
    return answer, time.perf_counter_ns() - started


#: Slots of a call clock: callback kind x (hit, miss).
CLOCK_SLOTS = ("push_hit", "push_miss", "value_hit", "value_miss", "pop_hit", "pop_miss")
_COMPUTED = ("push_computed", "value_computed", "pop_computed")


def replay_timed(
    machine: XPushMachine, tape: list[tuple[int, str]], ns: list[int], calls: list[int]
) -> None:
    """The element and text callbacks of :func:`replay` with a clock
    around each, summed into *ns* / *calls* by :data:`CLOCK_SLOTS`; the
    caller ends the document."""
    now = time.perf_counter_ns
    stats = machine.stats
    callbacks = (machine.start_element, machine.text, machine.end_element)
    machine.start_document()
    for kind, argument in tape:
        counter = _COMPUTED[kind]
        before = getattr(stats, counter)
        started = now()
        callbacks[kind](argument)
        elapsed = now() - started
        slot = 2 * kind + (getattr(stats, counter) != before)
        ns[slot] += elapsed
        calls[slot] += 1


def bare_machine(inputs: Inputs) -> XPushMachine:
    """The machine the serial engine would build for this workload."""
    filters = [inputs.parsed[oid] for oid in inputs.sources]
    options = replace(inputs.config.options, retain_results=False)
    return XPushMachine.from_filters(filters, options, dtd=inputs.config.dtd)


def xpush_probe(inputs: Inputs, tracer: Tracer | None) -> dict[str, float]:
    docs = inputs.docs[:TAPE_DOCS]
    backend = inputs.config.backend
    started = time.perf_counter_ns()
    tapes = [record_tape(text, backend) for text in docs]
    record_ns = time.perf_counter_ns() - started
    events = sum(len(tape) + 2 for tape in tapes)

    def untimed_pass(machine: XPushMachine) -> tuple[float, list[int]]:
        ends = []
        started = time.perf_counter_ns()
        for tape in tapes:
            ends.append(replay(machine, tape)[1])
        return float(time.perf_counter_ns() - started), ends

    def counters(machine: XPushMachine) -> dict[str, int]:
        snap = machine.stats.snapshot()
        return {k: snap[k] for k in ("lookups", "hits", "events", "push_computed",
                                     "value_computed", "pop_computed", "add_computed")}

    machine = bare_machine(inputs)
    cold_ns, _ = untimed_pass(machine)
    cold = counters(machine)
    warm_ns, end_ns = [], []
    for _ in range(3):
        elapsed, ends = untimed_pass(machine)
        warm_ns.append(elapsed)
        end_ns.extend(ends)
    after = counters(machine)
    # Counts describe the pass the workload measures: the first (cold)
    # one on a cold workload, one warm pass otherwise.
    if inputs.spec.cold:
        window = cold
    else:
        window = {key: (after[key] - cold[key]) // 3 for key in cold}
    out = {
        "xpush.cold_ns_per_event": cold_ns / events,
        "xpush.warm_ns_per_event": median(warm_ns) / events,
        "xpush.end_document_us": median(end_ns) / 1e3,
        "xpush.hit_ratio": window["hits"] / window["lookups"],
        "xpush.lookups_per_event": window["lookups"] / window["events"],
        "xpush.states": float(machine.state_count),
        "xpush.avg_state_size": float(machine.average_state_size),
        "xpush.resident_bytes": float(machine.store.resident_bytes),
        "xpush.table_entries": float(machine.store.table_entries),
    }
    for key in ("push_computed", "value_computed", "pop_computed", "add_computed"):
        out[f"xpush.{key}"] = float(window[key])

    # Clocked replays on a second machine: the cold pass prices misses,
    # the warm pass prices hits.  Spans are kept for the pass the
    # workload is about.
    machine = bare_machine(inputs)
    now = time.perf_counter_ns
    slots = len(CLOCK_SLOTS)
    for warm in (False, True):
        total_ns, total_calls = [0] * slots, [0] * slots
        traced = tracer is not None and warm != inputs.spec.cold
        began = now()
        for index, text in enumerate(docs):
            ns, calls = [0] * slots, [0] * slots
            t0 = now()
            tape = record_tape(text, backend)
            t1 = now()
            replay_timed(machine, tape, ns, calls)
            t2 = now()
            machine.end_document()
            t3 = now()
            total_ns = [a + b for a, b in zip(total_ns, ns)]
            total_calls = [a + b for a, b in zip(total_calls, calls)]
            if traced:
                root = tracer.add("doc", t0, t3, doc=index)
                tracer.add("xmlstream.parse", t0, t1, root, index)
                tracer.add("xpush.events", t1, t2, root, index, slots=CLOCK_SLOTS, ns=ns, calls=calls)
                tracer.add("xpush.end_document", t2, t3, root, index)
        if traced:
            elapsed = now() - began
            tracer.wall += elapsed / 1e9
            # Against the same documents and pass kind, clocks and spans off.
            untraced = record_ns + (cold_ns if inputs.spec.cold else median(warm_ns))
            out["trace.overhead_ratio"] = elapsed / untraced
        for slot, name in enumerate(CLOCK_SLOTS):
            # The cold pass prices misses, the warm pass hits.
            if name.endswith("hit") == warm and total_calls[slot]:
                out[f"xpush.{name}_ns"] = total_ns[slot] / total_calls[slot]
    for name in CLOCK_SLOTS:
        out.setdefault(f"xpush.{name}_ns", 0.0)
    return out


def xmlstream_probe(inputs: Inputs) -> dict[str, float]:
    docs, total = [], 0
    for text, size in zip(inputs.docs, inputs.doc_bytes):
        if total >= PARSE_BYTES:
            break
        docs.append(text)
        total += size
    backend = inputs.config.backend
    events = sum(len(record_tape(text, backend)) + 2 for text in docs)
    handler = EventHandler()
    parse, dom, serialise = [], [], []
    for _ in range(3):
        t0 = time.perf_counter()
        for text in docs:
            parse_into(text, handler, backend=backend)
        t1 = time.perf_counter()
        trees = [parse_forest(text, backend=backend)[0] for text in docs]
        t2 = time.perf_counter()
        for tree in trees:
            document_to_xml(tree)
        t3 = time.perf_counter()
        parse.append(t1 - t0)
        dom.append(t2 - t1)
        serialise.append(t3 - t2)
    return {
        "xmlstream.parse_ns_per_event": median(parse) / events * 1e9,
        "xmlstream.parse_mb_per_s": total / 1e6 / median(parse),
        "xmlstream.events_per_doc": events / len(docs),
        "xmlstream.dom_parse_us_per_doc": median(dom) / len(docs) * 1e6,
        "xmlstream.serialize_us_per_doc": median(serialise) / len(docs) * 1e6,
    }


def compile_probe(inputs: Inputs) -> dict[str, float]:
    """XPath parse, AFA build, codegen compile and engine creation."""
    sources = inputs.sources
    parse, build, create = [], [], []
    for _ in range(3):
        t0 = time.perf_counter()
        filters = [parse_xpath(xpath, oid) for oid, xpath in sources.items()]
        t1 = time.perf_counter()
        workload = build_workload_automata(filters)
        t2 = time.perf_counter()
        parse.append(t1 - t0)
        build.append(t2 - t1)
        engine, seconds = timed_setup(replace(inputs.config, engine="xpush"), sources)
        engine.close()
        create.append(seconds)
    codegen = XPushMachine(
        workload, replace(inputs.config.options, runtime="codegen", retain_results=False)
    )
    return {
        "xpath.parse_us_per_filter": median(parse) / len(sources) * 1e6,
        "afa.build_ms": median(build) * 1e3,
        "afa.states": float(workload.state_count),
        "afa.codegen_compile_ms": float(codegen.stats.codegen_compile_ms),
        "engine.create_ms": median(create) * 1e3,
    }


def engine_probe(inputs: Inputs) -> dict[str, float]:
    """What the engine wrapper adds to the bare machine, per document."""
    docs = inputs.docs[: TAPE_DOCS // 2]
    backend = inputs.config.backend
    engine = ready_engine(replace(inputs.config, engine="xpush"), inputs.sources)
    machine = bare_machine(inputs)
    for text in docs:  # warm both
        engine.filter_stream(text)
        machine.filter_stream(text, backend=backend)
    wrapped, bare = [], []
    try:
        for _ in range(5):
            wrapped.append(filter_pass(engine, docs, None)[0])
            started = time.perf_counter()
            for text in docs:
                machine.filter_stream(text, backend=backend)
            bare.append(time.perf_counter() - started)
    finally:
        engine.close()
    return {"engine.overhead_us_per_doc": (median(wrapped) - median(bare)) / len(docs) * 1e6}


def codec_probe(inputs: Inputs) -> dict[str, float]:
    """Frame encode/decode and a standalone consumer offer."""
    docs = inputs.docs[:TAPE_DOCS]
    started = time.perf_counter()
    frames = publish_frames(docs)
    encode = (time.perf_counter() - started) / len(frames)
    decoder = FrameDecoder()
    started = time.perf_counter()
    for frame in frames:
        decoder.feed(frame)
    decode = (time.perf_counter() - started) / len(frames)

    async def offers(count: int) -> float:
        consumer = Consumer("probe", policy="drop_oldest", high_watermark=256)
        event = {"event": "match", "seq": 0, "epoch": 0, "oids": ["q0"]}
        began = time.perf_counter()
        for _ in range(count):
            await consumer.offer(event)
        return (time.perf_counter() - began) / count

    return {
        "serving.encode_us_per_frame": encode * 1e6,
        "serving.decode_us_per_frame": decode * 1e6,
        "serving.offer_us": asyncio.run(offers(5000)) * 1e6,
    }


def _cut(inputs: Inputs, filters: int, documents: int, config: EngineConfig, **spec_changes: Any) -> Inputs:
    """A cut-down copy of *inputs* under another engine *config*, for
    probing a layer the workload itself does not run through."""
    keep = list(inputs.sources)[:filters]
    return replace(
        inputs,
        spec=replace(inputs.spec, **spec_changes),
        sources={oid: inputs.sources[oid] for oid in keep},
        docs=inputs.docs[:documents],
        doms=inputs.doms[:documents],
        config=config,
    )


def layered_probe(inputs: Inputs) -> dict[str, float]:
    small = _cut(inputs, 300, 70, replace(inputs.config, engine="layered"))
    return churn_window(small, Budget(0.0, 1, setups=1), update_every=1).layer


def service_probe(inputs: Inputs) -> dict[str, float]:
    """The sharded job's in-process baseline (``parallel=False``, first
    ten chunks) and, on workloads that are not the sharded one, a
    cut-down sharded window for boot time, transport bytes and the
    placement gauges."""
    if inputs.spec.kind == "sharded":
        job, out = inputs, {}
    else:
        config = replace(
            inputs.config, engine="sharded", shards=2, inner="xpush", parallel=True, batch_size=16
        )
        job = _cut(inputs, 500, 160, config, kind="sharded", chunk=16, cold=False, hook_always=False)
        out = engine_window(job, Budget(0.0, 2, setups=1)).layer
    chunks = job.chunks[:10]
    inproc = ready_engine(replace(job.config, parallel=False), job.sources)
    try:
        filter_pass(inproc, chunks, None)
        walls = [filter_pass(inproc, chunks, None)[0] for _ in range(3)]
    finally:
        inproc.close()
    out["service.inproc_docs_per_s"] = min(len(job.docs), 10 * job.spec.chunk) / median(walls)
    return out


def wire_overhead(inputs: Inputs, walls: list[float]) -> dict[str, float]:
    """What the wire adds per document: the served window's best pass
    minus the same engine called directly on the same documents."""
    engine = ready_engine(inputs.config, sentinel_sources(inputs))
    try:
        filter_pass(engine, inputs.docs, None)
        direct = min(filter_pass(engine, inputs.docs, None)[0] for _ in range(3))
    finally:
        engine.close()
    return {"serving.overhead_us_per_doc": (min(walls) - direct) / len(inputs.docs) * 1e6}


def served_probe(inputs: Inputs) -> dict[str, float]:
    config = replace(inputs.config, engine="layered")
    small = _cut(inputs, 100, 100, config, kind="served", open_rate=0, consumers=8)
    samples = served_window(small, Budget(1.5, 2, setups=1))
    return {**samples.layer, **wire_overhead(small, samples.walls)}
