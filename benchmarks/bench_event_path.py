"""Event-path throughput: seed pull scanner vs run-based push scanners.

The paper's engine cost model assumes SAX parsing is cheap relative to
filtering; in pure CPython the seed's char-at-a-time pull scanner was
anything but.  This bench pins the event-path rewrite: it measures the
same Protein stream through

- ``seed-pull`` — a vendored copy of the seed's char-at-a-time
  ``_Buffer``/``_scan`` generator feeding ``machine.process_events``
  (Event allocation + generator + type-switch dispatch);
- ``pull`` — today's ``iterparse`` (run-based scanner underneath, but
  still materialising Event objects) feeding ``process_events``;
- ``push-python`` — ``machine.filter_stream(..., backend="python")``:
  run-based scanning with direct bound-method dispatch, zero per-event
  allocation;
- ``push-expat`` — the same push path on the streaming C expat backend.

Each mode is reported twice: *parse-only* (events into a no-op handler,
isolating scanner cost) and *filter* (end-to-end through a warmed
XPush machine).  The filter section has two more rows,
``push-python-triples`` and ``push-expat-triples``: the same warmed
machine behind a handler without ``leaf``, so the scanners send it
start/text/end triples instead of fused leaves.

Entry points:

- ``python benchmarks/bench_event_path.py [--quick] [--json PATH]`` —
  the CI smoke test.  ``--quick`` shrinks the stream and **fails** if
  push-mode python throughput drops below the pull path on the same
  run, or if either scanner's leaf path answers differently from, or
  runs slower than, its triple path (host-independent relative gates),
  or if a warm pass of the machine, fed leaves or fed triples, misses
  a memo entry or makes more probes per event than
  :data:`MAX_LOOKUPS_PER_EVENT` records (counts, not times).
- ``pytest benchmarks/bench_event_path.py`` — pytest-benchmark harness
  at ``REPRO_BENCH_SCALE`` size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Iterator

from repro.afa.build import build_workload_automata
from repro.bench.workloads import scaled, standard_stream, standard_workload
from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    EventHandler,
    StartDocument,
    StartElement,
    Text,
    attribute_label,
)
from repro.xmlstream.parser import count_bytes, decode_entities, iterparse
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions

TD = XPushOptions(top_down=True)

#: Memo probes per event of a warm pass over the ``--quick`` stream:
#: 9 231 / 13 842 fed leaves, 15 643 / 13 842 fed triples.  A warm
#: event's cost is its probes; one more per event is a regression the
#: timing gates can miss on a noisy host.
MAX_LOOKUPS_PER_EVENT = {"leaves": 0.667, "triples": 1.131}


# ---------------------------------------------------------------------------
# Vendored seed scanner (commit 0159063), the baseline the rewrite replaced:
# a char-at-a-time pull parser built on peek()/next_char() method calls.
# Kept verbatim-in-spirit so "x2 over the seed" stays measurable after the
# live parser moved on.
# ---------------------------------------------------------------------------

_NAME_START_ASCII = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS_ASCII = _NAME_START_ASCII | set("0123456789.-")


def _is_name_start(ch: str) -> bool:
    return ch in _NAME_START_ASCII or (ord(ch) > 127 and ch.isalpha())


def _is_name_char(ch: str) -> bool:
    return ch in _NAME_CHARS_ASCII or (ord(ch) > 127 and (ch.isalnum() or ch == "·"))


class _SeedBuffer:
    def __init__(self, chunks: Iterator[str]):
        self._chunks = chunks
        self._data = ""
        self._pos = 0
        self._eof = False
        self.line = 1

    def _fill(self) -> bool:
        if self._eof:
            return False
        try:
            chunk = next(self._chunks)
        except StopIteration:
            self._eof = True
            return False
        if self._pos:
            self._data = self._data[self._pos :]
            self._pos = 0
        self._data += chunk
        return True

    def peek(self) -> str:
        while self._pos >= len(self._data):
            if not self._fill():
                return ""
        return self._data[self._pos]

    def next_char(self) -> str:
        ch = self.peek()
        if ch:
            self._pos += 1
            if ch == "\n":
                self.line += 1
        return ch

    def read_until(self, terminator: str) -> str:
        while True:
            idx = self._data.find(terminator, self._pos)
            if idx >= 0:
                chunk = self._data[self._pos : idx]
                self.line += chunk.count("\n")
                self._pos = idx + len(terminator)
                return chunk
            if not self._fill():
                raise XMLSyntaxError(f"unexpected end of input looking for {terminator!r}")

    def read_text_run(self) -> str:
        pieces: list[str] = []
        while True:
            idx = self._data.find("<", self._pos)
            if idx >= 0:
                pieces.append(self._data[self._pos : idx])
                self._pos = idx
                break
            pieces.append(self._data[self._pos :])
            self._pos = len(self._data)
            if not self._fill():
                break
        run = "".join(pieces)
        self.line += run.count("\n")
        return run

    def skip_whitespace(self) -> None:
        while True:
            ch = self.peek()
            if ch and ch in " \t\r\n":
                self.next_char()
            else:
                return

    def expect(self, literal: str) -> None:
        for expected in literal:
            if self.next_char() != expected:
                raise XMLSyntaxError(f"expected {literal!r}", self.line)

    def match(self, literal: str) -> bool:
        while len(self._data) - self._pos < len(literal):
            if not self._fill():
                break
        if self._data.startswith(literal, self._pos):
            self._pos += len(literal)
            return True
        return False

    def read_name(self) -> str:
        ch = self.peek()
        if not ch or not _is_name_start(ch):
            raise XMLSyntaxError(f"expected a name, found {ch!r}", self.line)
        out = [self.next_char()]
        while True:
            ch = self.peek()
            if ch and _is_name_char(ch):
                out.append(self.next_char())
            else:
                return "".join(out)


def _seed_scan(buffer: _SeedBuffer) -> Iterator[Event]:
    depth = 0
    stack: list[str] = []
    pending_text: list[str] = []

    def flush_text() -> Iterator[Event]:
        if pending_text:
            value = "".join(pending_text)
            pending_text.clear()
            if value.strip():
                if depth == 0:
                    raise XMLSyntaxError("text outside any element", buffer.line)
                yield Text(value)

    while True:
        ch = buffer.peek()
        if not ch:
            yield from flush_text()
            if stack:
                raise XMLSyntaxError(f"unclosed element <{stack[-1]}>")
            return
        if ch != "<":
            pending_text.append(decode_entities(buffer.read_text_run()))
            continue
        buffer.next_char()
        ch = buffer.peek()
        if ch == "?":
            buffer.read_until("?>")
            continue
        if ch == "!":
            buffer.next_char()
            if buffer.match("--"):
                buffer.read_until("-->")
            elif buffer.match("[CDATA["):
                pending_text.append(buffer.read_until("]]>"))
            else:
                buffer.read_until(">")  # DOCTYPE et al (benchmark corpus has none)
            continue
        if ch == "/":
            buffer.next_char()
            name = buffer.read_name()
            buffer.skip_whitespace()
            buffer.expect(">")
            yield from flush_text()
            if not stack or stack[-1] != name:
                raise XMLSyntaxError(f"</{name}> mismatch")
            stack.pop()
            depth -= 1
            yield EndElement(name)
            if depth == 0:
                yield EndDocument()
            continue
        yield from flush_text()
        name = buffer.read_name()
        attributes = []
        while True:
            buffer.skip_whitespace()
            ch = buffer.peek()
            if not ch:
                raise XMLSyntaxError("unexpected end of input in start tag")
            if ch in "/>":
                break
            attr_name = buffer.read_name()
            buffer.skip_whitespace()
            buffer.expect("=")
            buffer.skip_whitespace()
            quote = buffer.next_char()
            if quote not in "'\"":
                raise XMLSyntaxError("attribute value must be quoted")
            attributes.append((attr_name, decode_entities(buffer.read_until(quote))))
        if depth == 0:
            yield StartDocument()
        yield StartElement(name)
        for attr_name, attr_value in attributes:
            label = attribute_label(attr_name)
            yield StartElement(label)
            yield Text(attr_value)
            yield EndElement(label)
        buffer.skip_whitespace()
        if buffer.match("/>"):
            yield EndElement(name)
            if depth == 0:
                yield EndDocument()
            continue
        buffer.expect(">")
        stack.append(name)
        depth += 1


def seed_iterparse(text: str, chunk_size: int = 1 << 16) -> Iterator[Event]:
    chunks = (text[i : i + chunk_size] for i in range(0, len(text), chunk_size))
    return _seed_scan(_SeedBuffer(chunks))


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------


class _NullHandler(EventHandler):
    """Counts documents, otherwise discards events (parse-only mode)."""

    def __init__(self):
        self.documents = 0

    def end_document(self):
        self.documents += 1


def _parse_only_modes(stream: str) -> dict[str, callable]:
    from repro.xmlstream.parser import parse_into

    def seed_pull():
        sink = _NullHandler()
        from repro.xmlstream.events import dispatch

        dispatch(seed_iterparse(stream), sink)
        return sink.documents

    def pull():
        sink = _NullHandler()
        from repro.xmlstream.events import dispatch

        dispatch(iterparse(stream), sink)
        return sink.documents

    def push_python():
        sink = _NullHandler()
        parse_into(stream, sink, backend="python")
        return sink.documents

    def push_expat():
        sink = _NullHandler()
        parse_into(stream, sink, backend="expat")
        return sink.documents

    return {
        "seed-pull": seed_pull,
        "pull": pull,
        "push-python": push_python,
        "push-expat": push_expat,
    }


class _Triples:
    """The machine's five classic callbacks and not its ``leaf``: the
    scanners then send it start/text/end triples for every leaf, as
    they did before leaves were fused.  The attributes are the
    machine's own bound methods, so the scanner calls them directly."""

    def __init__(self, machine: XPushMachine):
        self.start_document = machine.start_document
        self.start_element = machine.start_element
        self.text = machine.text
        self.end_element = machine.end_element
        self.end_document = machine.end_document


def _triples(machine: XPushMachine, stream: str, backend: str):
    """``filter_stream`` with the machine behind :class:`_Triples`."""
    from repro.xmlstream.parser import parse_into

    handler = _Triples(machine)

    def call() -> list[frozenset[str]]:
        machine.clear_results()
        parse_into(stream, handler, backend=backend)
        return machine.results()

    return call


def _filter_modes(machine: XPushMachine, stream: str) -> dict[str, callable]:
    def run(fn):
        def call():
            answers = fn()
            machine.clear_results()
            return len(answers)

        return call

    return {
        "seed-pull": run(lambda: machine.process_events(seed_iterparse(stream))),
        "pull": run(lambda: machine.process_events(iterparse(stream))),
        "push-python": run(lambda: machine.filter_stream(stream, backend="python")),
        "push-python-triples": run(_triples(machine, stream, "python")),
        "push-expat": run(lambda: machine.filter_stream(stream, backend="expat")),
        "push-expat-triples": run(_triples(machine, stream, "expat")),
    }


def _measure(fn, repeats: int) -> tuple[float, int]:
    """Best-of-*repeats* wall time and the per-run document count."""
    documents = fn()  # warm (machine tables, allocator)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best, documents


def run(queries: int, stream_bytes: int, repeats: int, out=sys.stdout) -> dict:
    filters, dataset = standard_workload(queries, mean_predicates=1.15)
    stream = standard_stream(stream_bytes)
    megabytes = count_bytes(stream) / 1e6

    machine = XPushMachine(build_workload_automata(filters), TD, dtd=dataset.dtd)
    results: dict = {
        "queries": len(filters),
        "stream_mb": round(megabytes, 3),
        "repeats": repeats,
        "parse": {},
        "filter": {},
    }
    print(
        f"workload: {len(filters)} filters | stream: {megabytes:.2f} MB | "
        f"host CPUs: {os.cpu_count()}",
        file=out,
    )
    for section, modes in (
        ("parse", _parse_only_modes(stream)),
        ("filter", _filter_modes(machine, stream)),
    ):
        header = f"{section + ' mode':<22}{'seconds':>9}{'docs/s':>10}{'MB/s':>8}{'vs seed':>9}"
        print(header, file=out)
        print("-" * len(header), file=out)
        seed_seconds = None
        for name, fn in modes.items():
            seconds, documents = _measure(fn, repeats)
            if seed_seconds is None:
                seed_seconds = seconds
            results[section][name] = {
                "seconds": round(seconds, 4),
                "docs_per_s": round(documents / seconds, 1),
                "mb_per_s": round(megabytes / seconds, 2),
                "speedup_vs_seed": round(seed_seconds / seconds, 2),
            }
            print(
                f"{name:<22}{seconds:>9.3f}{documents / seconds:>10.1f}"
                f"{megabytes / seconds:>8.2f}"
                f"{'x%.2f' % (seed_seconds / seconds):>9}",
                file=out,
            )
        results[section]["documents"] = documents
    # The same warmed machine, fed leaves and fed their triples, must
    # answer alike.
    results["filter"]["leaf_equals_triples"] = all(
        machine.filter_stream(stream, backend=backend) == _triples(machine, stream, backend)()
        for backend in ("python", "expat")
    )
    machine.clear_results()
    results["filter"]["counts"] = {
        "leaves": _pass_counts(machine, lambda: machine.filter_stream(stream, backend="expat")),
        "triples": _pass_counts(machine, _triples(machine, stream, "expat")),
    }
    return results


def _pass_counts(machine: XPushMachine, feed) -> dict[str, int]:
    """The machine's counters over one *feed* pass."""
    stats = machine.stats
    before = (stats.lookups, stats.misses, stats.hits, stats.events)
    feed()
    machine.clear_results()
    after = (stats.lookups, stats.misses, stats.hits, stats.events)
    return dict(zip(("lookups", "misses", "hits", "events"), (b - a for a, b in zip(before, after))))


def _count_gate(counts: dict[str, dict[str, int]]) -> list[str]:
    """What is wrong with a warm pass's counts, per feed (empty: ok)."""
    failures = []
    for feed, bound in MAX_LOOKUPS_PER_EVENT.items():
        row = counts[feed]
        per_event = row["lookups"] / row["events"]
        if row["misses"]:
            failures.append(f"{feed}: {row['misses']} misses on a warm pass")
        if row["hits"] != row["lookups"] - row["misses"]:
            failures.append(f"{feed}: hits {row['hits']} != lookups - misses")
        if per_event > bound:
            failures.append(f"{feed}: {per_event:.4f} lookups per event > {bound}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small stream + relative regression gate")
    parser.add_argument("--queries", type=int, default=500)
    parser.add_argument("--bytes", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)
    stream_bytes = 120_000 if args.quick else args.bytes
    queries = 100 if args.quick else args.queries
    results = run(queries, stream_bytes, args.repeats)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.quick:
        # Host-independent gate: the zero-allocation push path must not be
        # slower than materialising Events and dispatching them (pull), and
        # must beat the seed's char-at-a-time scanner outright.
        push = results["filter"]["push-python"]["docs_per_s"]
        pull_rate = results["filter"]["pull"]["docs_per_s"]
        seed_rate = results["filter"]["seed-pull"]["docs_per_s"]
        if push < pull_rate:
            print(
                f"FAIL: push-python ({push}/s) slower than pull ({pull_rate}/s)",
                file=sys.stderr,
            )
            return 1
        if push < seed_rate:
            print(
                f"FAIL: push-python ({push}/s) slower than seed ({seed_rate}/s)",
                file=sys.stderr,
            )
            return 1
        print(f"gate ok: push-python {push}/s >= pull {pull_rate}/s >= seed {seed_rate}/s")
        # Fused leaves must answer like the triples they replace, and
        # be no slower on either scanner.
        if not results["filter"]["leaf_equals_triples"]:
            print("FAIL: leaf and triple answers differ", file=sys.stderr)
            return 1
        for backend in ("python", "expat"):
            leaf = results["filter"][f"push-{backend}"]["docs_per_s"]
            triples = results["filter"][f"push-{backend}-triples"]["docs_per_s"]
            if leaf < triples:
                print(
                    f"FAIL: push-{backend} with leaves ({leaf}/s) slower than "
                    f"with triples ({triples}/s)",
                    file=sys.stderr,
                )
                return 1
            print(f"gate ok: push-{backend} leaves {leaf}/s >= triples {triples}/s")
        failures = _count_gate(results["filter"]["counts"])
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("gate ok: warm passes miss nothing; lookups per event "
              + ", ".join(
                  f"{feed} {row['lookups'] / row['events']:.3f}"
                  for feed, row in results["filter"]["counts"].items()
              ))
    return 0


def test_event_path(benchmark):
    """pytest-benchmark harness variant at REPRO_BENCH_SCALE size."""
    filters, dataset = standard_workload(scaled(50_000, minimum=200), mean_predicates=1.15)
    stream = standard_stream(scaled(9_120_000, minimum=200_000))
    machine = XPushMachine(build_workload_automata(filters), TD, dtd=dataset.dtd)
    machine.filter_stream(stream, backend="python")  # warm
    machine.clear_results()

    def push():
        machine.filter_stream(stream, backend="python")
        machine.clear_results()

    benchmark.pedantic(push, rounds=3, iterations=1)
    seed_seconds, _ = _measure(
        lambda: len(machine.process_events(seed_iterparse(stream))), 1
    )
    machine.clear_results()
    push_seconds, _ = _measure(lambda: push() or 1, 1)
    print(f"\nseed-pull {seed_seconds:.3f}s vs push-python {push_seconds:.3f}s "
          f"(x{seed_seconds / push_seconds:.2f})")
    assert push_seconds <= seed_seconds


if __name__ == "__main__":
    sys.exit(main())
