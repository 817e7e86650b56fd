"""The one in-process engine over the XPush machine, and its Sec. 8
update path.

The paper sketches two ways to update the XPath workload:

1. **Brute force** — reset the lazy machine and restart with empty
   tables ("equivalent to flushing an entire cache");
2. **Layered insertion** — "To insert a new XPath filter, build a new
   XPush machine on top of the old XPush machine and the new XPath
   expression.  The states in the new XPush machine are very small:
   they contain at most one state from the old XPush machine and a few
   AFA states from the new XPath filter."

:class:`LayeredFilterEngine` realises the second idea with a factored
construction and one rule: **a layer grows, it is not rebuilt**.  The
established workload lives in a warmed *base* machine and the filters
inserted since the last fold in a small *delta* machine; a composite
state of the paper's layered machine is exactly a pair (base state,
delta state), maintained by running the two machines side by side over
the same event stream, and the answer is the union of the layers'
answers.  Three verbs change a layer, and each is
:meth:`repro.xpush.machine.XPushMachine.extend` underneath:

- **grow** — ``subscribe`` compiles exactly one AFA, at the top of the
  delta's sid space; ``compact`` (the *fold*, automatic every
  ``compact_threshold`` insertions, and once a delta has gone
  ``compact_threshold`` documents without one) appends the delta's
  filters at the top of the base's.  Nothing about an existing AFA
  state changes, so the machine keeps the state store it had as a
  read-only predecessor and a memo miss takes the old block's share of
  the answer from it — the "on top of the old XPush machine" of the
  quote;
- **retire** — ``unsubscribe`` is a tombstone (dropped from answers at
  once); the next fold turns tombstoned and re-defined filters into
  *passengers*: their AFAs stay in the sid space, transitions intact,
  and answer to no oid.  A re-inserted oid whose old definition still
  sits in the base is *shadowed* by the delta's until then; one whose
  old definition sits in the delta is retired on the spot;
- **renumber** — passengers widen every mask, so when a fold finds the
  base's retired AFA states outnumbering half its live ones it
  rebuilds the base from the live sources instead.  That *is* the
  brute-force path, cold, taken when the workload says so; there is no
  knob, and no second engine that takes it on every update.

A workload that has stopped being updated ends on one layer and pays
for one: each filter call reads how many layer machines are live, and
with exactly one the parser drives that machine's SAX callbacks
directly.  The fan-out over base and delta runs only while both exist,
and the idle fold, taken at the start of a call and never inside a
document, bounds how long that is.  The workload must not change while
a call is in flight (the serving tier and the shard workers already
serialise updates and filter calls).

The engine conforms to the :class:`repro.engine.protocol.FilterEngine`
protocol and is built by :func:`repro.engine.create_engine` for
``"layered"`` and, for the harness that still names it, ``"xpush"``:
``filter_stream`` is the zero-allocation
push-mode event path, and ``snapshot()``/``restore()`` capture the live
definitions of base and delta plus the tombstones as XPath sources —
passengers are never written, so a restart cannot resurrect one.
Folds and renumberings are logged at INFO on ``repro.xpush.layered``,
each with its trigger: ``threshold`` (the insertion that filled the
delta), ``compact`` (the verb) or ``idle``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import replace
from typing import IO, Any, Callable, Collection, Iterable, Mapping, Sequence, Union

from repro.afa.automaton import WorkloadAutomata
from repro.afa.build import build_workload_automata
from repro.errors import WorkloadError
from repro.xmlstream.dtd import DTD
from repro.xmlstream.dom import Document
from repro.xmlstream.events import Event, EventHandler, dispatch, events_of_document
from repro.xmlstream.parser import parse_into
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_workload, parse_xpath
from repro.xpush.machine import XPushMachine
from repro.xpush.options import XPushOptions
from repro.xpush.persist import PersistError
from repro.xpush.stats import machine_block, merged

log = logging.getLogger(__name__)

# As repro.engine.protocol spells them (the engine package imports this
# one, not the other way round).
MatchHook = Callable[[str, int, int], None]
StreamSource = Union[str, bytes, IO[str], IO[bytes]]

#: ``snapshot()`` format tag (see :mod:`repro.xpush.persist`).  Version 1
#: shipped the base as a compiled workload; version 2 ships sources.
SNAPSHOT_FORMAT = "repro-layered-engine"
SNAPSHOT_VERSION = 2

#: What the serial ``xpush`` engine and the rebuild-on-change engines
#: wrote before this one replaced them: live filters by source, no layers.
SOURCES_FORMAT = "repro-engine-workload"


def snapshot_layers(
    snapshot: Mapping[str, Any],
) -> tuple[dict[str, str], dict[str, str], list[str]]:
    """``(base sources, delta sources, tombstones)`` of a capture in
    any format an XPush engine ever wrote: :data:`SNAPSHOT_FORMAT`
    version 1 or 2, or :data:`SOURCES_FORMAT` version 1 (every filter
    in the base).  The one reader of them."""
    kind = (snapshot.get("format"), snapshot.get("version"))
    base = snapshot.get("base") or {}
    try:
        if kind == (SOURCES_FORMAT, 1):
            base = snapshot["filters"]
        elif kind == (SNAPSHOT_FORMAT, 1):
            base = {afa["oid"]: afa["source"] for afa in base.get("afas", [])}
        elif kind != (SNAPSHOT_FORMAT, SNAPSHOT_VERSION):
            raise PersistError(
                f"not an XPush engine snapshot: format {kind[0]!r}, version {kind[1]!r}"
            )
        layers = [
            {str(oid): str(xpath) for oid, xpath in layer.items()}
            for layer in (base, snapshot.get("delta") or {})
        ]
        return layers[0], layers[1], [str(oid) for oid in snapshot.get("tombstones") or []]
    except (AttributeError, KeyError, TypeError) as error:
        raise PersistError(f"malformed engine snapshot: {error}") from None


class _LayerFanout(EventHandler):
    """Drives the layer machines of one filter call from one pass over
    its event stream.

    The machines' SAX callbacks, ``leaf`` included, are invoked
    directly — no per-layer event buffering, so an unbounded stream is
    processed in bounded memory.  An engine with one layer does not
    come through here (the
    parser drives that machine itself); one with none gets the empty
    answer per document.
    """

    __slots__ = ("engine", "layers", "answers")

    def __init__(self, engine: "LayeredFilterEngine", layers: Sequence[XPushMachine]):
        self.engine = engine
        self.layers = layers
        self.answers: list[frozenset[str]] = []

    def start_document(self) -> None:
        for machine in self.layers:
            machine.start_document()

    def start_element(self, label: str) -> None:
        for machine in self.layers:
            machine.start_element(label)

    def text(self, value: str) -> None:
        for machine in self.layers:
            machine.text(value)

    def end_element(self, label: str) -> None:
        for machine in self.layers:
            machine.end_element(label)

    def leaf(self, label: str, value: str) -> None:
        for machine in self.layers:
            machine.leaf(label, value)

    def end_document(self) -> None:
        self.answers.append(
            self.engine._merge(*[machine.end_document() for machine in self.layers])
        )


class LayeredFilterEngine:
    """The XPush filtering engine: a base layer, and while updates are
    pending an insertion layer beside it.

    >>> engine = LayeredFilterEngine.from_xpath({"a": "//x"})
    >>> engine.subscribe("b", "//y[z = 1]")
    >>> sorted(engine.filter_stream("<y><z>1</z></y>")[0])
    ['b']
    """

    name = "layered"

    def __init__(
        self,
        filters: list[XPathFilter],
        options: XPushOptions | None = None,
        dtd: DTD | None = None,
        compact_threshold: int = 64,
    ):
        self.options = options or XPushOptions()
        self.dtd = dtd
        #: A delta's life, in insertions or in documents answered since
        #: the last insertion, whichever it reaches first.
        self.compact_threshold = compact_threshold
        self._idle_documents = 0
        self._base_filters: dict[str, XPathFilter] = {}
        for xpath_filter in filters:
            if xpath_filter.oid in self._base_filters:
                raise WorkloadError(f"duplicate oid {xpath_filter.oid!r}")
            self._base_filters[xpath_filter.oid] = xpath_filter
        self._delta_filters: dict[str, XPathFilter] = {}
        self._tombstones: set[str] = set()
        self._base = self._build(list(self._base_filters.values()))
        self._delta: XPushMachine | None = None
        self.compactions = 0
        self.insertions = 0
        #: Bytes parsed by :meth:`filter_stream` — counted here because
        #: layer machines come and go, and while there are two the
        #: scanner feeds both at once.
        self.bytes_processed = 0
        #: Event-time match sink (FilterEngine protocol): fired at the
        #: deciding event of whichever layer resolves the match, with
        #: shadowed base-layer oids and tombstones suppressed exactly as
        #: :meth:`_merge` suppresses them from the answer set.
        self.on_match: MatchHook | None = None

    @classmethod
    def from_xpath(
        cls,
        sources: dict[str, str],
        options: XPushOptions | None = None,
        dtd: DTD | None = None,
    ) -> "LayeredFilterEngine":
        return cls(parse_workload(sources), options, dtd)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def subscribe(self, oid: str, xpath: str) -> None:
        """Add a filter: one AFA is compiled, at the top of the delta
        layer (or, when this insertion fills the delta, of the base it
        is folded into), unless the filter copies the source of a live
        filter of that layer, whose AFA then answers to it as well; the
        warmed base machine and all its states survive untouched.

        Re-subscribing an unsubscribed oid is allowed.  If its old
        definition sits in the base layer it is *shadowed* — the new
        delta definition answers alone (never both layers), and
        ``filter_count`` counts the oid once; if it sits in the delta,
        that AFA is retired in the same step.
        """
        if (
            oid in self._base_filters or oid in self._delta_filters
        ) and oid not in self._tombstones:
            raise WorkloadError(f"oid {oid!r} already subscribed")
        parsed = parse_xpath(xpath, oid)
        redefined = oid in self._delta_filters
        if len(self._delta_filters) + (not redefined) >= self.compact_threshold:
            self._fold("threshold", parsed)
        else:
            delta = self._delta
            if delta is None:
                delta = self._machine_of(build_workload_automata([]))
            delta.extend([parsed], retire=[oid] if redefined else ())
            self._delta = delta
            self._tombstones.discard(oid)
            # Sid order, not definition order: a redefinition moves last.
            self._delta_filters.pop(oid, None)
            self._delta_filters[oid] = parsed
        self.insertions += 1
        self._idle_documents = 0

    def unsubscribe(self, oid: str) -> None:
        """Delete a filter.  Cheap: a tombstone filters the answers; the
        machines are untouched until the next fold."""
        if oid not in self._base_filters and oid not in self._delta_filters:
            raise WorkloadError(f"unknown oid {oid!r}")
        if oid in self._tombstones:
            raise WorkloadError(f"oid {oid!r} already removed")
        self._tombstones.add(oid)

    def compact(self) -> None:
        """Fold the delta and the tombstones into the base: the delta's
        live filters are appended to the base machine, tombstoned and
        re-defined base filters become passengers, and the base's
        memoised states stay reachable through its predecessor store.
        Renumbers instead — rebuilds the base from its live sources —
        when passengers have come to outnumber half the live AFA states."""
        self._fold("compact")

    def _fold(self, trigger: str, incoming: XPathFilter | None = None) -> None:
        """:meth:`compact`, with the insertion that triggered it (if
        any) going straight into the base; *trigger* names the rule
        that ran it in the log line."""
        started = time.perf_counter()
        delta, tombstones = dict(self._delta_filters), set(self._tombstones)
        if incoming is not None:
            delta.pop(incoming.oid, None)
            delta[incoming.oid] = incoming
            tombstones.discard(incoming.oid)
        arriving = [f for oid, f in delta.items() if oid not in tombstones]
        leaving = [oid for oid in self._base_filters if oid in tombstones or oid in delta]
        folded = {
            oid: f
            for oid, f in self._base_filters.items()
            if oid not in tombstones and oid not in delta
        }
        folded.update((f.oid, f) for f in arriving)
        base = self._base
        workload = base.workload if base is not None else None
        # Passengers cost mask width — every interned state and lane is
        # an int as wide as the sid space, and every row table a row
        # per sid — so the base is renumbered once they outnumber half
        # its live AFA states.
        renumber = (
            workload is not None
            and 2 * workload.retired_states > workload.state_count - workload.retired_states
        )
        if base is None or renumber:
            # Compiling may refuse the incoming filter: nothing is
            # touched before it.  The old stores are most of the heap
            # and go before the new machine exists.
            rebuilt = build_workload_automata(list(folded.values()))
            if base is not None:
                base.close()
            self._base = self._machine_of(rebuilt) if folded else None
        else:
            base.extend(arriving, retire=leaving)
        if self._delta is not None:
            self._delta.close()
        self._delta = None
        self._base_filters = folded
        self._delta_filters = {}
        self._tombstones = set()
        self.compactions += 1
        if log.isEnabledFor(logging.INFO):
            stats = self.stats()
            log.info(
                "%s (%s): %d live filters, %d retired, %d AFA states, %d carried hits, %.1f ms",
                "renumbered" if renumber else "folded",
                trigger,
                stats["filters"],
                stats["retired_filters"],
                stats["afa_states"],
                stats["carried"],
                (time.perf_counter() - started) * 1e3,
            )

    def _build(self, filters: list[XPathFilter]) -> XPushMachine | None:
        if not filters:
            return None
        return self._machine_of(build_workload_automata(filters))

    def _machine_of(self, workload: WorkloadAutomata) -> XPushMachine:
        # Layer answers are merged and returned per call; the layer
        # machines must not retain their own unbounded copies.
        return XPushMachine(
            workload,
            replace(self.options, retain_results=False),
            dtd=self.dtd,
        )

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    @property
    def filter_count(self) -> int:
        # An oid present in both layers (re-inserted while its old base
        # definition awaits compaction) counts once; no union is built.
        base = self._base_filters
        fresh = sum(1 for oid in self._delta_filters if oid not in base)
        return len(base) + fresh - len(self._tombstones)

    def _merge(
        self,
        base_matched: frozenset[str] = frozenset(),
        delta_matched: frozenset[str] = frozenset(),
    ) -> frozenset[str]:
        """One document's answer from the per-layer answers: the delta
        layer shadows base-layer oids it redefines, tombstones drop."""
        shadowed = self._base_filters.keys() & self._delta_filters.keys()
        matched = set(base_matched)
        if shadowed:
            matched -= shadowed
        matched |= delta_matched
        matched -= self._tombstones
        return frozenset(matched)

    def _layers_for_call(self) -> list[XPushMachine]:
        """The live layer machines, base first, with the event-time
        relay (un)wired for one filter call.  Wired per call so a layer
        made since the last one picks the hook up, and with no sink the
        machines run hook-free — the hot path pays nothing.  A delta
        beside a base that has gone ``compact_threshold`` documents
        without an insertion is folded first: a call starts between
        documents, and from here on it takes the one-machine path."""
        if (
            self._base is not None
            and self._delta is not None
            and self._idle_documents >= self.compact_threshold
        ):
            self._fold("idle")
        hook = self.on_match
        layers = [machine for machine in (self._base, self._delta) if machine is not None]
        for machine in layers:
            if hook is None:
                machine.on_match = None
            else:
                shadowed: Collection[str] = self._delta_filters if machine is self._base else ()
                machine.on_match = self._relay(hook, machine.doc_seq, shadowed)
        return layers

    def _relay(self, hook: MatchHook, first_seq: int, shadowed: Collection[str]) -> MatchHook:
        """A layer machine's ``on_match`` for one call: mirror
        :meth:`_merge` (a match never reaches the answer when its oid
        is tombstoned, or sits in the base and is redefined in the
        delta) and turn the machine's running document number into the
        0-based index within the call.  A machine emits an oid once a
        document and an oid answers from one layer, so nothing repeats."""
        tombstones = self._tombstones

        def relay(oid: str, doc_seq: int, event_index: int) -> None:
            if oid not in tombstones and oid not in shadowed:
                hook(oid, doc_seq - first_seq, event_index)

        return relay

    def _without_tombstones(self, answers: list[frozenset[str]]) -> list[frozenset[str]]:
        """:meth:`_merge` for the answers of a sole layer."""
        tombstones = self._tombstones
        return [matched - tombstones for matched in answers] if tombstones else answers

    def filter_document(self, document: Document) -> frozenset[str]:
        return self.filter_events(events_of_document(document))[0]

    def filter_events(self, events: Iterable[Event]) -> list[frozenset[str]]:
        """Filter a SAX event stream; one oid-set per document.

        The layers are driven incrementally from a single pass — the
        stream is never materialised, so infinite streams run in the
        bounded memory the machines' own memory manager provides.
        """
        layers = self._layers_for_call()
        if len(layers) == 1:
            answers = self._without_tombstones(layers[0].process_events(iter(events)))
        else:
            handler = _LayerFanout(self, layers)
            dispatch(iter(events), handler)
            answers = handler.answers
        self._idle_documents += len(answers)
        return answers

    def filter_stream(self, source: StreamSource) -> list[frozenset[str]]:
        """Parse and filter XML text on the push-mode fast path: the
        scanner drives the layer machine — or, while there are two, the
        fan-out over them — directly, no Event objects in between."""
        layers = self._layers_for_call()
        if len(layers) == 1:
            stats = layers[0].stats
            before = stats.bytes_processed
            answers = self._without_tombstones(layers[0].filter_stream(source))
            self.bytes_processed += stats.bytes_processed - before
        else:
            handler = _LayerFanout(self, layers)
            self.bytes_processed += parse_into(source, handler)
            answers = handler.answers
        self._idle_documents += len(answers)
        return answers

    # ------------------------------------------------------------------
    # Persistence (Sec. 8 across restarts)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Capture base + delta + tombstones as a JSON-safe dict.

        Both layers ship as XPath sources of their *live* definitions
        (a tombstoned one included, with its tombstone, so a worker
        restarted from this snapshot resumes the exact workload
        version, unfolded updates and all); retired passengers are not
        definitions and are never written.  Restoring recompiles, and
        so renumbers, both layers, under the restoring engine's own
        options.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "base": {oid: f.source for oid, f in self._base_filters.items()},
            "delta": {oid: f.source for oid, f in self._delta_filters.items()},
            "tombstones": sorted(self._tombstones),
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace the current workload with a :meth:`snapshot` capture
        (or a ``repro-engine-workload`` one: the serial ``xpush`` engine
        wrote those, and every filter of one goes to the base)."""
        base_data, delta_data, tombstones = snapshot_layers(snapshot)
        stale = [oid for oid in tombstones if oid not in base_data and oid not in delta_data]
        if stale:
            raise PersistError(f"tombstones for unknown oids: {stale[:8]}")
        base_filters = {f.oid: f for f in parse_workload(base_data)}
        delta_filters = {f.oid: f for f in parse_workload(delta_data)}
        base = self._build(list(base_filters.values()))
        delta = self._build(list(delta_filters.values()))
        self.close()
        self._base_filters = base_filters
        self._delta_filters = delta_filters
        self._tombstones = set(tombstones)
        self._base = base
        self._delta = delta

    # ------------------------------------------------------------------
    # Stats, lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        base, delta = self._base, self._delta
        return {
            "engine": self.name,
            "filters": self.filter_count,
            "base_filters": len(self._base_filters),
            "delta_filters": len(self._delta_filters),
            "tombstones": len(self._tombstones),
            "base_states": base.state_count if base else 0,
            "delta_states": delta.state_count if delta else 0,
            "insertions": self.insertions,
            "compactions": self.compactions,
            "bytes_processed": self.bytes_processed,
            "runtime": self.options.runtime,
            # Cross-layer sums: an engine grown from empty has its only
            # machine in the delta, so no counter reads one layer.
            **merged(machine_block(m) for m in (base, delta) if m is not None),
        }

    def close(self) -> None:
        """Release the layer machines; the engine can be restored or
        rebuilt through updates afterwards."""
        for machine in (self._base, self._delta):
            if machine is not None:
                machine.close()
        self._base = None
        self._delta = None
        self._base_filters = {}
        self._delta_filters = {}
        self._tombstones = set()
