"""The lazy XPush Machine (Sec. 3-5).

Execution follows Fig. 2 exactly: the machine keeps a current state
``(qt, qb)`` and a stack of states; ``startElement`` pushes and moves
top-down, ``text`` applies ``t_value``, ``endElement`` applies
``t_pop`` then merges into the popped parent state with ``t_badd``,
``endDocument`` returns ``t_accept(qb)``.

Deviation from the literal Fig. 2, documented in DESIGN.md: ``text``
*merges* (``qb ← t_badd(qb, t_value(qt, str))``) instead of
overwriting, so ``<a c="2">1</a>`` — which Sec. 3.2 explicitly promises
to process — keeps the attribute-derived matches.  Mixed content is
rejected, as the paper assumes.

All six transition functions are computed lazily and memoised on the
interned states (Sec. 4): the first time a (state, event) pair occurs
there is "a relatively high cost", recovered on every reuse; the hit
counters quantify it (Fig. 8).

A seventh memo composes four of them.  An element that holds only
text, and every attribute, reaches the machine from the scanner as
one ``leaf(label, value)`` call (:mod:`repro.xmlstream.events`), and
the machine answers it from the parent's top-down state alone: the
t_pop entry that ``startElement``, ``text`` and ``endElement`` end in
is a function of that state, the label and the value's answer id, so
it is stored there once (``leaf_table``) and a warm leaf costs one
probe instead of four.

The machine owns what no runtime disagrees about, once: the stack and
registers, the SAX callbacks with their memoised hit path, state
interning (:mod:`repro.xpush.state` — every state set is one int mask),
the memo tables, the counters and the memory manager (Sec. 6: one
CLOCK epoch at a document boundary past ``max_memory_bytes``, forced
when the working set outgrew the bound).  The first-touch
cost itself — mapping a set of AFA states to a set of AFA states — is
the only runtime-specific decision and sits behind the transition-
kernel seam of :mod:`repro.xpush.kernels`, selected by
``XPushOptions.runtime``: ``"bitmask"`` (default) computes on the
workload's compiled :class:`~repro.afa.automaton.CompiledMasks`
tables; ``"codegen"`` dispatches into straight-line Python generated
per workload (:mod:`repro.afa.codegen`), running the bitmask kernel
(with a warning and a stats counter) when the workload exceeds
``XPushOptions.codegen_max_handlers``.  The frozenset reference both
are differentially tested against lives with the tests.
The miss path matters exactly where hits are rare: low-hit-ratio
regimes (Fig. 8) and large workloads (Figs. 6/10).

The Sec. 5 optimisations are selected with
:class:`repro.xpush.options.XPushOptions`:

- *top-down pruning* tracks enabled AFA states in ``qt`` and restricts
  ``t_value`` to them;
- *order optimisation* makes ``t_badd`` drop states whose DTD-mandated
  preceding siblings have not matched;
- *early notification* reports a filter as soon as its notification
  state matches an enabled node, strips that filter's states from the
  stored pop results, and intersects pop results with the parent's
  enabled set (the ``//`` fix the paper prescribes);
- *training* warms the machine on workload-derived documents.
"""

from __future__ import annotations

import random
from typing import IO, Callable, Hashable, Iterable, Sequence

from repro.afa.automaton import CompiledMasks, StateKind, WorkloadAutomata
from repro.afa.build import build_workload_automata
from repro.afa.index import AtomicPredicateIndex
from repro.errors import EventStreamError, MixedContentError, WorkloadError
from repro.xmlstream.dom import Document
from repro.xmlstream.dtd import DTD
from repro.xmlstream.events import Event, dispatch, events_of_document
from repro.xmlstream.parser import parse_into
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_workload
from repro.xpush.kernels import EMPTY_OIDS, CodegenKernel, MaskKernel, Precedence
from repro.xpush.options import XPushOptions
from repro.xpush.state import StateStore, XPushState, XPushTopState
from repro.xpush.stats import MachineStats

#: The clock sweep evicts down to this fraction of ``max_memory_bytes``.
#: The band between the low and high watermarks absorbs per-document
#: growth: above *low* a paced clock pass evicts only states that
#: stayed cold across document boundaries; only above *high* (the hard
#: bound) does a second, forced epoch evict regardless of reference bits.
LOW_WATERMARK_RATIO = 0.8


def compute_precedence(workload: WorkloadAutomata, dtd: DTD) -> dict[int, frozenset[int]]:
    """``prec(s)`` of Sec. 5: for ε-children of the same AND state,
    ``s' ≺ s`` when every outgoing label of s' must precede every
    outgoing label of s under the DTD sibling order.  States with
    wildcard transitions or no label transitions are incomparable."""
    order = dtd.sibling_order()
    prec: dict[int, set[int]] = {}
    states = workload.states
    for state in states:
        if state.kind is not StateKind.AND:
            continue
        labelled: dict[int, frozenset[str]] = {}
        for child in state.eps:
            labels = states[child].outgoing_labels()
            if labels and "*" not in labels and "@*" not in labels:
                labelled[child] = labels
        children = list(labelled)
        for left in children:
            for right in children:
                if left == right:
                    continue
                if all(
                    (x, y) in order for x in labelled[left] for y in labelled[right]
                ):
                    prec.setdefault(right, set()).add(left)
    return {sid: frozenset(sources) for sid, sources in prec.items()}


def _joined_oids(
    workload: WorkloadAutomata, count: int, filters: Sequence[XPathFilter]
) -> dict[str, frozenset[str]]:
    """The oids of *filters* that :meth:`WorkloadAutomata.extend` made
    one of the first *count* AFAs answer to (a copy of its source),
    keyed by an oid that AFA answered to before."""
    arrived = frozenset(f.oid for f in filters)
    out: dict[str, frozenset[str]] = {}
    for afa in workload.afas[:count]:
        if afa.retired:
            continue
        answering = workload.accepted_oids((afa.initial,))
        joined = answering & arrived
        if joined:
            out[min(answering - joined)] = joined
    return out


class XPushMachine:
    """Evaluate a workload of XPath filters over XML streams.

    Typical use::

        machine = XPushMachine.from_xpath({
            "o1": "//a[b/text()=1 and .//a[@c>2]]",
            "o2": "//a[@c>2 and b/text()=1]",
        })
        results = machine.filter_stream(xml_text)   # one oid-set per doc
    """

    def __init__(
        self,
        workload: WorkloadAutomata,
        options: XPushOptions | None = None,
        dtd: DTD | None = None,
    ):
        self.workload = workload
        self.options = options or XPushOptions()
        self.dtd = dtd
        # Hot-path copy: end_element keys its memo per (label, qt,
        # parent qt) under early notification, per label otherwise.
        self._early_keys = self.options.early
        if self.options.order and dtd is None:
            raise WorkloadError("order optimisation requires a DTD")
        self.stats = MachineStats()

        self.runtime = self.options.runtime
        #: The store this one replaced at the last :meth:`extend`, kept
        #: read-only: its memo answers the old block ``_covered`` of a
        #: t_pop / t_push miss.  ``_retired`` holds the oids that extend
        #: retired — a notification set memoised before must not name
        #: them — and ``_joined`` the oids it added to an AFA of the old
        #: block, keyed by an oid that AFA answered to before, which
        #: such a set does name.
        self._predecessor: StateStore | None = None
        self._covered = 0
        self._retired: frozenset[str] = frozenset()
        self._joined: dict[str, frozenset[str]] = {}
        self._open_store(self._bind_workload())

        # Per-document registers (Fig. 2; ``_qt`` / ``_qb`` start with
        # the store).  ``_content`` tracks what the open element
        # contains so far (0 nothing, 1 text, 2 element children) to
        # reject mixed content structurally — the paper's "no mixed
        # content" assumption (Sec. 3.2).
        # The element stack is a frame buffer plus a stack pointer, so
        # documents reuse slots instead of growing and shrinking a list.
        self._stack: list[tuple[XPushTopState, XPushState, int] | None] = []
        self._sp = 0
        self._content = 0
        self._early: set[str] = set()
        self._results: list[frozenset[str]] = []
        # Per-call result sink: filter_stream/process_events collect the
        # call's own answers here instead of slicing ``_results`` (which
        # a concurrent clear_results() or a retain_results=False machine
        # would corrupt).
        self._collect: list[frozenset[str]] | None = None
        self._doc_seq = 0  # monotonic document number (on_result index)
        self._training = False  # warm_up in progress: suspend mgmt/results
        self._memory_managed = self.options.max_memory_bytes is not None
        #: Optional push-mode sink: called as ``on_result(index, oids)``
        #: the moment each document finishes — lets brokers route
        #: packets without buffering the results list.  ``index`` is a
        #: monotonic document sequence number (not affected by
        #: ``clear_results``); training documents are not reported.
        self.on_result = None
        #: Optional event-time sink: ``on_match(oid, doc_seq, event_index)``
        #: fires the moment a filter's match is decided — at the closing
        #: event that early notification resolves it (Sec. 5), or at the
        #: ``endDocument`` event for matches only the bottom-up answer
        #: settles.  Each oid fires at most once per document (memoised
        #: pop entries re-deliver their notification set on hits; the
        #: ``_early`` register dedupes), every ``end_document`` answer is
        #: covered, emissions are monotone in ``event_index``, and
        #: training documents are not reported.  ``doc_seq`` is the same
        #: monotonic number ``on_result`` will carry for the document.
        self.on_match: Callable[[str, int, int], None] | None = None
        # Event counter behind ``on_match``'s event_index: startDocument
        # is event 0, each subsequent SAX event pre-increments.  It is
        # also the one per-event count: ``_counted`` says how many of
        # the current document's events ``stats.events`` already holds.
        self._event_index = -1
        self._counted = 0

        if self.options.train:
            self.warm_up()

    def _bind_workload(self) -> CompiledMasks:
        """(Re)derive what the machine reads off its workload — the
        atomic predicate index, the transition kernel, the enabled set
        behind ``qt0`` — and return the mask tables states are interned
        against.  Runs at construction and after every :meth:`extend`."""
        workload, options, dtd = self.workload, self.options, self.dtd
        masks = workload.masks
        if masks is None:
            raise WorkloadError(
                f"{self.runtime} runtime needs a finalized workload (call finalize())"
            )

        self.index = AtomicPredicateIndex()
        for sid in workload.terminals:
            self.index.add(workload.states[sid].predicate, sid)
        self.index.freeze()

        # The kernel is the only runtime-specific part: it maps state
        # sets (int masks) to state sets on a memo miss.  The codegen
        # runtime binds workload-specialized compiled handlers (shared
        # across machines over the same workload); a declined
        # compilation — compiled_handlers() warned once — runs the
        # interpreted MaskKernel and the miss path counts those
        # transitions so operators can see it.
        self._handlers = (
            workload.compiled_handlers(options.codegen_max_handlers)
            if self.runtime == "codegen"
            else None
        )
        self._codegen_declined = self.runtime == "codegen" and self._handlers is None
        prec = compute_precedence(workload, dtd) if options.order else None
        self.kernel = self._make_kernel(masks, prec)
        self._stamp_codegen_gauges()
        # The enabled set behind qt0 is a workload constant; compute it
        # once so table flushes only pay the intern, not the closure.
        self._qt0_enabled = self.kernel.initial_enabled() if options.top_down else None
        return masks

    def _make_kernel(self, masks: CompiledMasks, prec: Precedence | None) -> MaskKernel:
        """The transition kernel over *masks*.  The one place a kernel
        is built, so a test can substitute a reference kernel here."""
        if self._handlers is not None:
            return CodegenKernel(masks, self._handlers, prec)
        return MaskKernel(masks, prec)

    def _open_store(self, masks: CompiledMasks) -> None:
        """Start from an empty state store over *masks*."""
        self.store = StateStore(masks)
        self.qt0 = self.store.intern_top(self._qt0_enabled)
        # Sec. 4, "State Precomputation": in the bottom-up machine the
        # atomic predicate index and the t_value states are precomputed.
        if not self.options.top_down:
            self.index.precompute()
            self._seed_value_table()
        self._qt: XPushTopState = self.qt0
        self._qb: XPushState = self.store.empty

    def _seed_value_table(self) -> None:
        """Seed qt0's ``t_value`` memo from the precomputed index."""
        store = self.store
        table = self.qt0.value_table
        for key, mask in self.index.precomputed_items():
            if key not in table:
                table[key] = store.intern_bottom(mask)
                store.note_entries(1)

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------

    def clone(self) -> "XPushMachine":
        """A fresh machine over the same (shared, immutable) workload
        automata with empty tables — e.g. one per worker thread, since
        a machine instance itself is not thread-safe."""
        return XPushMachine(self.workload, self.options, self.dtd)

    @classmethod
    def from_filters(
        cls,
        filters: list[XPathFilter],
        options: XPushOptions | None = None,
        dtd: DTD | None = None,
    ) -> "XPushMachine":
        return cls(build_workload_automata(filters), options, dtd)

    @classmethod
    def from_xpath(
        cls,
        sources: dict[str, str] | list[str],
        options: XPushOptions | None = None,
        dtd: DTD | None = None,
    ) -> "XPushMachine":
        """Build a machine straight from XPath source strings."""
        return cls.from_filters(parse_workload(sources), options, dtd)

    # ------------------------------------------------------------------
    # Growth (Sec. 8) and release
    # ------------------------------------------------------------------

    def extend(
        self, filters: Sequence[XPathFilter] = (), retire: Iterable[str] = ()
    ) -> None:
        """Grow the workload in place, between documents: *filters* are
        compiled at the top of the sid space and the *retire* oids stop
        answering (:meth:`WorkloadAutomata.extend` — the workload object
        itself changes, so a :meth:`clone` sharing it must not be used
        again).  The paper's Sec. 8 insertion: "a new XPush machine on
        top of the old XPush machine and the new XPath expression".

        Memoised transitions say nothing about the new filters, so the
        machine starts a fresh state store — but keeps the one it had
        as a read-only *predecessor* for the block of sids that existed
        before.  AFAs are disjoint, so a state restricted to that block
        is a state the predecessor may know, and its memo entry is the
        block's share of the answer: a t_pop / t_push miss takes it from
        there and asks the kernel for the remainder only.  The carry is
        an accelerator, never a semantic: a probe the predecessor cannot
        answer falls through to the ordinary whole-mask sweep.  One
        predecessor is kept, the store being replaced; growing by
        nothing replaces nothing.
        """
        if self._sp:
            raise EventStreamError("extend() inside a document")
        retire = frozenset(retire)
        if not filters and not retire:
            return
        workload = self.workload
        assert workload.masks is not None
        covered = workload.masks.all_mask
        afas_before = len(workload.afas)
        workload.extend(filters, retire)
        masks = self._bind_workload()
        replaced = self.store
        replaced.demote()
        self._drop_predecessor()
        if covered:
            self._predecessor = replaced
            self._covered = covered
            self._retired = retire
            if len(filters) > len(workload.afas) - afas_before:  # some copy shared
                self._joined = _joined_oids(workload, afas_before, filters)
        else:
            replaced.close()  # an empty workload memoised nothing
        self._open_store(masks)
        self.stats.resident_bytes = self.resident_bytes
        self.stats.table_entries = self.table_entries

    def _drop_predecessor(self) -> None:
        if self._predecessor is not None:
            self._predecessor.close()
            self._predecessor = None
            self._covered = 0
            self._retired = frozenset()
            self._joined = {}

    def close(self) -> None:
        """Release the state stores, tables cleared, so a replaced
        machine is freed by reference counting the moment it is dropped
        instead of waiting, as cyclic garbage, for a full collection."""
        self._drop_predecessor()
        self.store.close()
        self._stack = []
        self.on_match = self.on_result = None

    # ------------------------------------------------------------------
    # SAX callbacks (Fig. 2)
    # ------------------------------------------------------------------

    def start_document(self) -> None:
        self._settle_events()  # a document abandoned mid-way, if any
        self._qt = self.qt0
        self._qb = self.store.empty
        self._sp = 0
        self._content = 0
        self._early = set()
        self._event_index = 0
        self._counted = 0

    # The callbacks below keep the hit path to its probes: ``events`` is
    # settled per document from ``_event_index``, a hit is a lookup that
    # did not miss, and a reference bit is set on what a probe returns
    # only — the table owners are registers, marked when they became one
    # (see the CLOCK invariant in repro.xpush.state).

    def start_element(self, label: str) -> None:
        self._event_index += 1
        is_attribute = label.startswith("@")
        if not is_attribute and self._content == 1:
            raise MixedContentError(
                f"element <{label}> opened after text in the same parent"
            )
        qt = self._qt
        sp = self._sp
        stack = self._stack
        frame = (qt, self._qb, self._content if is_attribute else 2)
        if sp == len(stack):
            stack.append(frame)
        else:
            stack[sp] = frame
        self._sp = sp + 1
        self._content = 0
        self.stats.lookups += 1
        nxt = qt.push_table.get(label)
        if nxt is None:
            self.stats.misses += 1
            nxt = self._compute_push(qt, label)
        else:
            nxt.ref = True  # a used memo entry keeps its target hot
        self._qt = nxt
        self._qb = self.store.empty

    def text(self, value: str) -> None:
        self._event_index += 1
        if self._content == 2:
            raise MixedContentError("text after element children in the same parent")
        self._content = 1
        qt = self._qt
        stats = self.stats
        key = self.index.key_of(value)
        stats.lookups += 1
        terminal_state = qt.value_table.get(key)
        if terminal_state is None:
            stats.misses += 1
            terminal_state = self._compute_value(qt, key)
        else:
            terminal_state.ref = True
        if terminal_state.size:
            # t_badd hit path, inlined (see _badd for the miss).
            qb = self._qb
            stats.lookups += 1
            out = qb.add_table.get(terminal_state.uid)
            if out is None:
                stats.misses += 1
                out = self._badd(qb, terminal_state)
            else:
                out.ref = True  # a used memo entry keeps its target hot
            self._qb = out

    def end_element(self, label: str) -> None:
        self._event_index += 1
        sp = self._sp - 1
        if sp < 0:
            raise EventStreamError(
                f"endElement({label}) with no open element: unbalanced event stream"
            )
        stats = self.stats
        qb = self._qb
        qt = self._qt
        stack = self._stack
        frame = stack[sp]
        assert frame is not None
        parent_qt, parent_qb, parent_content = frame
        stack[sp] = None  # drop the state references, keep the slot
        self._sp = sp
        if self._early_keys:
            pop_key = (label, qt.uid, parent_qt.uid)
        else:
            pop_key = label
        stats.lookups += 1
        entry = qb.pop_table.get(pop_key)
        if entry is None:
            stats.misses += 1
            entry = self._compute_pop(qb, label, qt, parent_qt, pop_key)
        else:
            # The lifted state is consumed by _badd below, never probed
            # as a register — a hit here is its only recency signal.
            entry[0].ref = True
        lifted, notified = entry
        if notified:
            self._notify(notified)
        self._qt = parent_qt
        self._content = parent_content
        if lifted.size:
            # t_badd hit path, inlined (see _badd for the miss).
            stats.lookups += 1
            out = parent_qb.add_table.get(lifted.uid)
            if out is None:
                stats.misses += 1
                out = self._badd(parent_qb, lifted)
            else:
                out.ref = True  # a used memo entry keeps its target hot
            self._qb = out
        else:
            self._qb = parent_qb

    def leaf(self, label: str, value: str) -> None:
        """``start_element(label); text(value); end_element(label)`` in
        one call and, warm, one probe: the leaf memo of the current
        (parent) top-down state holds the t_pop entry those three
        events end in.  What is left is what the parent's own registers
        decide: the mixed-content rule, early notification at the end
        event's index, and the t_badd of the lifted state into the
        parent's bottom-up state."""
        if label[0] != "@":
            if self._content == 1:
                self._event_index += 1  # the start event is the one refused
                raise MixedContentError(
                    f"element <{label}> opened after text in the same parent"
                )
            self._content = 2
        stats = self.stats
        qt = self._qt
        key = self.index.key_of(value)
        stats.lookups += 1
        row = qt.leaf_table.get(label)
        entry = None if row is None else row.get(key)
        if entry is None:
            stats.misses += 1
            entry = self._compute_leaf(qt, label, key)
        else:
            entry[0].ref = True
        self._event_index += 3
        lifted, notified = entry
        if notified:
            self._notify(notified)
        if lifted.size:
            qb = self._qb
            stats.lookups += 1
            out = qb.add_table.get(lifted.uid)
            if out is None:
                stats.misses += 1
                out = self._badd(qb, lifted)
            else:
                out.ref = True
            self._qb = out

    def _notify(self, notified: frozenset[str]) -> None:
        """Early notification (Sec. 5) of a pop entry's oids, at the
        current event."""
        hook = self.on_match
        if hook is None or self._training:
            self._early.update(notified)
            return
        # Memoised pop entries re-deliver their notification set on
        # every hit; the _early membership check dedupes so each oid
        # fires at the first deciding event only.
        early = self._early
        seq = self._doc_seq
        event_index = self._event_index
        for oid in notified:
            if oid not in early:
                early.add(oid)
                hook(oid, seq, event_index)

    def end_document(self) -> frozenset[str]:
        self._event_index += 1
        self._settle_events()
        if self._sp:
            raise EventStreamError(
                f"endDocument with {self._sp} unclosed element(s)"
            )
        self.stats.documents += 1
        accepted = self._qb.accepts
        if self._early:
            accepted = accepted | frozenset(self._early)
        hook = self.on_match
        if hook is not None and not self._training:
            # Matches the bottom-up pass settled only at document end
            # (or every match, when early notification is off) emit at
            # the endDocument event, so on_match covers the full answer.
            early = self._early
            seq = self._doc_seq
            event_index = self._event_index
            for oid in accepted:
                if oid not in early:
                    hook(oid, seq, event_index)
        return self._record_result(accepted)

    def _settle_events(self) -> None:
        """Count the current document's events into ``stats.events``:
        at ``end_document``, or what a document abandoned mid-way
        consumed, when the next one starts or the driving call ends."""
        consumed = self._event_index + 1
        self.stats.events += consumed - self._counted
        self._counted = consumed

    def _record_result(self, accepted: frozenset[str]) -> frozenset[str]:
        """Route one finished document's answer through the result
        plumbing (collection, retained results, ``on_result``) and run
        the document-boundary memory policy."""
        if self._collect is not None:
            self._collect.append(accepted)
        if not self._training:
            if self.options.retain_results:
                self._results.append(accepted)
            if self.on_result is not None:
                self.on_result(self._doc_seq, accepted)
            self._doc_seq += 1
            # Memory management (Sec. 6): document boundaries are the
            # safe points to reclaim — no stack, no live registers into
            # the tables.  Suspended during warm-up so training states
            # are never discarded mid-training (Sec. 5).
            if self._memory_managed:
                self._manage_memory()
            else:
                self.stats.resident_bytes = self.resident_bytes
                self.stats.table_entries = self.table_entries
        return accepted

    # ------------------------------------------------------------------
    # Lazy transition computation: the one memo-miss path.  The kernel
    # maps state sets to state sets; everything else — counters,
    # interning, the memo entry and its byte accounting — is here.
    # ------------------------------------------------------------------

    def _compute_push(self, qt: XPushTopState, label: str) -> XPushTopState:
        self.stats.push_computed += 1
        if self._codegen_declined:
            self.stats.codegen_fallbacks += 1
        if qt.mask is None:
            nxt = qt  # single top-down state, as in the Sec. 3.2 machine
        else:
            enabled = qt.mask
            carried = None
            if self._predecessor is not None:
                old = self._predecessor.find_top(enabled & self._covered)
                if old is not None:
                    carried = old.push_table.get(label)
            if carried is None:
                pushed = self.kernel.push(enabled, label)
            else:
                # As in _compute_pop: the predecessor's memo answers the
                # covered block, the kernel sweeps the rest.
                self.stats.carried += 1
                rest = ~self._covered
                pushed = self.kernel.push(enabled & rest, label) & rest | carried.mask
            nxt = self.store.intern_top(pushed)
        qt.push_table[label] = nxt
        self.store.note_entries(1)
        return nxt

    def _compute_value(self, qt: XPushTopState, key: int) -> XPushState:
        """t_value has no runtime-specific part: *key* names the index's
        answer, a state-set mask (computed once, when :meth:`key_of`
        issued the id), and the top-down state restricts it to its
        enabled set."""
        self.stats.value_computed += 1
        mask = self.index.mask_of(key)
        if qt.mask is not None:
            mask &= qt.mask
        state = self.store.intern_bottom(mask)
        qt.value_table[key] = state
        self.store.note_entries(1)
        return state

    def _compute_pop(
        self,
        qb: XPushState,
        label: str,
        qt: XPushTopState,
        parent_qt: XPushTopState,
        pop_key: Hashable,
    ) -> tuple[XPushState, frozenset[str]]:
        self.stats.pop_computed += 1
        if self._codegen_declined:
            self.stats.codegen_fallbacks += 1
        bottom, enabled, parent_enabled = qb.mask, qt.mask, parent_qt.mask
        carried = (
            None
            if self._predecessor is None
            else self._carried_pop(self._predecessor, bottom, label, enabled, parent_enabled)
        )
        if carried is not None:
            # The predecessor answered the covered block; the kernel
            # sweeps what is left.  On that reduced input a NOT or
            # ⊤-edge state of the covered block may fire spuriously —
            # masked off, the predecessor's word is the only one there.
            self.stats.carried += 1
            rest = ~self._covered
            bottom &= rest
            if self._early_keys:
                enabled &= rest
                parent_enabled &= rest
        if self._early_keys:
            lifted, notified = self.kernel.pop_early(bottom, label, enabled, parent_enabled)
        else:
            lifted, notified = self.kernel.pop(bottom, label), EMPTY_OIDS
        if carried is not None:
            lifted = lifted & rest | carried[0]
            if carried[1]:
                notified = notified | carried[1]
        entry = (self.store.intern_bottom(lifted), notified)
        qb.pop_table[pop_key] = entry
        self.store.note_entries(1)
        return entry

    def _carried_pop(
        self,
        predecessor: StateStore,
        bottom: int,
        label: str,
        enabled: int | None,
        parent_enabled: int | None,
    ) -> tuple[int, frozenset[str]] | None:
        """The covered block's share of a t_pop miss, read off the
        predecessor store: the state that is *bottom* restricted to the
        block, and that state's own memo entry — under early
        notification keyed by the predecessor's own top-down states for
        the restricted enabled sets.  None when any of those is
        missing: the miss then goes whole to the kernel, never a mix."""
        covered = self._covered
        old = predecessor.find_bottom(bottom & covered)
        if old is None:
            return None
        key: Hashable = label
        if self._early_keys:
            assert enabled is not None and parent_enabled is not None
            old_qt = predecessor.find_top(enabled & covered)
            old_parent = predecessor.find_top(parent_enabled & covered)
            if old_qt is None or old_parent is None:
                return None
            key = (label, old_qt.uid, old_parent.uid)
        entry = old.pop_table.get(key)
        if entry is None:
            return None
        lifted, notified = entry
        if notified and self._retired:
            notified = notified - self._retired
        if notified and self._joined:
            joined = self._joined
            notified = notified.union(*(joined[oid] for oid in notified & joined.keys()))
        return lifted.mask, notified

    def _badd(self, qbs: XPushState, qaux: XPushState) -> XPushState:
        """Compute t_badd on a memo miss.  The SAX callbacks inline the
        hit path (emptiness check + ``add_table`` probe) themselves —
        this runs only when the probe came up empty."""
        self.stats.add_computed += 1
        out = self.store.intern_bottom(self.kernel.badd(qbs.mask, qaux.mask))
        qbs.add_table[qaux.uid] = out
        self.store.note_entries(1)
        return out

    def _compute_leaf(
        self, qt: XPushTopState, label: str, key: int
    ) -> tuple[XPushState, frozenset[str]]:
        """A leaf memo miss: Fig. 2's three steps from *qt* — t_push,
        t_value merged into the empty state with t_badd, t_pop — each
        through its own memo and miss path (the predecessor carry
        included), so the states interned are the ones the three
        events would intern.  The pop entry they end in is the leaf
        entry, equal by construction."""
        nxt = qt.push_table.get(label)
        if nxt is None:
            nxt = self._compute_push(qt, label)
        terminal_state = nxt.value_table.get(key)
        if terminal_state is None:
            terminal_state = self._compute_value(nxt, key)
        qb = self.store.empty
        if terminal_state.size:
            out = qb.add_table.get(terminal_state.uid)
            qb = self._badd(qb, terminal_state) if out is None else out
        pop_key: Hashable = (label, nxt.uid, qt.uid) if self._early_keys else label
        entry = qb.pop_table.get(pop_key)
        if entry is None:
            entry = self._compute_pop(qb, label, nxt, qt, pop_key)
        row = qt.leaf_table.get(label)
        if row is None:
            row = qt.leaf_table[label] = {}
        row[key] = entry
        self.store.note_entries(1)
        return entry

    def _stamp_codegen_gauges(self) -> None:
        """Mirror the compiled-handler gauges into the stats (stats
        resets wipe them; warm_up re-stamps)."""
        if self._handlers is not None:
            self.stats.codegen_compile_ms = self._handlers.compile_ms
            self.stats.codegen_handlers = self._handlers.handler_count

    def dump_source(self) -> str | None:
        """The generated Python the codegen runtime dispatches into, or
        None when another runtime (or the fallback) is active."""
        return self._handlers.source if self._handlers is not None else None

    # ------------------------------------------------------------------
    # Driving the machine
    # ------------------------------------------------------------------

    def process_events(self, events: Iterable[Event]) -> list[frozenset[str]]:
        """Run a stream of events; returns one oid-set per document.

        The call's answers are collected locally (not sliced out of the
        shared ``results()`` list), so ``clear_results()``, a table
        flush, or ``retain_results=False`` cannot corrupt the return
        value.
        """
        collected: list[frozenset[str]] = []
        previous = self._collect
        self._collect = collected
        try:
            dispatch(events, self)
        finally:
            self._collect = previous
            self._settle_events()
        return collected

    def filter_stream(
        self,
        source: str | bytes | IO,
        backend: str = "expat",  # only "expat"; direction 1's re-seat of the e2e harness deletes it
    ) -> list[frozenset[str]]:
        """Parse and filter a (possibly multi-document) XML text.

        This is the push-mode fast path: the scanner (see
        :func:`repro.xmlstream.parser.parse_into`) drives this
        machine's SAX callbacks directly — no event objects are
        allocated between parser and machine.  Bytes processed are
        accounted for every source kind, including file-like objects.
        Like :meth:`process_events`, the call's answers are collected
        locally, independent of the shared results list.
        """
        collected: list[frozenset[str]] = []
        previous = self._collect
        self._collect = collected
        try:
            self.stats.bytes_processed += parse_into(source, self, backend=backend)
        finally:
            self._collect = previous
            self._settle_events()
        return collected

    def filter_document(self, document: Document) -> frozenset[str]:
        """Filter one in-memory document (used by tests and baselines)."""
        return self.process_events(events_of_document(document))[0]

    def results(self) -> list[frozenset[str]]:
        """All per-document answers produced so far."""
        return list(self._results)

    def clear_results(self) -> None:
        self._results.clear()

    # ------------------------------------------------------------------
    # Training (Sec. 5) and memory management (Sec. 8)
    # ------------------------------------------------------------------

    def warm_up(self, seed: int = 0) -> int:
        """Run the machine over workload-derived training documents
        (Sec. 5, "Training the XPush Machine"); returns the number of
        training documents processed.  Results are discarded and the
        stats counters reset: training is setup, so hit ratios and
        event counts reflect real data only — but the states created
        during training remain in the store and are counted by
        ``state_count`` (exactly how Fig. 6 counts them: "additional
        states created during the training phase").

        Memory management is suspended while training runs — a sweep
        triggered by the training documents themselves would silently
        discard the very states training exists to create.  The
        memory-manager history (``evictions`` / ``gc_states``) survives
        the trailing counter reset.
        """
        from repro.xpush.training import training_documents

        documents = training_documents(
            self.workload, self.dtd, rng=random.Random(seed)
        )
        count = 0
        self._training = True
        try:
            for document in documents:
                self.process_events(events_of_document(document))
                count += 1
        finally:
            self._training = False
        stats = self.stats
        kept = (stats.evictions, stats.gc_states)
        stats.reset()
        stats.evictions, stats.gc_states = kept
        stats.resident_bytes = self.resident_bytes
        stats.table_entries = self.table_entries
        self._stamp_codegen_gauges()
        return count

    def reset_tables(self) -> None:
        """Flush all states and tables (the paper's brute-force update
        path: "equivalent to flushing an entire cache").  The atomic
        predicate index survives — it is workload-derived, not
        data-derived — and precomputed ``t_value`` states are re-seeded
        from it in a bottom-up machine (Sec. 4)."""
        self._drop_predecessor()
        self.store.reset()
        self.qt0 = self.store.intern_top(self._qt0_enabled)
        if not self.options.top_down:
            self._seed_value_table()
        self._qt = self.qt0
        self._qb = self.store.empty
        self._stack = []
        self._sp = 0
        self._content = 0
        self._early = set()
        self.stats.resident_bytes = self.store.resident_bytes
        self.stats.table_entries = self.store.table_entries

    @property
    def resident_bytes(self) -> int:
        """Estimated bytes of states and memo tables the machine holds,
        the predecessor store's included."""
        predecessor = self._predecessor
        held = self.store.resident_bytes
        return held if predecessor is None else held + predecessor.resident_bytes

    @property
    def table_entries(self) -> int:
        predecessor = self._predecessor
        held = self.store.table_entries
        return held if predecessor is None else held + predecessor.table_entries

    def _manage_memory(self) -> None:
        """Apply the memory policy at a document boundary (Sec. 6):
        crossing ``max_memory_bytes`` triggers the incremental clock
        sweep down to the low watermark (:meth:`_evict_cold`)."""
        store, stats = self.store, self.stats
        high = self.options.max_memory_bytes
        if high is not None and self.resident_bytes > high:
            # The predecessor is the first thing to go: it only saves
            # work, the live store holds the working set.
            self._drop_predecessor()
        if high is not None and store.resident_bytes > high:
            self._evict_cold(int(high * LOW_WATERMARK_RATIO), high)
        stats.resident_bytes = self.resident_bytes
        stats.table_entries = self.table_entries

    def _evict_cold(self, low: int, high: int) -> None:
        """Second-chance (CLOCK) sweep toward the low watermark.

        One epoch (:meth:`StateStore.sweep_epoch`) deports states whose
        reference bit is clear (untouched since the last sweep): they
        lose their memo tables *and* their intern slot — where the real
        memory lives, in the masks — while referenced states survive,
        pruned of individual entries whose target went.  Reference bits
        are cleared afterwards, opening the next epoch: a state earns
        its second chance by being probed before the next sweep.  If
        that epoch leaves the store above *high* (the working set itself
        outgrew the bound), a forced epoch deports in clock-hand order,
        reference bits ignored, down to *low* — at most two epochs, and
        the bound holds unless the roots alone exceed it.

        The epoch targets *low* but is only *forced* past the working
        set when it fails to get back under *high*: landing between the
        watermarks is acceptable hysteresis (the cold tail is gone and
        the hard bound holds), whereas forcing down to low from there
        would evict recently-referenced states — the post-epoch floor
        is the working set plus the current window, and when that sits
        just above low a strict target churns exactly the states the
        policy exists to protect.
        """
        store, stats = self.store, self.stats
        roots = [store.empty, self.qt0, self._qb, self._qt]
        for force in (False, True):
            entries, states = store.sweep_epoch(roots, low, force)
            stats.evictions += entries
            stats.gc_states += states
            if store.resident_bytes <= high:
                break
        # The precomputed t_value seeds are part of the permanent
        # working set (Sec. 4): restore any the sweep took.
        if not self.options.top_down:
            self._seed_value_table()

    # ------------------------------------------------------------------

    @property
    def doc_seq(self) -> int:
        """Monotonic finished-document count — the sequence number the
        next document's ``on_result``/``on_match`` callbacks carry."""
        return self._doc_seq

    @property
    def state_count(self) -> int:
        """Number of (bottom-up) XPush states created so far (Fig. 6)."""
        return self.store.bottom_count

    @property
    def average_state_size(self) -> float:
        """Average AFA states per XPush state (Fig. 7)."""
        return self.store.average_bottom_size

    def describe(self) -> str:
        return (
            f"XPushMachine[{self.options.describe()}]: "
            f"{len(self.workload.accepted_oids(self.workload.initial_sids))} filters, "
            f"{self.workload.state_count} AFA states, "
            f"{self.store.bottom_count} XPush states"
        )
