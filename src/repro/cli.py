"""Command-line interface: ``python -m repro <command> …``.

Commands:

- ``filter`` — evaluate a workload of XPath filters over an XML stream
  (the core use case: one line of oids per document);
- ``subscribe`` / ``unsubscribe`` / ``compact`` — the update control
  plane on a persisted engine state file: add or drop filters without
  recompiling the warmed base workload, and fold the accumulated delta
  in on demand (Sec. 8); ``filter --state`` then serves the updated
  workload;
- ``serve`` — run the network serving tier (``repro.serving``): accept
  documents from concurrent publishers over TCP frames and HTTP POST,
  fan matched oids out to per-consumer queues, and keep the
  subscribe/unsubscribe/compact control plane live as API verbs;
- ``generate-data`` — emit a synthetic Protein/NASA stream;
- ``generate-queries`` — emit a synthetic workload for a dataset;
- ``inspect`` — show how a filter parses and compiles (AST, AFA
  summary, atomic predicates);
- ``explain`` / ``analyze`` — a workload's compiled size, and its
  sharing profile and mask lanes;
- ``bench`` — a one-shot throughput measurement; with ``--shards N``
  it also times the sharded engine's ``filter_stream``, the path
  ``filter`` and ``serve`` run.

The engine flags are ``--dtd``, ``--shards``, ``--max-memory`` and
``--early``: the transition kernel is always ``bitmask`` and a sharded
call is dealt out one run of documents per shard, so neither is a flag.

Query files contain one filter per line, either bare XPath (oids are
assigned ``q0, q1, …``) or ``oid <TAB> xpath``
(:mod:`repro.xpath.workload_io`, which ``generate-queries`` writes
through).  Blank lines and lines starting with ``#`` are skipped.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

from repro.afa.build import build_workload_automata
from repro.engine import EngineConfig, create_engine
from repro.errors import ReproError
from repro.xmlstream.dtdparser import parse_dtd_file
from repro.xmlstream.parser import _not_utf8
from repro.xpath.ast import count_atomic_predicates, is_linear
from repro.xpath.parser import parse_xpath
from repro.xpush.options import VARIANTS, variant_options


def _parse_bytes(text: str) -> int:
    """A byte count with optional K/M/G suffix: '64M', '512K', '2G'."""
    raw = text.strip()
    scale = 1
    suffixes = {"K": 1024, "M": 1024**2, "G": 1024**3}
    body = raw
    if body and body[-1].upper() in suffixes:
        scale = suffixes[body[-1].upper()]
        body = body[:-1]
    try:
        value = int(float(body) * scale)
    except ValueError:
        raise ReproError(f"bad byte size {raw!r} (use e.g. 64M, 512K, 2G)") from None
    if value < 1:
        raise ReproError(f"byte size must be positive, got {raw!r}")
    return value


def _load_queries(path: str):
    from repro.xpath.workload_io import load_workload

    try:
        return load_workload(path)
    except ReproError as error:
        raise ReproError(f"{path}: {error}") from None


def _dataset(name: str, seed: int):
    if name == "protein":
        from repro.data import ProteinDataset

        return ProteinDataset(seed=seed)
    if name == "nasa":
        from repro.data import NasaDataset

        return NasaDataset(seed=seed)
    if name == "auction":
        from repro.data import AuctionDataset

        return AuctionDataset(seed=seed)
    raise ReproError(f"unknown dataset {name!r} (try protein, nasa or auction)")


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as error:  # one decode of the whole file
        raise _not_utf8(error) from None


# ----------------------------------------------------------------------
# Engine flags: declared once, turned into an EngineConfig one way
# ----------------------------------------------------------------------

#: flag → ``add_argument`` keywords; ``filter``, ``serve`` and ``bench``
#: all take their engine knobs from here (:func:`_add_engine_flags`).
_ENGINE_FLAGS: dict[str, dict] = {
    "--dtd": dict(
        default=None,
        help="DTD file (order optimisation, training)",
    ),
    "--shards": dict(
        type=int,
        help="deal the documents out over N replicas of the compiled "
             "engine — worker processes when N > 1 (docs/scaling.md)",
    ),
    "--max-memory": dict(
        default=None,
        help="bound resident states+tables per machine (bytes, or K/M/G "
             "suffix, e.g. 64M); crossing it at a document boundary "
             "runs the second-chance (CLOCK) sweep",
    ),
    "--early": dict(
        action="store_true",
        help="event-time earliest answering: decide filters at the "
             "earliest deciding event (requires a top-down variant)",
    ),
}


def _add_engine_flags(p: argparse.ArgumentParser, *, shards: int, without=()) -> None:
    """Declare the engine flags on subcommand *p*; the ones it does not
    offer (*without*) are pinned to their defaults instead."""
    for flag, spec in _ENGINE_FLAGS.items():
        if flag in without:
            p.set_defaults(**{flag[2:].replace("-", "_"): spec["default"]})
        else:
            p.add_argument(flag, **spec)
    p.set_defaults(shards=shards)


def _engine_config(args, dtd) -> EngineConfig:
    """The :class:`EngineConfig` the engine flags of *args* describe.

    The engine kind is ``--engine`` where the subcommand has one, else
    sharded exactly when ``--shards`` asks for more than one.
    """
    options = variant_options(getattr(args, "variant", "TD"))
    options = replace(
        options,
        order=options.order or getattr(args, "order", False),
        early=options.early or args.early,
    )
    if args.max_memory:
        options = replace(options, max_memory_bytes=_parse_bytes(args.max_memory))
    if options.order and dtd is None:
        raise ReproError("the order optimisation needs --dtd (the sibling order comes from it)")
    if args.shards < 1:
        raise ReproError("--shards must be >= 1")
    return EngineConfig(
        engine=getattr(args, "engine", None) or ("sharded" if args.shards > 1 else "layered"),
        options=options,
        dtd=dtd,
        shards=args.shards,
    )


# ----------------------------------------------------------------------
# Engine state files (the persisted update control plane)
# ----------------------------------------------------------------------


def _engine_kind_of(snapshot: dict) -> str:
    """Which engine kind a snapshot file belongs to.  A
    ``repro-engine-workload`` file is the layered engine's whatever
    kind wrote it: that engine's ``restore`` reads the format."""
    fmt = snapshot.get("format", "")
    if fmt in ("repro-layered-engine", "repro-engine-workload"):
        return "layered"
    if fmt == "repro-sharded-engine":
        return "sharded"
    raise ReproError(f"unrecognised engine state format {fmt!r}")


def _load_state(
    path: str, engine_kind: str | None = None, config: EngineConfig | None = None
):
    """An engine restored from *path*, or a fresh empty one when the
    file does not exist yet (``engine_kind`` picks the kind, default
    layered — the engine whose updates never flush warmed tables).

    The file holds the workload; *config* (the engine flags, default
    ``EngineConfig()``) holds everything else, with the kind and
    ``parallel`` replaced in."""
    import os

    from repro.xpush.persist import load_engine_snapshot

    config = config or EngineConfig()
    if os.path.exists(path):
        snapshot = load_engine_snapshot(path)
        kind = _engine_kind_of(snapshot)
        if engine_kind and engine_kind != kind:
            raise ReproError(
                f"{path} holds a {kind!r} engine, not {engine_kind!r}"
            )
        # CLI invocations are one-shot: stay in-process even for a
        # sharded state (answers are mode-independent by contract).
        return create_engine(replace(config, engine=kind, parallel=False), snapshot=snapshot)
    return create_engine(replace(config, engine=engine_kind or "layered", parallel=False))


@contextmanager
def _updating_state(path: str, engine_kind: str | None = None):
    """The engine of state file *path*, for one update: saved back when
    the body succeeds, closed either way."""
    from repro.xpush.persist import save_engine_snapshot

    engine = _load_state(path, engine_kind)
    try:
        yield engine
        save_engine_snapshot(engine.snapshot(), path)
    finally:
        engine.close()


def cmd_subscribe(args) -> int:
    with _updating_state(args.state, args.engine) as engine:
        engine.subscribe(args.oid, args.xpath)
        count = engine.filter_count
    print(f"# subscribed {args.oid}, {count} filters in {args.state}", file=sys.stderr)
    return 0


def cmd_unsubscribe(args) -> int:
    with _updating_state(args.state) as engine:
        engine.unsubscribe(args.oid)
        count = engine.filter_count
    print(f"# unsubscribed {args.oid}, {count} filters in {args.state}", file=sys.stderr)
    return 0


def cmd_compact(args) -> int:
    with _updating_state(args.state) as engine:
        engine.compact()
        count = engine.filter_count
    print(
        f"# compacted {args.state}: {count} filters in the base layer",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_filter(args) -> int:
    dtd = parse_dtd_file(args.dtd) if args.dtd else None
    config = _engine_config(args, dtd)
    if args.queries and args.state:
        raise ReproError("pass exactly one of --queries and --state")
    if args.state:
        engine = _load_state(args.state, config=config)
    elif args.queries:
        engine = create_engine(config, _load_queries(args.queries))
    else:
        raise ReproError("filter requires --queries or --state")
    try:
        text = _read_input(args.input)
        start = time.perf_counter()
        results = engine.filter_stream(text)
        elapsed = time.perf_counter() - start
        stats = engine.stats()
    finally:
        engine.close()
    for i, matched in enumerate(results):
        print(f"{i}\t{','.join(sorted(matched)) or '-'}")
    megabytes = len(text.encode("utf-8")) / 1e6
    print(
        f"# {len(results)} documents, {stats['filters']} filters, "
        f"{f'state={args.state} ' if args.state else ''}engine={stats['engine']}, "
        f"{elapsed:.3f}s ({megabytes / elapsed if elapsed else 0:.2f} MB/s), "
        f"{_engine_footer(stats, config.options.max_memory_bytes is not None)}",
        file=sys.stderr,
    )
    return 0


def _engine_footer(stats: dict, bounded: bool) -> str:
    """What an engine's ``stats()`` say about a run, for a footer
    (*bounded*: a memory bound was set, so report what it cost)."""
    parts = []
    if "per_shard" in stats:
        fallback = ", serial fallback" if stats["serial_fallback"] else ""
        parts.append(
            f"{stats['shards']} shards ({stats['inner']}{fallback}), "
            f"{stats['worker_restarts']} restarts"
        )
    parts.append(f"{stats['xpush_states']} states, hit ratio {stats['hit_ratio']:.1%}")
    if bounded:
        parts.append(f"{stats['evictions']} evictions, {stats['resident_bytes']} resident bytes")
    return ", ".join(parts)


def cmd_serve(args) -> int:
    import asyncio

    from repro.serving import FilterServer

    if args.queries and args.state:
        raise ReproError("pass at most one of --queries and --state")
    config = _engine_config(args, parse_dtd_file(args.dtd) if args.dtd else None)
    if args.state:
        engine = _load_state(args.state, args.engine, config)
    else:
        engine = create_engine(config, _load_queries(args.queries) if args.queries else None)
    server = FilterServer(
        engine,
        host=args.host,
        port=args.port,
        default_policy=args.policy,
        high_watermark=args.high_watermark,
        early=args.early,
    )

    async def _run() -> None:
        await server.start()
        print(
            f"# serving engine={args.engine} on {server.host}:{server.port} "
            f"(TCP frames + HTTP; policy={args.policy}, "
            f"high_watermark={args.high_watermark})",
            file=sys.stderr,
        )
        try:
            if args.duration:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            pass
        finally:
            await server.stop()
            stats = server.stats_nowait()
            print(
                f"# served {stats['publishes']} publishes "
                f"({stats['published_docs']} documents, "
                f"{stats['deliveries']} deliveries, "
                f"epoch {stats['epoch']})",
                file=sys.stderr,
            )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        engine.close()
    return 0


def _write_out(text: str, out: str) -> None:
    """Write *text* to the file *out*, or to stdout for ``-``."""
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"# wrote {len(text.encode('utf-8'))} bytes to {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def cmd_generate_data(args) -> int:
    dataset = _dataset(args.dataset, args.seed)
    if args.bytes:
        text = dataset.stream_of_bytes(args.bytes)
    else:
        text = dataset.stream_text(args.documents, indent=2 if args.pretty else None)
    _write_out(text, args.out)
    return 0


def cmd_generate_queries(args) -> int:
    from repro.xpath.generator import GeneratorConfig, QueryGenerator
    from repro.xpath.workload_io import dump_workload

    dataset = _dataset(args.dataset, args.seed)
    config = GeneratorConfig(
        seed=args.seed,
        mean_predicates=args.mean_predicates,
        exact_predicates=args.exact_predicates,
        prob_wildcard=args.prob_wildcard,
        prob_descendant=args.prob_descendant,
        prob_or=args.prob_or,
        prob_not=args.prob_not,
        prob_nested=args.prob_nested,
        prob_string_function=args.prob_string_function,
    )
    generator = QueryGenerator(dataset.dtd, dataset.value_pool, config)
    _write_out(dump_workload(generator.generate(args.count)), args.out)
    return 0


def cmd_inspect(args) -> int:
    xpath_filter = parse_xpath(args.query, "q")
    path = xpath_filter.path
    print(f"source      : {args.query}")
    print(f"normalised  : {path}")
    print(f"steps       : {len(path.steps)}")
    print(f"atomic preds: {count_atomic_predicates(path)}")
    print(f"linear      : {is_linear(path)}")
    workload = build_workload_automata([xpath_filter])
    afa = workload.afas[0]
    print(f"AFA states  : {len(afa.state_sids)}")
    kinds = {}
    for sid in afa.state_sids:
        state = workload.states[sid]
        label = state.kind.name + ("/terminal" if state.is_terminal else "")
        kinds[label] = kinds.get(label, 0) + 1
    for label in sorted(kinds):
        print(f"  {label:<13} {kinds[label]}")
    note = workload.states[afa.notification]
    print(f"notification: s{afa.notification} ({note.kind.name})")
    if args.verbose:
        print("transitions :")
        for sid in afa.state_sids:
            state = workload.states[sid]
            for label, targets in sorted(state.edges.items()):
                for target in targets:
                    print(f"  s{sid} --{label}--> s{target}")
            for child in state.eps:
                print(f"  s{sid} --ε--> s{child}")
            for label in sorted(state.top_labels):
                print(f"  s{sid} --{label}--> ⊤")
            if state.is_terminal:
                print(f"  s{sid}: π = {state.predicate}")
    return 0


def cmd_explain(args) -> int:
    """Show the size of a whole workload's compiled form."""
    if not args.query and not args.queries:
        raise ReproError("explain needs --queries FILE or --query XPATH")
    filters = (
        [parse_xpath(args.query, "q")] if args.query else _load_queries(args.queries)
    )
    workload = build_workload_automata(filters)
    print(f"filters     : {len(filters)}")
    print(f"AFA states  : {workload.state_count}")
    return 0


def cmd_analyze(args) -> int:
    from repro.xpath.analysis import most_shared_predicates, profile_workload
    from repro.xpath.dedupe import DeduplicatedWorkload

    filters = _load_queries(args.queries)
    profile = profile_workload(filters)
    dedup = DeduplicatedWorkload(filters)
    print(profile.describe())
    print(
        f"duplicate filters: {dedup.duplicates_removed} "
        f"({dedup.class_count} equivalence classes)"
    )
    print(f"max predicates in one query: {profile.max_predicates_in_one_query}")
    masks = build_workload_automata(filters).masks
    assert masks is not None
    lanes = masks.lane_profile()
    per_label = list(lanes.rev_lanes.values()) or [0]
    print(f"AFA states: {lanes.states}")
    print(
        f"eval lanes per ε-rank: {', '.join(map(str, lanes.eps_lanes)) or 'none'} "
        f"(a state takes the word-parallel path from {lanes.eval_lane_bits} candidate bits)"
    )
    print(
        f"δ⁻¹ lanes per label: mean {sum(per_label) / len(per_label):.1f}, "
        f"max {max(per_label)} over {len(lanes.rev_lanes)} labels"
    )
    top = most_shared_predicates(filters, top=args.top)
    if top:
        print("most shared atomic predicates:")
        for (path, op, constant), count in top:
            const = "" if constant is None else f" {constant!r}"
            print(f"  {count:>5}x  {path} {op}{const}")
    return 0


def cmd_bench(args) -> int:
    from repro.xpath.generator import GeneratorConfig, QueryGenerator

    dataset = _dataset(args.dataset, args.seed)
    generator = QueryGenerator(
        dataset.dtd,
        dataset.value_pool,
        GeneratorConfig(seed=args.seed, mean_predicates=args.mean_predicates),
    )
    filters = generator.generate(args.queries)
    stream = dataset.stream_of_bytes(args.bytes)
    megabytes = len(stream.encode("utf-8")) / 1e6
    config = _engine_config(args, dataset.dtd)
    options = config.options
    engine = create_engine(replace(config, engine="layered", shards=1, parallel=False), filters)
    start = time.perf_counter()
    engine.filter_stream(stream)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    engine.filter_stream(stream)
    warm = time.perf_counter() - start
    stats = engine.stats()
    engine.close()
    print(f"variant={args.variant} queries={args.queries} data={megabytes:.2f}MB")
    print(f"cold: {cold:.3f}s ({megabytes / cold:.2f} MB/s)")
    print(f"warm: {warm:.3f}s ({megabytes / warm:.2f} MB/s)")
    print(f"states={stats['xpush_states']} hit_ratio={stats['hit_ratio']:.1%}")
    if options.max_memory_bytes is not None:
        print(
            f"memory: bound={options.max_memory_bytes} "
            f"resident={stats['resident_bytes']} "
            f"evictions={stats['evictions']} gc_states={stats['gc_states']}"
        )
    if config.engine == "sharded":
        with create_engine(config, filters) as sharded_engine:
            sharded_engine.filter_stream(stream)  # warm the shard machines
            start = time.perf_counter()
            sharded_engine.filter_stream(stream)
            sharded = time.perf_counter() - start
            stats = sharded_engine.stats()
        latency = stats["batch_latency"]
        print(
            f"sharded({args.shards}x"
            f"{', serial fallback' if stats['serial_fallback'] else ''}): "
            f"{sharded:.3f}s ({megabytes / sharded:.2f} MB/s), "
            f"speedup x{warm / sharded:.2f} vs warm serial"
        )
        print(
            f"batch latency ms: p50={latency['p50_ms']:.1f} "
            f"p90={latency['p90_ms']:.1f} p99={latency['p99_ms']:.1f}"
        )
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XPush machine: stream processing of XPath queries with predicates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="filter an XML stream with a query file")
    p.add_argument("--queries", help="query file (oid<TAB>xpath per line)")
    p.add_argument("--state", help="engine state file maintained by "
                   "`subscribe`/`unsubscribe`/`compact` instead of --queries")
    p.add_argument("--input", default="-", help="XML stream file, or - for stdin")
    p.add_argument("--variant", default="TD", choices=sorted(VARIANTS))
    _add_engine_flags(p, shards=1)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser(
        "subscribe",
        help="add a filter to an engine state file (created if missing)",
    )
    p.add_argument("--state", required=True, help="engine state file (JSON)")
    p.add_argument("--oid", required=True, help="subscription id")
    p.add_argument("--xpath", required=True, help="the XPath filter")
    p.add_argument("--engine", choices=["layered", "sharded"],
                   help="engine kind when creating a new state file "
                        "(default layered)")
    p.set_defaults(func=cmd_subscribe)

    p = sub.add_parser("unsubscribe", help="drop a filter from an engine state file")
    p.add_argument("--state", required=True, help="engine state file (JSON)")
    p.add_argument("--oid", required=True, help="subscription id to drop")
    p.set_defaults(func=cmd_unsubscribe)

    p = sub.add_parser(
        "compact",
        help="fold an engine state file's delta and tombstones into its base",
    )
    p.add_argument("--state", required=True, help="engine state file (JSON)")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser(
        "serve",
        help="run the network serving tier (TCP frames + HTTP on one port)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9723,
                   help="TCP port (0 = pick an ephemeral port)")
    p.add_argument("--queries", help="initial workload file (oid<TAB>xpath per line)")
    p.add_argument("--state", help="engine state file (see `subscribe`) to serve")
    p.add_argument("--engine", default="layered", choices=["layered", "sharded"],
                   help="engine kind behind the server (default layered)")
    p.add_argument("--order", action="store_true",
                   help="enable the Sec. 5 order optimisation (needs --dtd)")
    _add_engine_flags(p, shards=2, without=("--max-memory",))
    p.add_argument("--policy", default="block",
                   choices=["block", "drop_oldest", "evict"],
                   help="default slow-consumer policy at the high watermark")
    p.add_argument("--high-watermark", type=int, default=256,
                   help="default per-consumer queue bound (events)")
    p.add_argument("--duration", type=float, default=0.0,
                   help="serve for N seconds then drain and exit (0 = forever)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("analyze", help="profile a workload's sharing structure")
    p.add_argument("--queries", required=True)
    p.add_argument("--top", type=int, default=10, help="how many shared predicates to list")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate-data", help="emit a synthetic XML stream")
    p.add_argument("--dataset", default="protein", choices=["protein", "nasa", "auction"])
    p.add_argument("--documents", type=int, default=10)
    p.add_argument("--bytes", type=int, help="target size instead of a document count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("generate-queries", help="emit a synthetic workload")
    p.add_argument("--dataset", default="protein", choices=["protein", "nasa", "auction"])
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--mean-predicates", type=float, default=1.15)
    p.add_argument("--exact-predicates", type=int)
    p.add_argument("--prob-wildcard", type=float, default=0.0)
    p.add_argument("--prob-descendant", type=float, default=0.0)
    p.add_argument("--prob-or", type=float, default=0.0)
    p.add_argument("--prob-not", type=float, default=0.0)
    p.add_argument("--prob-nested", type=float, default=0.0)
    p.add_argument("--prob-string-function", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_generate_queries)

    p = sub.add_parser("inspect", help="show how one filter compiles")
    p.add_argument("query")
    p.add_argument("--verbose", "-v", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "explain", help="count a workload's filters and AFA states"
    )
    p.add_argument("--queries", help="query file (oid<TAB>xpath per line)")
    p.add_argument("--query", help="a single XPath filter instead of --queries")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("bench", help="one-shot throughput measurement")
    p.add_argument("--dataset", default="protein", choices=["protein", "nasa", "auction"])
    p.add_argument("--queries", type=int, default=500)
    p.add_argument("--mean-predicates", type=float, default=1.15)
    p.add_argument("--bytes", type=int, default=100_000)
    p.add_argument("--variant", default="TD-order-train", choices=sorted(VARIANTS))
    p.add_argument("--seed", type=int, default=0)
    _add_engine_flags(p, shards=1, without=("--dtd",))
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
