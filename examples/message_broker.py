#!/usr/bin/env python3
"""An XML message broker routing a protein-data feed to subscribers.

The Sec. 1 scenario: applications exchange XML messages through a
message-oriented middleware node; consumers subscribe with XPath
filters; the broker filters each packet once — via a single XPush
engine — and fans it out.  The routing is one dict from each
subscription's oid to its subscriber; ``repro serve`` is the same
broker on the wire, with per-consumer queues.

Run:  python examples/message_broker.py
"""

from collections import Counter

from repro import EngineConfig, create_engine
from repro.data import ProteinDataset


def main() -> None:
    dataset = ProteinDataset(seed=2024)
    engine = create_engine(EngineConfig(dtd=dataset.dtd))
    routes: dict[str, str] = {}  # oid -> subscriber

    def subscribe(subscriber: str, xpath: str) -> None:
        oid = f"sub{len(routes)}"
        engine.subscribe(oid, xpath)
        routes[oid] = subscriber

    # Consumers with overlapping interests — note the *shared predicates*
    # across subscriptions, the case the XPush machine is built for.
    year = dataset.value_pool["year"][5]
    keyword = dataset.value_pool["keyword"][0]
    organism = dataset.value_pool["formal"][3]
    subscribe("archivist", f"//refinfo[year/text() = {year}]")
    subscribe("curator", f"//refinfo[year/text() = {year} and title]")
    subscribe("tagger", f"//keywords[keyword/text() = '{keyword}']")
    subscribe("biologist", f"//organism[formal/text() = '{organism}']")
    subscribe("auditor", "//ProteinEntry[not(classification)]")
    subscribe("everything", "/ProteinDatabase")

    print(f"subscriptions: {engine.filter_count}")

    # A feed of 120 protein packets, each filtered once for everyone.
    packets = 120
    inboxes: Counter = Counter()
    for document in dataset.documents(packets):
        inboxes.update(routes[oid] for oid in engine.filter_document(document))

    print(f"published    : {packets} packets")
    print(f"delivered    : {sum(inboxes.values())} messages\n")
    for subscriber, count in inboxes.most_common():
        print(f"  {subscriber:<11} received {count:>4}")

    stats = engine.stats()
    engine.close()
    print(f"\nengine: {stats['xpush_states']} XPush states, "
          f"hit ratio {stats['hit_ratio']:.1%}")

    assert inboxes["everything"] == packets  # catch-all sees every packet
    assert inboxes["curator"] <= inboxes["archivist"]  # curator's filter is stricter
    print("\ninvariants hold ✓")


if __name__ == "__main__":
    main()
