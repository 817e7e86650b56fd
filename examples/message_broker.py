#!/usr/bin/env python3
"""An XML message broker routing a protein-data feed to subscribers.

The Sec. 1 scenario: applications exchange XML messages through a
message-oriented middleware node; consumers subscribe with XPath
filters; the broker filters each packet once — via a single XPush
machine — and fans it out.

Run:  python examples/message_broker.py
"""

from collections import Counter

from repro import MessageBroker
from repro.data import ProteinDataset
from repro.engine import EngineConfig


def main() -> None:
    dataset = ProteinDataset(seed=2024)
    broker = MessageBroker(EngineConfig(dtd=dataset.dtd))

    inboxes: Counter = Counter()
    broker.on_deliver = lambda subscriber, doc: inboxes.update([subscriber])

    # Consumers with overlapping interests — note the *shared predicates*
    # across subscriptions, the case the XPush machine is built for.
    year = dataset.value_pool["year"][5]
    keyword = dataset.value_pool["keyword"][0]
    organism = dataset.value_pool["formal"][3]
    broker.subscribe("archivist", f"//refinfo[year/text() = {year}]")
    broker.subscribe("curator", f"//refinfo[year/text() = {year} and title]")
    broker.subscribe("tagger", f"//keywords[keyword/text() = '{keyword}']")
    broker.subscribe("biologist", f"//organism[formal/text() = '{organism}']")
    broker.subscribe("auditor", "//ProteinEntry[not(classification)]")
    broker.subscribe("everything", "/ProteinDatabase")

    print(f"subscriptions: {broker.subscription_count}")

    # A feed of 120 protein packets.
    packets = 120
    for document in dataset.documents(packets):
        broker.publish(document)

    print(f"published    : {broker.published} packets")
    print(f"delivered    : {broker.delivered} messages\n")
    for subscriber, count in inboxes.most_common():
        print(f"  {subscriber:<11} received {count:>4}")

    stats = broker.stats()["engine"]
    print(f"\nengine: {stats['xpush_states']} XPush states, "
          f"hit ratio {stats['hit_ratio']:.1%}")

    assert inboxes["everything"] == packets  # catch-all sees every packet
    assert inboxes["curator"] <= inboxes["archivist"]  # curator's filter is stricter
    print("\ninvariants hold ✓")


if __name__ == "__main__":
    main()
