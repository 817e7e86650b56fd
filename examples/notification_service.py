#!/usr/bin/env python3
"""A notification service with boolean subscriptions and live updates.

Demonstrates the fragment's boolean breadth — ``and`` / ``or`` /
``not`` (universal!), attributes, descendants — plus the Sec. 8 update
story: new subscriptions arrive mid-stream and go to a small delta
layer beside the warmed machine, which keeps its tables.

Run:  python examples/notification_service.py
"""

from repro import create_engine, parse_document
from repro.data import NasaDataset


def main() -> None:
    dataset = NasaDataset(seed=11)
    engine = create_engine()
    routes: dict[str, str] = {}  # oid -> subscriber
    log: list[tuple[str, str]] = []

    def subscribe(subscriber: str, xpath: str) -> None:
        oid = f"sub{len(routes)}"
        engine.subscribe(oid, xpath)
        routes[oid] = subscriber

    def publish(document) -> None:
        for oid in sorted(engine.filter_document(document)):
            log.append((routes[oid], document.root.label))

    # Boolean subscriptions, including universal negation: "notify me
    # about datasets with NO history section" is exactly the kind of
    # route-if-absent rule the paper motivates not() with.
    subscribe("astro", "//dataset[@subject = 'astrometry']")
    subscribe("fresh", "//revision[date]")
    subscribe("no-history", "//dataset[not(history)]")
    subscribe(
        "picky",
        "//dataset[(keywords/keyword/text() = 'galaxy' or title) and not(altname)]",
    )

    first_batch = list(dataset.documents(30))
    for document in first_batch:
        publish(document)
    after_first = len(log)
    print(f"batch 1: {len(first_batch)} packets → {after_first} notifications")

    # A consumer joins mid-stream; one AFA is compiled, nothing is flushed.
    subscribe("deep", "//description//description")
    for document in dataset.documents(30):
        publish(document)
    print(f"batch 2: 30 packets → {len(log) - after_first} notifications "
          f"(now {engine.filter_count} subscriptions)")

    by_subscriber = {}
    for who, _ in log:
        by_subscriber[who] = by_subscriber.get(who, 0) + 1
    for who in sorted(by_subscriber):
        print(f"  {who:<11} {by_subscriber[who]:>4}")

    # Spot-check the universal semantics on a crafted packet.
    log.clear()
    publish(parse_document(
        "<datasets><dataset subject='catalog'>"
        "<title>t</title><identifier>i</identifier>"
        "</dataset></datasets>"
    ))
    engine.close()
    assert ("no-history", "datasets") in log  # no <history> → notified
    print("\nuniversal not() behaves ✓")


if __name__ == "__main__":
    main()
