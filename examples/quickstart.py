#!/usr/bin/env python3
"""Quickstart: filter a stream of XML packets with the XPush machine.

Walks through the paper's running example (Example 1.1 / Fig. 3):
two filters that share the predicate ``[b/text()=1]``, evaluated over a
small stream of XML packets in one pass.

Run:  python examples/quickstart.py
"""

from repro import XPushMachine, XPushOptions

# 1. A workload of XPath boolean filters, each with an oid.  P1 and P2
#    share the predicate [b/text()=1] — the XPush machine evaluates it
#    once per node, no matter how many filters mention it.
FILTERS = {
    "P1": "//a[b/text()=1 and .//a[@c>2]]",
    "P2": "//a[@c>2 and b/text()=1]",
    "P3": "//a[not(b/text()=1)]",
}

# 2. A stream of XML documents ("packets"), concatenated as text —
#    exactly what an XML message broker receives on the wire.
STREAM = """\
<a> <b> 1 </b> <a c="3"> <b> 1 </b> </a> </a>
<a> <b> 2 </b> </a>
<a c="9"> <b> 1 </b> </a>
<doc> <a> <b> 1 </b> <a c="1"/> </a> </doc>
"""


def main() -> None:
    # Build the machine.  Options select the Sec. 5 optimisations; the
    # default here enables top-down pruning, the best general setting.
    machine = XPushMachine.from_xpath(
        FILTERS, options=XPushOptions(top_down=True)
    )

    # One pass over the stream: one answer set per document.
    results = machine.filter_stream(STREAM)

    for i, matched in enumerate(results):
        print(f"document {i}: matched {sorted(matched) or '∅'}")

    # The machine is a cache: states are interned and transitions
    # memoised, so repeated structure gets cheaper over time.
    print()
    print(f"XPush states materialised : {machine.state_count}")
    print(f"average state size        : {machine.average_state_size:.2f} AFA states")
    print(f"table hit ratio           : {machine.stats.hit_ratio:.1%}")

    # doc 3: the inner <a c="1"/> has no b children at all, so P3's
    # universal not(b/text()=1) holds vacuously on it.
    expected = [["P1", "P2"], ["P3"], ["P2"], ["P3"]]
    assert [sorted(m) for m in results] == expected, results
    print("\nall answers match the paper's semantics ✓")


if __name__ == "__main__":
    main()
