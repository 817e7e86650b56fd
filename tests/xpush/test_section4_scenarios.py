"""The Sec. 4 lazy-evaluation scenarios, as concrete tests.

The paper explains *why* laziness avoids the exponential blow-up with
three mechanisms; each gets a test on the very example the paper uses.
"""

from repro.xmlstream.dom import parse_document
from repro.xpush.eager import BudgetExceeded, EagerXPushMachine
from repro.xpush.machine import XPushMachine
from repro.xpath.parser import parse_workload

import pytest


def name_queries(n):
    """The /person[name/text()="…"] workload of Sec. 4."""
    return parse_workload(
        {f"q{i}": f"/person[name/text() = 'name{i}']" for i in range(n)}
    )


def person_doc(*names):
    body = "".join(f"<name>{n}</name>" for n in names)
    return parse_document(f"<person>{body}</person>")


def test_dtd_restricted_data_keeps_lazy_machine_linear():
    """Sec. 4: 'Suppose the DTD restricts a person to have only one
    name: then at most n+1 states will be created by the lazy XPush
    machine' (the eager machine needs 2^n)."""
    n = 14
    machine = XPushMachine.from_filters(name_queries(n))
    # Single-name documents, one per queried value (DTD-conforming data).
    for i in range(n):
        assert machine.filter_document(person_doc(f"name{i}")) == {f"q{i}"}
    # States: empty + per-value t_value/lift states — linear, not 2^n.
    assert machine.state_count <= 3 * n + 2


def test_eager_machine_blows_up_on_the_same_workload():
    with pytest.raises(BudgetExceeded):
        EagerXPushMachine(name_queries(14), max_states=2_000)


def test_data_regularity_beyond_the_dtd():
    """Sec. 4's phone example: even when the DTD allows many phones,
    'in practice most persons have only one phone, occasionally two,
    hence the lazy XPush constructs at most n(n-1)/2 states, and quite
    likely only slightly more than n states'."""
    n = 10
    filters = parse_workload(
        {f"q{i}": f"/person[phone/text() = '555-{i:04d}']" for i in range(n)}
    )
    machine = XPushMachine.from_filters(filters)

    def phone_doc(*indexes):
        body = "".join(f"<phone>555-{i:04d}</phone>" for i in indexes)
        return parse_document(f"<person>{body}</person>")

    # Mostly one phone, occasionally two.
    for i in range(n):
        assert machine.filter_document(phone_doc(i)) == {f"q{i}"}
    for i in range(0, n - 1, 3):
        assert machine.filter_document(phone_doc(i, i + 1)) == {f"q{i}", f"q{i+1}"}
    # Far below 2^n; bounded by the pairs that actually co-occurred.
    assert machine.state_count <= n * (n - 1) // 2 + 2 * n


def test_unseen_combinations_never_materialise():
    """Sec. 4's third point: states allowed by DTD and domain but absent
    from the data are simply never built."""
    from repro.xpush.options import XPushOptions

    n = 12
    machine = XPushMachine.from_filters(
        name_queries(n), options=XPushOptions(top_down=True)
    )
    doc = person_doc("name0")
    for _ in range(5):
        machine.filter_document(doc)
    lean = machine.state_count
    # Only the name0-related states exist; the other 11 values never
    # contributed a state beyond the shared empty/value classes.
    assert lean <= 8
