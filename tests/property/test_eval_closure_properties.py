"""Properties of the eval() connective closure, and of the two paths
(word-parallel lanes, bit sweep) the compiled tables compute it and
δ⁻¹ by."""

import random

from hypothesis import given, settings, strategies as st

from repro.afa.build import build_workload_automata
from repro.data.nasa import NasaDataset
from repro.xpath.generator import GeneratorConfig, QueryGenerator
from repro.xpath.parser import parse_workload, parse_xpath

from tests import oracle
from tests.afa.test_automaton import check_transition_paths, reached_masks, with_submasks

SOURCES = [
    "/a[b = 1 and c = 2]",
    "/a[b = 1 or not(c = 2)]",
    "/a[not(not(b = 1))]",
    "/a[(b = 1 or c = 2) and not(d = 3 and e = 4)]",
    "//a[b/text()=1 and .//a[@c>2]]",
]


@st.composite
def workload_and_subset(draw):
    source = draw(st.sampled_from(SOURCES))
    workload = build_workload_automata([parse_xpath(source, "q")])
    base = [s.sid for s in workload.states if not s.is_connective]
    subset = draw(st.sets(st.sampled_from(base)) if base else st.just(set()))
    return workload, frozenset(subset)


@given(workload_and_subset())
@settings(max_examples=200, deadline=None)
def test_closure_is_extensive_and_idempotent(pair):
    workload, subset = pair
    closure = oracle.eval_closure(workload, subset)
    assert subset <= closure  # extensive
    assert oracle.eval_closure(workload, closure) == closure  # idempotent


@given(workload_and_subset())
@settings(max_examples=200, deadline=None)
def test_closure_is_a_fixpoint_of_the_rules(pair):
    workload, subset = pair
    closure = oracle.eval_closure(workload, subset)
    for state in workload.states:
        if not state.eps:
            continue
        kind = state.kind.name
        if kind == "AND":
            satisfied = all(c in closure for c in state.eps)
        elif kind == "NOT":
            satisfied = state.eps[0] not in closure
        else:
            satisfied = any(c in closure for c in state.eps)
        if satisfied:
            assert state.sid in closure, (state, closure)


@given(workload_and_subset())
@settings(max_examples=100, deadline=None)
def test_closure_adds_only_connectives(pair):
    workload, subset = pair
    closure = oracle.eval_closure(workload, subset)
    for sid in closure - subset:
        assert workload.states[sid].is_connective


# -- the two paths of a t_pop miss, on generated workloads --------------------

#: Shapes the generator does not draw: ``@*``, ``a//text()``, and a
#: two-source δ⁻¹ row (``//*//*``).
EXTRA_SOURCES = {
    "attrwild": "//dataset[@* = 'x' or not(title)]",
    "desctext": "/datasets/dataset[title//text() = 1]",
    "multisource": "//*//*[initial = 1]",
}


@st.composite
def generated_workloads(draw):
    """A NASA workload with connectives, nesting, ``//`` and ``*``, the
    extra shapes, and a few of the dataset's own documents."""
    seed = draw(st.integers(0, 2**16))
    dataset = NasaDataset(seed=seed % 7)
    config = GeneratorConfig(
        seed=seed,
        prob_wildcard=0.2,
        prob_descendant=0.3,
        mean_predicates=draw(st.sampled_from([1.15, 2.5])),
        prob_or=draw(st.sampled_from([0.0, 0.4])),
        prob_not=draw(st.sampled_from([0.0, 0.4])),
        prob_nested=draw(st.sampled_from([0.0, 0.4])),
    )
    filters = QueryGenerator(dataset.dtd, dataset.value_pool, config).generate(
        draw(st.integers(4, 24))
    )
    filters += parse_workload(EXTRA_SOURCES)
    docs = [doc for doc in dataset.documents(3) if not doc.has_mixed_content()]
    return build_workload_automata(filters), docs, seed


@given(generated_workloads())
@settings(max_examples=25, deadline=None)
def test_lanes_sweep_and_spec_agree_on_generated_workloads(drawn):
    """``eval`` and δ⁻¹ by lanes == by sweep == the frozenset spec, over
    machine-reached states (basic, TD, TD+early, each held to
    ``repro.xpath.semantics``) and random sub-masks, every label the
    workload has an edge on plus two it has none on."""
    workload, docs, seed = drawn
    rng = random.Random(seed)
    masks = with_submasks(reached_masks(workload, docs), workload.state_count, rng)
    labels = sorted(workload.masks.lane_profile().rev_lanes) + ["zz", "@zz"]
    check_transition_paths(workload, masks, labels)
