"""Property-based tests (hypothesis) for the topology substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SerializationError, TopologyError
from repro.topology.attachment import draw_link_count, preferential_choice
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.params import baseline_params
from repro.topology.scenarios import scenario_names, scenario_params
from repro.topology.serialization import from_json_dict, to_json_dict
from repro.topology.types import NodeType, Relationship
from repro.topology.validation import find_violations


@st.composite
def small_params(draw):
    """Random but valid generator parameters for small topologies."""
    n = draw(st.integers(min_value=40, max_value=160))
    base = baseline_params(n, n_t=draw(st.integers(min_value=2, max_value=6)))
    return base.replace(
        d_m=draw(st.floats(min_value=1.0, max_value=4.0)),
        d_cp=draw(st.floats(min_value=1.0, max_value=3.0)),
        d_c=draw(st.floats(min_value=1.0, max_value=2.0)),
        p_m=draw(st.floats(min_value=0.0, max_value=3.0)),
        p_cp_m=draw(st.floats(min_value=0.0, max_value=1.0)),
        p_cp_cp=draw(st.floats(min_value=0.0, max_value=0.5)),
        t_m=draw(st.floats(min_value=0.0, max_value=1.0)),
        t_cp=draw(st.floats(min_value=0.0, max_value=1.0)),
        t_c=draw(st.floats(min_value=0.0, max_value=1.0)),
        regions=draw(st.integers(min_value=1, max_value=4)),
    )


class TestGeneratorProperties:
    @given(params=small_params(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_generated_topologies_always_valid(self, params, seed):
        """Any parameter combination yields a structurally valid topology."""
        graph = generate_topology(params, seed=seed)
        assert len(graph) == params.n
        assert find_violations(graph) == []

    @given(params=small_params(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_relationships_are_mutually_consistent(self, params, seed):
        graph = generate_topology(params, seed=seed)
        for u in graph.node_ids:
            for v, rel in graph.neighbors(u).items():
                assert graph.relationship(v, u) is rel.inverse

    @given(
        scenario=st.sampled_from(sorted(scenario_names())),
        n=st.integers(min_value=60, max_value=150),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_scenario_generates_valid_graphs(self, scenario, n, seed):
        graph = generate_topology(scenario_params(scenario, n), seed=seed)
        assert find_violations(graph) == []

    @given(params=small_params(), seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_customer_tree_never_contains_ancestors(self, params, seed):
        graph = generate_topology(params, seed=seed)
        for node in graph.node_ids:
            tree = graph.customer_tree(node)
            assert node not in tree
            for provider in graph.providers_of(node):
                assert provider not in tree or graph.is_in_customer_tree(
                    ancestor=node, descendant=provider
                ) is False


class TestAttachmentProperties:
    @given(
        average=st.floats(min_value=0.0, max_value=10.0),
        minimum=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_draw_link_count_bounds(self, average, minimum, seed):
        rng = random.Random(seed)
        value = draw_link_count(average, rng, minimum=minimum)
        assert value >= (minimum if average > 0 or minimum > 0 else 0)
        # never more than twice the average (+1 for probabilistic rounding)
        assert value <= max(minimum, 2 * average) + 1

    @given(
        weights=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_preferential_choice_returns_candidate(self, weights, seed):
        candidates = list(range(len(weights)))
        rng = random.Random(seed)
        choice = preferential_choice(candidates, lambda c: weights[c], rng)
        assert choice in candidates


class TestGraphProperties:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_edges_match_adjacency(self, seed):
        graph = generate_topology(baseline_params(100), seed=seed)
        edge_list = list(graph.edges())
        assert len(edge_list) == graph.edge_count()
        for u, v, rel in edge_list:
            assert graph.relationship(u, v) is rel

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_cone_sizes_consistent_with_membership(self, seed):
        graph = generate_topology(baseline_params(90), seed=seed)
        sizes = graph.all_customer_tree_sizes()
        for node in graph.node_ids:
            assert sizes[node] == len(graph.customer_tree(node))

    @given(params=small_params(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_upward_walk_matches_customer_tree(self, params, seed):
        """The provider-index walk agrees with the downward cone."""
        graph = generate_topology(params, seed=seed)
        for ancestor in graph.node_ids:
            tree = graph.customer_tree(ancestor)
            for descendant in graph.node_ids:
                assert graph.is_in_customer_tree(
                    ancestor=ancestor, descendant=descendant
                ) == (descendant in tree)


def _hierarchy_is_valid(links, node_ids) -> bool:
    """Reference verdict from per-link transit checks and downward cones."""
    graph = ASGraph()
    for node_id in node_ids:
        graph.add_node(node_id, NodeType.M, [0])
    try:
        for link in links:
            if link["kind"] == "transit":
                graph.add_transit_link(link["a"], link["b"])
    except TopologyError:
        return False  # some transit link closes a provider loop
    for link in links:
        if link["kind"] == "peer":
            a, b = link["a"], link["b"]
            if b in graph.customer_tree(a) or a in graph.customer_tree(b):
                return False
    return True


def _loads_per_link(links, node_ids) -> bool:
    """Whether per-link insertion in document order accepts ``links``."""
    graph = ASGraph()
    for node_id in node_ids:
        graph.add_node(node_id, NodeType.M, [0])
    try:
        for link in links:
            if link["kind"] == "transit":
                graph.add_transit_link(link["a"], link["b"])
            else:
                graph.add_peering_link(link["a"], link["b"])
    except TopologyError:
        return False
    return True


class TestLoadOrderIndependence:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        extra=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=59),
                st.integers(min_value=0, max_value=59),
                st.sampled_from(["transit", "peer"]),
            ),
            max_size=3,
        ),
        shuffles=st.lists(st.randoms(use_true_random=False), min_size=2, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_acceptance_depends_only_on_the_link_set(self, seed, extra, shuffles):
        """Over permutations of ``links``, ``from_json_dict`` accepts exactly
        the documents whose hierarchy is valid, and rejects every document
        the per-link path rejects."""
        data = to_json_dict(generate_topology(baseline_params(60), seed=seed))
        del data["adjacency"]
        taken = {frozenset((link["a"], link["b"])) for link in data["links"]}
        for a, b, kind in extra:
            if a != b and frozenset((a, b)) not in taken:
                taken.add(frozenset((a, b)))
                data["links"].append({"a": a, "b": b, "kind": kind})
        node_ids = [node["id"] for node in data["nodes"]]
        valid = _hierarchy_is_valid(data["links"], node_ids)
        for rng in shuffles:
            rng.shuffle(data["links"])
            try:
                graph = from_json_dict(data)
            except SerializationError:
                assert not valid
                continue
            assert valid
            assert _loads_per_link(data["links"], node_ids)
            assert not any(
                "provider loop" in v or "customer tree" in v
                for v in find_violations(graph)
            )
