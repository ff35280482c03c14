"""Tests for the ASGraph data structure."""

import pytest

from repro.errors import TopologyError
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType, Relationship


def make_pair():
    graph = ASGraph()
    graph.add_node(0, NodeType.T, [0])
    graph.add_node(1, NodeType.C, [0])
    return graph


class TestNodes:
    def test_add_and_lookup(self):
        graph = make_pair()
        assert len(graph) == 2
        assert 0 in graph and 1 in graph and 2 not in graph
        assert graph.node(0).node_type is NodeType.T
        assert graph.node(1).regions == frozenset({0})

    def test_duplicate_id_rejected(self):
        graph = make_pair()
        with pytest.raises(TopologyError, match="duplicate"):
            graph.add_node(0, NodeType.C, [0])

    def test_empty_regions_rejected(self):
        graph = ASGraph()
        with pytest.raises(TopologyError, match="region"):
            graph.add_node(0, NodeType.C, [])

    def test_unknown_node_lookup(self):
        graph = make_pair()
        with pytest.raises(TopologyError, match="unknown"):
            graph.node(99)

    def test_nodes_of_type(self):
        graph = make_pair()
        assert graph.nodes_of_type(NodeType.T) == [0]
        assert graph.nodes_of_type(NodeType.C) == [1]
        assert graph.nodes_of_type(NodeType.M) == []

    def test_shares_region(self):
        graph = ASGraph()
        a = graph.add_node(0, NodeType.M, [0, 1])
        b = graph.add_node(1, NodeType.M, [1, 2])
        c = graph.add_node(2, NodeType.M, [3])
        assert a.shares_region_with(b)
        assert not a.shares_region_with(c)


class TestLinks:
    def test_transit_link_relationships(self):
        graph = make_pair()
        graph.add_transit_link(customer=1, provider=0)
        assert graph.relationship(1, 0) is Relationship.PROVIDER
        assert graph.relationship(0, 1) is Relationship.CUSTOMER
        assert graph.customers_of(0) == [1]
        assert graph.providers_of(1) == [0]

    def test_peering_link_symmetric(self):
        graph = make_pair()
        graph.add_peering_link(0, 1)
        assert graph.relationship(0, 1) is Relationship.PEER
        assert graph.relationship(1, 0) is Relationship.PEER
        assert graph.peers_of(0) == [1]

    def test_self_loop_rejected(self):
        graph = make_pair()
        with pytest.raises(TopologyError, match="self-loop"):
            graph.add_transit_link(0, 0)

    def test_parallel_link_rejected(self):
        graph = make_pair()
        graph.add_transit_link(1, 0)
        with pytest.raises(TopologyError, match="parallel"):
            graph.add_peering_link(0, 1)

    def test_unknown_endpoint_rejected(self):
        graph = make_pair()
        with pytest.raises(TopologyError, match="unknown"):
            graph.add_transit_link(1, 5)

    def test_provider_loop_rejected(self):
        graph = ASGraph()
        for i in range(3):
            graph.add_node(i, NodeType.M, [0])
        graph.add_transit_link(1, 0)  # 0 provides 1
        graph.add_transit_link(2, 1)  # 1 provides 2
        with pytest.raises(TopologyError, match="loop"):
            graph.add_transit_link(0, 2)  # 2 provides 0 -> cycle

    def test_peering_inside_customer_tree_rejected(self):
        graph = ASGraph()
        for i in range(3):
            graph.add_node(i, NodeType.M, [0])
        graph.add_transit_link(1, 0)
        graph.add_transit_link(2, 1)
        with pytest.raises(TopologyError, match="customer tree"):
            graph.add_peering_link(0, 2)

    def test_remove_link(self):
        graph = make_pair()
        graph.add_transit_link(1, 0)
        assert graph.is_in_customer_tree(ancestor=0, descendant=1)
        rel = graph.remove_link(1, 0)
        assert rel is Relationship.PROVIDER
        assert graph.degree(0) == 0
        assert graph.providers_of(1) == []
        assert not graph.is_in_customer_tree(ancestor=0, descendant=1)
        with pytest.raises(TopologyError):
            graph.remove_link(1, 0)
        # The provider index forgot the link, so the reverse is no loop.
        graph.add_transit_link(0, 1)
        assert graph.providers_of(0) == [1]
        assert graph.is_in_customer_tree(ancestor=1, descendant=0)
        assert not graph.is_in_customer_tree(ancestor=0, descendant=1)

    def test_remove_link_from_provider_side(self):
        graph = make_pair()
        graph.add_transit_link(1, 0)
        assert graph.remove_link(0, 1) is Relationship.CUSTOMER
        assert graph.providers_of(1) == []
        graph.add_transit_link(0, 1)

    def test_edges_yields_each_link_once(self):
        graph = ASGraph()
        for i in range(4):
            graph.add_node(i, NodeType.M, [0])
        graph.add_transit_link(1, 0)
        graph.add_transit_link(2, 0)
        graph.add_peering_link(1, 2)
        graph.add_peering_link(3, 2)
        edges = list(graph.edges())
        assert len(edges) == 4
        assert graph.edge_count() == 4
        transit = [(u, v) for u, v, r in edges if r is Relationship.PROVIDER]
        assert set(transit) == {(1, 0), (2, 0)}  # customer first
        peers = [(u, v) for u, v, r in edges if r is Relationship.PEER]
        assert all(u < v for u, v in peers)


class TestDegrees:
    def test_degree_breakdown(self, diamond):
        # T0: peer T1, customers M2, M3
        assert diamond.degree(0) == 3
        assert diamond.peering_degree(0) == 1
        assert diamond.transit_degree(0) == 2
        assert diamond.multihoming_degree(3) == 2  # M3 -> T0, T1
        assert diamond.multihoming_degree(0) == 0


class TestCustomerTree:
    def test_tree_contents(self, diamond):
        assert diamond.customer_tree(0) == {2, 3, 4}
        assert diamond.customer_tree(1) == {3, 4}
        assert diamond.customer_tree(2) == {4}
        assert diamond.customer_tree(4) == set()

    def test_is_in_customer_tree(self, diamond):
        assert diamond.is_in_customer_tree(ancestor=0, descendant=4)
        assert diamond.is_in_customer_tree(ancestor=1, descendant=4)
        assert not diamond.is_in_customer_tree(ancestor=2, descendant=3)
        assert not diamond.is_in_customer_tree(ancestor=4, descendant=0)
        assert not diamond.is_in_customer_tree(ancestor=0, descendant=0)

    def test_all_customer_tree_sizes(self, diamond):
        sizes = diamond.all_customer_tree_sizes()
        assert sizes == {0: 3, 1: 2, 2: 1, 3: 1, 4: 0}

    def test_sizes_count_multihomed_once(self):
        """A multihomed descendant appears once in an ancestor's cone."""
        graph = ASGraph()
        for i in range(4):
            graph.add_node(i, NodeType.M, [0])
        graph.add_transit_link(1, 0)
        graph.add_transit_link(2, 0)
        graph.add_transit_link(3, 1)
        graph.add_transit_link(3, 2)  # 3 multihomed under both 1 and 2
        sizes = graph.all_customer_tree_sizes()
        assert sizes[0] == 3  # {1, 2, 3}, not 4


class TestSummaries:
    def test_type_counts(self, diamond):
        counts = diamond.type_counts()
        assert counts[NodeType.T] == 2
        assert counts[NodeType.M] == 2
        assert counts[NodeType.C] == 1
        assert counts[NodeType.CP] == 0

    def test_repr_mentions_scenario(self, diamond):
        assert "diamond" in repr(diamond)


def make_triangle():
    graph = ASGraph()
    for node_id in range(3):
        graph.add_node(node_id, NodeType.M, [0])
    return graph


PROVIDER, PEER = Relationship.PROVIDER, Relationship.PEER


class TestAddLinks:
    def test_batch_matches_per_link_insertion(self, diamond):
        rebuilt = ASGraph()
        for node in diamond.nodes():
            rebuilt.add_node(node.node_id, node.node_type, node.regions)
        rebuilt.add_links(diamond.edges())
        assert list(rebuilt.edges()) == list(diamond.edges())
        for node_id in diamond.node_ids:
            assert rebuilt.providers_of(node_id) == diamond.providers_of(node_id)

    def test_tree_peering_rejected_whatever_the_order(self):
        # Per link, the peering is accepted before the transit links
        # that put 1 under 0 exist; the batch sees the whole graph.
        graph = make_triangle()
        with pytest.raises(TopologyError, match="peering link 0--1"):
            graph.add_links([(0, 1, PEER), (1, 2, PROVIDER), (2, 0, PROVIDER)])

    def test_provider_loop_names_closing_link(self):
        graph = make_triangle()
        with pytest.raises(TopologyError, match=r"transit link 2->0 closes"):
            graph.add_links([(0, 1, PROVIDER), (1, 2, PROVIDER), (2, 0, PROVIDER)])

    def test_failed_batch_is_rolled_back(self):
        graph = make_triangle()
        graph.add_transit_link(1, 2)
        with pytest.raises(TopologyError):
            graph.add_links([(2, 0, PROVIDER), (0, 1, PROVIDER)])
        assert graph.edge_count() == 1
        assert graph.providers_of(2) == [] and graph.providers_of(0) == []
        with pytest.raises(TopologyError, match="parallel"):
            graph.add_links([(2, 0, PROVIDER), (1, 2, PEER)])
        assert graph.edge_count() == 1
        graph.add_links([(2, 0, PROVIDER)])
        assert graph.is_in_customer_tree(ancestor=0, descendant=1)

    def test_customer_label_rejected(self):
        graph = make_triangle()
        with pytest.raises(TopologyError, match="PROVIDER or PEER"):
            graph.add_links([(0, 1, Relationship.CUSTOMER)])
        assert graph.edge_count() == 0


class TestHierarchyViolations:
    def test_valid_graph_has_none(self, diamond):
        assert diamond.hierarchy_violations() == ([], [])
        diamond.check_hierarchy()  # no raise

    def test_tree_peering_named_ancestor_first(self, chain):
        # chain: 0 <- 1 <- 2 <- 3; built per link, peering 1--3 is
        # rejected, so only the batch path can hold it until the check.
        chain.add_node(4, NodeType.M, [0])
        with pytest.raises(TopologyError, match="peering link 1--3"):
            chain.add_links([(3, 1, PEER), (4, 0, PEER), (4, 2, PEER)])
