"""Tests for topology serialization (JSON and as-rel formats)."""

import pytest

from repro.errors import SerializationError, TopologyError
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.serialization import (
    from_json_dict,
    load_as_rel,
    load_json,
    save_as_rel,
    save_json,
    to_json_dict,
)
from repro.topology.types import NodeType, Relationship


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, diamond, tmp_path):
        path = tmp_path / "topo.json"
        save_json(diamond, path)
        loaded = load_json(path)
        assert loaded.scenario == diamond.scenario
        assert len(loaded) == len(diamond)
        assert list(loaded.edges()) == list(diamond.edges())
        for node_id in diamond.node_ids:
            assert loaded.node(node_id).node_type is diamond.node(node_id).node_type
            assert loaded.node(node_id).regions == diamond.node(node_id).regions

    def test_round_trip_generated(self, tmp_path):
        graph = generate_topology(baseline_params(200), seed=8)
        path = tmp_path / "gen.json"
        save_json(graph, path)
        loaded = load_json(path)
        assert list(loaded.edges()) == list(graph.edges())

    def test_dict_round_trip(self, diamond):
        rebuilt = from_json_dict(to_json_dict(diamond))
        assert list(rebuilt.edges()) == list(diamond.edges())

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_json(tmp_path / "nope.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_json(path)

    def test_wrong_version(self, diamond):
        data = to_json_dict(diamond)
        data["format_version"] = 999
        with pytest.raises(SerializationError, match="version"):
            from_json_dict(data)

    def test_unknown_link_kind(self, diamond):
        data = to_json_dict(diamond)
        data["links"][0]["kind"] = "sibling"
        with pytest.raises(SerializationError):
            from_json_dict(data)


def _triangle_document(links):
    """Nodes 0-2 (T, C, M) in one region, with the given ``(a, b, kind)``."""
    return {
        "format_version": 1,
        "scenario": "triangle",
        "nodes": [
            {"id": 0, "type": "T", "regions": [0]},
            {"id": 1, "type": "C", "regions": [0]},
            {"id": 2, "type": "M", "regions": [0]},
        ],
        "links": [{"a": a, "b": b, "kind": kind} for a, b, kind in links],
    }


class TestHierarchyCheck:
    def test_peering_inside_customer_tree_rejected_in_any_order(self):
        # 1 -> 2 -> 0 puts 1 in 0's customer tree; the peering comes
        # first, before either transit link exists.
        data = _triangle_document(
            [(0, 1, "peer"), (1, 2, "transit"), (2, 0, "transit")]
        )
        with pytest.raises(SerializationError, match="peering link 0--1"):
            from_json_dict(data)

    def test_provider_loop_rejected(self):
        data = _triangle_document(
            [(0, 1, "transit"), (1, 2, "transit"), (2, 0, "transit")]
        )
        with pytest.raises(SerializationError, match="provider loop"):
            from_json_dict(data)

    def test_valid_triangle_loads(self):
        graph = from_json_dict(
            _triangle_document([(1, 2, "transit"), (2, 0, "transit")])
        )
        assert graph.is_in_customer_tree(ancestor=0, descendant=1)

    def test_as_rel_tree_peering_rejected(self, tmp_path):
        path = tmp_path / "bad.as-rel"
        path.write_text("0|1|0\n2|1|-1\n0|2|-1\n", encoding="utf-8")
        with pytest.raises(TopologyError, match="peering link 0--1"):
            load_as_rel(path)


class TestRoundTripProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=50, max_value=150),
    )
    @settings(max_examples=15, deadline=None)
    def test_json_round_trip_any_generated_graph(self, seed, n):
        graph = generate_topology(baseline_params(n), seed=seed)
        rebuilt = from_json_dict(to_json_dict(graph))
        assert list(rebuilt.edges()) == list(graph.edges())
        for node in graph.nodes():
            twin = rebuilt.node(node.node_id)
            assert twin.node_type is node.node_type
            assert twin.regions == node.regions

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_as_rel_round_trip_preserves_relationships(self, seed, tmp_path_factory):
        graph = generate_topology(baseline_params(100), seed=seed)
        path = tmp_path_factory.mktemp("asrel") / "graph.as-rel"
        save_as_rel(graph, path)
        loaded = load_as_rel(path)
        assert loaded.edge_count() == graph.edge_count()
        for u, v, rel in graph.edges():
            assert loaded.relationship(u, v) is rel


class TestAsRel:
    def test_round_trip_structure(self, diamond, tmp_path):
        path = tmp_path / "topo.as-rel"
        save_as_rel(diamond, path)
        loaded = load_as_rel(path)
        assert len(loaded) == len(diamond)
        assert loaded.edge_count() == diamond.edge_count()
        # relationships survive even though node types are inferred
        assert loaded.relationship(4, 2) is Relationship.PROVIDER
        assert loaded.relationship(0, 1) is Relationship.PEER

    def test_type_inference(self, diamond, tmp_path):
        path = tmp_path / "topo.as-rel"
        save_as_rel(diamond, path)
        loaded = load_as_rel(path)
        assert loaded.node(0).node_type is NodeType.T
        assert loaded.node(2).node_type is NodeType.M
        assert loaded.node(4).node_type is NodeType.C

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "mini.as-rel"
        path.write_text("# header\n\n1|2|-1\n2|3|0\n", encoding="utf-8")
        loaded = load_as_rel(path)
        assert len(loaded) == 3
        assert loaded.relationship(2, 1) is Relationship.PROVIDER

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.as-rel"
        path.write_text("1|2\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="expected"):
            load_as_rel(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "bad.as-rel"
        path.write_text("a|2|-1\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="non-integer"):
            load_as_rel(path)

    def test_unknown_relationship_code(self, tmp_path):
        path = tmp_path / "bad.as-rel"
        path.write_text("1|2|7\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="unknown relationship"):
            load_as_rel(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_as_rel(tmp_path / "nope.as-rel")
