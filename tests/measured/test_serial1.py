"""Tests for the CAIDA serial-1 importer."""

from pathlib import Path

import pytest

from repro.errors import MeasuredImportError
from repro.measured import load_serial1, parse_serial1_text
from repro.measured.serial1 import component_sizes
from repro.topology.serialization import save_as_rel
from repro.topology.validation import find_violations
from repro.topology.types import Relationship

DATA = Path(__file__).parent.parent / "topology" / "data"
FIXTURE = DATA / "fixture_serial1.txt"
FIXTURE_GZ = DATA / "fixture_serial1.txt.gz"
MALFORMED = DATA / "fixture_serial1_malformed.txt"


class TestFixtureImport:
    def test_fixture_imports_strict(self):
        graph, report = load_serial1(FIXTURE)
        assert len(graph) == 145
        assert report.edges_parsed == 205
        assert report.edges_kept == 205
        assert report.edges_dropped == 0
        assert report.transit_edges == 175
        assert report.peer_edges == 30
        assert report.comment_lines == 4
        assert report.connected
        assert report.components == (145,)

    def test_gzip_copy_is_identical(self):
        plain, report_plain = load_serial1(FIXTURE)
        gz, report_gz = load_serial1(FIXTURE_GZ)
        assert list(plain.edges()) == list(gz.edges())
        assert report_plain.as_numbers == report_gz.as_numbers
        assert [plain.adjacency_order(v) for v in plain.node_ids] == [
            gz.adjacency_order(v) for v in gz.node_ids
        ]

    def test_import_is_deterministic(self):
        first_graph, first_report = load_serial1(FIXTURE)
        second_graph, second_report = load_serial1(FIXTURE)
        assert list(first_graph.edges()) == list(second_graph.edges())
        assert first_report == second_report

    def test_renumbering_is_dense_and_sorted(self):
        graph, report = load_serial1(FIXTURE)
        assert sorted(graph.node_ids) == list(range(len(graph)))
        assert report.as_numbers == tuple(sorted(report.as_numbers))
        assert len(set(report.as_numbers)) == len(report.as_numbers)

    def test_round_trip_through_save_as_rel(self, tmp_path):
        graph, _ = load_serial1(FIXTURE)
        out = tmp_path / "roundtrip.txt"
        save_as_rel(graph, out)
        again, report = load_serial1(out)
        assert len(again) == len(graph)
        assert sorted(
            (min(u, v), max(u, v), rel) for u, v, rel in graph.edges()
        ) == sorted(
            (min(u, v), max(u, v), rel) for u, v, rel in again.edges()
        )
        assert report.edges_dropped == 0


class TestMalformedInput:
    def test_malformed_fixture_raises_with_line_number(self):
        with pytest.raises(MeasuredImportError, match=r":4:"):
            load_serial1(MALFORMED)

    def test_malformed_raises_even_lenient(self):
        with pytest.raises(MeasuredImportError):
            load_serial1(MALFORMED, strict=False)

    def test_bad_field_count(self):
        with pytest.raises(MeasuredImportError, match="expected"):
            parse_serial1_text("1|2\n")

    def test_non_integer_asn(self):
        with pytest.raises(MeasuredImportError, match="non-integer"):
            parse_serial1_text("a|2|-1\n")

    def test_unknown_relationship_code(self):
        with pytest.raises(MeasuredImportError, match="relationship code"):
            parse_serial1_text("1|2|5\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MeasuredImportError, match="cannot read"):
            load_serial1(tmp_path / "nope.txt")

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "bad.gz"
        path.write_bytes(b"\x1f\x8b not actually gzip")
        with pytest.raises(MeasuredImportError, match="gzip"):
            load_serial1(path)


class TestValidation:
    def test_self_loop_strict_raises(self):
        with pytest.raises(MeasuredImportError, match="self-loop"):
            parse_serial1_text("1|1|-1\n2|3|-1\n")

    def test_duplicate_strict_raises(self):
        with pytest.raises(MeasuredImportError, match="duplicate"):
            parse_serial1_text("2|3|-1\n2|3|-1\n")

    def test_conflict_strict_raises(self):
        with pytest.raises(MeasuredImportError, match="conflicting"):
            parse_serial1_text("2|3|-1\n3|2|-1\n")

    def test_lenient_counts_and_drops(self):
        text = "1|1|-1\n2|3|-1\n2|3|-1\n3|2|-1\n2|3|0\n4|5|0\n3|6|-1\n"
        graph, report = parse_serial1_text(text, strict=False)
        assert report.self_loops == 1
        assert report.duplicate_edges == 1
        assert report.conflicting_edges == 2  # reversed transit + peer claim
        assert report.edges_parsed == 7
        assert report.edges_kept == 3
        # First claim wins: 2->3 stays a transit edge.
        rels = {
            (min(u, v), max(u, v)): rel for u, v, rel in graph.edges()
        }
        assert rels[(0, 1)] is not Relationship.PEER

    def test_peering_pulled_into_customer_tree_by_later_lines(self):
        # The peering line passes its per-line check; the two transit
        # lines after it put AS 1 under AS 0 (0 -> 2 -> 1).
        text = "0|1|0\n2|1|-1\n0|2|-1\n"
        with pytest.raises(MeasuredImportError, match=r"<text>:1: edge 0\|1\|0"):
            parse_serial1_text(text)
        graph, report = parse_serial1_text(text, strict=False)
        assert report.invariant_drops == (
            "<text>:1: edge 0|1|0 rejected: AS 1 is in the customer tree of AS 0",
        )
        assert (report.transit_edges, report.peer_edges) == (2, 0)
        assert find_violations(graph) == []

    def test_disconnected_components_reported(self):
        graph, report = parse_serial1_text("1|2|-1\n3|4|-1\n5|6|0\n")
        assert not report.connected
        assert report.components == (2, 2, 2)

    def test_component_sizes_largest_first(self):
        graph, _ = parse_serial1_text("1|2|-1\n1|3|-1\n7|8|0\n")
        assert component_sizes(graph) == (3, 2)


class TestTypeInference:
    def test_types_follow_structure(self):
        # 10 provides 20 and 30; 20 provides 40; 30 peers with 20.
        text = "10|20|-1\n10|30|-1\n20|40|-1\n20|30|0\n"
        graph, report = parse_serial1_text(text)
        by_asn = {
            asn: graph.node(index).node_type
            for index, asn in enumerate(report.as_numbers)
        }
        assert by_asn[10].value == "T"  # no providers
        assert by_asn[20].value == "M"  # has provider + customer
        assert by_asn[30].value == "CP"  # has provider + peer, no customer
        assert by_asn[40].value == "C"  # pure stub
