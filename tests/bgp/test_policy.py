"""Tests for the Gao–Rexford export policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.policy import export_allowed, exportable, learned_relationship
from repro.bgp.route import import_route, local_route
from repro.topology.types import Relationship

CUST = Relationship.CUSTOMER
PEER = Relationship.PEER
PROV = Relationship.PROVIDER


class TestLearnedRelationship:
    def test_local_route(self):
        assert learned_relationship(local_route(0)) is None

    @pytest.mark.parametrize("rel", [CUST, PEER, PROV])
    def test_imported(self, rel):
        assert learned_relationship(import_route(0, (1,), rel)) is rel


class TestNoValleyMatrix:
    """The full Gao–Rexford export matrix."""

    def test_customer_routes_to_everyone(self):
        route = import_route(0, (1,), CUST)
        assert export_allowed(route, CUST)
        assert export_allowed(route, PEER)
        assert export_allowed(route, PROV)

    def test_peer_routes_only_to_customers(self):
        route = import_route(0, (1,), PEER)
        assert export_allowed(route, CUST)
        assert not export_allowed(route, PEER)
        assert not export_allowed(route, PROV)

    def test_provider_routes_only_to_customers(self):
        route = import_route(0, (1,), PROV)
        assert export_allowed(route, CUST)
        assert not export_allowed(route, PEER)
        assert not export_allowed(route, PROV)

    def test_local_routes_to_everyone(self):
        route = local_route(0)
        assert export_allowed(route, CUST)
        assert export_allowed(route, PEER)
        assert export_allowed(route, PROV)


class TestLoopAvoidance:
    def test_never_export_to_node_on_path(self):
        route = import_route(0, (3, 4, 5), CUST)
        assert not exportable(route, 4, CUST)
        assert not exportable(route, 3, CUST)

    def test_export_to_node_off_path(self):
        route = import_route(0, (3, 4, 5), CUST)
        assert exportable(route, 9, CUST)

    def test_loop_check_composes_with_valley_filter(self):
        route = import_route(0, (3,), PROV)
        assert not exportable(route, 9, PEER)  # valley
        assert not exportable(route, 3, CUST)  # loop
        assert exportable(route, 9, CUST)


class TestExportableIsTheConjunction:
    """``exportable`` inlines the loop check and the no-valley filter."""

    @given(
        path=st.lists(st.integers(min_value=0, max_value=8), max_size=4),
        learned=st.sampled_from([CUST, PEER, PROV]),
        neighbor=st.integers(min_value=0, max_value=8),
        to=st.sampled_from([CUST, PEER, PROV]),
    )
    def test_matches_contains_and_export_allowed(self, path, learned, neighbor, to):
        route = import_route(0, tuple(path), learned) if path else local_route(0)
        expected = not route.contains(neighbor) and export_allowed(route, to)
        assert exportable(route, neighbor, to) == expected
