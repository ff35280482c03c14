"""Tests for the decision process."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.decision import prefers, rank, select_best
from repro.bgp.route import (
    LOCAL_ROUTE_PREF,
    Route,
    best_route,
    import_route,
    local_route,
)
from repro.topology.types import LOCAL_PREFERENCE, Relationship

CUST = Relationship.CUSTOMER
PEER = Relationship.PEER
PROV = Relationship.PROVIDER


class TestSelectBest:
    def test_empty(self):
        assert select_best(0, []) is None

    def test_prefers_customer_over_peer_over_provider(self):
        cust = import_route(0, (1, 9), CUST)
        peer = import_route(0, (2, 9), PEER)
        prov = import_route(0, (3, 9), PROV)
        assert select_best(0, [prov, peer, cust]) == cust
        assert select_best(0, [prov, peer]) == peer

    def test_shortest_path_within_class(self):
        short = import_route(0, (1, 9), CUST)
        long = import_route(0, (2, 8, 9), CUST)
        assert select_best(0, [long, short]) == short

    def test_local_route_beats_all(self):
        routes = [local_route(0), import_route(0, (1,), CUST)]
        assert select_best(0, routes).is_local

    def test_input_order_irrelevant(self):
        a = import_route(0, (1, 9), PEER)
        b = import_route(0, (2, 9), PEER)
        assert select_best(0, [a, b]) == select_best(0, [b, a])


class TestRank:
    def test_rank_is_sorted_by_preference(self):
        routes = [
            import_route(0, (3, 9), PROV),
            import_route(0, (1, 9), CUST),
            import_route(0, (2, 9), PEER),
        ]
        ranked = rank(0, routes)
        assert ranked[0].local_pref > ranked[1].local_pref > ranked[2].local_pref

    def test_rank_head_equals_select_best(self):
        routes = [
            import_route(0, (3, 9), PROV),
            import_route(0, (1, 8, 9), PROV),
            import_route(0, (2, 9), PROV),
        ]
        assert rank(0, routes)[0] == select_best(0, routes)


#: Local preferences a route can carry: the three import classes and the
#: origin's own route.
_PREFS = sorted(LOCAL_PREFERENCE.values()) + [LOCAL_ROUTE_PREF]

_receivers = st.integers(min_value=0, max_value=2**20)
_hops = st.integers(min_value=0, max_value=30)


@st.composite
def _routes(draw, local_pref=None, length=None):
    """A route; local routes (empty path, origin preference) included.

    Fixed ``local_pref``/``length`` force ties on the first two key
    components so the comparison falls through to the hash.
    """
    if local_pref is None and length is None and draw(st.booleans()):
        return Route(prefix=0, path=(), local_pref=LOCAL_ROUTE_PREF)
    if local_pref is None:
        local_pref = draw(st.sampled_from(_PREFS))
    if length is None:
        length = draw(st.integers(min_value=0, max_value=5))
    path = tuple(draw(st.lists(_hops, min_size=length, max_size=length)))
    return Route(prefix=0, path=path, local_pref=local_pref)


@st.composite
def _tied_pairs(draw):
    """Two routes with equal local preference and equal path length."""
    local_pref = draw(st.sampled_from(_PREFS))
    length = draw(st.integers(min_value=0, max_value=5))
    tied = _routes(local_pref=local_pref, length=length)
    return draw(tied), draw(tied)


def _key_order(a, b, receiver):
    return a.preference_key(receiver) < b.preference_key(receiver)


class TestPrefers:
    """``prefers`` is the strict order of ``Route.preference_key``."""

    @given(
        pair=st.one_of(st.tuples(_routes(), _routes()), _tied_pairs()),
        receiver=_receivers,
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_key_order(self, pair, receiver):
        a, b = pair
        assert prefers(a, b, receiver) == _key_order(a, b, receiver)
        assert prefers(b, a, receiver) == _key_order(b, a, receiver)

    def test_hashes_only_on_ties(self):
        short = Route(prefix=0, path=(1, 9), local_pref=1)
        long = Route(prefix=0, path=(2, 8, 9), local_pref=1)
        customer = Route(prefix=0, path=(3, 7, 8, 9), local_pref=2)
        assert prefers(short, long, 5)
        assert prefers(customer, short, 5)
        for route in (short, long, customer):
            assert route._pref_keys == {}
        tie = Route(prefix=0, path=(4, 9), local_pref=1)
        prefers(short, tie, 5)
        assert 5 in short._pref_keys and 5 in tie._pref_keys


@st.composite
def _candidate_lists(draw):
    """Candidate lists where many entries tie on (local_pref, length)."""
    local_pref = draw(st.sampled_from(_PREFS))
    length = draw(st.integers(min_value=0, max_value=3))
    pool = st.one_of(_routes(), _routes(local_pref=local_pref, length=length))
    routes = draw(st.lists(pool, max_size=8))
    # Equal-attribute copies (distinct objects) exercise first-wins.
    repeats = draw(st.lists(st.integers(min_value=0, max_value=7), max_size=3))
    for index in repeats:
        if index < len(routes):
            original = routes[index]
            routes.append(
                Route(prefix=0, path=original.path, local_pref=original.local_pref)
            )
    return routes


class TestSelectBestIsFirstMinimum:
    @given(routes=_candidate_lists(), receiver=_receivers)
    @settings(max_examples=300, deadline=None)
    def test_first_minimum_by_preference_key(self, routes, receiver):
        expected = (
            min(routes, key=lambda route: route.preference_key(receiver))
            if routes
            else None
        )
        assert select_best(receiver, routes) is expected
        assert best_route(routes, receiver) is expected
