"""Gao–Rexford routing policies (Sec. 2 of the paper).

Two rules, applied at every AS:

* **Import / preference**: routes learned from customers are preferred
  over routes from peers, over routes from providers (encoded as local
  preference in :mod:`repro.bgp.route`).
* **Export (no-valley)**: routes learned from a customer are announced to
  all neighbours; routes learned from a peer or a provider are announced
  only to customers.  Locally-originated routes are announced to everyone.

In addition, a route is never exported to a neighbour that already appears
on its AS path (sender-side loop avoidance).  That rule yields exactly the
paper's observation that a node "will always send an update to its
customers, unless its preferred path goes through the customer itself".
"""

from __future__ import annotations

from repro.bgp.route import Route
from repro.topology.types import LOCAL_PREFERENCE, Relationship

#: Reverse map local-pref value -> the relationship class it encodes.
_PREF_TO_RELATIONSHIP = {pref: rel for rel, pref in LOCAL_PREFERENCE.items()}

_CUSTOMER = Relationship.CUSTOMER
_CUSTOMER_PREF = LOCAL_PREFERENCE[_CUSTOMER]


def learned_relationship(route: Route) -> Relationship | None:
    """The relationship class the route was learned over (None if local)."""
    if route.is_local:
        return None
    return _PREF_TO_RELATIONSHIP[route.local_pref]


def export_allowed(route: Route, to_relationship: Relationship) -> bool:
    """Whether the no-valley export filter permits sending ``route``.

    ``to_relationship`` is the neighbour's relationship as seen from the
    exporting node.  The AS-path loop check is separate (see
    :func:`exportable`).
    """
    if route.is_local:
        return True
    learned_from = learned_relationship(route)
    if learned_from is Relationship.CUSTOMER:
        return True
    # Peer- and provider-learned routes go to customers only.
    return to_relationship is Relationship.CUSTOMER


def exportable(route: Route, neighbor_id: int, to_relationship: Relationship) -> bool:
    """Full export decision: AS-path loop avoidance plus the no-valley filter.

    Runs once per neighbour on every best-route change, so it is written
    as one body rather than as calls to :meth:`Route.contains` and
    :func:`export_allowed`; it decides exactly as their conjunction.
    """
    path = route.path
    if neighbor_id in path:
        return False
    # Local routes (empty path) and customer-learned routes go to every
    # neighbour; peer- and provider-learned routes to customers only.
    return (
        not path
        or to_relationship is _CUSTOMER
        or route.local_pref == _CUSTOMER_PREF
    )
