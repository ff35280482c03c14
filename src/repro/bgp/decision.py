"""The BGP decision process (Sec. 2 of the paper).

Selection order among candidate routes for a prefix:

1. highest local preference (customer > peer > provider, set at import),
2. shortest AS path,
3. stable hash of the node ids (deterministic, receiver-salted).

Locally originated routes carry a local preference above customer routes
and therefore always win at the origin.

:meth:`Route.preference_key` is the one definition of this order.
:func:`prefers` applies it lazily: the first two components are plain
attributes, so the receiver-salted hash (the only costly component) is
computed only when they tie.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - the route module imports this one
    from repro.bgp.route import Route


def prefers(route: "Route", other: "Route", receiver_id: int) -> bool:
    """Whether ``receiver_id`` strictly prefers ``route`` over ``other``.

    Equal to ``route.preference_key(receiver_id) <
    other.preference_key(receiver_id)``, but the keys (and their path
    hashes) are only looked up when local preference and path length tie.
    """
    local_pref = route.local_pref
    other_local_pref = other.local_pref
    if local_pref != other_local_pref:
        return local_pref > other_local_pref
    length = len(route.path)
    other_length = len(other.path)
    if length != other_length:
        return length < other_length
    return route.preference_key(receiver_id) < other.preference_key(receiver_id)


def select_best(receiver_id: int, candidates: List["Route"]) -> Optional["Route"]:
    """Pick the most preferred route, or None when no candidate exists.

    Among candidates with equal preference keys the first one wins.
    """
    best: Optional["Route"] = None
    for route in candidates:
        if best is None or prefers(route, best, receiver_id):
            best = route
    return best


def rank(receiver_id: int, candidates: List["Route"]) -> List["Route"]:
    """All candidates ordered from most to least preferred."""
    return sorted(candidates, key=lambda route: route.preference_key(receiver_id))
