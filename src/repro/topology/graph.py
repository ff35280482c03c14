"""Annotated AS-level graph.

:class:`ASGraph` is the central data structure shared by the generator, the
metrics code and the simulator.  It is a plain adjacency structure in which
every edge carries a business :class:`~repro.topology.types.Relationship`
label, stored from the perspective of each endpoint (so a transit link is
recorded as ``CUSTOMER`` on the provider side and ``PROVIDER`` on the
customer side).  A per-node provider index mirrors the ``PROVIDER`` labels,
so walks up the hierarchy touch only provider links.

The structure enforces the invariants the paper's generator relies on:

* a node never has two parallel links to the same neighbour,
* a node is never its own neighbour,
* transit links never create provider loops (the hierarchy stays acyclic),
* peering links are never added between a node and a member of its own
  customer tree (Sec. 3: such peering "would prey on the revenue the node
  gets from its customer traffic").

They are checked on two paths:

* **per link** — :meth:`ASGraph.add_transit_link` and
  :meth:`ASGraph.add_peering_link` check each new link against the graph
  built so far, walking up the provider index.  Callers that decide link
  by link use them: the generator, topology evolution and the serial-1
  importer's trial pass.
* **once per document** — :meth:`ASGraph.add_links` inserts a whole batch
  with only the per-edge checks (self-loop, unknown id, parallel link),
  then runs :meth:`ASGraph.check_hierarchy` once: Kahn's algorithm over
  the provider links plus ancestor bitsets, O(V + E) bitset operations.
  The outcome does not depend on the order of the links.  The loaders
  use this path (:mod:`repro.topology.serialization`, the serial-1
  importer's whole-graph pass and final graph), and
  :mod:`repro.topology.validation` reports the same pass through
  :meth:`ASGraph.hierarchy_violations`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.errors import TopologyError
from repro.topology.types import NodeType, Relationship


@dataclasses.dataclass(frozen=True)
class ASNode:
    """A single autonomous system.

    ``node_id`` is a dense integer (0..n-1); ``regions`` is the set of
    geographic regions the AS is present in (T nodes are in all regions).
    """

    node_id: int
    node_type: NodeType
    regions: FrozenSet[int]

    def shares_region_with(self, other: "ASNode") -> bool:
        """Whether the two ASes are present in at least one common region."""
        return bool(self.regions & other.regions)


class ASGraph:
    """Mutable AS-level topology with relationship-annotated edges."""

    def __init__(self, *, scenario: str = "UNNAMED") -> None:
        self.scenario = scenario
        self._nodes: Dict[int, ASNode] = {}
        #: adjacency[u][v] is the relationship of v as seen from u.
        self._adjacency: Dict[int, Dict[int, Relationship]] = {}
        #: providers[u] is the set of u's providers (the PROVIDER labels).
        self._providers: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, node_type: NodeType, regions: Iterable[int]) -> ASNode:
        """Register a new AS; returns the created :class:`ASNode`."""
        if node_id in self._nodes:
            raise TopologyError(f"duplicate node id {node_id}")
        region_set = frozenset(regions)
        if not region_set:
            raise TopologyError(f"node {node_id} must belong to at least one region")
        node = ASNode(node_id=node_id, node_type=node_type, regions=region_set)
        self._nodes[node_id] = node
        self._adjacency[node_id] = {}
        self._providers[node_id] = set()
        return node

    def add_transit_link(self, customer: int, provider: int) -> None:
        """Add a customer→provider transit link.

        Raises :class:`TopologyError` if the link would duplicate an
        existing adjacency or close a provider loop.
        """
        self._check_new_edge(customer, provider)
        if self.is_in_customer_tree(ancestor=customer, descendant=provider):
            raise TopologyError(
                f"transit link {customer}->{provider} would create a provider loop"
            )
        self._link_transit(customer, provider)

    def add_peering_link(self, a: int, b: int) -> None:
        """Add a settlement-free peering link between ``a`` and ``b``.

        Raises :class:`TopologyError` if either endpoint is in the other's
        customer tree, or the nodes are already adjacent.
        """
        self._check_new_edge(a, b)
        if self.is_in_customer_tree(ancestor=a, descendant=b) or self.is_in_customer_tree(
            ancestor=b, descendant=a
        ):
            raise TopologyError(_tree_peering_message(a, b))
        self._link_peering(a, b)

    def add_links(self, links: Iterable[Tuple[int, int, Relationship]]) -> None:
        """Insert a batch of links, checking the hierarchy once at the end.

        ``links`` follows the :meth:`edges` convention: ``(customer,
        provider, PROVIDER)`` for a transit link, ``(a, b, PEER)`` for a
        peering link; they are inserted in iteration order.  Each link
        gets only the per-edge checks; :meth:`check_hierarchy` then runs
        once over the whole graph, so acceptance does not depend on the
        order of the links.  On any error every link of the batch is
        removed again before the error propagates.
        """
        added: List[Tuple[int, int]] = []
        try:
            for a, b, relationship in links:
                self._check_new_edge(a, b)
                if relationship is Relationship.PROVIDER:
                    self._link_transit(a, b)
                elif relationship is Relationship.PEER:
                    self._link_peering(a, b)
                else:
                    raise TopologyError(
                        f"link {a}--{b}: expected a PROVIDER or PEER label, "
                        f"got {relationship}"
                    )
                added.append((a, b))
            self.check_hierarchy()
        except Exception:
            for a, b in reversed(added):
                self.remove_link(a, b)
            raise

    def _link_transit(self, customer: int, provider: int) -> None:
        self._adjacency[customer][provider] = Relationship.PROVIDER
        self._adjacency[provider][customer] = Relationship.CUSTOMER
        self._providers[customer].add(provider)

    def _link_peering(self, a: int, b: int) -> None:
        self._adjacency[a][b] = Relationship.PEER
        self._adjacency[b][a] = Relationship.PEER

    def remove_link(self, a: int, b: int) -> Relationship:
        """Remove the link between ``a`` and ``b``; returns a's view of it.

        Used by the link-failure event extension.
        """
        try:
            relationship = self._adjacency[a].pop(b)
            self._adjacency[b].pop(a)
        except KeyError as exc:
            raise TopologyError(f"no link between {a} and {b}") from exc
        if relationship is Relationship.PROVIDER:
            self._providers[a].discard(b)
        elif relationship is Relationship.CUSTOMER:
            self._providers[b].discard(a)
        return relationship

    def _check_new_edge(self, a: int, b: int) -> None:
        if a == b:
            raise TopologyError(f"self-loop at node {a} rejected")
        if a not in self._nodes or b not in self._nodes:
            missing = a if a not in self._nodes else b
            raise TopologyError(f"unknown node id {missing}")
        if b in self._adjacency[a]:
            raise TopologyError(f"parallel link between {a} and {b} rejected")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> List[int]:
        """All node ids, ascending."""
        return sorted(self._nodes)

    def node(self, node_id: int) -> ASNode:
        """The :class:`ASNode` for ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise TopologyError(f"unknown node id {node_id}") from exc

    def nodes(self) -> Iterator[ASNode]:
        """All nodes, in ascending id order."""
        for node_id in sorted(self._nodes):
            yield self._nodes[node_id]

    def nodes_of_type(self, node_type: NodeType) -> List[int]:
        """Ids of all nodes of the given type, ascending."""
        return [n.node_id for n in self.nodes() if n.node_type is node_type]

    def relationship(self, u: int, v: int) -> Relationship:
        """The relationship of ``v`` as seen from ``u``."""
        try:
            return self._adjacency[u][v]
        except KeyError as exc:
            raise TopologyError(f"no link between {u} and {v}") from exc

    def neighbors(self, node_id: int) -> Dict[int, Relationship]:
        """Mapping neighbour id → relationship as seen from ``node_id``.

        Iteration order is the link *insertion* order.  That order is
        part of the simulation's determinism contract — BGP nodes export
        to neighbours in this order, which fixes the engine's FIFO
        tie-break sequence — so anything that rebuilds a graph and needs
        simulation-identical behaviour must restore it (see
        :meth:`apply_adjacency_order`).
        """
        if node_id not in self._adjacency:
            raise TopologyError(f"unknown node id {node_id}")
        return dict(self._adjacency[node_id])

    def adjacency_order(self, node_id: int) -> List[int]:
        """Neighbour ids of ``node_id`` in link insertion order."""
        if node_id not in self._adjacency:
            raise TopologyError(f"unknown node id {node_id}")
        return list(self._adjacency[node_id])

    def apply_adjacency_order(self, order: Dict[int, List[int]]) -> None:
        """Re-impose a recorded neighbour iteration order per node.

        ``order`` maps node id → its neighbour ids in the desired order;
        each list must be a permutation of the node's current neighbours.
        Used by deserialization to make a rebuilt graph not merely
        structurally equal but *simulation-identical* to the original
        (same export order → same event FIFO sequence → same trajectory).
        Nodes absent from ``order`` keep their current order.
        """
        for node_id, neighbor_ids in order.items():
            current = self._adjacency.get(node_id)
            if current is None:
                raise TopologyError(f"unknown node id {node_id}")
            if len(neighbor_ids) != len(current) or set(neighbor_ids) != set(
                current
            ):
                raise TopologyError(
                    f"adjacency order for node {node_id} is not a "
                    f"permutation of its neighbours"
                )
            self._adjacency[node_id] = {
                neighbor: current[neighbor] for neighbor in neighbor_ids
            }

    def neighbors_by_relationship(self, node_id: int, relationship: Relationship) -> List[int]:
        """Neighbour ids with the given relationship, ascending."""
        if node_id not in self._adjacency:
            raise TopologyError(f"unknown node id {node_id}")
        return sorted(
            v for v, rel in self._adjacency[node_id].items() if rel is relationship
        )

    def customers_of(self, node_id: int) -> List[int]:
        """Direct customers of ``node_id``."""
        return self.neighbors_by_relationship(node_id, Relationship.CUSTOMER)

    def providers_of(self, node_id: int) -> List[int]:
        """Direct providers of ``node_id``, ascending."""
        try:
            return sorted(self._providers[node_id])
        except KeyError as exc:
            raise TopologyError(f"unknown node id {node_id}") from exc

    def peers_of(self, node_id: int) -> List[int]:
        """Peers of ``node_id``."""
        return self.neighbors_by_relationship(node_id, Relationship.PEER)

    def degree(self, node_id: int) -> int:
        """Total number of neighbours of ``node_id``."""
        if node_id not in self._adjacency:
            raise TopologyError(f"unknown node id {node_id}")
        return len(self._adjacency[node_id])

    def transit_degree(self, node_id: int) -> int:
        """Number of transit (customer or provider) links at ``node_id``."""
        return sum(
            1
            for rel in self._adjacency[node_id].values()
            if rel is not Relationship.PEER
        )

    def peering_degree(self, node_id: int) -> int:
        """Number of peering links at ``node_id``."""
        return sum(
            1 for rel in self._adjacency[node_id].values() if rel is Relationship.PEER
        )

    def multihoming_degree(self, node_id: int) -> int:
        """Number of providers of ``node_id`` (the paper's MHD)."""
        return len(self.providers_of(node_id))

    def edges(self) -> Iterator[Tuple[int, int, Relationship]]:
        """Each link exactly once as ``(u, v, relationship-from-u)``.

        Transit links are yielded customer-first (``u`` is the customer);
        peering links are yielded with ``u < v``.
        """
        for u in sorted(self._adjacency):
            for v, rel in sorted(self._adjacency[u].items()):
                if rel is Relationship.PROVIDER:
                    yield u, v, rel
                elif rel is Relationship.PEER and u < v:
                    yield u, v, rel

    def edge_count(self) -> int:
        """Total number of links."""
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    # ------------------------------------------------------------------
    # Customer trees (cones)
    # ------------------------------------------------------------------
    def customer_tree(self, node_id: int) -> Set[int]:
        """All ASes reachable from ``node_id`` by repeatedly descending
        provider→customer links, excluding ``node_id`` itself.

        This is the paper's "customer tree" (a.k.a. customer cone).
        """
        seen: Set[int] = set()
        stack = self.customers_of(node_id)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                v
                for v, rel in self._adjacency[current].items()
                if rel is Relationship.CUSTOMER and v not in seen
            )
        seen.discard(node_id)
        return seen

    def is_in_customer_tree(self, *, ancestor: int, descendant: int) -> bool:
        """Whether ``descendant`` lies in ``ancestor``'s customer tree.

        Walks *upward* from ``descendant`` through the provider index,
        which is cheap because multihoming degrees are small.
        """
        if ancestor == descendant:
            return False
        providers = self._providers
        seen: Set[int] = set()
        stack = [descendant]
        while stack:
            for v in providers[stack.pop()]:
                if v in seen:
                    continue
                if v == ancestor:
                    return True
                seen.add(v)
                stack.append(v)
        return False

    def hierarchy_violations(self) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Both hierarchy invariants, checked over the whole graph at once.

        Returns ``(loop_nodes, tree_peerings)``, both empty for a valid
        hierarchy:

        * ``loop_nodes`` — ascending ids Kahn's algorithm cannot order
          over the provider links: the nodes on a provider loop or below
          one;
        * ``tree_peerings`` — ``(ancestor, descendant)`` for every peering
          link with one endpoint in the other's customer tree, ascending.
          Peering links touching ``loop_nodes`` are not judged: their
          ancestor sets are undefined.

        Each ordered node's ancestor set is a Python-int bitset built in
        topological order, one OR per provider link, so the whole pass is
        O(V + E) bitset operations.  Bits are numbered in the (FIFO) Kahn
        order, which puts the top of the hierarchy — the only ancestors
        most nodes have — in the low bits and keeps the bitsets short.
        They are dropped on return.
        """
        providers = self._providers
        pending = {node: len(ups) for node, ups in providers.items()}
        order = [node for node, count in pending.items() if count == 0]
        rank: Dict[int, int] = {}
        ancestors: Dict[int, int] = {}
        for node in order:  # ``order`` grows while it is walked (FIFO)
            bits = 0
            for provider in providers[node]:
                bits |= ancestors[provider] | (1 << rank[provider])
            rank[node] = len(rank)
            ancestors[node] = bits
            for v, rel in self._adjacency[node].items():
                if rel is Relationship.CUSTOMER:
                    pending[v] -= 1
                    if pending[v] == 0:
                        order.append(v)
        loop_nodes = sorted(node for node in self._nodes if node not in rank)
        tree_peerings = [
            (a, b)
            for a in order
            for b, rel in self._adjacency[a].items()
            if rel is Relationship.PEER
            and b in ancestors
            and (ancestors[b] >> rank[a]) & 1
        ]
        tree_peerings.sort()
        return loop_nodes, tree_peerings

    def check_hierarchy(self) -> None:
        """Raise :class:`TopologyError` unless both hierarchy invariants hold.

        The error names one offending link, picked deterministically: on
        a provider loop, the link that closes the loop reached by walking
        smallest providers up from the smallest unordered node; otherwise
        the first customer-tree peering of :meth:`hierarchy_violations`.
        """
        loop_nodes, tree_peerings = self.hierarchy_violations()
        if loop_nodes:
            on_loop = set(loop_nodes)
            visited: Set[int] = set()
            current = loop_nodes[0]
            while current not in visited:
                visited.add(current)
                customer = current
                # Kahn left ``current`` unordered, so a provider of it is too.
                current = min(p for p in self._providers[current] if p in on_loop)
            raise TopologyError(
                f"transit link {customer}->{current} closes a provider loop"
            )
        if tree_peerings:
            raise TopologyError(_tree_peering_message(*tree_peerings[0]))

    def all_customer_tree_sizes(self) -> Dict[int, int]:
        """Customer-tree size for every node, computed in one bottom-up pass.

        Because cones of multihomed nodes overlap, sizes are computed as
        true set sizes (memoized union of descendant sets) rather than sums.
        """
        memo: Dict[int, frozenset] = {}

        def cone(node_id: int) -> frozenset:
            cached = memo.get(node_id)
            if cached is not None:
                return cached
            members: Set[int] = set()
            for customer in self.customers_of(node_id):
                members.add(customer)
                members.update(cone(customer))
            result = frozenset(members)
            memo[node_id] = result
            return result

        # The hierarchy is acyclic by construction, but recursion depth can
        # reach the hierarchy depth times branching; use an explicit
        # post-order traversal to stay safe on deep chains.
        order: List[int] = []
        visited: Set[int] = set()
        for start in self.node_ids:
            if start in visited:
                continue
            stack: List[Tuple[int, bool]] = [(start, False)]
            while stack:
                current, expanded = stack.pop()
                if expanded:
                    order.append(current)
                    continue
                if current in visited:
                    continue
                visited.add(current)
                stack.append((current, True))
                for customer in self.customers_of(current):
                    if customer not in visited:
                        stack.append((customer, False))
        for node_id in order:
            cone(node_id)
        return {node_id: len(memo[node_id]) for node_id in self.node_ids}

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def type_counts(self) -> Dict[NodeType, int]:
        """Number of nodes of each type."""
        counts = {node_type: 0 for node_type in NodeType}
        for node in self._nodes.values():
            counts[node.node_type] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.type_counts()
        mix = ", ".join(f"{t.value}={counts[t]}" for t in NodeType)
        return (
            f"ASGraph(scenario={self.scenario!r}, n={len(self)}, "
            f"links={self.edge_count()}, {mix})"
        )


def _tree_peering_message(a: int, b: int) -> str:
    return (
        f"peering link {a}--{b} rejected: one endpoint is in the "
        "other's customer tree"
    )
