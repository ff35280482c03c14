"""Structural validation of generated topologies.

These checks express the constraints of Sec. 3 as machine-checkable
invariants.  The generator enforces them at construction time; validation
re-derives them from a finished graph, which guards against generator bugs
and lets tests assert them property-style on random instances.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import TopologyError
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType, Relationship


def find_violations(graph: ASGraph) -> List[str]:
    """Return a list of human-readable invariant violations (empty = valid)."""
    violations: List[str] = []
    violations.extend(_check_node_roles(graph))
    violations.extend(_check_t_clique(graph))
    loop_nodes, tree_peerings = graph.hierarchy_violations()
    violations.extend(_check_hierarchy_acyclic(loop_nodes))
    violations.extend(_check_peering_constraints(tree_peerings))
    violations.extend(_check_regions(graph))
    return violations


def validate(graph: ASGraph) -> None:
    """Raise :class:`TopologyError` listing all violations, if any."""
    violations = find_violations(graph)
    if violations:
        raise TopologyError(
            f"{len(violations)} invariant violation(s): " + "; ".join(violations[:10])
        )


def _check_node_roles(graph: ASGraph) -> List[str]:
    """Per-type structural rules (providers, customers, peering rights)."""
    violations: List[str] = []
    for node in graph.nodes():
        providers = graph.providers_of(node.node_id)
        customers = graph.customers_of(node.node_id)
        peers = graph.peers_of(node.node_id)
        if node.node_type is NodeType.T and providers:
            violations.append(f"T node {node.node_id} has providers {providers}")
        if node.node_type in (NodeType.M, NodeType.CP, NodeType.C) and not providers:
            violations.append(
                f"{node.node_type} node {node.node_id} has no provider"
            )
        if node.node_type.is_stub and customers:
            violations.append(
                f"stub {node.node_type} node {node.node_id} has customers {customers}"
            )
        if node.node_type is NodeType.C and peers:
            violations.append(f"C node {node.node_id} has peers {peers}")
        if node.node_type is NodeType.CP:
            bad = [
                p
                for p in peers
                if graph.node(p).node_type not in (NodeType.M, NodeType.CP)
            ]
            if bad:
                violations.append(
                    f"CP node {node.node_id} peers with non-M/CP nodes {bad}"
                )
        if node.node_type is NodeType.M:
            bad = [
                p
                for p in peers
                if graph.node(p).node_type not in (NodeType.M, NodeType.T, NodeType.CP)
            ]
            if bad:
                violations.append(
                    f"M node {node.node_id} peers with invalid types {bad}"
                )
    return violations


def _check_t_clique(graph: ASGraph) -> List[str]:
    """All T nodes must be pairwise connected with peering links."""
    violations: List[str] = []
    t_nodes = graph.nodes_of_type(NodeType.T)
    for i, a in enumerate(t_nodes):
        for b in t_nodes[i + 1 :]:
            try:
                relationship = graph.relationship(a, b)
            except TopologyError:
                violations.append(f"T nodes {a} and {b} are not connected")
                continue
            if relationship is not Relationship.PEER:
                violations.append(
                    f"T nodes {a} and {b} connected by {relationship}, not peering"
                )
    return violations


def _check_hierarchy_acyclic(loop_nodes: List[int]) -> List[str]:
    """The provider→customer digraph must contain no cycles.

    ``loop_nodes`` is the residue of Kahn's algorithm from
    :meth:`ASGraph.hierarchy_violations`: any residue is on or below a
    cycle.
    """
    if loop_nodes:
        return [f"provider loop involving nodes {loop_nodes[:10]}"]
    return []


def _check_peering_constraints(tree_peerings: List[Tuple[int, int]]) -> List[str]:
    """No node may peer with a member of its own customer tree."""
    return [
        f"node {ancestor} peers with {descendant} inside its customer tree"
        for ancestor, descendant in tree_peerings
    ]


def _check_regions(graph: ASGraph) -> List[str]:
    """Connected nodes must share a region; T nodes span all regions."""
    violations: List[str] = []
    region_union = frozenset()
    for node in graph.nodes():
        region_union = region_union | node.regions
    for node in graph.nodes():
        if node.node_type is NodeType.T and node.regions != region_union:
            violations.append(
                f"T node {node.node_id} not present in all regions"
            )
        for neighbor_id in graph.neighbors(node.node_id):
            if node.node_id < neighbor_id:
                neighbor = graph.node(neighbor_id)
                if not node.shares_region_with(neighbor):
                    violations.append(
                        f"link {node.node_id}--{neighbor_id} spans disjoint regions"
                    )
    return violations
