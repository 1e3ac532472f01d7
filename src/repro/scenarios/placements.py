"""Placements: how the ``k`` source messages are initially placed at nodes.

The placement vocabulary is part of the scenario layer, so that a
:class:`~repro.scenarios.ScenarioSpec` can name its placement declaratively.

The paper's k-dissemination setting allows any initial placement ("k initial
messages located at some nodes; a node can hold more than one initial
message").  The placements below cover the cases the evaluation needs:

* :func:`all_to_all_placement` — the all-to-all special case ``k = n`` with
  exactly one message per node;
* :func:`spread_placement` — ``k <= n`` messages at ``k`` distinct evenly
  spaced nodes (the generic k-dissemination workload);
* :func:`single_source_placement` — all ``k`` messages at one node (the
  1-source multicast workload and the worst case for distance-driven bounds);
* :func:`random_placement` — each message at an independently uniform node
  (nodes may hold several messages);
* :func:`adversarial_far_placement` — all messages as far as possible from a
  target node, the worst case the queueing reduction of Theorem 1 allows.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from ..errors import SimulationError
from ..graphs.csr import csr_bfs_distances
from ..graphs.topologies import csr_adjacency, sorted_nodes

__all__ = [
    "Placement",
    "all_to_all_placement",
    "spread_placement",
    "single_source_placement",
    "random_placement",
    "adversarial_far_placement",
    "validate_placement",
]

#: Node id → list of source message indices initially stored there.
Placement = dict[int, list[int]]


def validate_placement(graph: nx.Graph, k: int, placement: Placement) -> None:
    """Check that every message index ``0..k-1`` is placed at an existing node."""
    seen: set[int] = set()
    for node, indices in placement.items():
        if node not in graph:
            raise SimulationError(f"placement references unknown node {node}")
        for index in indices:
            if not 0 <= int(index) < k:
                raise SimulationError(f"message index {index} out of range for k={k}")
            seen.add(int(index))
    missing = set(range(k)) - seen
    if missing:
        raise SimulationError(f"messages {sorted(missing)} are not placed anywhere")


def all_to_all_placement(graph: nx.Graph) -> Placement:
    """One message per node (``k = n``): the all-to-all communication special case."""
    nodes = sorted_nodes(graph)
    return {node: [index] for index, node in enumerate(nodes)}


def spread_placement(graph: nx.Graph, k: int) -> Placement:
    """``k`` messages at ``k`` (approximately) evenly spaced distinct nodes."""
    nodes = sorted_nodes(graph)
    n = len(nodes)
    if not 1 <= k <= n:
        raise SimulationError(f"spread placement requires 1 <= k <= n, got k={k}, n={n}")
    placement: Placement = {}
    for index in range(k):
        node = nodes[(index * n) // k]
        placement.setdefault(node, []).append(index)
    return placement


def single_source_placement(graph: nx.Graph, k: int, source: int | None = None) -> Placement:
    """All ``k`` messages at one node (defaults to the lowest-numbered node)."""
    nodes = sorted_nodes(graph)
    if k < 1:
        raise SimulationError(f"k must be positive, got {k}")
    chosen = nodes[0] if source is None else source
    if chosen not in graph:
        raise SimulationError(f"source node {chosen} is not in the graph")
    return {chosen: list(range(k))}


def random_placement(graph: nx.Graph, k: int, rng: np.random.Generator) -> Placement:
    """Each message at an independently uniform random node."""
    nodes = sorted_nodes(graph)
    if k < 1:
        raise SimulationError(f"k must be positive, got {k}")
    placement: Placement = {}
    for index in range(k):
        node = nodes[int(rng.integers(0, len(nodes)))]
        placement.setdefault(node, []).append(index)
    return placement


def adversarial_far_placement(graph: nx.Graph, k: int, target: int) -> Placement:
    """All ``k`` messages as far (in hops) from ``target`` as possible.

    This is the worst case permitted by Theorem 1/2 ("customers initially
    distributed arbitrarily"); it maximises the distance every message must
    travel to reach ``target``.
    """
    if target not in graph:
        raise SimulationError(f"target node {target} is not in the graph")
    if k < 1:
        raise SimulationError(f"k must be positive, got {k}")
    # Hop distance descending, node ascending within a distance class; nodes
    # the BFS cannot reach are no candidates.
    nodes = sorted_nodes(graph)
    indptr, indices = csr_adjacency(graph)
    hops = csr_bfs_distances(indptr, indices, nodes.index(target))
    order = np.lexsort((np.arange(hops.size), -hops))
    farthest = [nodes[position] for position in order[hops[order] >= 0].tolist()]
    placement: Placement = {}
    for index in range(k):
        node = farthest[index % len(farthest)]
        placement.setdefault(node, []).append(index)
    return placement
