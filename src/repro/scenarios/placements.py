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
from ..graphs.csr import CSRGraph, csr_bfs_distances

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


def _ordered_nodes(graph) -> range | list[int]:
    """Sorted node sequence without materialising a list for a CSRGraph.

    A CSRGraph's nodes are exactly ``0..n-1``, so ``range(n)`` *is* the sorted
    node sequence — placements built against either representation of the
    same topology are therefore identical dicts.
    """
    if isinstance(graph, CSRGraph):
        return range(graph.number_of_nodes())
    return sorted(graph.nodes())


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
    nodes = _ordered_nodes(graph)
    return {node: [index] for index, node in enumerate(nodes)}


def spread_placement(graph: nx.Graph, k: int) -> Placement:
    """``k`` messages at ``k`` (approximately) evenly spaced distinct nodes."""
    nodes = _ordered_nodes(graph)
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
    nodes = _ordered_nodes(graph)
    if k < 1:
        raise SimulationError(f"k must be positive, got {k}")
    chosen = nodes[0] if source is None else source
    if chosen not in graph:
        raise SimulationError(f"source node {chosen} is not in the graph")
    return {chosen: list(range(k))}


def random_placement(graph: nx.Graph, k: int, rng: np.random.Generator) -> Placement:
    """Each message at an independently uniform random node."""
    nodes = _ordered_nodes(graph)
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
    if isinstance(graph, CSRGraph):
        # Same ordering as the networkx branch: distance descending, node id
        # ascending within a distance class (the sort key below is total, so
        # the stable lexsort and sorted() agree exactly; BFS reaches every
        # node of the connected graph, matching dict_keys coverage).
        hops = csr_bfs_distances(graph.indptr, graph.indices, target)
        farthest = np.lexsort((np.arange(hops.size), -hops)).tolist()
    else:
        distances = nx.single_source_shortest_path_length(graph, target)
        farthest = sorted(distances, key=lambda node: (-distances[node], node))
    placement: Placement = {}
    for index in range(k):
        node = farthest[index % len(farthest)]
        placement.setdefault(node, []).append(index)
    return placement
