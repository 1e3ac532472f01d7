"""Gossip communication models: how a waking node picks its partner.

Section 2 of the paper defines the *gossip communication model* as the rule a
waking node uses to select the single neighbour it will contact, independent
of what is then sent.  Three models appear in the paper:

* **Uniform gossip** (Definition 1) — the partner is chosen uniformly at
  random among all neighbours.
* **Round-robin gossip** (Definition 2) — the partner is chosen according to a
  fixed cyclic list of neighbours; with a random starting point this is the
  quasirandom rumor-spreading model.
* **Fixed partner** — the partner is always the node's parent in a spanning
  tree; this is how phase 2 of TAG communicates.

Each selector exposes ``partner(node, rng) -> int | None`` and is constructed
from the graph so that the neighbour lists are fixed up front.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import networkx as nx
import numpy as np

from ..errors import SimulationError
from ..graphs.topologies import neighbor_lists, sorted_nodes

__all__ = [
    "PartnerSelector",
    "UniformSelector",
    "RoundRobinSelector",
    "FixedPartnerSelector",
]


class PartnerSelector(ABC):
    """Strategy interface for choosing the communication partner of a node."""

    @abstractmethod
    def partner(self, node: int, rng: np.random.Generator) -> int | None:
        """Return the neighbour ``node`` contacts on this wakeup (or ``None``)."""

    def reset(self) -> None:
        """Reset any internal per-run state (default: nothing to reset)."""


class UniformSelector(PartnerSelector):
    """Definition 1: partner chosen uniformly at random among the neighbours."""

    def __init__(self, graph: nx.Graph) -> None:
        # Memoized per graph instance: trial runners reuse one graph across
        # all trials of a sweep, so adjacency is built once, not per trial.
        self._neighbors = neighbor_lists(graph)
        for node, neighbors in self._neighbors.items():
            if not neighbors:
                raise SimulationError(f"node {node} has no neighbours; graph must be connected")

    def partner(self, node: int, rng: np.random.Generator) -> int:
        neighbors = self._neighbors[node]
        return neighbors[int(rng.integers(0, len(neighbors)))]


class RoundRobinSelector(PartnerSelector):
    """Definition 2: partner chosen from a fixed cyclic neighbour list.

    The starting offset of every node's cycle is chosen uniformly at random
    when the selector is created (the quasirandom rumor-spreading model of
    Doerr et al.); subsequent wakeups walk the list cyclically.  Offsets are
    drawn in ascending node order, so equal graphs draw them identically
    whatever order their nodes were inserted in.
    """

    def __init__(self, graph: nx.Graph, rng: np.random.Generator | None = None) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        neighbors_map = neighbor_lists(graph)
        self._neighbors: dict[int, tuple[int, ...]] = {}
        self._initial_offset: dict[int, int] = {}
        self._position: dict[int, int] = {}
        for node in sorted_nodes(graph):
            neighbors = neighbors_map[node]
            if not neighbors:
                raise SimulationError(f"node {node} has no neighbours; graph must be connected")
            self._neighbors[node] = neighbors
            offset = int(rng.integers(0, len(neighbors)))
            self._initial_offset[node] = offset
            self._position[node] = offset

    def partner(self, node: int, rng: np.random.Generator) -> int:
        neighbors = self._neighbors[node]
        index = self._position[node] % len(neighbors)
        self._position[node] = (index + 1) % len(neighbors)
        return neighbors[index]

    def reset(self) -> None:
        self._position = dict(self._initial_offset)

    def positions(self) -> dict[int, int]:
        """Copy of the current per-node cycle positions."""
        return dict(self._position)

    def load_positions(self, positions: dict[int, int]) -> None:
        """Install per-node cycle positions.

        Used by the batch fast path to write a lockstep run's final selector
        state back into the scalar selector, so that inspection after a batch
        run sees exactly what a sequential run would have left behind.
        """
        for node, index in positions.items():
            if node not in self._position:
                raise SimulationError(f"unknown node {node} in selector positions")
            self._position[node] = int(index)


class FixedPartnerSelector(PartnerSelector):
    """Partner fixed per node (the node's parent in a spanning tree).

    Nodes without an assigned partner (the tree root, or nodes that have not
    yet joined the tree) return ``None``, meaning "stay idle this wakeup" —
    exactly the behaviour of phase 2 of TAG before a node obtains a parent.
    """

    def __init__(self, partner_map: dict[int, int] | None = None) -> None:
        self._partner: dict[int, int] = dict(partner_map or {})

    def set_partner(self, node: int, partner: int) -> None:
        """Assign (or overwrite) the fixed partner of ``node``."""
        self._partner[node] = partner

    def partner_map(self) -> dict[int, int]:
        """Copy of the current node → partner assignment."""
        return dict(self._partner)

    def partner(self, node: int, rng: np.random.Generator) -> int | None:
        return self._partner.get(node)
