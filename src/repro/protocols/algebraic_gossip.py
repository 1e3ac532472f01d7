"""Uniform (and round-robin) algebraic gossip — the protocol of Theorem 1.

Every node owns an :class:`~repro.rlnc.decoder.RlncDecoder` seeded with the
source messages initially placed at it.  On every wakeup the node selects a
communication partner according to the configured communication model
(uniform by default) and the configured action:

* ``PUSH``  — the waking node sends one freshly coded packet to the partner;
* ``PULL``  — the partner sends one packet to the waking node;
* ``EXCHANGE`` — both happen (this is the variant all the paper's theorems
  are stated for).

The protocol stops when every node's decoder reaches rank ``k``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import networkx as nx
import numpy as np

from ..core.config import GossipAction, SimulationConfig
from ..errors import SimulationError
from ..gossip.communication import PartnerSelector, UniformSelector
from ..gossip.engine import GossipProcess, Transmission
from ..rlnc.decoder import RlncDecoder
from ..rlnc.encoder import RlncEncoder
from ..rlnc.message import Generation
from ..rlnc.packet import CodedPacket

__all__ = [
    "AlgebraicGossip",
    "RankOnlyUniformGossip",
    "build_node_decoders",
    "reset_node_to_initial_knowledge",
]


def build_node_decoders(
    graph: nx.Graph,
    generation: Generation,
    placement: Mapping[int, Sequence[int]],
    rng: np.random.Generator,
) -> tuple[dict[int, RlncDecoder], dict[int, RlncEncoder]]:
    """Create one decoder + encoder per node, seeded with the initial placement.

    ``placement`` maps node id → indices of the source messages initially
    stored there.  A node may hold several messages or none; every message
    index must be placed at least once, otherwise no protocol could ever
    disseminate it.
    """
    nodes = set(graph.nodes())
    placed: set[int] = set()
    for node, indices in placement.items():
        if node not in nodes:
            raise SimulationError(f"placement references unknown node {node}")
        placed.update(int(i) for i in indices)
    missing = set(range(generation.k)) - placed
    if missing:
        raise SimulationError(
            f"source messages {sorted(missing)} are not placed at any node"
        )
    decoders: dict[int, RlncDecoder] = {}
    encoders: dict[int, RlncEncoder] = {}
    for node in sorted(nodes):
        decoder = RlncDecoder(generation.field, generation.k, generation.payload_length)
        for index in placement.get(node, ()):  # seed initial knowledge
            decoder.add_source_message(int(index), generation.payload_matrix[int(index)])
        decoders[node] = decoder
        encoders[node] = RlncEncoder(decoder, rng)
    return decoders, encoders


def reset_node_to_initial_knowledge(
    generation: Generation,
    placement: Mapping[int, Sequence[int]],
    node: int,
    rng: np.random.Generator,
) -> tuple[RlncDecoder, RlncEncoder]:
    """Fresh decoder/encoder for ``node`` holding only its initial messages.

    This is the reset-churn crash semantics shared by
    :meth:`AlgebraicGossip.on_crash` and
    :meth:`~repro.protocols.tag.TagProtocol.on_crash`: the node loses every
    coded row it accumulated and rejoins with exactly the source messages the
    placement originally stored at it.
    """
    decoder = RlncDecoder(generation.field, generation.k, generation.payload_length)
    for index in placement.get(node, ()):
        decoder.add_source_message(int(index), generation.payload_matrix[int(index)])
    return decoder, RlncEncoder(decoder, rng)


class AlgebraicGossip(GossipProcess):
    """Gossip process running RLNC dissemination with a pluggable partner selector.

    Parameters
    ----------
    graph:
        The communication graph ``G_n``.
    generation:
        The ``k`` source messages.
    placement:
        Initial placement of source messages at nodes (node → message indices).
    config:
        Simulation configuration (field size must match ``generation.field``).
    rng:
        Random stream used for coding coefficients.
    selector:
        Communication model; defaults to :class:`UniformSelector` (Definition 1).
    """

    def __init__(
        self,
        graph: nx.Graph,
        generation: Generation,
        placement: Mapping[int, Sequence[int]],
        config: SimulationConfig,
        rng: np.random.Generator,
        selector: PartnerSelector | None = None,
    ) -> None:
        if generation.field.order != config.field_size:
            raise SimulationError(
                f"generation field GF({generation.field.order}) does not match "
                f"config field_size {config.field_size}"
            )
        self.graph = graph
        self.generation = generation
        self.config = config
        self.action = config.action
        self.selector = selector if selector is not None else UniformSelector(graph)
        self.decoders, self.encoders = build_node_decoders(graph, generation, placement, rng)
        # Kept for reset-churn crashes (on_crash rebuilds a node from these).
        self._placement = {n: tuple(int(i) for i in idx) for n, idx in placement.items()}
        self._rng = rng

    # ------------------------------------------------------------------
    # GossipProcess interface
    # ------------------------------------------------------------------
    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        partner = self.selector.partner(node, rng)
        if partner is None:
            return []
        transmissions: list[Transmission] = []
        if self.action in (GossipAction.PUSH, GossipAction.EXCHANGE):
            packet = self.encoders[node].next_packet()
            if packet is not None:
                transmissions.append(Transmission(node, partner, packet, kind="rlnc"))
        if self.action in (GossipAction.PULL, GossipAction.EXCHANGE):
            packet = self.encoders[partner].next_packet()
            if packet is not None:
                transmissions.append(Transmission(partner, node, packet, kind="rlnc"))
        return transmissions

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool:
        if not isinstance(payload, CodedPacket):
            raise SimulationError(
                f"AlgebraicGossip received unexpected payload type {type(payload)!r}"
            )
        return self.decoders[receiver].receive(payload)

    def is_complete(self) -> bool:
        return all(decoder.is_complete for decoder in self.decoders.values())

    def on_crash(self, node: int) -> None:
        """Reset-churn crash: the node falls back to its initial messages."""
        self.decoders[node], self.encoders[node] = reset_node_to_initial_knowledge(
            self.generation, self._placement, node, self._rng
        )

    def supports_rank_only_batch(self) -> bool:
        """Uniform algebraic gossip is rank-only batchable.

        Everything the engine observes — who talks to whom, how many
        coefficients are drawn, whether a packet is helpful, when a node
        completes — depends only on decoder ranks and the random stream, so
        the stopping time is independent of the payloads.  Subclasses and
        non-uniform selectors (which may carry extra state) are excluded.
        """
        return type(self) is AlgebraicGossip and type(self.selector) is UniformSelector

    def finished_nodes(self) -> set[int]:
        return {node for node, decoder in self.decoders.items() if decoder.is_complete}

    def metadata(self) -> dict[str, Any]:
        ranks = {node: decoder.rank for node, decoder in self.decoders.items()}
        return {
            "k": self.generation.k,
            "protocol": "algebraic-gossip",
            "action": self.action.value,
            "min_rank": min(ranks.values()),
            "selector": type(self.selector).__name__,
        }

    # ------------------------------------------------------------------
    # Convenience inspection helpers (used by tests and examples)
    # ------------------------------------------------------------------
    def rank_of(self, node: int) -> int:
        """Current decoder rank of ``node``."""
        return self.decoders[node].rank

    def decoded_messages(self, node: int) -> np.ndarray:
        """Decoded payload matrix at ``node`` (raises if the node is not done)."""
        return self.decoders[node].decode()

    def all_nodes_decoded_correctly(self) -> bool:
        """Check every finished node against the generation's ground truth."""
        return all(
            decoder.matches_generation(self.generation)
            for decoder in self.decoders.values()
        )


class RankOnlyUniformGossip(GossipProcess):
    """Uniform algebraic gossip without per-node decoders: the event engine's
    process.

    :class:`AlgebraicGossip` builds ``n`` scalar decoders/encoders up front —
    exactly the O(n) object graph the event-driven engine then ignores in
    favour of its batched rank-only eliminator.  At ``n = 10^6`` that setup is
    the dominant cost, so the event engine builds this process instead
    (:func:`~repro.gossip.event.build_event_process`): it validates the same placement, stores the same
    :class:`~repro.rlnc.message.Generation` (drawn from the *same* ``rng``
    stream position, so per-seed results are bit-identical), and hands the
    engine the initial coefficient rows directly through
    :meth:`initial_coefficient_rows` — the unit rows a fresh
    :class:`~repro.rlnc.decoder.RlncDecoder` would report after
    ``add_source_message``.

    Only the event-driven engine can run it: the scalar entry points
    (``on_wakeup`` etc.) raise, because this process has no payload state to
    gossip scalar packets from.
    """

    def __init__(
        self,
        graph: Any,
        generation: Generation,
        placement: Mapping[int, Sequence[int]],
        config: SimulationConfig,
        rng: np.random.Generator,
    ) -> None:
        if generation.field.order != config.field_size:
            raise SimulationError(
                f"generation field GF({generation.field.order}) does not match "
                f"config field_size {config.field_size}"
            )
        # Same placement validation as build_node_decoders, without building
        # decoders (node membership is O(1) for both graph representations).
        placed: set[int] = set()
        for node, indices in placement.items():
            if node not in graph:
                raise SimulationError(f"placement references unknown node {node}")
            placed.update(int(i) for i in indices)
        missing = set(range(generation.k)) - placed
        if missing:
            raise SimulationError(
                f"source messages {sorted(missing)} are not placed at any node"
            )
        self.graph = graph
        self.generation = generation
        self.config = config
        self.action = config.action
        self._placement = {n: tuple(int(i) for i in idx) for n, idx in placement.items()}
        self._rng = rng

    def initial_coefficient_rows(self) -> dict[int, np.ndarray]:
        """Node → initial RREF coefficient rows (unit rows at placed indices).

        Exactly what ``RlncDecoder.coefficient_matrix()`` reports right after
        seeding: one unit row per *distinct* placed message index, pivots
        ascending.  The event engine eliminates these verbatim, so its state
        after seeding matches the decoder-built path bit for bit.
        """
        field = self.generation.field
        k = self.generation.k
        rows: dict[int, np.ndarray] = {}
        for node, indices in self._placement.items():
            distinct = sorted(set(indices))
            if not distinct:
                continue
            matrix = field.zeros((len(distinct), k))
            for row, message_index in enumerate(distinct):
                matrix[row, message_index] = 1
            rows[node] = matrix
        return rows

    def supports_rank_only_batch(self) -> bool:
        """Rank-only by construction (this is all the state there is)."""
        return True

    def metadata(self) -> dict[str, Any]:
        # Same shape as AlgebraicGossip.metadata(); min_rank is a placeholder
        # the event engine overwrites with the true post-run minimum.
        return {
            "k": self.generation.k,
            "protocol": "algebraic-gossip",
            "action": self.action.value,
            "min_rank": 0,
            "selector": "UniformSelector",
        }

    # -- scalar-engine entry points: unsupported by design ----------------
    def _refuse(self) -> SimulationError:
        return SimulationError(
            "RankOnlyUniformGossip has no per-node decoders; it runs on the "
            "event-driven engine only"
        )

    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        raise self._refuse()

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool:
        raise self._refuse()

    def is_complete(self) -> bool:
        raise self._refuse()

    def finished_nodes(self) -> set[int]:
        raise self._refuse()
