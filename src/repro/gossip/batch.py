"""Vectorised batch-trial simulation of gossip processes.

The sequential :class:`~repro.gossip.engine.GossipEngine` runs one trial at a
time, and every received packet pays a Python-level incremental
Gaussian-elimination loop inside the node's scalar decoder — the dominant
cost of every Monte Carlo benchmark in this repository.  The engines in this
module (and in :mod:`repro.gossip.batch_tag`) run ``T`` independent trials in
lockstep instead: per-trial node state is kept as stacked ``T x n`` arrays,
and all ``T x n`` decoder states live in one
:class:`~repro.rlnc.batch.BatchDecoder`, so each (round, wave) of deliveries
is a single vectorised ``GF(q)`` sweep instead of ``T x n`` scalar loops.

Protocols opt in through :meth:`GossipProcess.batch_strategy
<repro.gossip.engine.GossipProcess.batch_strategy>`, which names the
vectorised executor for that protocol:

* :class:`BatchGossipEngine` (here) — rank-only uniform algebraic gossip;
* :class:`~repro.gossip.batch_tag.BatchTagEngine` — the two-phase TAG
  protocol with any supported spanning-tree protocol;
* :class:`~repro.gossip.batch_tag.BatchSpanningTreeEngine` — spanning-tree
  protocols run standalone (the Theorem 5 broadcast measurements).

Bit-identical semantics
-----------------------
Every batch engine is a *pure optimisation*: given the same per-trial random
generators it produces exactly the same :class:`~repro.core.results.RunResult`
objects as running :class:`GossipEngine` once per trial.  Three properties
make this work:

1. **Random streams are replicated call-for-call.**  Each trial keeps its own
   ``numpy.random.Generator`` and the engine issues partner-selection,
   coefficient and loss draws in precisely the order the sequential engine
   would (the linear algebra is vectorised across trials; the randomness is
   not).
2. **The RREF basis is canonical.**  Scalar decoders keep their rows in
   reduced row-echelon form ordered by pivot column; the unique RREF basis of
   a subspace means the batch decoder's stored rows — and therefore every
   encoded packet — coincide exactly with the scalar decoder's.
3. **Within-round delivery order is preserved per node.**  Coded-packet
   deliveries are re-grouped into waves (one row per receiving decoder per
   sweep), but the FIFO order of packets arriving at any single node is kept,
   so every individual helpfulness flag matches the sequential run.
   Tree-protocol payloads touch per-trial tree state only (never the decoder
   grid and never the random stream), so applying them inline while coded
   rows are queued cannot reorder anything observable.

Payloads are never touched: the batch path only answers "when does every node
finish", which is the only question the stopping-time experiments ask.
Protocols that need payload recovery or carry unsupported state must keep
using the sequential engine (their :meth:`batch_strategy` returns ``None``).

The linear algebra underneath the decoder grid is supplied by the ambient
:mod:`repro.backends` backend (dense numpy by default, word-packed GF(2)
kernels under ``gf2bit``); because every backend maintains the same canonical
RREF state, the bit-identical guarantee above holds across backends too.
"""

from __future__ import annotations

from typing import Any

import networkx as nx
import numpy as np

from ..core.config import GossipAction, SimulationConfig, TimeModel
from ..core.results import RunResult
from ..errors import SimulationError
from ..graphs.topologies import is_connected
from ..rlnc.batch import BatchDecoder
from .dynamics import NodeDynamics
from .engine import GossipProcess

__all__ = [
    "BatchEngineCore",
    "RlncBatchMixin",
    "BatchGossipEngine",
    "run_rank_only_batch",
    "batch_supports_config",
]

#: Delivery entries produced by ``_wakeup``: coded rows go to the vectorised
#: decoder grid (``("r", receiver_problem, row, sender_pos)``), tree payloads
#: (``("s", receiver_pos, sender_pos, payload)``) are applied per trial by
#: the subclass.
_RLNC = "r"
_STP = "s"


def batch_supports_config(config: SimulationConfig) -> bool:
    """Can the batch fast path honour every knob of ``config``?

    The batch engines support pause-mode churn (both time models) and
    heterogeneous activation rates (asynchronous) — the trial runners fall
    back to the sequential :class:`~repro.gossip.engine.GossipEngine` only
    for **reset-mode churn**, where a crash wipes a node's decoder: the
    shared :class:`~repro.rlnc.batch.BatchDecoder` grid stores the canonical
    RREF rows of all trials in fixed arrays and cannot cheaply un-absorb one
    problem's rows mid-run.  See the support matrix in
    ``docs/architecture.md``.
    """
    return not config.churn_reset


class BatchEngineCore:
    """Shared lockstep machinery for batch-trial gossip engines.

    Owns everything protocol-independent: trial bookkeeping, the synchronous
    and asynchronous time-model loops (mirroring
    :class:`~repro.gossip.engine.GossipEngine` draw-for-draw), message / loss
    / helpfulness counters, per-node completion rounds, and result assembly.

    Subclasses implement the protocol-specific hooks:

    * :meth:`_wakeup` — what a waking node transmits, as ``("r", problem,
      row)`` coded entries and/or ``("s", receiver_pos, sender_pos, payload)``
      tree entries, drawing from the trial's generator exactly as the scalar
      protocol would;
    * :meth:`_apply_rows` — absorb one wave of coded rows (at most one per
      receiving decoder);
    * :meth:`_apply_tree_payload` — apply one tree-protocol payload, returning
      its helpfulness;
    * :meth:`_finished_mask` — which nodes of a trial have individually
      completed;
    * :meth:`_trial_metadata` — the per-trial metadata dict, matching the
      scalar protocol's :meth:`~repro.gossip.engine.GossipProcess.metadata`.
    """

    def __init__(
        self,
        graph: nx.Graph,
        processes: list[GossipProcess],
        config: SimulationConfig,
        rngs: list[np.random.Generator],
    ) -> None:
        if graph.number_of_nodes() < 2:
            raise SimulationError("gossip requires at least two nodes")
        if not is_connected(graph):
            raise SimulationError("gossip requires a connected graph")
        if not processes:
            raise SimulationError(f"{type(self).__name__} needs at least one trial")
        if len(processes) != len(rngs):
            raise SimulationError(
                f"{len(processes)} processes but {len(rngs)} generators"
            )
        self.graph = graph
        self.processes = processes
        self.config = config
        self.rngs = rngs
        self.trials = len(processes)
        self._nodes = sorted(graph.nodes())
        self._n = len(self._nodes)
        self._pos = {node: pos for pos, node in enumerate(self._nodes)}
        # Per-trial counters, mirroring GossipEngine's scalars.
        self._messages_sent = np.zeros(self.trials, dtype=np.int64)
        self._helpful_messages = np.zeros(self.trials, dtype=np.int64)
        self._dropped_messages = np.zeros(self.trials, dtype=np.int64)
        self._timeslots = np.zeros(self.trials, dtype=np.int64)
        self._completion_rounds: list[dict[int, int]] = [{} for _ in range(self.trials)]
        self._noted = np.zeros((self.trials, self._n), dtype=bool)
        self._loss_probability = config.loss_probability
        if not batch_supports_config(config):
            raise SimulationError(
                "the batch fast path does not support churn_reset; "
                "run GossipEngine per trial instead"
            )
        self._dynamics = NodeDynamics(config, self._nodes)
        self._churn_dropped = np.zeros(self.trials, dtype=np.int64)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def _wakeup(self, t: int, pos: int) -> list[tuple]:
        """Transmissions of node position ``pos`` of trial ``t`` waking up."""
        raise NotImplementedError

    def _apply_rows(self, wave: list[tuple[int, np.ndarray, int]]) -> None:
        """Absorb one wave of ``(problem, row, trial)`` coded entries."""
        raise NotImplementedError(
            f"{type(self).__name__} produced a coded-row delivery but does "
            "not implement _apply_rows"
        )

    def _apply_tree_payload(
        self, t: int, receiver_pos: int, sender_pos: int, payload: Any
    ) -> bool:
        """Apply one tree-protocol payload; return its helpfulness."""
        raise NotImplementedError(
            f"{type(self).__name__} produced a tree delivery but does not "
            "implement _apply_tree_payload"
        )

    def _finished_mask(self, t: int) -> np.ndarray:
        """Boolean ``(n,)`` mask of individually completed nodes of trial ``t``."""
        raise NotImplementedError

    def _trial_metadata(self, t: int) -> dict[str, Any]:
        """Metadata dict of trial ``t``, matching the scalar protocol's."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> list[RunResult]:
        """Run every trial to completion (or the round limit); results in trial order."""
        if self.config.time_model is TimeModel.SYNCHRONOUS:
            rounds, completed = self._run_synchronous()
        else:
            rounds, completed = self._run_asynchronous()
        results: list[RunResult] = []
        for t in range(self.trials):
            if not completed[t] and not self.config.allow_incomplete:
                raise SimulationError(
                    f"protocol did not complete within {self.config.max_rounds} rounds"
                )
            metadata = self._trial_metadata(t)
            if self._loss_probability > 0:
                metadata.setdefault("dropped_messages", int(self._dropped_messages[t]))
            if self._dynamics.has_churn:
                metadata.setdefault(
                    "churn_dropped_messages", int(self._churn_dropped[t])
                )
            results.append(
                RunResult(
                    rounds=int(rounds[t]),
                    timeslots=int(self._timeslots[t]),
                    completed=bool(completed[t]),
                    n=self._n,
                    k=int(metadata.pop("k", 0)),
                    completion_rounds=dict(self._completion_rounds[t]),
                    messages_sent=int(self._messages_sent[t]),
                    helpful_messages=int(self._helpful_messages[t]),
                    metadata=metadata,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Time models
    # ------------------------------------------------------------------
    def _start(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        rounds = np.zeros(self.trials, dtype=np.int64)
        completed = np.zeros(self.trials, dtype=bool)
        for t in range(self.trials):
            self._note_completions(t, 0)
        active = [t for t in range(self.trials) if not self._trial_complete(t)]
        completed[[t for t in range(self.trials) if t not in active]] = True
        return rounds, completed, active

    def _run_synchronous(self) -> tuple[np.ndarray, np.ndarray]:
        rounds, completed, active = self._start()
        round_index = 0
        while active and round_index < self.config.max_rounds:
            round_index += 1
            down = (
                self._dynamics.down_mask(round_index)
                if self._dynamics.has_churn
                else None
            )
            pending = self._collect_wakeups(active, down)
            self._timeslots[active] += self._n
            self._deliver_in_waves(pending, down)
            still_active = []
            for t in active:
                self._note_completions(t, round_index)
                if self._trial_complete(t):
                    rounds[t] = round_index
                    completed[t] = True
                else:
                    still_active.append(t)
            active = still_active
        # Trials that never finished stopped at the round limit, exactly as
        # the sequential engine reports.
        for t in active:
            rounds[t] = self.config.max_rounds
        return rounds, completed

    def _run_asynchronous(self) -> tuple[np.ndarray, np.ndarray]:
        rounds, completed, active = self._start()
        max_timeslots = self.config.max_rounds * self._n
        while active:
            survivors = []
            for t in active:
                if self._timeslots[t] >= max_timeslots:
                    rounds[t] = -(-int(self._timeslots[t]) // self._n)
                else:
                    survivors.append(t)
            active = survivors
            if not active:
                break
            # Active trials advance in lockstep (every survivor gains one
            # slot per iteration), so the round of the slot about to be
            # played — and hence the down mask, memoised per round inside
            # NodeDynamics — is shared across them.
            round_now = int(self._timeslots[active[0]]) // self._n + 1
            down = (
                self._dynamics.down_mask(round_now)
                if self._dynamics.has_churn
                else None
            )
            waves: tuple[list, list] = ([], [])
            for t in active:
                rng = self.rngs[t]
                pos = self._dynamics.choose_wakeup(rng, round_now, down)
                self._timeslots[t] += 1
                if pos is None:
                    continue
                entries = self._wakeup(t, pos)
                wave_slot = 0
                for entry in entries:
                    self._messages_sent[t] += 1
                    if self._churn_drops(t, entry, down):
                        self._churn_dropped[t] += 1
                        continue
                    if (
                        self._loss_probability > 0
                        and rng.random() < self._loss_probability
                    ):
                        self._dropped_messages[t] += 1
                        continue
                    if entry[0] == _RLNC:
                        waves[wave_slot].append((entry[1], entry[2], t))
                        wave_slot += 1
                    elif self._apply_tree_payload(t, entry[1], entry[2], entry[3]):
                        self._helpful_messages[t] += 1
            for wave in waves:
                if wave:
                    self._apply_rows(wave)
            still_active = []
            for t in active:
                round_now = -(-int(self._timeslots[t]) // self._n)
                self._note_completions(t, round_now)
                if self._trial_complete(t):
                    rounds[t] = round_now
                    completed[t] = True
                else:
                    still_active.append(t)
            active = still_active
        return rounds, completed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _trial_complete(self, t: int) -> bool:
        return bool(np.all(self._finished_mask(t)))

    def _note_completions(self, t: int, round_index: int) -> None:
        newly = self._finished_mask(t) & ~self._noted[t]
        if newly.any():
            for pos in np.nonzero(newly)[0]:
                self._completion_rounds[t][self._nodes[pos]] = round_index
            self._noted[t][newly] = True

    def _churn_drops(
        self, t: int, entry: tuple, down: np.ndarray | None
    ) -> bool:
        """Does churn kill this delivery entry (sender or receiver down)?"""
        if down is None:
            return False
        if entry[0] == _RLNC:
            receiver_pos = entry[1] - t * self._n
            sender_pos = entry[3]
        else:
            receiver_pos, sender_pos = entry[1], entry[2]
        return bool(down[receiver_pos] or down[sender_pos])

    def _collect_wakeups(
        self, active: list[int], down: np.ndarray | None = None
    ) -> list[tuple[int, list[tuple]]]:
        """Synchronous wakeup phase: all draws, no decoder/tree mutation."""
        pending: list[tuple[int, list[tuple]]] = []
        for t in active:
            trial_pending: list[tuple] = []
            for pos in range(self._n):
                if down is not None and down[pos]:
                    continue
                trial_pending.extend(self._wakeup(t, pos))
            pending.append((t, trial_pending))
        return pending

    def _deliver_in_waves(
        self,
        pending: list[tuple[int, list[tuple]]],
        down: np.ndarray | None = None,
    ) -> None:
        """End-of-round delivery: loss draws in pending order, then waves.

        Tree payloads are applied inline (per-trial scalar state, no random
        draws); coded rows are queued per receiving decoder — FIFO order per
        receiver preserved — and absorbed in depth waves, one vectorised
        sweep per depth.  Churn drops (down sender or receiver) happen before
        the loss draw, exactly as in the sequential engine.
        """
        queues: dict[int, list[tuple[np.ndarray, int]]] = {}
        for t, trial_pending in pending:
            rng = self.rngs[t]
            for entry in trial_pending:
                self._messages_sent[t] += 1
                if self._churn_drops(t, entry, down):
                    self._churn_dropped[t] += 1
                    continue
                if (
                    self._loss_probability > 0
                    and rng.random() < self._loss_probability
                ):
                    self._dropped_messages[t] += 1
                    continue
                if entry[0] == _RLNC:
                    queues.setdefault(entry[1], []).append((entry[2], t))
                elif self._apply_tree_payload(t, entry[1], entry[2], entry[3]):
                    self._helpful_messages[t] += 1
        depth = 0
        while True:
            wave = [
                (problem, entries[depth][0], entries[depth][1])
                for problem, entries in queues.items()
                if len(entries) > depth
            ]
            if not wave:
                break
            self._apply_rows(wave)
            depth += 1


class RlncBatchMixin:
    """Decoder grid shared by the RLNC-carrying batch engines.

    Adds a :class:`~repro.rlnc.batch.BatchDecoder` spanning ``trials x n``
    problems, seeds it from the per-trial scalar decoders (so construction
    time state matches exactly), and provides the rank-based completion mask
    plus the vectorised encode / receive steps.
    """

    _decoder: BatchDecoder

    def _init_decoder_grid(self) -> None:
        first = self.processes[0]
        self.field = first.generation.field
        self.k = first.generation.k
        for process in self.processes:
            if process.generation.k != self.k or process.generation.field != self.field:
                raise SimulationError("all batched trials must share k and the field")
        self._decoder = BatchDecoder(self.field, self.k, self.trials * self._n)
        self._seed_from_processes()

    def _seed_from_processes(self) -> None:
        """Absorb every trial decoder's initial rows into the batch state.

        Rows are grouped into depth waves — the ``d``-th stored row of every
        problem in one vectorised sweep — mirroring how deliveries are waved
        during the run, so even an all-to-all start costs ``max_rows`` sweeps
        rather than one eliminate call per node per trial.
        """
        initial_rows: dict[int, np.ndarray] = {}
        max_depth = 0
        for t, process in enumerate(self.processes):
            base = t * self._n
            for node, decoder in process.decoders.items():
                matrix = decoder.coefficient_matrix()
                if matrix.shape[0]:
                    initial_rows[base + self._pos[node]] = matrix
                    max_depth = max(max_depth, matrix.shape[0])
        for depth in range(max_depth):
            indices = [
                problem for problem, matrix in initial_rows.items()
                if matrix.shape[0] > depth
            ]
            rows = np.stack([initial_rows[problem][depth] for problem in indices])
            self._decoder.receive(rows, np.asarray(indices, dtype=np.int64))

    def _trial_ranks(self, t: int) -> np.ndarray:
        return self._decoder.ranks[t * self._n : (t + 1) * self._n]

    def _finished_mask(self, t: int) -> np.ndarray:
        return self._trial_ranks(t) == self.k

    def _encode(self, problem: int, rng: np.random.Generator) -> np.ndarray | None:
        """One freshly coded coefficient vector, or ``None`` at rank zero."""
        rank = int(self._decoder.ranks[problem])
        if rank == 0:
            return None
        coefficients = self.field.random_elements(rng, rank)
        return self._decoder.encode(problem, coefficients)

    def _apply_rows(self, wave: list[tuple[int, np.ndarray, int]]) -> None:
        """One vectorised sweep: at most one row per receiving decoder."""
        if not wave:
            return
        indices = np.fromiter((entry[0] for entry in wave), dtype=np.int64, count=len(wave))
        rows = np.stack([entry[1] for entry in wave])
        trials = np.fromiter((entry[2] for entry in wave), dtype=np.int64, count=len(wave))
        helpful = self._decoder.receive(rows, indices)
        np.add.at(self._helpful_messages, trials[helpful], 1)


class BatchGossipEngine(RlncBatchMixin, BatchEngineCore):
    """Run ``T`` trials of a rank-only gossip process as one vectorised system.

    Parameters
    ----------
    graph:
        The communication graph shared by all trials.
    processes:
        One protocol instance per trial, each already constructed with that
        trial's generator (so any setup-time draws — e.g. random payloads —
        have been consumed exactly as in the sequential path).  Every process
        must report :meth:`~repro.gossip.engine.GossipProcess.supports_rank_only_batch`.
    config:
        The shared simulation configuration.
    rngs:
        The per-trial generators, aligned with ``processes``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        processes: list[GossipProcess],
        config: SimulationConfig,
        rngs: list[np.random.Generator],
    ) -> None:
        super().__init__(graph, processes, config, rngs)
        for process in processes:
            if not self.is_batchable(process):
                raise SimulationError(
                    f"{type(process).__name__} does not support the rank-only "
                    "batch fast path; use GossipEngine per trial instead"
                )
        first = processes[0]
        for process in processes:
            if process.action is not first.action:
                raise SimulationError("all batched trials must share the gossip action")
        self.action = first.action
        self._init_decoder_grid()

    @staticmethod
    def is_batchable(process: GossipProcess) -> bool:
        """Does ``process`` opt in to the rank-only batch fast path?"""
        return bool(process.supports_rank_only_batch())

    def _wakeup(self, t: int, pos: int) -> list[tuple]:
        """Replicate ``AlgebraicGossip.on_wakeup`` against the batch state.

        Returns ``("r", receiver_problem, coefficient_row, sender_pos)``
        entries; the random draws (partner, then sender coefficients in
        PUSH-then-PULL order) match the scalar protocol call-for-call.
        """
        rng = self.rngs[t]
        process = self.processes[t]
        partner = process.selector.partner(self._nodes[pos], rng)
        if partner is None:
            return []
        base = t * self._n
        ppos = self._pos[partner]
        entries: list[tuple] = []
        if self.action in (GossipAction.PUSH, GossipAction.EXCHANGE):
            row = self._encode(base + pos, rng)
            if row is not None:
                entries.append((_RLNC, base + ppos, row, pos))
        if self.action in (GossipAction.PULL, GossipAction.EXCHANGE):
            row = self._encode(base + ppos, rng)
            if row is not None:
                entries.append((_RLNC, base + pos, row, ppos))
        return entries

    def _trial_metadata(self, t: int) -> dict[str, Any]:
        metadata = dict(self.processes[t].metadata())
        metadata["min_rank"] = int(self._trial_ranks(t).min())
        return metadata


def run_rank_only_batch(
    graph: nx.Graph,
    processes: list[GossipProcess],
    config: SimulationConfig,
    rngs: list[np.random.Generator],
) -> list[RunResult]:
    """Batch executor for rank-only protocols (the default strategy target)."""
    return BatchGossipEngine(graph, processes, config, rngs).run()
