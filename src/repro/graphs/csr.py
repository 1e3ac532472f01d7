"""A graph-free adjacency container: just ``(n, indptr, indices)``.

At n = 10^5 the :class:`networkx.Graph` behind a scenario dominates both
materialize time (~10 s) and peak RSS (~500 MiB) while the event-driven
engine only ever reads the CSR arrays that :func:`repro.graphs.csr_adjacency`
derives from it.  :class:`CSRGraph` *is* those arrays — node labels are the
consecutive integers ``0 .. n-1`` (identical to the positions every builder in
:mod:`repro.graphs.topologies` produces after relabelling), the neighbours of
node ``p`` are ``indices[indptr[p]:indptr[p+1]]`` in ascending order, and both
arrays are read-only ``int64`` — byte-identical to what ``csr_adjacency``
would return for the equivalent networkx graph.

Every materialised scenario runs on a :class:`CSRGraph`, whichever builder
made it.  The class mirrors the :class:`networkx.Graph` surface points the
engines, protocols and placements touch (``number_of_nodes``, ``nodes()``,
``neighbors``, ``degree``, containment), so the same code paths accept
either representation; only the graph algorithms the science needs
(conductance, spanning-tree diameters) keep requiring a networkx object.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRGraph", "csr_from_edges", "csr_bfs_distances"]


def csr_bfs_distances(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> np.ndarray:
    """BFS hop distances from ``source`` over a CSR adjacency (-1 = unreachable).

    Vectorised frontier expansion: each level gathers every neighbour of the
    frontier with one flat fancy-index, so the python-level cost is
    O(diameter) instead of O(V + E) — the event pipeline's connectivity and
    farthest-node queries at n = 10^6 stay sub-second.
    """
    n = len(indptr) - 1
    distances = np.full(n, -1, dtype=np.int64)
    distances[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Flat multi-range gather: positions of every neighbour of the frontier.
        ends = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
        neighbours = indices[flat]
        fresh = np.unique(neighbours[distances[neighbours] < 0])
        if fresh.size == 0:
            break
        level += 1
        distances[fresh] = level
        frontier = fresh
    return distances


def csr_from_edges(n: int, sources: np.ndarray, targets: np.ndarray) -> "CSRGraph":
    """Build a :class:`CSRGraph` from one undirected edge list.

    ``sources[i]–targets[i]`` are the distinct undirected edges (no
    duplicates, no self-loops — every generator in
    :mod:`repro.graphs.csr_builders` guarantees this by construction).  Both
    directions are emitted and sorted so each node's neighbours come out
    ascending, matching :func:`repro.graphs.csr_adjacency` byte for byte.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    src = np.concatenate([sources, targets])
    dst = np.concatenate([targets, sources])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    degrees = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return CSRGraph(n, indptr, np.ascontiguousarray(dst))


class _DegreeView:
    """The tiny slice of networkx's degree view the scenario layer uses."""

    def __init__(self, graph: "CSRGraph") -> None:
        self._graph = graph

    def __getitem__(self, node: int) -> int:
        graph = self._graph
        return int(graph.indptr[node + 1] - graph.indptr[node])

    def __call__(self, node: int | None = None):
        """``degree(node)`` is one degree; ``degree()`` the ``(node, degree)`` view."""
        return self if node is None else self[node]

    def __iter__(self):
        indptr = self._graph.indptr
        for node in range(self._graph.n):
            yield node, int(indptr[node + 1] - indptr[node])


class CSRGraph:
    """Read-only undirected graph as CSR arrays; nodes are ``0 .. n-1``.

    ``indptr`` (``n + 1`` int64) and ``indices`` (``2m`` int64, each node's
    neighbours ascending) follow exactly the :func:`repro.graphs.csr_adjacency`
    contract, so ``csr_adjacency(CSRGraph(...))`` returns the arrays as-is and
    every direct generator can be checked byte-for-byte against its networkx
    reference.
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape != (n + 1,):
            raise ValueError(f"indptr must have shape ({n + 1},), got {indptr.shape}")
        if indices.shape != (int(indptr[-1]),):
            raise ValueError(
                f"indices must have shape ({int(indptr[-1])},), got {indices.shape}"
            )
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self._connected: bool | None = None
        self._neighbor_lists: dict[int, tuple[int, ...]] | None = None

    # -- the networkx surface the scenario/event layers touch ------------
    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return len(self.indices) // 2

    def nodes(self) -> range:
        return range(self.n)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(range(self.n))

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= int(node) < self.n

    def neighbors(self, node: int):
        start, stop = int(self.indptr[node]), int(self.indptr[node + 1])
        return iter(self.indices[start:stop].tolist())

    @property
    def degree(self) -> _DegreeView:
        return _DegreeView(self)

    # -- CSR-native extras ------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Degree of every node as one int64 array."""
        return np.diff(self.indptr)

    def neighbor_lists(self) -> dict[int, tuple[int, ...]]:
        """Sorted neighbour tuple per node, derived once from the CSR arrays.

        The same mapping :func:`repro.graphs.neighbor_lists` builds for a
        networkx graph (python ints, ascending), so partner selectors draw
        against one ordering whichever representation they are handed.
        """
        if self._neighbor_lists is None:
            flat = self.indices.tolist()
            bounds = self.indptr.tolist()
            self._neighbor_lists = {
                node: tuple(flat[bounds[node] : bounds[node + 1]])
                for node in range(self.n)
            }
        return self._neighbor_lists

    def is_connected(self) -> bool:
        """Whether the graph is connected (memoized; vectorised BFS)."""
        if self._connected is None:
            if self.n == 0:
                self._connected = True
            else:
                distances = csr_bfs_distances(self.indptr, self.indices, 0)
                self._connected = bool((distances >= 0).all())
        return self._connected

    # -- pickling (worker processes receive the graph by value) ----------
    def __getstate__(self) -> dict:
        return {"n": self.n, "indptr": self.indptr, "indices": self.indices}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["n"], state["indptr"], state["indices"])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRGraph(n={self.n}, m={self.number_of_edges()})"
