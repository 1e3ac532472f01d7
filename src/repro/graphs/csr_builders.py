"""Direct-CSR topology generators and :func:`build_graph`, the scenario graph.

Every builder here produces a :class:`~repro.graphs.csr.CSRGraph` whose
``(indptr, indices)`` are **byte-identical** to
``csr_adjacency(networkx_builder(n, **kwargs))`` for the same arguments —
same validation errors, same seed-derived retry loops, same sampled edges.
The networkx builders in :mod:`repro.graphs.topologies` stay the reference;
``tests/test_csr_pipeline.py`` asserts the equivalence for every family
registered here across sizes and seeds.

The point is scale: at n = 10^5 the networkx object behind a scenario costs
~10 s and most of ~500 MiB peak RSS, while the event-driven engine only reads
the CSR arrays.  Emitting those arrays directly makes n = 10^6 materialise in
seconds within a few hundred MiB.

The random families replicate the exact sampling algorithms of networkx
(Batagelj–Brandes for ``G(n, p)``, Steger–Wormald pairing for random regular
graphs, Watts–Strogatz rewiring) against the same ``random.Random`` streams,
because byte-identity per seed is the contract that lets both pipelines share
one scenario fingerprint and one result store.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import defaultdict
from typing import Callable, TypeVar

import numpy as np

from ..errors import TopologyError
from .csr import CSRGraph, csr_from_edges
from .topologies import (
    TOPOLOGY_BUILDERS,
    _check_size,
    _keyed_cache_get,
    _keyed_cache_put,
    _KEYED_CSR,
    build_topology,
    csr_adjacency,
    topology_cache_key,
    two_dimensional_side,
)

__all__ = [
    "CSR_BUILDERS",
    "register_csr_topology",
    "has_csr_builder",
    "build_csr_topology",
    "build_graph",
]

#: Registry mapping a topology name to its direct-CSR builder.  Strictly a
#: subset of :data:`~repro.graphs.topologies.TOPOLOGY_BUILDERS`: a direct
#: builder is an optimisation of an existing networkx reference, never a new
#: family of its own.
CSR_BUILDERS: dict[str, Callable[..., CSRGraph]] = {}

_Builder = TypeVar("_Builder", bound=Callable[..., CSRGraph])


def register_csr_topology(name: str) -> Callable[[_Builder], _Builder]:
    """Register a direct-CSR builder shadowing the networkx reference ``name``.

    The networkx builder must already exist — the direct path is only ever a
    byte-identical accelerated twin, so registering a CSR builder without its
    reference is a :class:`~repro.errors.TopologyError`.
    """

    def decorate(builder: _Builder) -> _Builder:
        if name not in TOPOLOGY_BUILDERS:
            raise TopologyError(
                f"cannot register CSR builder {name!r}: no networkx reference "
                f"builder of that name (register_topology first)"
            )
        if name in CSR_BUILDERS:
            raise TopologyError(f"CSR topology {name!r} is already registered")
        CSR_BUILDERS[name] = builder
        return builder

    return decorate


def has_csr_builder(name: str) -> bool:
    """Whether ``name`` has a direct-CSR builder (i.e. can skip networkx)."""
    return name in CSR_BUILDERS


def build_csr_topology(
    name: str, n: int, *, use_cache: bool = True, **kwargs
) -> CSRGraph:
    """Build a topology by registry name straight to CSR, bypassing networkx.

    Consults the same keyed adjacency cache as
    :func:`~repro.graphs.topologies.csr_adjacency`, so the two pipelines share
    one construction per ``(name, n, kwargs)`` no matter which ran first.
    Pass ``use_cache=False`` to force a cold build (the stats CLI uses this to
    report honest materialise timings).

    Raises
    ------
    TopologyError:
        If the name is unknown, or known but not yet converted to the
        direct-CSR path.
    """
    builder = CSR_BUILDERS.get(name)
    if builder is None:
        if name not in TOPOLOGY_BUILDERS:
            raise TopologyError(
                f"unknown topology {name!r}; known: {sorted(TOPOLOGY_BUILDERS)}"
            )
        raise TopologyError(
            f"topology {name!r} has no direct-CSR builder (families converted "
            f"so far: {sorted(CSR_BUILDERS)}); build it through "
            f"build_topology + csr_adjacency instead"
        )
    key = topology_cache_key(name, n, kwargs)
    if use_cache:
        entry = _keyed_cache_get(_KEYED_CSR, key)
        if entry is not None:
            indptr, indices = entry[1]
            return CSRGraph(len(indptr) - 1, indptr, indices)
    graph = builder(n, **kwargs)
    if use_cache:
        shape = (graph.number_of_nodes(), graph.number_of_edges())
        _keyed_cache_put(_KEYED_CSR, key, (shape, (graph.indptr, graph.indices)))
    return graph


def build_graph(name: str, n: int, *, use_cache: bool = True, **kwargs) -> CSRGraph:
    """Build any registered topology as the :class:`CSRGraph` scenarios run on.

    Families with a direct-CSR builder never touch networkx.  The others are
    built by their networkx builder and flattened with
    :func:`~repro.graphs.topologies.csr_adjacency`, and the ``nx.Graph`` is
    dropped.  Both paths read and fill the keyed adjacency cache;
    ``use_cache=False`` forces a cold build on both.
    """
    if has_csr_builder(name):
        return build_csr_topology(name, n, use_cache=use_cache, **kwargs)
    if use_cache:
        graph = build_topology(name, n, **kwargs)
    else:
        # The raw builder leaves the graph without build_topology's cache-key
        # stamp, so the conversion below is cold too.
        graph = TOPOLOGY_BUILDERS[name](n, **kwargs)
    indptr, indices = csr_adjacency(graph)
    return CSRGraph(len(indptr) - 1, indptr, indices)


# ----------------------------------------------------------------------
# Deterministic families: vectorised edge-list emission.
# ----------------------------------------------------------------------


@register_csr_topology("line")
def line_csr(n: int) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.line_graph`."""
    _check_size(n)
    left = np.arange(n - 1, dtype=np.int64)
    return csr_from_edges(n, left, left + 1)


@register_csr_topology("ring")
def ring_csr(n: int) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.ring_graph`."""
    _check_size(n, minimum=3)
    nodes = np.arange(n, dtype=np.int64)
    return csr_from_edges(n, nodes, np.roll(nodes, -1))


@register_csr_topology("grid")
def grid_csr(n: int) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.grid_graph`."""
    _check_size(n, minimum=4)
    side = two_dimensional_side(n)
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    sources = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    targets = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return csr_from_edges(side * side, sources, targets)


@register_csr_topology("torus")
def torus_csr(n: int) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.torus_graph`."""
    _check_size(n, minimum=9)
    side = two_dimensional_side(n)
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    flat = ids.ravel()
    # side >= 3, so the wraparound neighbours are distinct from the inner
    # ones and every undirected edge is emitted exactly once.
    sources = np.concatenate([flat, flat])
    targets = np.concatenate(
        [np.roll(ids, -1, axis=1).ravel(), np.roll(ids, -1, axis=0).ravel()]
    )
    return csr_from_edges(side * side, sources, targets)


@register_csr_topology("ring_of_cliques")
def ring_of_cliques_csr(n: int, cliques: int = 4) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.ring_of_cliques_graph`."""
    _check_size(n, minimum=2 * cliques)
    if cliques < 3:
        raise TopologyError(
            f"ring_of_cliques_graph needs at least 3 cliques to form a ring, got {cliques}"
        )
    size = n // cliques
    if size < 2:
        raise TopologyError(
            f"ring_of_cliques_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    counts = np.full(cliques, size, dtype=np.int64)
    counts[: n - size * cliques] += 1
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    triu: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for index in range(cliques):
        count = int(counts[index])
        if count not in triu:
            rows, cols = np.triu_indices(count, k=1)
            triu[count] = (rows.astype(np.int64), cols.astype(np.int64))
        rows, cols = triu[count]
        sources.append(rows + offsets[index])
        targets.append(cols + offsets[index])
    firsts = offsets[:-1]
    lasts = offsets[1:] - 1
    sources.append(lasts[:-1])
    targets.append(firsts[1:])
    sources.append(lasts[-1:])
    targets.append(firsts[:1])
    return csr_from_edges(n, np.concatenate(sources), np.concatenate(targets))


# ----------------------------------------------------------------------
# Random families: exact replicas of the networkx sampling algorithms fed by
# the same random.Random streams the wrappers derive from their seeds.
# ----------------------------------------------------------------------


def _fast_gnp_edges(n: int, p: float, seed: random.Random) -> CSRGraph:
    """Batagelj–Brandes ``G(n, p)`` sampler, stream-identical to
    ``nx.fast_gnp_random_graph``; edges land in compact int64 arrays."""
    if p >= 1.0:
        # fast_gnp delegates to gnp_random_graph, which returns the complete
        # graph without consuming any draws.
        rows, cols = np.triu_indices(n, k=1)
        return csr_from_edges(n, rows.astype(np.int64), cols.astype(np.int64))
    sources = array("q")
    targets = array("q")
    lp = math.log(1.0 - p)
    log = math.log
    draw = seed.random
    v = 1
    w = -1
    while v < n:
        lr = log(1.0 - draw())
        w = w + 1 + int(lr / lp)
        while w >= v and v < n:
            w = w - v
            v = v + 1
        if v < n:
            sources.append(v)
            targets.append(w)
    return csr_from_edges(
        n, np.frombuffer(sources, dtype=np.int64), np.frombuffer(targets, dtype=np.int64)
    )


@register_csr_topology("erdos_renyi_logn")
def erdos_renyi_logn_csr(n: int, c: float = 2.0, seed: int = 0) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.erdos_renyi_logn_graph`."""
    _check_size(n, minimum=4)
    if c <= 1.0:
        raise TopologyError(
            f"c must exceed 1 (the connectivity threshold of G(n, c log n / n)), got {c}"
        )
    p = min(1.0, c * math.log(n) / n)
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        graph = _fast_gnp_edges(n, p, random.Random(int(rng.integers(0, 2**31))))
        if graph.is_connected():
            return graph
        p = min(1.0, p * 1.2)
    raise TopologyError(
        f"failed to sample a connected G({n}, {c} log n / n) graph"
    )  # pragma: no cover - overwhelmingly unlikely for c > 1


def _random_regular_edges(d: int, n: int, seed: random.Random) -> set[tuple[int, int]]:
    """Steger–Wormald pairing, stream-identical to ``nx.random_regular_graph``."""

    def _suitable(edges, potential_edges):
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def _try_creation():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            potential_edges = defaultdict(lambda: 0)
            seed.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and ((s1, s2) not in edges):
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not _suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = _try_creation()
    while edges is None:
        edges = _try_creation()
    return edges


def _regular_csr(n: int, degree: int, seed: int, failure: str) -> CSRGraph:
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        edges = _random_regular_edges(degree, n, random.Random(int(rng.integers(0, 2**31))))
        sources = np.fromiter((u for u, _ in edges), dtype=np.int64, count=len(edges))
        targets = np.fromiter((v for _, v in edges), dtype=np.int64, count=len(edges))
        graph = csr_from_edges(n, sources, targets)
        if graph.is_connected():
            return graph
    raise TopologyError(failure)  # pragma: no cover - overwhelmingly unlikely


@register_csr_topology("random_regular")
def random_regular_csr(n: int, degree: int = 3, seed: int = 0) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.random_regular_graph`."""
    _check_size(n, minimum=degree + 1)
    if degree < 2:
        raise TopologyError(f"degree must be at least 2, got {degree}")
    if (n * degree) % 2 != 0:
        n += 1  # a d-regular graph needs n*d even
    return _regular_csr(
        n, degree, seed,
        f"failed to sample a connected {degree}-regular graph on {n} nodes",
    )


@register_csr_topology("expander")
def expander_csr(n: int, seed: int = 0) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.expander_graph`."""
    return random_regular_csr(n, degree=4, seed=seed)


def _watts_strogatz_adjacency(
    n: int, k: int, p: float, seed: random.Random
) -> list[set[int]]:
    """Watts–Strogatz lattice + rewiring, stream-identical to
    ``nx.watts_strogatz_graph`` (the wrapper guarantees ``2 <= k < n``)."""
    adjacency: list[set[int]] = [set() for _ in range(n)]
    nodes = list(range(n))
    for j in range(1, k // 2 + 1):
        targets = nodes[j:] + nodes[0:j]
        for u, w in zip(nodes, targets):
            adjacency[u].add(w)
            adjacency[w].add(u)
    for j in range(1, k // 2 + 1):
        targets = nodes[j:] + nodes[0:j]
        for u, v in zip(nodes, targets):
            if seed.random() < p:
                w = seed.choice(nodes)
                while w == u or w in adjacency[u]:
                    w = seed.choice(nodes)
                    if len(adjacency[u]) >= n - 1:
                        break  # skip this rewiring
                else:
                    # The lattice edge (u, v) is always still present here:
                    # distinct lattice edges are distinct pairs (offsets j and
                    # n - j cannot both be <= k // 2 < n / 2) and rewiring only
                    # ever removes the edge currently being processed.
                    adjacency[u].remove(v)
                    adjacency[v].remove(u)
                    adjacency[u].add(w)
                    adjacency[w].add(u)
    return adjacency


def _csr_from_adjacency_sets(adjacency: list[set[int]]) -> CSRGraph:
    n = len(adjacency)
    degrees = np.fromiter((len(nbrs) for nbrs in adjacency), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(
        (w for nbrs in adjacency for w in sorted(nbrs)),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return CSRGraph(n, indptr, indices)


@register_csr_topology("small_world")
def small_world_csr(
    n: int, neighbours: int = 4, rewire_probability: float = 0.1, seed: int = 0
) -> CSRGraph:
    """Direct-CSR twin of :func:`~repro.graphs.topologies.small_world_graph`."""
    _check_size(n, minimum=8)
    if neighbours < 2 or neighbours >= n:
        raise TopologyError(f"neighbours must lie in [2, n), got {neighbours}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise TopologyError(
            f"rewire_probability must lie in [0, 1], got {rewire_probability}"
        )
    # connected_watts_strogatz_graph shares one random.Random across tries.
    sampler = random.Random(seed)
    for attempt in range(200):
        adjacency = _watts_strogatz_adjacency(n, neighbours, rewire_probability, sampler)
        graph = _csr_from_adjacency_sets(adjacency)
        if graph.is_connected():
            return graph
    raise TopologyError(
        f"failed to sample a connected small-world graph on {n} nodes in 200 tries"
    )  # pragma: no cover - overwhelmingly unlikely
