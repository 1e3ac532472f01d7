"""Graph topology generators used throughout the paper.

Every generator returns a connected, undirected :class:`networkx.Graph` whose
nodes are consecutive integers ``0 .. n-1``.  The families cover everything
the paper mentions explicitly:

* constant-maximum-degree graphs where uniform algebraic gossip is order
  optimal (Theorem 3): line, ring, 2-D grid, torus, binary tree, bounded-degree
  random regular graphs, hypercube-like constructions;
* the complete graph (Deb et al.'s original setting);
* the **barbell graph** — two cliques joined by a single edge — which is the
  worst case for uniform algebraic gossip (Ω(n²) rounds, Section 1.1) but has
  large weak conductance, so TAG + IS is fast on it (Section 6);
* generalisations used by the weak-conductance experiments: the dumbbell
  (cliques joined by a path) and the clique chain (``c`` cliques in a row);
* random graphs (Erdős–Rényi, random regular) for robustness experiments.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from typing import Callable, TypeVar

import networkx as nx
import numpy as np

from ..errors import TopologyError
from .csr import CSRGraph

#: Non-builder exports; every ``@register_topology``-decorated builder is
#: appended automatically, so ``__all__`` and :data:`TOPOLOGY_BUILDERS` can
#: never drift from the generators actually defined in this module.
__all__ = [
    "two_dimensional_side",
    "TOPOLOGY_BUILDERS",
    "register_topology",
    "build_topology",
    "topology_cache_key",
    "is_connected",
    "sorted_nodes",
    "neighbor_lists",
    "csr_adjacency",
]

#: Registry mapping a topology name to its builder.  Populated exclusively by
#: :func:`register_topology`; experiment definitions, scenario specs and
#: benchmark parameterisations refer to topologies by these names.
TOPOLOGY_BUILDERS: dict[str, Callable[..., nx.Graph]] = {}

_Builder = TypeVar("_Builder", bound=Callable[..., nx.Graph])


def register_topology(name: str) -> Callable[[_Builder], _Builder]:
    """Register a topology builder under ``name`` (and export it).

    Every generator in this module carries this decorator; it is also the
    extension point for user-defined families::

        @register_topology("my_mesh")
        def my_mesh_graph(n: int) -> nx.Graph: ...

    Builders must return a connected, undirected graph whose nodes are the
    consecutive integers ``0 .. n-1`` (``tests/test_graphs_topologies.py``
    asserts this for every registered entry).
    """

    def decorate(builder: _Builder) -> _Builder:
        if name in TOPOLOGY_BUILDERS:
            raise TopologyError(f"topology {name!r} is already registered")
        TOPOLOGY_BUILDERS[name] = builder
        if builder.__name__ not in __all__:
            __all__.append(builder.__name__)
        return builder

    return decorate


# Memoized adjacency.  Trial runners reuse one graph object across every
# trial of a sweep, so the sorted neighbour lists (and the CSR form the
# event-driven engine walks) are built once per graph instead of once per
# trial.  Two cache tiers serve this:
#
# * a *keyed* LRU, indexed by the (name, n, kwargs) fingerprint
#   :func:`build_topology` stamps on every graph it returns.  Because the key
#   is value-like, the direct-CSR builders (`build_csr_topology`) and
#   flattened networkx graphs share entries — whichever materialises first,
#   the other reuses its arrays.  The capacity bound keeps large-n arrays from pinning
#   memory across sweeps over many topologies.
# * the per-instance WeakKeyDictionary fallback for unstamped graphs (built
#   directly, not through `build_topology`).  The (nodes, edges) shape guard
#   protects both tiers against in-place mutation.
_KEYED_CACHE_CAPACITY = 8
_KEYED_CSR: "OrderedDict[tuple, tuple]" = OrderedDict()
_KEYED_NEIGHBORS: "OrderedDict[tuple, tuple]" = OrderedDict()
_NEIGHBOR_CACHE: "weakref.WeakKeyDictionary[nx.Graph, tuple]" = (
    weakref.WeakKeyDictionary()
)
_CSR_CACHE: "weakref.WeakKeyDictionary[nx.Graph, tuple]" = weakref.WeakKeyDictionary()


def topology_cache_key(name: str, n: int, kwargs: dict) -> tuple:
    """Value-identity of one ``build_topology``/``build_csr_topology`` call.

    Hashable and deterministic: ``(name, n, sorted kwarg items)``.  Equal keys
    mean "the same graph down to the last edge" (builders are seed-derived
    deterministic functions of exactly these arguments), which is what lets
    the adjacency caches serve both materialization pipelines.
    """
    return (name, int(n), tuple(sorted(kwargs.items())))


def _keyed_cache_get(cache: "OrderedDict[tuple, tuple]", key: tuple):
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
    return entry


def _keyed_cache_put(cache: "OrderedDict[tuple, tuple]", key: tuple, entry: tuple) -> None:
    cache[key] = entry
    cache.move_to_end(key)
    while len(cache) > _KEYED_CACHE_CAPACITY:
        cache.popitem(last=False)


def is_connected(graph) -> bool:
    """Whether ``graph`` (a networkx graph or a :class:`CSRGraph`) is connected.

    The one connectivity check of the engines, spanning trees and graph
    properties: a :class:`CSRGraph` answers with its memoized vectorised BFS,
    a networkx graph through :func:`networkx.is_connected`.
    """
    if isinstance(graph, CSRGraph):
        return graph.is_connected()
    return nx.is_connected(graph)


def sorted_nodes(graph) -> "range | list[int]":
    """The nodes in ascending order: the position order every engine indexes.

    A :class:`CSRGraph`'s nodes are exactly ``0..n-1``, so its ``range``
    serves as-is and no O(n) list is built at large ``n``.
    """
    if isinstance(graph, CSRGraph):
        return graph.nodes()
    return sorted(graph.nodes())


def neighbor_lists(graph) -> dict[int, tuple[int, ...]]:
    """Sorted neighbour tuple per node, memoized.

    This is the neighbour ordering every partner selector draws against
    (``tuple(sorted(graph.neighbors(node)))``), so consumers share one
    construction per graph rather than rebuilding adjacency per trial.
    A :class:`CSRGraph` derives it once from its own arrays; networkx graphs
    stamped by :func:`build_topology` share entries by value key, unstamped
    instances fall back to the per-instance cache.  Callers must treat the
    returned mapping as immutable.
    """
    if isinstance(graph, CSRGraph):
        return graph.neighbor_lists()
    shape = (graph.number_of_nodes(), graph.number_of_edges())
    key = graph.graph.get("topology_cache_key")
    if key is not None:
        entry = _keyed_cache_get(_KEYED_NEIGHBORS, key)
        if entry is not None and entry[0] == shape:
            return entry[1]
    cached = _NEIGHBOR_CACHE.get(graph)
    if cached is not None and cached[0] == shape:
        return cached[1]
    lists = {node: tuple(sorted(graph.neighbors(node))) for node in graph.nodes()}
    _NEIGHBOR_CACHE[graph] = (shape, lists)
    if key is not None:
        _keyed_cache_put(_KEYED_NEIGHBORS, key, (shape, lists))
    return lists


def csr_adjacency(graph) -> tuple[np.ndarray, np.ndarray]:
    """Compressed-sparse-row adjacency in node-*position* space, memoized.

    Returns ``(indptr, indices)``: the neighbours of the node at position
    ``p`` of ``sorted(graph.nodes())`` are ``indices[indptr[p]:indptr[p+1]]``
    (themselves positions, in ascending node order — the same ordering
    :func:`neighbor_lists` exposes).  Both arrays are read-only; this is the
    O(E) structure the event-driven engine walks instead of an n×n matrix.

    A :class:`~repro.graphs.csr.CSRGraph` *is* this structure already and is
    returned as-is; stamped networkx graphs share entries with the direct-CSR
    builders through the keyed cache.
    """
    if isinstance(graph, CSRGraph):
        return graph.indptr, graph.indices
    shape = (graph.number_of_nodes(), graph.number_of_edges())
    key = graph.graph.get("topology_cache_key")
    if key is not None:
        entry = _keyed_cache_get(_KEYED_CSR, key)
        if entry is not None and entry[0] == shape:
            return entry[1]
    cached = _CSR_CACHE.get(graph)
    if cached is not None and cached[0] == shape:
        return cached[1]
    lists = neighbor_lists(graph)
    nodes = sorted(lists)
    pos = {node: index for index, node in enumerate(nodes)}
    degrees = np.fromiter((len(lists[node]) for node in nodes), dtype=np.int64,
                          count=len(nodes))
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(
        (pos[neighbor] for node in nodes for neighbor in lists[node]),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    indptr.setflags(write=False)
    indices.setflags(write=False)
    _CSR_CACHE[graph] = (shape, (indptr, indices))
    if key is not None:
        _keyed_cache_put(_KEYED_CSR, key, (shape, (indptr, indices)))
    return indptr, indices


def _relabel_consecutive(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to ``0 .. n-1`` preserving adjacency."""
    mapping = {node: index for index, node in enumerate(sorted(graph.nodes()))}
    return nx.relabel_nodes(graph, mapping, copy=True)


def _check_size(n: int, minimum: int = 2) -> None:
    if n < minimum:
        raise TopologyError(f"topology requires at least {minimum} nodes, got {n}")


@register_topology("line")
def line_graph(n: int) -> nx.Graph:
    """Path graph on ``n`` nodes: maximum degree 2, diameter ``n - 1``."""
    _check_size(n)
    return nx.path_graph(n)


@register_topology("ring")
def ring_graph(n: int) -> nx.Graph:
    """Cycle on ``n`` nodes: maximum degree 2, diameter ``floor(n / 2)``."""
    _check_size(n, minimum=3)
    return nx.cycle_graph(n)


def two_dimensional_side(n: int) -> int:
    """Side length of the largest square grid with at most ``n`` nodes."""
    return max(2, int(math.isqrt(n)))


@register_topology("grid")
def grid_graph(n: int) -> nx.Graph:
    """Two-dimensional square grid with approximately ``n`` nodes.

    The actual node count is ``side ** 2`` where ``side = floor(sqrt(n))``;
    maximum degree 4 and diameter ``2 (side - 1) = Θ(sqrt n)``.
    """
    _check_size(n, minimum=4)
    side = two_dimensional_side(n)
    graph = nx.grid_2d_graph(side, side)
    return _relabel_consecutive(graph)


@register_topology("torus")
def torus_graph(n: int) -> nx.Graph:
    """Two-dimensional torus (grid with wraparound): 4-regular."""
    _check_size(n, minimum=9)
    side = two_dimensional_side(n)
    graph = nx.grid_2d_graph(side, side, periodic=True)
    return _relabel_consecutive(graph)


@register_topology("complete")
def complete_graph(n: int) -> nx.Graph:
    """Complete graph ``K_n``: diameter 1, maximum degree ``n - 1``."""
    _check_size(n)
    return nx.complete_graph(n)


@register_topology("star")
def star_graph(n: int) -> nx.Graph:
    """Star: one hub connected to ``n - 1`` leaves (diameter 2, Δ = n - 1)."""
    _check_size(n)
    return nx.star_graph(n - 1)


@register_topology("binary_tree")
def binary_tree_graph(n: int) -> nx.Graph:
    """Complete-ish binary tree on exactly ``n`` nodes.

    Node ``i`` has children ``2i + 1`` and ``2i + 2`` when they exist, so the
    maximum degree is 3 and the depth is ``Θ(log n)``.
    """
    _check_size(n)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for node in range(n):
        for child in (2 * node + 1, 2 * node + 2):
            if child < n:
                graph.add_edge(node, child)
    return graph


@register_topology("hypercube")
def hypercube_graph(n: int) -> nx.Graph:
    """Boolean hypercube with ``2 ** round(log2 n)`` nodes (degree = log2 n)."""
    _check_size(n, minimum=4)
    dimension = max(2, int(round(math.log2(n))))
    graph = nx.hypercube_graph(dimension)
    return _relabel_consecutive(graph)


@register_topology("barbell")
def barbell_graph(n: int) -> nx.Graph:
    """The paper's barbell: two cliques of ``n // 2`` nodes joined by one edge.

    This is the canonical "bad" topology for uniform algebraic gossip (Ω(n²)
    rounds for all-to-all, Section 1.1) and the canonical "good" topology for
    the IS protocol (large weak conductance, Section 6).
    """
    _check_size(n, minimum=4)
    half = n // 2
    if half < 2:
        raise TopologyError(f"barbell graph requires at least 4 nodes, got {n}")
    graph = nx.Graph()
    left = list(range(half))
    right = list(range(half, 2 * half))
    for clique in (left, right):
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                graph.add_edge(u, v)
    graph.add_edge(left[-1], right[0])
    # If n is odd, attach the leftover node to the left clique so |V| == n.
    if 2 * half < n:
        extra = 2 * half
        for u in left:
            graph.add_edge(extra, u)
    return graph


@register_topology("dumbbell")
def dumbbell_graph(n: int, path_length: int = 2) -> nx.Graph:
    """Two cliques connected by a path of ``path_length`` intermediate nodes."""
    _check_size(n, minimum=6)
    if path_length < 0:
        raise TopologyError(f"path_length must be non-negative, got {path_length}")
    clique_size = (n - path_length) // 2
    if clique_size < 2:
        raise TopologyError(
            f"dumbbell with n={n}, path_length={path_length} leaves cliques too small"
        )
    graph = nx.Graph()
    left = list(range(clique_size))
    path = list(range(clique_size, clique_size + path_length))
    right = list(range(clique_size + path_length, 2 * clique_size + path_length))
    for clique in (left, right):
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                graph.add_edge(u, v)
    chain = [left[-1], *path, right[0]]
    for u, v in zip(chain, chain[1:]):
        graph.add_edge(u, v)
    # Attach any leftover nodes (from integer division) to the left clique.
    next_node = 2 * clique_size + path_length
    while next_node < n:
        for u in left:
            graph.add_edge(next_node, u)
        next_node += 1
    return graph


@register_topology("clique_chain")
def clique_chain_graph(n: int, cliques: int = 4) -> nx.Graph:
    """``cliques`` equal cliques arranged in a chain, consecutive ones sharing one edge.

    Generalises the barbell (``cliques = 2``).  Its weak conductance for
    ``c >= cliques`` is a constant while its (ordinary) conductance is
    ``O(1/n)``, which is exactly the regime Theorem 7 targets.
    """
    _check_size(n, minimum=2 * cliques)
    if cliques < 2:
        raise TopologyError(f"clique_chain_graph needs at least 2 cliques, got {cliques}")
    size = n // cliques
    if size < 2:
        raise TopologyError(
            f"clique_chain_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    graph = nx.Graph()
    groups: list[list[int]] = []
    next_node = 0
    for index in range(cliques):
        count = size + (1 if index < n - size * cliques else 0)
        group = list(range(next_node, next_node + count))
        next_node += count
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                graph.add_edge(u, v)
        groups.append(group)
    for left, right in zip(groups, groups[1:]):
        graph.add_edge(left[-1], right[0])
    return graph


@register_topology("lollipop")
def lollipop_graph(n: int) -> nx.Graph:
    """Lollipop: a clique of ``n // 2`` nodes with a path of ``n - n//2`` nodes attached.

    A classic slow-mixing graph — the clique traps a random walk while the
    path stretches the diameter — used in robustness sweeps alongside the
    barbell.
    """
    _check_size(n, minimum=6)
    clique_size = n // 2
    path_size = n - clique_size
    graph = nx.lollipop_graph(clique_size, path_size)
    return _relabel_consecutive(graph)


@register_topology("caterpillar")
def caterpillar_graph(n: int, legs_per_spine: int = 2) -> nx.Graph:
    """Caterpillar: a spine path where every spine node carries pendant leaves.

    Constant maximum degree (``legs_per_spine + 2``) with diameter Θ(n), so it
    belongs to the Theorem 3 family but stresses the many-leaves case where
    most nodes have degree 1.
    """
    _check_size(n, minimum=4)
    if legs_per_spine < 1:
        raise TopologyError(f"legs_per_spine must be positive, got {legs_per_spine}")
    graph = nx.Graph()
    spine_length = max(2, n // (legs_per_spine + 1))
    for spine in range(spine_length - 1):
        graph.add_edge(spine, spine + 1)
    next_node = spine_length
    spine = 0
    while next_node < n:
        graph.add_edge(spine % spine_length, next_node)
        next_node += 1
        spine += 1
    return graph


@register_topology("small_world")
def small_world_graph(n: int, neighbours: int = 4, rewire_probability: float = 0.1,
                      seed: int = 0) -> nx.Graph:
    """Connected Watts–Strogatz small-world graph.

    Near-constant degree with logarithmic diameter — a realistic "good"
    topology to contrast with the engineered worst cases.
    """
    _check_size(n, minimum=8)
    if neighbours < 2 or neighbours >= n:
        raise TopologyError(f"neighbours must lie in [2, n), got {neighbours}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise TopologyError(
            f"rewire_probability must lie in [0, 1], got {rewire_probability}"
        )
    graph = nx.connected_watts_strogatz_graph(
        n, neighbours, rewire_probability, tries=200, seed=seed
    )
    return _relabel_consecutive(graph)


@register_topology("star_of_cliques")
def star_of_cliques_graph(n: int, cliques: int = 4) -> nx.Graph:
    """``cliques`` equal cliques all attached to one central hub node.

    Like the clique chain this has constant weak conductance but, unlike it,
    every inter-clique path goes through the single hub — the most extreme
    bottleneck-star the IS experiments use.
    """
    _check_size(n, minimum=2 * cliques + 1)
    if cliques < 2:
        raise TopologyError(f"star_of_cliques_graph needs at least 2 cliques, got {cliques}")
    graph = nx.Graph()
    hub = 0
    members = n - 1
    size = members // cliques
    if size < 2:
        raise TopologyError(
            f"star_of_cliques_graph with n={n}, cliques={cliques} leaves cliques too small"
        )
    next_node = 1
    for index in range(cliques):
        count = size + (1 if index < members - size * cliques else 0)
        group = list(range(next_node, next_node + count))
        next_node += count
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                graph.add_edge(u, v)
        graph.add_edge(hub, group[0])
    return graph


@register_topology("random_regular")
def random_regular_graph(n: int, degree: int = 3, seed: int = 0) -> nx.Graph:
    """Connected random ``degree``-regular graph (constant maximum degree)."""
    _check_size(n, minimum=degree + 1)
    if degree < 2:
        raise TopologyError(f"degree must be at least 2, got {degree}")
    if (n * degree) % 2 != 0:
        n += 1  # a d-regular graph needs n*d even
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        graph = nx.random_regular_graph(degree, n, seed=int(rng.integers(0, 2**31)))
        if is_connected(graph):
            return _relabel_consecutive(graph)
    raise TopologyError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes"
    )  # pragma: no cover - overwhelmingly unlikely


@register_topology("erdos_renyi")
def erdos_renyi_graph(n: int, average_degree: float = 6.0, seed: int = 0) -> nx.Graph:
    """Connected Erdős–Rényi graph ``G(n, p)`` with ``p = average_degree / n``."""
    _check_size(n)
    p = min(1.0, max(average_degree, 2.0 * math.log(max(n, 2))) / n)
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        graph = nx.fast_gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
        if is_connected(graph):
            return _relabel_consecutive(graph)
        p = min(1.0, p * 1.2)
    raise TopologyError(f"failed to sample a connected G({n}, p) graph")  # pragma: no cover


@register_topology("erdos_renyi_logn")
def erdos_renyi_logn_graph(n: int, c: float = 2.0, seed: int = 0) -> nx.Graph:
    """Connected ``G(n, p)`` at the connectivity threshold: ``p = c·log n / n``.

    The sparse regime the event-driven engine targets: average degree
    ``c·log n`` keeps the edge count ``O(n log n)`` while ``c > 1`` keeps the
    graph connected with high probability (retries with a gently inflated
    ``p`` cover the rest).  Sampling derives deterministically from ``seed``,
    so equal ``(n, c, seed)`` always yields the same graph — what keeps
    scenario fingerprints stable.
    """
    _check_size(n, minimum=4)
    if c <= 1.0:
        raise TopologyError(
            f"c must exceed 1 (the connectivity threshold of G(n, c log n / n)), got {c}"
        )
    p = min(1.0, c * math.log(n) / n)
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        graph = nx.fast_gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
        if is_connected(graph):
            return _relabel_consecutive(graph)
        p = min(1.0, p * 1.2)
    raise TopologyError(
        f"failed to sample a connected G({n}, {c} log n / n) graph"
    )  # pragma: no cover - overwhelmingly unlikely for c > 1


@register_topology("ring_of_cliques")
def ring_of_cliques_graph(n: int, cliques: int = 4) -> nx.Graph:
    """``cliques`` equal cliques arranged in a ring, consecutive ones sharing one edge.

    The cyclic cousin of the clique chain: with ``cliques = Θ(n / log n)``
    the graph stays sparse (``O(n log n)`` edges for clique size
    ``Θ(log n)``) while every inter-clique path crosses single-edge
    bottlenecks — a deterministic large-n stress case for the event-driven
    engine.  Entirely deterministic, so scenario fingerprints are stable by
    construction.
    """
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
    graph = nx.Graph()
    groups: list[list[int]] = []
    next_node = 0
    for index in range(cliques):
        count = size + (1 if index < n - size * cliques else 0)
        group = list(range(next_node, next_node + count))
        next_node += count
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                graph.add_edge(u, v)
        groups.append(group)
    for left, right in zip(groups, groups[1:]):
        graph.add_edge(left[-1], right[0])
    graph.add_edge(groups[-1][-1], groups[0][0])
    return graph


@register_topology("expander")
def expander_graph(n: int, seed: int = 0) -> nx.Graph:
    """A constant-degree expander surrogate: a connected random 4-regular graph.

    Random regular graphs are expanders with high probability, which is all
    the conductance-sensitive experiments need.
    """
    return random_regular_graph(n, degree=4, seed=seed)


def build_topology(name: str, n: int, **kwargs) -> nx.Graph:
    """Build a topology by registry name.

    Raises
    ------
    TopologyError:
        If the name is unknown.
    """
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; known: {sorted(TOPOLOGY_BUILDERS)}"
        ) from None
    graph = builder(n, **kwargs)
    # Stamp the value identity of this call so the adjacency caches can be
    # shared across graph instances (and with the direct-CSR builders).
    graph.graph["topology_cache_key"] = topology_cache_key(name, n, kwargs)
    return graph
