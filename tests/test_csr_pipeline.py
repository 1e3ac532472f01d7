"""Every scenario runs on a CSRGraph: byte-identical arrays, bit-identical runs.

Three layers of guarantees:

* **Builder equivalence matrix** — every direct-CSR generator registered in
  :data:`repro.graphs.CSR_BUILDERS` produces ``(indptr, indices)`` arrays
  that are *byte-identical* (``tobytes()``, int64) to
  ``csr_adjacency(networkx_builder(...))`` for the same arguments, across
  sizes, parameters and seeds — including the seed-derived retry loops of the
  random families.  Direct and converted builds share one keyed adjacency
  cache.
* **Graph surface** — a :class:`~repro.graphs.CSRGraph` answers the graph
  queries the engines and bounds make (degrees, diameter, connectivity,
  BFS) exactly as networkx does for the same family.
* **Scenario equivalence against a networkx oracle** — a materialised
  scenario (always a CSRGraph) replays, per trial and field for field, the
  sequential engine running the scenario's factory on the family's
  ``nx.Graph``: on every registered family, for uniform AG and TAG, on every
  engine, and across loss, actions, placements and worker dispatch.
"""

from __future__ import annotations

import json
import pickle

import networkx as nx
import numpy as np
import pytest

from repro.analysis.stopping_time import measure_protocol
from repro.core import GossipAction
from repro.errors import TopologyError
from repro.experiments.parallel import measure_protocol_parallel
from repro.graphs import (
    CSR_BUILDERS,
    CSRGraph,
    TOPOLOGY_BUILDERS,
    build_csr_topology,
    build_topology,
    csr_adjacency,
    csr_bfs_distances,
    csr_from_edges,
    diameter,
    max_degree,
    topology_cache_key,
)
from repro.scenarios import ScenarioSpec, get_scenario, scenario_names

# ----------------------------------------------------------------------
# Builder equivalence matrix: direct CSR == csr_adjacency(networkx), bytewise
# ----------------------------------------------------------------------

#: (family, n, kwargs) — several sizes/parameterisations/seeds per family.
CSR_EQUIVALENCE_CASES = [
    ("line", 2, {}),
    ("line", 17, {}),
    ("line", 64, {}),
    ("ring", 3, {}),
    ("ring", 17, {}),
    ("ring", 64, {}),
    ("grid", 16, {}),
    ("grid", 30, {}),  # non-square n: rounded by two_dimensional_side
    ("torus", 9, {}),
    ("torus", 30, {}),
    ("ring_of_cliques", 8, {"cliques": 4}),
    ("ring_of_cliques", 16, {}),
    ("ring_of_cliques", 257, {"cliques": 8}),  # uneven clique sizes
    ("erdos_renyi_logn", 64, {}),
    ("erdos_renyi_logn", 200, {"c": 2.5, "seed": 3}),
    ("random_regular", 20, {}),
    ("random_regular", 30, {"degree": 4, "seed": 7}),
    ("expander", 24, {"seed": 2}),
    ("small_world", 32, {}),
    ("small_world", 40, {"neighbours": 6, "rewire_probability": 0.3, "seed": 9}),
]


@pytest.mark.parametrize(
    "name,n,kwargs",
    CSR_EQUIVALENCE_CASES,
    ids=[f"{name}-{n}-{sorted(kw.items())}" for name, n, kwargs in CSR_EQUIVALENCE_CASES
         for kw in (kwargs,)],
)
def test_direct_csr_builder_matches_networkx_reference_bytewise(name, n, kwargs):
    """Cold builds on both sides: no shared cache can mask a divergence."""
    direct = build_csr_topology(name, n, use_cache=False, **kwargs)
    reference = TOPOLOGY_BUILDERS[name](n, **kwargs)  # raw builder: unstamped
    indptr, indices = csr_adjacency(reference)
    assert direct.indptr.dtype == np.int64 and direct.indices.dtype == np.int64
    assert direct.n == reference.number_of_nodes()
    assert direct.indptr.tobytes() == indptr.tobytes()
    assert direct.indices.tobytes() == indices.tobytes()


#: The last (largest) equivalence case of each direct-builder family, for the
#: graph-property checks.
DIRECT_FAMILY_CASES = list(
    {name: (name, n, kwargs) for name, n, kwargs in CSR_EQUIVALENCE_CASES}.values()
)


def test_equivalence_matrix_covers_every_registered_csr_builder():
    assert {name for name, _, _ in CSR_EQUIVALENCE_CASES} == set(CSR_BUILDERS)


def test_csr_builders_are_a_subset_of_the_networkx_registry():
    assert set(CSR_BUILDERS) <= set(TOPOLOGY_BUILDERS)


def test_register_csr_topology_requires_a_networkx_reference():
    from repro.graphs import register_csr_topology

    with pytest.raises(TopologyError, match="no networkx reference"):

        @register_csr_topology("csr_only_family")
        def csr_only_family(n):  # pragma: no cover - must not register
            raise AssertionError


def test_build_csr_topology_refuses_unconverted_families():
    with pytest.raises(TopologyError, match="no direct-CSR builder"):
        build_csr_topology("complete", 16)
    with pytest.raises(TopologyError, match="unknown topology"):
        build_csr_topology("moebius", 16)


def test_direct_builders_share_the_reference_validation_errors():
    with pytest.raises(TopologyError):
        build_csr_topology("ring", 2, use_cache=False)
    with pytest.raises(TopologyError):
        build_csr_topology("ring_of_cliques", 20, use_cache=False, cliques=1)
    with pytest.raises(TopologyError):
        build_csr_topology("erdos_renyi_logn", 64, use_cache=False, c=0.5)
    with pytest.raises(TopologyError):
        build_csr_topology("small_world", 32, use_cache=False, neighbours=1)


# ----------------------------------------------------------------------
# The keyed adjacency cache is shared by both pipelines
# ----------------------------------------------------------------------
def test_csr_build_first_then_networkx_adjacency_shares_arrays():
    from repro.graphs.topologies import _KEYED_CSR

    _KEYED_CSR.pop(topology_cache_key("ring", 4099, {}), None)
    direct = build_csr_topology("ring", 4099)
    stamped = build_topology("ring", 4099)
    indptr, indices = csr_adjacency(stamped)
    assert indptr is direct.indptr and indices is direct.indices


def test_networkx_adjacency_first_then_csr_build_shares_arrays():
    from repro.graphs.topologies import _KEYED_CSR

    _KEYED_CSR.pop(topology_cache_key("ring", 4101, {}), None)
    indptr, indices = csr_adjacency(build_topology("ring", 4101))
    direct = build_csr_topology("ring", 4101)
    assert direct.indptr is indptr and direct.indices is indices


# ----------------------------------------------------------------------
# CSRGraph container semantics
# ----------------------------------------------------------------------
class TestCSRGraph:
    def test_matches_networkx_surface(self):
        graph = build_csr_topology("grid", 16, use_cache=False)
        reference = TOPOLOGY_BUILDERS["grid"](16)
        assert graph.number_of_nodes() == reference.number_of_nodes()
        assert graph.number_of_edges() == reference.number_of_edges()
        assert list(graph.nodes()) == sorted(reference.nodes())
        assert len(graph) == 16 and list(graph) == list(range(16))
        for node in graph.nodes():
            assert list(graph.neighbors(node)) == sorted(reference.neighbors(node))
            assert graph.degree[node] == reference.degree[node]
        assert dict(iter(graph.degree)) == dict(reference.degree)
        assert 0 in graph and 15 in graph
        assert 16 not in graph and -1 not in graph and "a" not in graph

    def test_arrays_are_read_only_int64(self):
        graph = build_csr_topology("ring", 12, use_cache=False)
        assert not graph.indptr.flags.writeable
        assert not graph.indices.flags.writeable
        with pytest.raises(ValueError):
            graph.indices[0] = 99

    def test_constructor_validates_shapes(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(3, np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="indices"):
            CSRGraph(2, np.array([0, 1, 2]), np.zeros(5, dtype=np.int64))

    def test_pickle_roundtrip_preserves_arrays_and_flags(self):
        graph = build_csr_topology("torus", 16, use_cache=False)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.n == graph.n
        assert clone.indptr.tobytes() == graph.indptr.tobytes()
        assert clone.indices.tobytes() == graph.indices.tobytes()
        assert not clone.indptr.flags.writeable
        assert not clone.indices.flags.writeable

    def test_degrees_vector(self):
        graph = build_csr_topology("torus", 16, use_cache=False)
        assert np.array_equal(graph.degrees(), np.full(16, 4, dtype=np.int64))

    def test_connectivity(self):
        assert build_csr_topology("ring", 10, use_cache=False).is_connected()
        split = csr_from_edges(4, np.array([0, 2]), np.array([1, 3]))
        assert not split.is_connected()

    def test_bfs_distances_match_networkx(self):
        graph = build_csr_topology("grid", 25, use_cache=False)
        reference = TOPOLOGY_BUILDERS["grid"](25)
        for source in (0, 12, 24):
            expected = nx.single_source_shortest_path_length(reference, source)
            hops = csr_bfs_distances(graph.indptr, graph.indices, source)
            assert {node: int(d) for node, d in enumerate(hops)} == expected

    def test_csr_from_edges_matches_csr_adjacency(self):
        reference = nx.gnp_random_graph(30, 0.2, seed=11)
        edges = np.array(sorted(reference.edges()), dtype=np.int64)
        graph = csr_from_edges(30, edges[:, 0], edges[:, 1])
        indptr, indices = csr_adjacency(reference)
        assert graph.indptr.tobytes() == indptr.tobytes()
        assert graph.indices.tobytes() == indices.tobytes()

    def test_csr_adjacency_returns_csr_graph_arrays_as_is(self):
        graph = build_csr_topology("ring", 10, use_cache=False)
        indptr, indices = csr_adjacency(graph)
        assert indptr is graph.indptr and indices is graph.indices

    @pytest.mark.parametrize(
        "name,n,kwargs", DIRECT_FAMILY_CASES, ids=[c[0] for c in DIRECT_FAMILY_CASES]
    )
    def test_degree_and_diameter_match_networkx(self, name, n, kwargs):
        graph = build_csr_topology(name, n, use_cache=False, **kwargs)
        reference = build_topology(name, n, **kwargs)
        assert dict(graph.degree()) == dict(reference.degree())
        assert max_degree(graph) == max(dict(reference.degree()).values())
        assert diameter(graph) == diameter(reference) == nx.diameter(reference)


# ----------------------------------------------------------------------
# Scenario equivalence: the CSRGraph scenario == the networkx oracle
# ----------------------------------------------------------------------
def _networkx_graph(spec: ScenarioSpec) -> nx.Graph:
    return build_topology(spec.topology, spec.n, **dict(spec.topology_params))


def _networkx_oracle(spec: ScenarioSpec, scenario, graph: nx.Graph | None = None):
    """The scenario's factory on the family's ``nx.Graph``, scalar engine.

    The sequential reference runner: one
    :class:`~repro.gossip.GossipEngine` per trial, with partners drawn from
    the networkx graph's own adjacency.
    """
    return measure_protocol(
        _networkx_graph(spec) if graph is None else graph,
        scenario.protocol_factory,
        scenario.config,
        trials=spec.trials,
        seed=spec.seed,
    )


def _networkx_reference(spec: ScenarioSpec, scenario):
    """The scenario's factory on the family's ``nx.Graph``, same engine choice.

    The parallel runner picks the engine the scenario would (the event
    engine for these rank-only workloads), so this is cheap enough for the
    full-size cases.
    """
    return measure_protocol_parallel(
        _networkx_graph(spec),
        scenario.protocol_factory,
        scenario.config,
        trials=spec.trials,
        seed=spec.seed,
        spec=spec,
    )


def _er_spec(**overrides) -> ScenarioSpec:
    settings = dict(n=64, trials=3, seed=20260808)
    settings.update(overrides)
    return get_scenario("event/er-logn").replace(**settings)


#: name → spec factory: one entry per behavioural axis the CSR graph must
#: replay bit-identically.
PIPELINE_CASES = {
    "er-logn": lambda: _er_spec(),
    "ring-of-cliques": lambda: get_scenario("event/ring-of-cliques").replace(
        n=64, trials=2, seed=5
    ),
    "loss": lambda: _er_spec(
        config=_er_spec().config.replace(loss_probability=0.25)
    ),
    "push": lambda: _er_spec(config=_er_spec().config.replace(action=GossipAction.PUSH)),
    "pull": lambda: _er_spec(config=_er_spec().config.replace(action=GossipAction.PULL)),
    "spread-placement": lambda: _er_spec(placement="spread"),
    "random-placement": lambda: _er_spec(placement="random"),
    "adversarial-far": lambda: get_scenario("event/ring-of-cliques").replace(
        n=48, trials=2, seed=9, placement="adversarial_far"
    ),
}

#: The scalar oracle costs O(n) per timeslot, so it runs the same cases at
#: this smaller size.
ORACLE_N = 32


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES), ids=str)
def test_csr_pipeline_matches_networkx_pipeline_bit_identically(case):
    spec = PIPELINE_CASES[case]()
    scenario = spec.materialize()
    assert isinstance(scenario.graph, CSRGraph)
    assert scenario.measure() == _networkx_reference(spec, scenario)


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES), ids=str)
def test_csr_pipeline_matches_the_scalar_networkx_oracle(case):
    spec = PIPELINE_CASES[case]().replace(n=ORACLE_N)
    scenario = spec.materialize()
    assert scenario.measure() == _networkx_oracle(spec, scenario)


def test_run_single_matches_across_pipelines():
    spec = _er_spec(trials=1)
    scenario = spec.materialize()
    assert [scenario.run_single()] == _networkx_reference(spec, scenario)
    small = spec.replace(n=ORACLE_N)
    scenario = small.materialize()
    assert [scenario.run_single()] == _networkx_oracle(small, scenario)


def test_parallel_worker_dispatch_matches_inline_on_csr_pipeline():
    """Chunked workers receive the CSRGraph by pickle and stay bit-identical."""
    spec = _er_spec(trials=4)
    scenario = spec.materialize()
    assert scenario.measure(jobs=2) == _networkx_reference(spec, scenario)
    small = spec.replace(n=ORACLE_N)
    scenario = small.materialize()
    assert scenario.measure(jobs=2) == _networkx_oracle(small, scenario)


def test_pipelines_share_one_fingerprint():
    spec = _er_spec()
    assert spec.materialize().spec.fingerprint() == spec.materialize_csr().spec.fingerprint()


#: The protocols every family is checked under, and the engines each runs on.
FAMILY_PROTOCOLS = {
    "uniform": ({"protocol": "uniform"}, ("scalar", "batch", "event")),
    "tag-brr": ({"protocol": "tag", "spanning_tree": "brr"}, ("scalar", "batch")),
}


@pytest.mark.parametrize("protocol", sorted(FAMILY_PROTOCOLS))
@pytest.mark.parametrize("topology", sorted(TOPOLOGY_BUILDERS))
def test_every_family_on_every_engine_matches_the_networkx_oracle(topology, protocol):
    fields, engines = FAMILY_PROTOCOLS[protocol]
    spec = ScenarioSpec(topology=topology, n=16, k=4, trials=2, seed=3, **fields)
    scenario = spec.materialize()
    assert isinstance(scenario.graph, CSRGraph)
    graph = _networkx_graph(spec)
    assert scenario.graph.indptr.tobytes() == csr_adjacency(graph)[0].tobytes()
    assert scenario.graph.indices.tobytes() == csr_adjacency(graph)[1].tobytes()
    assert diameter(scenario.graph) == nx.diameter(graph)
    assert max_degree(scenario.graph) == max(dict(graph.degree()).values())
    oracle = _networkx_oracle(spec, scenario, graph)
    for engine in engines:
        assert spec.replace(engine=engine).materialize().measure() == oracle, engine


def test_round_robin_results_on_out_of_order_families_are_pinned():
    """Round-robin offsets follow ascending node order on every graph.

    ``dumbbell``'s networkx builder inserts nodes out of ascending order, so
    these per-seed results differ from those of offsets drawn in insertion
    order; stores holding the latter must be recomputed (see
    ``docs/result_store.md``).
    """
    spec = ScenarioSpec(
        topology="dumbbell", n=16, k=4, protocol="tag", spanning_tree="brr",
        trials=3, seed=3,
    )
    results = spec.materialize().measure()
    assert [result.rounds for result in results] == [30, 28, 38]
    assert [result.metadata["tree_depth"] for result in results] == [6, 8, 7]


def test_every_registered_scenario_materializes_a_csr_graph():
    for name in scenario_names():
        assert isinstance(get_scenario(name).materialize().graph, CSRGraph), name


# ----------------------------------------------------------------------
# CLI: `repro scenario stats`
# ----------------------------------------------------------------------
class TestScenarioStatsCommand:
    def test_json_reports_csr_pipeline(self, capsys):
        from repro.cli import main

        assert main(["scenario", "stats", "event/er-logn", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"] == "csr"
        assert payload["topology"] == "erdos_renyi_logn"
        assert payload["n"] == 2048
        assert payload["degree_min"] >= 1
        assert payload["degree_min"] <= payload["degree_mean"] <= payload["degree_max"]
        assert payload["materialize_seconds"] >= 0
        assert payload["m"] > payload["n"]  # connected G(n, 2 log n / n)

    def test_networkx_pipeline_reported_for_unconverted_workloads(self, capsys):
        from repro.cli import main

        assert main(["scenario", "stats", "uniform/complete", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"] == "networkx"

    def test_human_readable_output(self, capsys):
        from repro.cli import main

        assert main(["scenario", "stats", "event/ring-of-cliques"]) == 0
        out = capsys.readouterr().out
        assert "csr" in out and "ring_of_cliques" in out

    def test_unknown_scenario_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["scenario", "stats", "event/none-such"]) == 2
        assert "error:" in capsys.readouterr().err
