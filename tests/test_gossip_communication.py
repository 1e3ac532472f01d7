"""Unit tests for the communication models (partner selectors)."""

from __future__ import annotations

import collections

import networkx as nx
import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gossip import FixedPartnerSelector, RoundRobinSelector, UniformSelector
from repro.graphs import line_graph, ring_graph, star_graph


class TestUniformSelector:
    def test_partner_is_always_a_neighbour(self, rng):
        graph = ring_graph(8)
        selector = UniformSelector(graph)
        for node in graph.nodes():
            for _ in range(10):
                partner = selector.partner(node, rng)
                assert graph.has_edge(node, partner)

    def test_partner_distribution_roughly_uniform(self, rng):
        graph = star_graph(5)  # hub 0 with 4 leaves
        selector = UniformSelector(graph)
        counts = collections.Counter(selector.partner(0, rng) for _ in range(4000))
        for leaf in range(1, 5):
            assert 800 <= counts[leaf] <= 1200

    def test_isolated_node_rejected(self, rng):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        graph.add_edge(0, 1)
        graph.add_node(2)
        with pytest.raises(SimulationError):
            UniformSelector(graph)


class TestRoundRobinSelector:
    def test_cycles_through_all_neighbours(self, rng):
        graph = star_graph(5)
        selector = RoundRobinSelector(graph, np.random.default_rng(0))
        partners = [selector.partner(0, rng) for _ in range(4)]
        assert sorted(partners) == [1, 2, 3, 4]
        # The next cycle repeats the same order.
        assert [selector.partner(0, rng) for _ in range(4)] == partners

    def test_reset_restores_initial_offsets(self, rng):
        graph = ring_graph(6)
        selector = RoundRobinSelector(graph, np.random.default_rng(1))
        first = [selector.partner(2, rng) for _ in range(2)]
        selector.reset()
        assert [selector.partner(2, rng) for _ in range(2)] == first

    def test_random_initial_offsets_differ_across_constructions(self, rng):
        graph = star_graph(9)
        offsets = set()
        for seed in range(12):
            selector = RoundRobinSelector(graph, np.random.default_rng(seed))
            offsets.add(selector.partner(0, rng))
        assert len(offsets) > 1

    def test_line_endpoints_have_single_partner(self, rng):
        graph = line_graph(4)
        selector = RoundRobinSelector(graph, np.random.default_rng(2))
        assert selector.partner(0, rng) == 1
        assert selector.partner(0, rng) == 1

    def test_offsets_ignore_node_insertion_order(self):
        graph = ring_graph(9)
        shuffled = nx.Graph()
        shuffled.add_nodes_from([4, 8, 0, 6, 2, 7, 1, 5, 3])
        shuffled.add_edges_from(graph.edges())
        offsets = [
            RoundRobinSelector(g, np.random.default_rng(5)).positions()
            for g in (graph, shuffled)
        ]
        assert offsets[0] == offsets[1]


class TestFixedPartnerSelector:
    def test_unassigned_nodes_get_none(self, rng):
        selector = FixedPartnerSelector()
        assert selector.partner(3, rng) is None

    def test_assignment_and_partner_map(self, rng):
        selector = FixedPartnerSelector({1: 0})
        selector.set_partner(2, 0)
        assert selector.partner(1, rng) == 0
        assert selector.partner(2, rng) == 0
        assert selector.partner_map() == {1: 0, 2: 0}

    def test_partner_map_is_a_copy(self, rng):
        selector = FixedPartnerSelector({1: 0})
        mapping = selector.partner_map()
        mapping[5] = 9
        assert selector.partner(5, rng) is None
