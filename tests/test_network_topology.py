"""Unit tests for the network topologies."""

import pytest

from repro.experiments.figures import FIG12_BASE
from repro.network.latency import PerHopExponentialLatency
from repro.network.topology import (
    TOPOLOGIES,
    FullyConnected,
    Grid,
    Line,
    Ring,
    Star,
    Topology,
    make_topology,
)
from repro.workload.clientserver import ClientServerWorkload


class TestFullyConnected:
    def test_hops(self):
        t = FullyConnected(5)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 4) == 1
        assert t.diameter() == 1

    def test_neighbors(self):
        t = FullyConnected(4)
        assert t.neighbors(1) == [0, 2, 3]

    def test_single_node(self):
        t = FullyConnected(1)
        assert t.neighbors(0) == []
        assert t.hops(0, 0) == 0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            FullyConnected(0)

    def test_node_range_checked(self):
        t = FullyConnected(3)
        with pytest.raises(ValueError):
            t.hops(0, 3)


class TestRing:
    def test_circular_distance(self):
        t = Ring(6)
        assert t.hops(0, 1) == 1
        assert t.hops(0, 3) == 3
        assert t.hops(0, 5) == 1
        assert t.diameter() == 3

    def test_two_node_ring(self):
        t = Ring(2)
        assert t.neighbors(0) == [1]
        assert t.hops(0, 1) == 1

    def test_neighbors_wrap(self):
        t = Ring(5)
        assert sorted(t.neighbors(0)) == [1, 4]


class TestLine:
    def test_hops_are_abs_difference(self):
        t = Line(7)
        assert t.hops(1, 5) == 4
        assert t.diameter() == 6

    def test_endpoints_have_one_neighbor(self):
        t = Line(4)
        assert t.neighbors(0) == [1]
        assert t.neighbors(3) == [2]


class TestStar:
    def test_hub_is_one_hop_from_all(self):
        t = Star(6)
        assert t.hops(0, 5) == 1
        assert t.hops(3, 4) == 2
        assert t.diameter() == 2

    def test_leaf_neighbors(self):
        t = Star(4)
        assert t.neighbors(2) == [0]
        assert t.neighbors(0) == [1, 2, 3]


class TestGrid:
    def test_perfect_square(self):
        t = Grid(9)  # 3x3
        assert t.hops(0, 8) == 4  # (0,0) -> (2,2)
        assert t.hops(0, 1) == 1

    def test_ragged_grid_consistent_with_bfs(self):
        t = Grid(7)  # 3 cols x 3 rows, last row ragged
        for a in range(7):
            for b in range(7):
                assert t.hops(a, b) == Topology.hops(t, a, b)

    def test_neighbors_interior(self):
        t = Grid(9)
        assert sorted(t.neighbors(4)) == [1, 3, 5, 7]


class TestGenericMachinery:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_closed_forms_match_bfs(self, name):
        t = make_topology(name, 8)
        for a in range(8):
            for b in range(8):
                assert t.hops(a, b) == Topology.hops(t, a, b), (name, a, b)

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_hops_symmetric(self, name):
        t = make_topology(name, 9)
        for a in range(9):
            for b in range(9):
                assert t.hops(a, b) == t.hops(b, a)

    def test_mean_hops_full(self):
        assert FullyConnected(4).mean_hops() == 1.0

    def test_mean_hops_single_node(self):
        assert FullyConnected(1).mean_hops() == 0.0

    def test_edges_unique_and_sorted(self):
        edges = Ring(4).edges()
        assert edges == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("torus", 4)


def test_per_hop_latency_makes_topology_matter(bench_stopping):
    """§4.1's "other structures had no effects" (the ``topology``
    ablation) is a property of its normalized latency: with per-hop
    latency a 27-node ring (mean distance ~7 hops) is clearly slower
    than a fully connected network on a sedentary Fig 12 cell."""
    stop = bench_stopping(25_000)

    def run(topology):
        workload = ClientServerWorkload(
            FIG12_BASE.with_overrides(
                policy="sedentary", clients=10, topology=topology, seed=0
            ),
            stopping=stop,
        )
        network = workload.system.network
        network.latency = PerHopExponentialLatency(
            network.topology, mean_per_hop=1.0
        )
        return workload.run().mean_communication_time_per_call

    assert run("ring") > 2.0 * run("full")
