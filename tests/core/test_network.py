"""Unit tests for the discrete Distance Halving network (paper §2.1).

Covers Algorithm Join / Leave, edge construction from the continuous
graph, and the structural Theorems 2.1 / 2.2.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from oracles.inputs import joined, populated

from repro.balance import MultipleChoice
from repro.core import DistanceHalvingNetwork
from repro.core.interval import Arc


@pytest.fixture
def net256():
    return populated(256, 2023)


@pytest.fixture
def smooth_net():
    """Perfectly smooth 64-server network (equally spaced ids)."""
    net = joined([Fraction(i, 64) for i in range(64)])
    return net


class TestJoinLeave:
    def test_empty_network(self):
        net = DistanceHalvingNetwork()
        assert net.n == 0
        assert len(net) == 0

    def test_item_hash_is_64_wise_and_drawn_from_rng(self):
        a, b = (DistanceHalvingNetwork(rng=np.random.default_rng(9)) for _ in "ab")
        assert a.item_hash._fn.k == 64
        assert a.item_hash("item") == b.item_hash("item")

    def test_first_join_covers_ring(self):
        net = DistanceHalvingNetwork()
        net.join(0.3)
        assert net.n == 1
        assert net.owner_of(0.99).point == 0.3

    def test_join_splits_segment(self):
        net = DistanceHalvingNetwork()
        net.join(0.2)
        net.join(0.6)
        assert net.segments.segment_of(0.2) == Arc(0.2, 0.6)
        assert net.segments.segment_of(0.6) == Arc(0.6, 0.2)

    def test_join_duplicate_rejected(self):
        net = DistanceHalvingNetwork()
        net.join(0.2)
        with pytest.raises(ValueError):
            net.join(0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_join_refuses_non_finite_ids(self, bad):
        """NaN / ±inf used to land in the map; only a later audit saw it."""
        net = populated(8, 3)
        version = net.membership_version
        with pytest.raises(ValueError,
                           match=f"{bad!r}: ring points must be finite"):
            net.join(bad)
        assert net.n == len(net.servers) == 8
        assert net.membership_version == version
        net.check_invariants()

    def test_join_moves_items(self):
        net = DistanceHalvingNetwork()
        net.join(0.0)
        # place items deterministically by monkeypatching the hash
        net.item_hash = lambda k: {"a": 0.1, "b": 0.6}[k]
        net.store_item("a", "va")
        net.store_item("b", "vb")
        assert net.servers[0.0].store.keys() == {"a", "b"}
        net.join(0.5)
        assert net.servers[0.0].store.keys() == {"a"}
        assert net.servers[0.5].store.keys() == {"b"}
        assert net.get_item("b") == "vb"

    def test_leave_hands_items_to_predecessor(self):
        net = DistanceHalvingNetwork()
        net.item_hash = lambda k: 0.65
        net.join(0.0)
        net.join(0.5)
        net.store_item("x", 1)
        assert "x" in net.servers[0.5].store
        net.leave(0.5)
        assert "x" in net.servers[0.0].store
        assert net.get_item("x") == 1

    def test_leave_last_server(self):
        net = DistanceHalvingNetwork()
        net.join(0.3)
        net.leave(0.3)
        assert net.n == 0

    def test_leave_missing_raises(self):
        net = DistanceHalvingNetwork()
        net.join(0.3)
        with pytest.raises(KeyError):
            net.leave(0.4)

    def test_populate(self):
        rng = np.random.default_rng(0)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(100)
        assert net.n == 100
        net.check_invariants()

    @pytest.mark.parametrize("bad", [-5, -1, 2.5, 3.0, True, False, "3",
                                     None])
    def test_populate_refuses_a_bad_count(self, bad):
        """``populate(-5)`` used to return silently with n = 0."""
        rng = np.random.default_rng(0)
        net = DistanceHalvingNetwork(rng=rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            net.populate(bad)
        assert net.n == 0 and net.membership_version == 0
        assert rng.bit_generator.state == state

    def test_populate_refuses_a_strategy_class(self):
        """``selector=MultipleChoice`` used to fail inside ``grow`` on a
        missing ``count``."""
        net = DistanceHalvingNetwork(rng=np.random.default_rng(0))
        with pytest.raises(TypeError, match="MultipleChoice"):
            net.populate(8, selector=MultipleChoice)
        assert net.n == 0

    def test_populate_takes_numpy_ints_and_zero(self):
        net = DistanceHalvingNetwork(rng=np.random.default_rng(0))
        net.populate(np.int64(5))
        net.populate(0)
        assert net.n == 5 and net.membership_version == 5
        net.check_invariants()

    def test_join_leave_churn_keeps_invariants(self):
        rng = np.random.default_rng(5)
        net = DistanceHalvingNetwork(rng=rng)
        net.item_hash = lambda k: (hash(k) % 997) / 997.0
        for i in range(30):
            net.store_item(f"item{i}", i) if net.n else net.join()
        alive = list(net.points())
        for step in range(200):
            if net.n < 5 or rng.random() < 0.55:
                net.join()
            else:
                pts = list(net.points())
                net.leave(pts[int(rng.integers(len(pts)))])
            net.check_invariants()

    def test_audit_catches_a_misplaced_item(self):
        """Servers with nothing stored skip the segment lookup; one with
        an item outside its segment still fails the audit."""
        net = populated(50, 4)
        net.check_invariants()
        victim = net.servers[list(net.points())[10]]
        pos = float(net.segments.point_at(30))
        victim.store["stray"] = (pos, "value")
        with pytest.raises(AssertionError, match="stray"):
            net.check_invariants()

    def test_audit_catches_server_point_mismatch(self):
        net = populated(20, 4)
        del net.servers[list(net.points())[3]]
        with pytest.raises(AssertionError, match="mismatch"):
            net.check_invariants()

    def test_audit_catches_a_stray_server_at_equal_counts(self):
        net = populated(20, 4)
        net.servers[0.123456] = net.servers.pop(net.segments.point_at(3))
        assert len(net.servers) == net.n
        with pytest.raises(AssertionError, match="mismatch"):
            net.check_invariants()

    def test_items_survive_churn(self):
        rng = np.random.default_rng(9)
        net = populated(20, rng)
        for i in range(50):
            net.store_item(f"k{i}", i)
        for step in range(100):
            if net.n < 3 or rng.random() < 0.5:
                net.join()
            else:
                pts = list(net.points())
                net.leave(pts[int(rng.integers(len(pts)))])
        for i in range(50):
            assert net.get_item(f"k{i}") == i


class TestConstruction:
    @pytest.mark.parametrize("delta", [2.5, 2.0, True, 1, "2"])
    def test_non_int_delta_refused(self, delta):
        """``delta=2.5`` populated and routed with a fractional Δ."""
        with pytest.raises(ValueError,
                           match=f"delta must be an int >= 2, got "
                           f"{re.escape(repr(delta))}"):
            DistanceHalvingNetwork(delta=delta)

    def test_numpy_int_delta_passes(self):
        net = DistanceHalvingNetwork(delta=np.int64(3),
                                     rng=np.random.default_rng(0))
        net.populate(27)
        assert net.delta == 3 and net.n == 27


class TestNeighbors:
    def test_out_neighbors_cover_images(self, net256):
        pts = list(net256.points())
        rng = np.random.default_rng(1)
        for p in rng.choice(pts, size=10, replace=False):
            seg = net256.segments.segment_of(p)
            outs = set(net256.out_neighbor_points(p))
            for img in net256.graph.image_arcs(seg):
                mid = img.midpoint
                assert net256.segments.cover_point(mid) in outs

    def test_in_neighbors_are_reverse_of_out(self, net256):
        pts = list(net256.points())
        rng = np.random.default_rng(2)
        sample = rng.choice(pts, size=8, replace=False)
        for p in sample:
            for q in net256.out_neighbor_points(p):
                assert p in net256.in_neighbor_points(q), (p, q)

    def test_ring_neighbors_in_neighbor_set(self, net256):
        p = list(net256.points())[17]
        neigh = set(net256.neighbor_points(p))
        assert net256.segments.predecessor(p) in neigh
        assert net256.segments.successor(p) in neigh

    def test_no_ring_option(self):
        net = populated(64, 3, with_ring=False)
        p = list(net.points())[5]
        # ring neighbours may still appear via continuous edges, but the
        # neighbour set must equal out ∪ in exactly.
        expect = set(net.out_neighbor_points(p)) | set(net.in_neighbor_points(p))
        expect.discard(p)
        assert set(net.neighbor_points(p)) == expect

    def test_are_neighbors_symmetry(self, net256):
        pts = list(net256.points())
        rng = np.random.default_rng(4)
        for _ in range(20):
            p, q = rng.choice(pts, size=2, replace=False)
            assert net256.are_neighbors(p, q) == net256.are_neighbors(q, p)

    def test_self_is_neighbor(self, net256):
        p = list(net256.points())[0]
        assert net256.are_neighbors(p, p)

    def test_single_server_has_no_neighbors(self):
        net = DistanceHalvingNetwork()
        net.join(0.5)
        assert net.neighbor_points(0.5) == []


class TestTheorem21:
    """Theorem 2.1: |E(G_x)| ≤ 3n − 1 without ring edges (Δ = 2)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_edge_bound_random_ids(self, seed):
        net = populated(128, seed)
        assert net.edge_count() <= 3 * net.n - 1

    def test_edge_bound_holds_during_growth(self):
        rng = np.random.default_rng(77)
        net = DistanceHalvingNetwork(rng=rng)
        for _ in range(100):
            net.join()
            assert net.edge_count() <= 3 * net.n - 1

    def test_edge_bound_adversarial_clustered_ids(self):
        """Crowded ids in a tiny arc — smoothness is terrible, bound holds."""
        net = joined([0.5 + i * 1e-6 for i in range(50)])
        assert net.edge_count() <= 3 * net.n - 1

    def test_average_degree_at_most_six_plus_ring(self, net256):
        # Theorem 2.1 ⇒ average degree ≤ 6 without ring; ring adds 2.
        assert net256.average_degree() <= 8.0

    def test_single_server_self_edges(self):
        net = DistanceHalvingNetwork()
        net.join(0.25)
        assert net.edge_count() == 1  # the two self-loops merge as one pair


class TestTheorem22:
    """Theorem 2.2: out-degree ≤ ρ+4, in-degree ≤ ⌈2ρ⌉+1 (no ring)."""

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_degree_bounds_random(self, seed):
        net = populated(200, seed)
        rho = net.smoothness()
        assert net.max_out_degree() <= rho + 4
        assert net.max_in_degree() <= math.ceil(2 * rho) + 1

    def test_smooth_network_constant_degree(self, smooth_net):
        rho = smooth_net.smoothness()
        assert rho == pytest.approx(1.0)
        assert smooth_net.max_out_degree() <= 5
        assert smooth_net.max_in_degree() <= 3

    def test_delta4_degrees_scale_with_delta(self):
        """Theorem 2.13: smooth degree-Δ discretization has degree Θ(Δ)."""
        net = joined([Fraction(i, 64) for i in range(64)], delta=4)
        assert net.max_out_degree() <= 4 + 4  # Δ images + boundary effects
        assert net.max_out_degree() >= 4


class TestItems:
    def test_store_and_get(self, net256):
        net256.store_item("hello", "world")
        assert net256.get_item("hello") == "world"

    def test_owner_consistency(self, net256):
        owner = net256.store_item("k", 1)
        assert net256.item_owner("k") is owner

    def test_missing_item_raises(self, net256):
        with pytest.raises(KeyError):
            net256.get_item("nope")


class TestExports:
    def test_to_networkx_connected(self, net256):
        g = net256.to_networkx()
        import networkx as nx

        assert g.number_of_nodes() == 256
        assert nx.is_connected(g)

    def test_to_networkx_no_ring_still_connected_when_smooth(self, smooth_net):
        import networkx as nx

        g = smooth_net.to_networkx(include_ring=False)
        assert nx.is_connected(g)
