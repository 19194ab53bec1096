"""Unit tests for the lookup algorithms (paper §2.2).

Validates correctness (the path ends at the covering server and respects
adjacency), the Corollary 2.5 / Theorem 2.8 path-length bounds, and the
obliviousness / determinism properties noted in §2.2.3.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles.inputs import joined, populated
from oracles.lookup import verify_adjacent

from repro.core import DistanceHalvingNetwork, dh_lookup, fast_lookup


def make_net(n, seed=0, delta=2, smooth=False, with_ring=True):
    rng = np.random.default_rng(seed)
    if smooth:
        ids = [Fraction(i, n) for i in range(n)]
        return joined(ids, delta, with_ring, rng), rng
    return populated(n, rng, delta, with_ring), rng


class TestFastLookupCorrectness:
    def test_reaches_owner(self):
        net, rng = make_net(128, seed=1)
        pts = list(net.points())
        for _ in range(100):
            src = pts[int(rng.integers(len(pts)))]
            y = float(rng.random())
            res = fast_lookup(net, src, y)
            assert res.server_path[-1] == res.owner
            assert res.owner == net.segments.cover_point(y)

    def test_path_respects_adjacency(self):
        net, rng = make_net(128, seed=2)
        pts = list(net.points())
        for _ in range(50):
            src = pts[int(rng.integers(len(pts)))]
            res = fast_lookup(net, src, float(rng.random()))
            assert verify_adjacent(res, net)

    def test_local_target_zero_hops(self):
        net, _ = make_net(64, seed=3)
        src = list(net.points())[10]
        seg = net.segments.segment_of(src)
        res = fast_lookup(net, src, float(seg.midpoint))
        assert res.hops == 0
        assert res.t == 0

    def test_deterministic(self):
        net, _ = make_net(64, seed=4)
        src = list(net.points())[7]
        r1 = fast_lookup(net, src, 0.123)
        r2 = fast_lookup(net, src, 0.123)
        assert r1.server_path == r2.server_path

    def test_single_server_network(self):
        net = DistanceHalvingNetwork()
        net.join(0.5)
        res = fast_lookup(net, 0.5, 0.123)
        assert res.hops == 0

    def test_two_server_network(self):
        net = DistanceHalvingNetwork()
        net.join(0.0)
        net.join(0.5)
        for y in (0.1, 0.6, 0.99):
            res = fast_lookup(net, 0.0, y)
            assert res.server_path[-1] == net.segments.cover_point(y)


class TestFastLookupBound:
    """Corollary 2.5: path length ≤ log n + log ρ + 1 (in steps of the walk)."""

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_t_bound_random_ids(self, n):
        net, rng = make_net(n, seed=n)
        rho = net.smoothness()
        bound = math.log2(n) + math.log2(rho) + 1
        pts = list(net.points())
        for _ in range(50):
            src = pts[int(rng.integers(len(pts)))]
            res = fast_lookup(net, src, float(rng.random()))
            assert res.t <= bound + 1e-9
            assert res.hops <= res.t  # compression only shortens

    def test_t_bound_smooth(self):
        n = 256
        net, rng = make_net(n, smooth=True)
        # ρ = 1: bound is log n + 1
        for _ in range(50):
            src = list(net.points())[int(rng.integers(n))]
            res = fast_lookup(net, src, float(rng.random()))
            assert res.t <= math.log2(n) + 1

    def test_uses_local_knowledge_only(self):
        """Fast lookup needs no n or ρ: t is discovered, not computed."""
        net, rng = make_net(100, seed=6)
        src = list(net.points())[0]
        res = fast_lookup(net, src, 0.777)
        # t is minimal: walking one step fewer must leave the segment
        g = net.graph
        seg = net.segments.segment_of(src)
        if res.t > 0:
            shorter = g.approach_digits(seg.midpoint, res.t - 1)
            assert g.walk(shorter, 0.777) not in seg


class TestDHLookupCorrectness:
    def test_reaches_owner(self):
        net, rng = make_net(128, seed=10)
        pts = list(net.points())
        for _ in range(100):
            src = pts[int(rng.integers(len(pts)))]
            y = float(rng.random())
            res = dh_lookup(net, src, y, rng)
            assert res.server_path[-1] == res.owner

    def test_path_respects_adjacency(self):
        net, rng = make_net(128, seed=11)
        pts = list(net.points())
        for _ in range(50):
            src = pts[int(rng.integers(len(pts)))]
            res = dh_lookup(net, src, float(rng.random()), rng)
            assert verify_adjacent(res, net)

    def test_fixed_tau_is_deterministic(self):
        net, rng = make_net(64, seed=12)
        src = list(net.points())[3]
        tau = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0] * 3
        r1 = dh_lookup(net, src, 0.345, rng, tau=tau)
        r2 = dh_lookup(net, src, 0.345, rng, tau=tau)
        assert r1.server_path == r2.server_path
        assert r1.phase2_digits == r2.phase2_digits

    def test_phase2_digits_prefix_of_tau(self):
        net, rng = make_net(64, seed=13)
        src = list(net.points())[5]
        tau = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1] * 3
        res = dh_lookup(net, src, 0.62, rng, tau=tau)
        assert list(res.phase2_digits) == tau[: len(res.phase2_digits)]

    def test_exhausted_tau_raises(self):
        net, rng = make_net(256, seed=14)
        src = list(net.points())[0]
        with pytest.raises(ValueError):
            dh_lookup(net, src, 0.9, rng, tau=[0])

    def test_single_server(self):
        net = DistanceHalvingNetwork()
        net.join(0.2)
        rng = np.random.default_rng(0)
        res = dh_lookup(net, 0.2, 0.8, rng)
        assert res.hops == 0


class TestTheorem28Bound:
    """Theorem 2.8: DH lookup path ≤ 2 log n + 2 log ρ."""

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_hop_bound(self, n):
        net, rng = make_net(n, seed=n + 1)
        rho = net.smoothness()
        bound = 2 * math.log2(n) + 2 * math.log2(rho)
        pts = list(net.points())
        for _ in range(50):
            src = pts[int(rng.integers(len(pts)))]
            res = dh_lookup(net, src, float(rng.random()), rng)
            # hops ≤ phase-I t + phase-II t + O(1) junction
            assert res.hops <= bound + 2

    def test_smooth_bound_tight(self):
        n = 256
        net, rng = make_net(n, smooth=True)
        hops = []
        for _ in range(200):
            src = list(net.points())[int(rng.integers(n))]
            hops.append(dh_lookup(net, src, float(rng.random()), rng).hops)
        assert max(hops) <= 2 * math.log2(n) + 2
        # and it actually routes (not degenerate)
        assert np.mean(hops) > 2


class TestGeneralDelta:
    """Theorem 2.13: degree Δ gives path length Θ(log_Δ n)."""

    @pytest.mark.parametrize("delta", [2, 4, 8])
    def test_fast_lookup_delta(self, delta):
        n = 256
        net, rng = make_net(n, seed=delta, delta=delta, smooth=True)
        bound = math.log(n, delta) + 1
        for _ in range(40):
            src = list(net.points())[int(rng.integers(n))]
            res = fast_lookup(net, src, float(rng.random()))
            assert res.t <= bound + 1e-9

    @pytest.mark.parametrize("delta", [2, 4, 8])
    def test_dh_lookup_delta(self, delta):
        n = 256
        net, rng = make_net(n, seed=delta + 100, delta=delta, smooth=True)
        for _ in range(40):
            src = list(net.points())[int(rng.integers(n))]
            res = dh_lookup(net, src, float(rng.random()), rng)
            assert res.server_path[-1] == res.owner

    def test_larger_delta_shorter_paths(self):
        n = 1024
        t2, t16 = [], []
        net2, rng2 = make_net(n, seed=50, delta=2, smooth=True)
        net16, rng16 = make_net(n, seed=51, delta=16, smooth=True)
        for _ in range(100):
            s2 = list(net2.points())[int(rng2.integers(n))]
            t2.append(fast_lookup(net2, s2, float(rng2.random())).t)
            s16 = list(net16.points())[int(rng16.integers(n))]
            t16.append(fast_lookup(net16, s16, float(rng16.random())).t)
        assert np.mean(t16) < np.mean(t2) / 2


class TestWithoutRing:
    def test_dh_lookup_still_works(self):
        net, rng = make_net(128, seed=60, with_ring=False)
        pts = list(net.points())
        for _ in range(30):
            src = pts[int(rng.integers(len(pts)))]
            res = dh_lookup(net, src, float(rng.random()), rng)
            assert res.server_path[-1] == res.owner
