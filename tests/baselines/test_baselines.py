"""Unit tests for the Table 1 baseline DHTs.

Each scheme must (a) route correctly to the owner of the target, (b)
respect its linkage bound, and (c) exhibit the asymptotic path-length
class Table 1 assigns to it.
"""

import math

import numpy as np
import pytest
from oracles.baselines import measure_scheme

from repro.baselines import (
    CanNetwork,
    ChordNetwork,
    DistanceHalvingAdapter,
    KleinbergRing,
    KoordeNetwork,
    TapestryNetwork,
    ViceroyNetwork,
)


def rngs(seed=0):
    return np.random.default_rng(seed), np.random.default_rng(seed + 1000)


class TestChord:
    def test_lookup_reaches_owner(self):
        build, route = rngs(1)
        dht = ChordNetwork(128, build)
        for _ in range(100):
            src = dht.points[int(route.integers(128))]
            t = float(route.random())
            path = dht.lookup_path(src, t, route)
            assert path[-1] == dht.owner(t)

    def test_path_length_log(self):
        build, route = rngs(2)
        dht = ChordNetwork(512, build)
        row = measure_scheme(dht, route, lookups=500)
        assert row.mean_path <= math.log2(512)  # ≈ ½ log2 n expected
        assert row.max_path <= 3 * math.log2(512)

    def test_degree_log(self):
        build, _ = rngs(3)
        dht = ChordNetwork(512, build)
        assert dht.max_degree() <= 2 * math.log2(512) + 4

    def test_owner_is_successor(self):
        build, _ = rngs(4)
        dht = ChordNetwork(16, build)
        pts = dht.points
        assert dht.owner((pts[3] + pts[4]) / 2) == pts[4]
        # wrap-around: a point past the last node belongs to the first
        assert dht.owner((pts[-1] + 1.0) / 2 % 1.0) == pts[0]

    def test_small_network_rejected(self):
        with pytest.raises(ValueError):
            ChordNetwork(1, np.random.default_rng(0))


class TestTapestry:
    def test_root_unique_across_sources(self):
        build, route = rngs(5)
        dht = TapestryNetwork(128, build)
        for _ in range(30):
            t = float(route.random())
            roots = {
                dht.lookup_path(int(route.integers(128)), t, route)[-1]
                for _ in range(5)
            }
            assert len(roots) == 1

    def test_path_length_log_base(self):
        build, route = rngs(6)
        dht = TapestryNetwork(512, build, base=4)
        row = measure_scheme(dht, route, lookups=400)
        assert row.max_path <= dht.levels
        assert row.mean_path <= math.log(512, 4) + 2

    def test_digit_extraction(self):
        build, _ = rngs(7)
        dht = TapestryNetwork(16, build, base=2)
        assert dht._digits(0.5)[0] == 1
        assert dht._digits(0.25)[:2] == (0, 1)

    def test_base_validation(self):
        with pytest.raises(ValueError):
            TapestryNetwork(16, np.random.default_rng(0), base=1)


class TestCan:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zones_partition_torus(self, d):
        build, _ = rngs(8 + d)
        dht = CanNetwork(64, build, d=d)
        volume = sum(float(np.prod(b.hi - b.lo)) for b in dht.boxes)
        assert volume == pytest.approx(1.0)

    def test_lookup_reaches_owner(self):
        build, route = rngs(12)
        dht = CanNetwork(128, build, d=2)
        for _ in range(100):
            src = int(route.integers(128))
            t = float(route.random())
            path = dht.lookup_path(src, t, route)
            assert path[-1] == dht.owner(t)

    def test_path_scales_as_root_n(self):
        """Table 1: CAN path ~ d·n^{1/d}; fitted exponent ≈ 1/d for d=2."""
        from repro.sim.metrics import loglog_slope

        ns = [64, 256, 1024]
        means = []
        for n in ns:
            build, route = rngs(n)
            dht = CanNetwork(n, build, d=2)
            means.append(measure_scheme(dht, route, lookups=300).mean_path)
        slope = loglog_slope(ns, means)
        assert 0.3 <= slope <= 0.7  # ≈ 1/2

    def test_degree_constant_in_n(self):
        build, _ = rngs(13)
        small = CanNetwork(64, build, d=2)
        big = CanNetwork(1024, np.random.default_rng(14), d=2)
        assert big.mean_degree() <= small.mean_degree() + 3

    def test_neighbors_symmetric(self):
        build, _ = rngs(15)
        dht = CanNetwork(64, build, d=2)
        for i, nbs in enumerate(dht.neighbors):
            for j in nbs:
                assert i in dht.neighbors[j]


class TestKleinberg:
    def test_lookup_reaches_owner(self):
        build, route = rngs(16)
        dht = KleinbergRing(128, build)
        for _ in range(50):
            src = int(route.integers(128))
            t = float(route.random())
            path = dht.lookup_path(src, t, route)
            assert path[-1] == dht.owner(t)

    def test_constant_degree(self):
        build, _ = rngs(17)
        dht = KleinbergRing(512, build)
        assert dht.max_degree() <= 3

    def test_path_polylog(self):
        """Greedy routing is O(log² n) — far below the lattice diameter."""
        build, route = rngs(18)
        n = 1024
        dht = KleinbergRing(n, build)
        row = measure_scheme(dht, route, lookups=400)
        assert row.mean_path <= math.log2(n) ** 2
        assert row.mean_path >= math.log2(n) / 2  # and clearly super-log

    def test_beats_lattice_only(self):
        """The long link matters: mean path ≪ n/4 (pure ring average)."""
        build, route = rngs(19)
        dht = KleinbergRing(512, build)
        row = measure_scheme(dht, route, lookups=300)
        assert row.mean_path < 512 / 8


class TestViceroy:
    def test_lookup_reaches_owner(self):
        build, route = rngs(20)
        dht = ViceroyNetwork(128, build)
        for _ in range(100):
            src = dht.points[int(route.integers(128))]
            t = float(route.random())
            path = dht.lookup_path(src, t, route)
            assert path[-1] == dht.owner(t)

    def test_constant_degree(self):
        """Viceroy's selling point: O(1) links per node."""
        build, _ = rngs(21)
        dht = ViceroyNetwork(512, build)
        assert dht.max_degree() <= 7
        assert dht.mean_degree() <= 6

    def test_levels_within_range(self):
        build, _ = rngs(22)
        dht = ViceroyNetwork(256, build)
        assert all(1 <= lv <= dht.max_level for lv in dht.level.values())

    def test_path_logarithmic(self):
        build, route = rngs(23)
        n = 512
        dht = ViceroyNetwork(n, build)
        row = measure_scheme(dht, route, lookups=400)
        assert row.mean_path <= 4 * math.log2(n)


class TestKoorde:
    def test_lookup_reaches_owner(self):
        build, route = rngs(24)
        dht = KoordeNetwork(128, build)
        for _ in range(100):
            src = dht.points[int(route.integers(128))]
            t = float(route.random())
            path = dht.lookup_path(src, t, route)
            assert path[-1] == dht.owner(t)

    def test_constant_degree(self):
        build, _ = rngs(25)
        dht = KoordeNetwork(512, build)
        assert dht.max_degree() <= 3

    def test_path_logarithmic(self):
        build, route = rngs(26)
        means = {}
        for n in (128, 1024):
            dht = KoordeNetwork(n, np.random.default_rng(n))
            means[n] = measure_scheme(dht, route, lookups=300).mean_path
        # logarithmic growth: doubling n three times adds a constant,
        # far from the ×8 a linear scheme would show
        assert means[1024] <= means[128] * 2.5
        assert means[1024] <= 5 * math.log2(1024)


class TestDistanceHalvingAdapter:
    def test_lookup_reaches_owner(self):
        build, route = rngs(27)
        dht = DistanceHalvingAdapter(128, build)
        for _ in range(50):
            src = dht.net.points()[int(route.integers(128))]
            t = float(route.random())
            path = dht.lookup_path(src, t, route)
            assert path[-1] == dht.owner(t)

    def test_modes(self):
        build, route = rngs(28)
        fast = DistanceHalvingAdapter(128, build, mode="fast")
        row = measure_scheme(fast, route, lookups=200)
        assert row.mean_path <= math.log2(128) + 3

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            DistanceHalvingAdapter(16, np.random.default_rng(0), mode="x")

    def test_balanced_degree_constant(self):
        build, _ = rngs(29)
        dht = DistanceHalvingAdapter(512, build, balanced=True)
        assert dht.max_degree() <= 16  # ρ ≤ ~6 with multiple choice
