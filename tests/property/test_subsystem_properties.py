"""Property-based tests for the outer subsystems (faults, baselines, §7)."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import ChordNetwork, KoordeNetwork, TapestryNetwork
from repro.emulation import GraphEmulator, RingFamily
from repro.faults import OverlappingDHNetwork, ReedSolomonCode
from repro.core.segments import SegmentMap

seeds = st.integers(min_value=0, max_value=2**31)
MED = settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
               deadline=None)
FAST = settings(max_examples=50, deadline=None)


class TestErasureProperties:
    @MED
    @given(seed=seeds,
           k=st.integers(min_value=1, max_value=6),
           extra=st.integers(min_value=0, max_value=6),
           payload=st.binary(min_size=0, max_size=300))
    def test_any_k_random_shares_decode(self, seed, k, extra, payload):
        n = k + extra
        code = ReedSolomonCode(k, n)
        shares = code.encode(payload)
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=k, replace=False)
        subset = [shares[i] for i in idx]
        assert code.decode(subset) == payload

    @FAST
    @given(k=st.integers(min_value=1, max_value=8),
           payload=st.binary(min_size=0, max_size=100))
    def test_systematic_prefix(self, k, payload):
        """The first k shares concatenate to the framed payload."""
        code = ReedSolomonCode(k, k + 2)
        shares = code.encode(payload)
        framed = b"".join(p for _, p in shares[:k])
        assert framed[8: 8 + len(payload)] == payload


class TestOverlapProperties:
    @MED
    @given(seed=seeds, probe=st.floats(min_value=0.0, max_value=1.0,
                                       exclude_max=True, allow_nan=False))
    def test_every_point_covered_logarithmically(self, seed, probe):
        net = OverlappingDHNetwork(64, np.random.default_rng(seed))
        covers = net.covers(probe)
        assert len(covers) >= 1
        assert len(covers) <= 6 * math.log2(64)
        for x in covers:
            assert net.covers_point(x, probe)


class TestBaselineProperties:
    @MED
    @given(seed=seeds, target=st.floats(min_value=0.0, max_value=1.0,
                                        exclude_max=True, allow_nan=False))
    def test_chord_routes_to_successor(self, seed, target):
        rng = np.random.default_rng(seed)
        dht = ChordNetwork(32, rng)
        src = dht.points[int(rng.integers(32))]
        path = dht.lookup_path(src, target, rng)
        assert path[-1] == dht.owner(target)
        assert len(path) - 1 <= 3 * dht.m

    @MED
    @given(seed=seeds, target=st.floats(min_value=0.0, max_value=1.0,
                                        exclude_max=True, allow_nan=False))
    def test_koorde_routes_to_successor(self, seed, target):
        rng = np.random.default_rng(seed)
        dht = KoordeNetwork(32, rng)
        src = dht.points[int(rng.integers(32))]
        path = dht.lookup_path(src, target, rng)
        assert path[-1] == dht.owner(target)

    @MED
    @given(seed=seeds, target=st.floats(min_value=0.0, max_value=1.0,
                                        exclude_max=True, allow_nan=False))
    def test_tapestry_root_source_independent(self, seed, target):
        rng = np.random.default_rng(seed)
        dht = TapestryNetwork(32, rng)
        roots = {
            dht.lookup_path(int(rng.integers(32)), target, rng)[-1]
            for _ in range(4)
        }
        assert len(roots) == 1


class TestEmulationProperties:
    @MED
    @given(points=st.lists(st.floats(min_value=0.0, max_value=1.0,
                                     exclude_max=True, allow_nan=False),
                           min_size=2, max_size=40, unique=True),
           k=st.integers(min_value=2, max_value=7))
    def test_guests_always_partition(self, points, k):
        sm = SegmentMap(points)
        em = GraphEmulator(sm, RingFamily(), k=k)
        all_guests = sorted(g for p in sm for g in em.guests_of(p))
        assert all_guests == list(range(1 << k))
