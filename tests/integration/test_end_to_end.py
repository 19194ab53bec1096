"""Integration tests: complete workflows across subsystems.

Each test exercises a realistic end-to-end scenario combining several
modules, matching the example applications:

* DHT lifecycle: balanced joins → storage → routed retrieval → churn;
* flash crowd: routing + caching + epochs together;
* resilient storage: overlapping DHT + fault plans + both lookups;
* emulation on a live network's decomposition;
* concurrent lookups under random latency at integration scale.
"""

import math

import numpy as np
from oracles.inputs import joined, populated

from repro.balance import BucketBalancer, MultipleChoice
from repro.core import (
    CacheSystem,
    CongestionCounter,
    DistanceHalvingNetwork,
    dh_lookup,
    fast_lookup,
)
from repro.emulation import DeBruijnFamily, GraphEmulator
from repro.faults import (
    OverlappingDHNetwork,
    random_byzantine,
    random_failstop,
    resistant_lookup,
    simple_lookup,
)
from repro.sim.protocol import build_protocol_network, run_protocol_lookups


class TestDHTLifecycle:
    def test_full_lifecycle(self):
        rng = np.random.default_rng(1)
        net = populated(128, rng, selector=MultipleChoice(t=4))

        # store a library of items
        for i in range(64):
            net.store_item(f"k{i}", i * i)

        # routed retrieval from random sources, both algorithms
        pts = list(net.points())
        for i in range(64):
            src = pts[int(rng.integers(net.n))]
            target = net.item_hash(f"k{i}")
            assert fast_lookup(net, src, target).owner == net.item_owner(f"k{i}").point
            assert dh_lookup(net, src, target, rng).owner == net.item_owner(f"k{i}").point

        # heavy churn, then everything still retrievable and smooth-ish
        for _ in range(100):
            victims = list(net.points())
            net.leave(victims[int(rng.integers(len(victims)))])
            net.join(selector=MultipleChoice(t=4))
        net.check_invariants()
        for i in range(64):
            assert net.get_item(f"k{i}") == i * i
        assert net.edge_count() <= 3 * net.n - 1

    def test_degree_stays_constant_through_growth(self):
        rng = np.random.default_rng(2)
        net = DistanceHalvingNetwork(rng=rng)
        maxima = []
        for stage in range(4):
            net.populate(64, selector=MultipleChoice(t=4))
            maxima.append(net.max_out_degree())
        assert max(maxima) <= 10  # constant-degree DHT across 64..256


class TestFlashCrowdScenario:
    def test_caching_protects_owner_under_mixed_load(self):
        rng = np.random.default_rng(3)
        net = DistanceHalvingNetwork(rng=rng)
        n = 128
        net.populate(n, selector=MultipleChoice(t=4))
        cache = CacheSystem(net, threshold=int(math.log2(n)))
        pts = list(net.points())
        # mixed demand: one viral item + background uniform items
        for k in range(2 * n):
            src = pts[int(rng.integers(n))]
            item = "viral" if k % 2 == 0 else f"bg{k}"
            cache.request(item, src, rng)
        max_hits = max(cache.cache_hits.values())
        assert max_hits <= 8 * math.log2(n) ** 2
        # epochs pass without demand: viral tree collapses, bg unaffected
        cache.advance_epoch()
        cache.advance_epoch()
        assert cache.tree_for("viral").size() == 1

    def test_cache_correct_after_churn(self):
        """Caching keeps serving while servers join (tree positions are
        re-resolved against the live decomposition on every request)."""
        rng = np.random.default_rng(4)
        net = populated(64, rng, selector=MultipleChoice(t=4))
        cache = CacheSystem(net, threshold=3)
        pts = list(net.points())
        for k in range(50):
            cache.request("hot", pts[int(rng.integers(len(pts)))], rng)
            if k % 10 == 9:
                net.join(selector=MultipleChoice(t=4))
                pts = list(net.points())
        assert cache.requests_served == 50


class TestResilientStorageScenario:
    def test_storage_survives_failures_and_liars(self):
        """Combined adversity within the theorem's regime: the cover sets
        (scaled up ×1.5, the paper's 'adjust the q values' remark) keep an
        honest alive majority at 10% fail-stop + 5% liars."""
        rng = np.random.default_rng(5)
        net = OverlappingDHNetwork(256, rng, coverage_factor=1.5)
        for i in range(16):
            net.store_item(f"block{i}", i)
        fs = random_failstop(net.points, 0.10, rng)
        byz = random_byzantine(net.points, 0.05, rng)
        byz.failed = fs.failed  # one plan carrying both behaviours
        ok = tot = 0
        for i in range(0, 256, 16):
            src = net.points[i]
            if not byz.is_alive(src):
                continue
            for b in ("block0", "block7"):
                res = resistant_lookup(net, src, b, byz)
                ok += res.success
                tot += 1
        assert tot >= 10
        assert ok / tot >= 0.9

    def test_simple_lookup_distributes_load(self):
        """Random alive-cover choice spreads load over the replica sets."""
        rng = np.random.default_rng(6)
        net = OverlappingDHNetwork(128, rng)
        net.store_item("doc", 1)
        from collections import Counter

        holders = Counter()
        for i in range(128):
            res = simple_lookup(net, net.points[i], "doc", rng)
            holders[res.servers[-1]] += 1
        # many distinct final holders (not always the same replica)
        assert len(holders) >= 3


class TestEmulationOnLiveNetwork:
    def test_emulate_debruijn_over_dht_decomposition(self):
        """§7 applied to the DHT's own segment map: compute a guest round."""
        rng = np.random.default_rng(7)
        net = populated(100, rng, selector=MultipleChoice(t=4))
        em = GraphEmulator(net.segments, DeBruijnFamily())
        assert all(em.check_properties().values())
        values = {u: float(rng.random()) for u in range(1 << em.k)}
        out = em.emulate_round(values)
        assert len(out) == 1 << em.k

    def test_emulation_tracks_churn(self):
        net = populated(64, 8, selector=MultipleChoice(t=4))
        em = GraphEmulator(net.segments, DeBruijnFamily(), k=6)
        before = {p: em.guests_of(p) for p in net.points()}
        newcomer = net.join(selector=MultipleChoice(t=4))
        # guests are re-derived from the live decomposition: the newcomer
        # takes over some guests, everyone else's sets only shrink/stay
        after_total = sorted(
            g for p in net.points() for g in em.guests_of(p)
        )
        assert after_total == list(range(64))


class TestAsyncIntegration:
    def test_async_batch_matches_reference(self):
        rng = np.random.default_rng(9)
        net = populated(96, rng, selector=MultipleChoice(t=4))
        pts = list(net.points())
        queries, expected = [], []
        for k in range(40):
            src = pts[int(rng.integers(net.n))]
            tgt = float(rng.random())
            queries.append((src, tgt))
            expected.append(dh_lookup(net, src, tgt,
                                      np.random.default_rng(k)).server_path)
        delay = np.random.default_rng(10)
        sim = build_protocol_network(
            net, latency=lambda a, b: float(delay.uniform(0.1, 10.0)))
        got = run_protocol_lookups(sim, net, queries,
                                   [np.random.default_rng(k) for k in range(40)])
        assert [out.path for out in got] == expected
        # the lookups interleaved: they did not finish in injection order
        finished = sorted(range(40), key=lambda k: got[k].completed_at)
        assert finished != list(range(40))


class TestBucketBalancedDHT:
    def test_bucket_positions_drive_a_dht(self):
        """Rebuild a DHT from the bucket balancer's smooth positions —
        the §4.1 scheme produces decompositions the §2 bounds like."""
        rng = np.random.default_rng(11)
        bb = BucketBalancer(rebalance_threshold=3.0)
        handles = [bb.join(rng) for _ in range(300)]
        rng.shuffle(handles)
        for h in handles[:150]:
            bb.leave(h, rng)
        net = joined(bb.segments.points)
        rho = net.smoothness()
        assert net.max_out_degree() <= rho + 4
        counter = CongestionCounter()
        pts = list(net.points())
        for _ in range(200):
            src = pts[int(rng.integers(net.n))]
            counter.record(fast_lookup(net, src, float(rng.random())))
        assert counter.max_congestion() <= 20 * math.log2(net.n) / net.n
