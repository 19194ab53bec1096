"""Property-based tests for the protocols (lookup, caching, hashing).

Random small networks + random lookups: correctness invariants that must
hold on *every* instance, not just the seeds unit tests chose.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles.inputs import populated
from oracles.lookup import verify_adjacent

from repro.core import (BatchRouter, CacheSystem, DistanceHalvingNetwork,
                        dh_lookup, fast_lookup)
from repro.core.caching import ActiveTree
from repro.core.pathtree import PathTree
from repro.hashing.kwise import KWiseHash
from repro.peer import CostMap

net_sizes = st.integers(min_value=2, max_value=48)
seeds = st.integers(min_value=0, max_value=2**31)
unit_float = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                       allow_nan=False)


def build_net(n, seed):
    rng = np.random.default_rng(seed)
    return populated(n, rng), rng


SLOW = settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow],
                deadline=None)
MED = settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow],
               deadline=None)
FAST = settings(max_examples=40, deadline=None)
SMALL = settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
                 deadline=None)


class TestLookupProperties:
    @SLOW
    @given(n=net_sizes, seed=seeds, target=unit_float)
    def test_fast_lookup_total_correctness(self, n, seed, target):
        net, rng = build_net(n, seed)
        src = list(net.points())[int(rng.integers(n))]
        res = fast_lookup(net, src, target)
        assert res.server_path[-1] == net.segments.cover_point(target)
        assert res.server_path[0] == net.segments.cover_point(src)
        assert verify_adjacent(res, net)

    @SLOW
    @given(n=net_sizes, seed=seeds, target=unit_float)
    @example(n=45, seed=4031, target=1 - 2**-53)
    def test_dh_lookup_total_correctness(self, n, seed, target):
        net, rng = build_net(n, seed)
        src = list(net.points())[int(rng.integers(n))]
        res = dh_lookup(net, src, target, rng)
        assert res.server_path[-1] == net.segments.cover_point(target)
        assert verify_adjacent(res, net)

    def test_dh_handoff_at_the_float_boundary(self):
        """Phase I must hand off to the point phase II descends from.

        For ``y = 1 − 2⁻⁵³`` and first digit 1 the image stepped through
        ``child`` rounds to 1.0, folds to 0.0 and stays there, while the
        closed form ``w(τ_t, y)`` is 0.125 after (1, 0, 0, 0): testing
        the one and starting phase II from the other made a hop that is
        no edge of ``G_x``.  The scalar walk and the batch one, on
        ``tau=`` and on the uniforms spelling it (with or without a cost
        map), agree on the fixed walk and every consecutive pair is an
        edge.
        """
        net, rng = build_net(45, 4031)
        src = list(net.points())[int(rng.integers(45))]
        target = 1 - 2**-53
        tau = (1, 0, 0, 0) + (0, 1) * 24
        res = dh_lookup(net, src, target, rng, tau=tau)
        assert verify_adjacent(res, net)
        assert res.server_path[-1] == net.segments.cover_point(target)

        def assert_matches_scalar(router, batch):
            assert batch.server_path(0) == res.server_path
            assert (int(batch.t[0]), int(batch.hops[0])) == (res.t, res.hops)
            path = batch.path_servers.astype(np.int64)
            assert router._edge_member(path[:-1], path[1:]).all()

        router = net.compile_router(with_adjacency=True)
        assert_matches_scalar(router, router.batch_dh_lookup(
            [src], [target], tau=np.array([tau]), keep_paths="csr"))
        # the uniform rule's digit is ⌊u·Δ⌋, so these uniforms spell the
        # same τ, with or without a cost map
        cost_router = BatchRouter(net, cost_map=CostMap.synthetic(
            n_isps=3, rng=np.random.default_rng(0)))
        for r in (router, cost_router):
            assert_matches_scalar(r, r.batch_dh_lookup(
                [src], [target], choices=(np.array([tau]) + 0.5) / 2,
                keep_paths="csr"))

    @SLOW
    @given(n=net_sizes, seed=seeds, target=unit_float)
    def test_path_length_bound_always(self, n, seed, target):
        """Cor 2.5 is deterministic: it must hold on every instance.

        The minimal walk length is an integer, so the guarantee is
        ``t ≤ ⌈log n + log ρ + 1⌉`` — without the ceiling the bound can
        be violated by < 1 (e.g. n=2, ρ≈1.62 forces t=3 > 2.70).
        """
        net, rng = build_net(n, seed)
        src = list(net.points())[int(rng.integers(n))]
        res = fast_lookup(net, src, target)
        rho = net.smoothness()
        if math.isfinite(rho):
            bound = math.log2(max(2, n)) + math.log2(max(1.0, rho)) + 1
            assert res.t <= math.ceil(bound - 1e-9) + 1e-6


class TestCachingProperties:
    @MED
    @given(seed=seeds, c=st.integers(min_value=1, max_value=16),
           taus=st.lists(st.lists(st.integers(0, 1), min_size=0, max_size=10),
                         min_size=1, max_size=40))
    def test_active_set_prefix_closed(self, seed, c, taus):
        """Invariant: the active set is always a tree containing the root."""
        tree = ActiveTree(PathTree(0.375), threshold=c)
        for tau in taus:
            tree.serve(tuple(tau))
        for addr in tree.active:
            for j in range(len(addr)):
                assert addr[:j] in tree.active

    @MED
    @given(seed=seeds, c=st.integers(min_value=1, max_value=16),
           taus=st.lists(st.lists(st.integers(0, 1), min_size=0, max_size=10),
                         min_size=1, max_size=40))
    def test_collapse_never_removes_root(self, seed, c, taus):
        tree = ActiveTree(PathTree(0.651), threshold=c)
        for tau in taus:
            tree.serve(tuple(tau))
        tree.advance_epoch()
        tree.advance_epoch()
        assert () in tree.active
        for addr in tree.active:  # still prefix-closed after collapse
            for j in range(len(addr)):
                assert addr[:j] in tree.active

    @MED
    @given(seed=seeds)
    def test_cached_request_served_by_item_holder(self, seed):
        net, rng = build_net(24, seed)
        cache = CacheSystem(net, threshold=2)
        pts = list(net.points())
        for k in range(30):
            res = cache.request("item", pts[int(rng.integers(len(pts)))], rng)
            # serving node's position is covered by the serving server
            pos = cache.tree_for("item").tree.position(res.serving_node)
            assert pos in net.segments.segment_of(res.serving_server)
            assert res.hops <= res.lookup.hops


class TestHashProperties:
    @FAST
    @given(seed=seeds, keys=st.lists(st.integers(min_value=0, max_value=2**61),
                                     min_size=1, max_size=20, unique=True))
    def test_range_and_determinism(self, seed, keys):
        h = KWiseHash(4, np.random.default_rng(seed))
        vals = [h(k) for k in keys]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert vals == [h(k) for k in keys]

    @FAST
    @given(seed=seeds, k=st.integers(min_value=1, max_value=8))
    def test_family_member_is_pure(self, seed, k):
        h1 = KWiseHash(k, np.random.default_rng(seed))
        h2 = KWiseHash(k, np.random.default_rng(seed))
        assert [h1(i) for i in range(10)] == [h2(i) for i in range(10)]


class TestChurnProperties:
    @SMALL
    @given(seed=seeds, ops=st.lists(st.tuples(st.booleans(), unit_float),
                                    min_size=1, max_size=60))
    def test_membership_churn_invariants(self, seed, ops):
        """Join/leave in any order keeps the decomposition consistent."""
        net = DistanceHalvingNetwork(rng=np.random.default_rng(seed))
        alive = []
        for is_join, p in ops:
            if is_join or not alive:
                if p not in net.servers:
                    net.join(p)
                    alive.append(p)
            else:
                victim = alive.pop(int(p * len(alive)) % len(alive))
                net.leave(victim)
            net.check_invariants()
        assert net.n == len(alive)
