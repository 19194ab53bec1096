"""The multicore sharded execution backend (core/shard.py).

A real 2-worker :class:`ShardedExecutor` over shared-memory snapshot
columns must be **bit-identical** to the in-process engine on every
result field (including CSR paths), re-sync itself after membership
churn, shard the two-phase algorithm under explicit ``tau`` digits, and
own the shared-memory lifetime cleanly (close is idempotent; a closed
executor refuses work).
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core import DistanceHalvingNetwork
from repro.core.shard import (
    ShardedExecutor,
    available_workers,
    merge_results,
    slice_bounds,
)

N = 256
BATCH = 1500


def make_net(n=N, seed=0):
    rng = np.random.default_rng(seed)
    net = DistanceHalvingNetwork(rng=rng)
    net.populate(n)
    return net


def make_workload(net, size=BATCH, seed=1):
    rng = np.random.default_rng(seed)
    pts = net.segments.as_array()
    return pts[rng.integers(0, pts.size, size=size)], rng.random(size)


def assert_results_equal(a, b, paths=True):
    np.testing.assert_array_equal(a.sources, b.sources)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.source_idx, b.source_idx)
    np.testing.assert_array_equal(a.owner_idx, b.owner_idx)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.hops, b.hops)
    np.testing.assert_array_equal(a.points, b.points)
    if a.phase1_hops is not None or b.phase1_hops is not None:
        np.testing.assert_array_equal(a.phase1_hops, b.phase1_hops)
    if paths:
        np.testing.assert_array_equal(a.path_servers, b.path_servers)
        np.testing.assert_array_equal(a.path_offsets, b.path_offsets)


class TestSliceBounds:
    def test_covers_contiguously(self):
        bounds = slice_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        assert all(hi1 == lo2 for (_, hi1), (lo2, _) in
                   zip(bounds, bounds[1:]))
        assert sum(hi - lo for lo, hi in bounds) == 10

    def test_small_batch_uses_fewer_workers(self):
        assert slice_bounds(2, 8) == [(0, 1), (1, 2)]
        assert slice_bounds(1, 4) == [(0, 1)]
        assert slice_bounds(0, 4) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            slice_bounds(-1, 2)
        with pytest.raises(ValueError):
            slice_bounds(4, 0)


class TestMergeResults:
    def test_merge_of_slices_equals_unsliced(self):
        net = make_net()
        router = net.compile_router()
        src, tgt = make_workload(net)
        whole = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        parts = [router.batch_fast_lookup(src[lo:hi], tgt[lo:hi],
                                          keep_paths="csr")
                 for lo, hi in slice_bounds(src.size, 4)]
        merged = merge_results(parts)
        assert_results_equal(merged, whole)

    def test_merge_reattaches_points(self):
        net = make_net(64)
        router = net.compile_router()
        src, tgt = make_workload(net, size=40)
        parts = [router.batch_fast_lookup(src[:20], tgt[:20]),
                 router.batch_fast_lookup(src[20:], tgt[20:])]
        for p in parts:
            p.points = None  # what shard workers strip before pickling
        merged = merge_results(parts, points=router.points)
        np.testing.assert_array_equal(merged.points, router.points)

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_results([])


class TestShardedExecutor:
    def test_fast_lookup_bit_identical(self):
        net = make_net()
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        single = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        with ShardedExecutor(router, workers=2) as ex:
            sharded = ex.batch_fast_lookup(src, tgt, keep_paths="csr")
        assert_results_equal(sharded, single)

    def test_workers_answer_through_their_own_cover_index(self):
        """Sharded owners equal the searchsorted oracle, before and after
        a re-export (each worker derives the grid from the shared points)."""
        from repro.core.segments import cover_indices

        net = make_net()
        router = net.router(auto_refresh=True, with_adjacency=True)
        src, tgt = make_workload(net)
        tau = np.random.default_rng(5).integers(0, 2, size=(BATCH, 80))
        with ShardedExecutor(router, workers=2) as ex:
            for joiner in (0.123456789, None):
                fast = ex.batch_fast_lookup(src, tgt, keep_paths="csr")
                dh = ex.batch_dh_lookup(src, tgt, tau=tau, keep_paths="csr")
                expect = cover_indices(router.points, tgt)
                np.testing.assert_array_equal(fast.owner_idx, expect)
                np.testing.assert_array_equal(dh.owner_idx, expect)
                assert_results_equal(
                    dh, router.batch_dh_lookup(src, tgt, tau=tau,
                                               keep_paths="csr"))
                if joiner is not None:
                    net.join(joiner)

    def test_non_finite_target_rejected_in_the_parent(self):
        net = make_net()
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net, size=64)
        tgt[40] = np.inf
        with ShardedExecutor(router, workers=2) as ex:
            with pytest.raises(ValueError, match=r"targets\[40\] is inf"):
                ex.batch_fast_lookup(src, tgt)

    def test_resync_after_churn(self):
        net = make_net()
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        with ShardedExecutor(router, workers=2) as ex:
            assert ex.syncs == 1
            ex.batch_fast_lookup(src, tgt)
            assert ex.syncs == 1  # fresh: sync is a no-op
            rng = np.random.default_rng(9)
            for _ in range(5):
                net.join(float(rng.random()))
            single = router.batch_fast_lookup(src, tgt, keep_paths="csr")
            sharded = ex.batch_fast_lookup(src, tgt, keep_paths="csr")
            assert ex.syncs == 2  # churn forced a re-export
            assert ex.version == router.version
            assert_results_equal(sharded, single)
            ex.batch_fast_lookup(src, tgt)
            assert ex.syncs == 2  # ... once per membership version

    def test_dh_lookup_with_explicit_tau(self):
        net = make_net(128)
        router = net.router(auto_refresh=True, with_adjacency=True)
        src, tgt = make_workload(net, size=600, seed=3)
        tau = np.random.default_rng(4).integers(0, net.delta,
                                                size=(600, 64))
        single = router.batch_dh_lookup(src, tgt, tau=tau, keep_paths="csr")
        with ShardedExecutor(router, workers=2) as ex:
            sharded = ex.batch_dh_lookup(src, tgt, tau, keep_paths="csr")
        assert_results_equal(sharded, single)

    def test_dh_exports_adjacency_on_demand(self):
        net = make_net(64)
        router = net.router(auto_refresh=True)  # no adjacency yet
        src, tgt = make_workload(net, size=200, seed=5)
        tau = np.random.default_rng(6).integers(0, net.delta, size=(200, 64))
        with ShardedExecutor(router, workers=2) as ex:
            assert not ex._exported_adjacency
            sharded = ex.batch_dh_lookup(src, tgt, tau)
            assert ex._exported_adjacency
        single = router.batch_dh_lookup(src, tgt, tau=tau)
        assert_results_equal(sharded, single, paths=False)

    def test_tiny_batch_falls_back_in_process(self):
        net = make_net(64)
        router = net.router(auto_refresh=True)
        with ShardedExecutor(router, workers=4) as ex:
            res = ex.batch_fast_lookup([0.1], [0.9])
            assert res.size == 1

    def test_keep_paths_true_means_csr(self):
        net = make_net(64)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        with ShardedExecutor(router, workers=2) as ex:
            sharded = ex.batch_fast_lookup(src, tgt, keep_paths=True)
        single = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        assert_results_equal(sharded, single)

    def test_close_is_idempotent_and_final(self):
        net = make_net(64)
        router = net.router(auto_refresh=True)
        ex = ShardedExecutor(router, workers=2)
        ex.close()
        ex.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            ex.batch_fast_lookup([0.1], [0.9])

    def test_workers_below_two_rejected(self):
        net = make_net(64)
        router = net.router(auto_refresh=True)
        with pytest.raises(ValueError):
            ShardedExecutor(router, workers=1)

    def test_workers_fork_where_available(self):
        methods = mp.get_all_start_methods()
        router = make_net(64).router(auto_refresh=True)
        with ShardedExecutor(router, workers=2) as ex:
            assert ex._ctx.get_start_method() == (
                "fork" if "fork" in methods else methods[0])


class TestRouterIntegration:
    def test_lookup_batch_workers_parity(self):
        net = make_net()
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        single = router.lookup_batch(src, tgt)  # workers=1 path
        try:
            sharded = router.lookup_batch(src, tgt, workers=2)
        finally:
            router.close_executor()
        assert_results_equal(sharded, single, paths=False)

    def test_executor_cached_and_rebuilt_on_worker_change(self):
        net = make_net(64)
        router = net.router(auto_refresh=True)
        try:
            ex2 = router.sharded_executor(2)
            assert router.sharded_executor(2) is ex2
            ex3 = router.sharded_executor(3)
            assert ex3 is not ex2 and ex3.workers == 3
            assert ex2._pool is None  # old executor was closed
        finally:
            router.close_executor()

    def test_available_workers_positive(self):
        assert available_workers() >= 1
