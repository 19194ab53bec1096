"""The multicore sharded execution backend (core/shard.py).

A real 2-worker :class:`ShardedExecutor` over shared-memory snapshot
columns must be **bit-identical** to the in-process fast lookup on every
result field (including CSR paths), re-sync itself after membership
churn, and own the shared-memory lifetime cleanly: close is idempotent,
a closed executor refuses work, no block outlives a close or a re-export,
and a worker killed mid-batch surfaces as an error, not a hang.
"""

import contextlib
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest
from oracles.compare import assert_same
from oracles.inputs import populated

from repro.core import shard
from repro.core.shard import (
    ShardedExecutor,
    available_workers,
    merge_results,
    slice_bounds,
)

N = 256
BATCH = 1500


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block with ``TimeoutError`` instead of letting it hang."""

    def expired(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def shm_names(ex):
    """The ``/dev/shm`` paths of an executor's exported blocks."""
    return [os.path.join("/dev/shm", b.name) for b in ex._blocks]


def make_workload(net, size=BATCH, seed=1):
    rng = np.random.default_rng(seed)
    pts = net.segments.as_array()
    return pts[rng.integers(0, pts.size, size=size)], rng.random(size)


FIELDS = ("sources", "targets", "source_idx", "owner_idx", "t", "hops",
          "points", "phase1_hops")
PATH_FIELDS = ("path_servers", "path_offsets")


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
        net = populated(N, 0)
        router = net.compile_router()
        src, tgt = make_workload(net)
        whole = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        parts = [router.batch_fast_lookup(src[lo:hi], tgt[lo:hi],
                                          keep_paths="csr")
                 for lo, hi in slice_bounds(src.size, 4)]
        merged = merge_results(parts)
        assert_same(merged, whole, FIELDS + PATH_FIELDS)

    def test_merge_reattaches_points(self):
        net = populated(64, 0)
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
        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        single = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        with ShardedExecutor(router, workers=2) as ex:
            sharded = ex.batch_fast_lookup(src, tgt, keep_paths="csr")
        assert_same(sharded, single, FIELDS + PATH_FIELDS)

    def test_workers_answer_through_their_own_cover_index(self):
        """Sharded owners equal the searchsorted oracle, before and after
        a re-export (each worker derives the grid from the shared points)."""
        from repro.core.segments import cover_indices

        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        with ShardedExecutor(router, workers=2) as ex:
            for joiner in (0.123456789, None):
                fast = ex.batch_fast_lookup(src, tgt, keep_paths="csr")
                expect = cover_indices(router.points, tgt)
                np.testing.assert_array_equal(fast.owner_idx, expect)
                if joiner is not None:
                    net.join(joiner)

    def test_non_finite_target_rejected_in_the_parent(self):
        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net, size=64)
        tgt[40] = np.inf
        with ShardedExecutor(router, workers=2) as ex:
            with pytest.raises(ValueError,
                               match=r"targets\[40\] must be a finite real, got inf"):
                ex.batch_fast_lookup(src, tgt)

    def test_resync_after_churn(self):
        net = populated(N, 0)
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
            assert_same(sharded, single, FIELDS + PATH_FIELDS)
            ex.batch_fast_lookup(src, tgt)
            assert ex.syncs == 2  # ... once per membership version

    def test_tiny_batch_falls_back_in_process(self):
        net = populated(64, 0)
        router = net.router(auto_refresh=True)
        with ShardedExecutor(router, workers=4) as ex:
            res = ex.batch_fast_lookup([0.1], [0.9])
            assert res.size == 1

    def test_keep_paths_true_means_csr(self):
        net = populated(64, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        with ShardedExecutor(router, workers=2) as ex:
            sharded = ex.batch_fast_lookup(src, tgt, keep_paths=True)
        single = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        assert_same(sharded, single, FIELDS + PATH_FIELDS)

    def test_close_is_idempotent_and_final(self):
        net = populated(64, 0)
        router = net.router(auto_refresh=True)
        ex = ShardedExecutor(router, workers=2)
        ex.close()
        ex.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            ex.batch_fast_lookup([0.1], [0.9])

    def test_workers_below_two_rejected(self):
        net = populated(64, 0)
        router = net.router(auto_refresh=True)
        with pytest.raises(ValueError):
            ShardedExecutor(router, workers=1)

    def test_workers_fork_where_available(self):
        methods = mp.get_all_start_methods()
        router = populated(64, 0).router(auto_refresh=True)
        with ShardedExecutor(router, workers=2) as ex:
            assert ex._ctx.get_start_method() == (
                "fork" if "fork" in methods else methods[0])

    def test_export_ships_the_three_adopt_columns(self):
        """The shared blocks hold ``points``, ``seg_end``, ``midpoints``
        — what ``BatchRouter._adopt`` takes — and nothing else."""
        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        with ShardedExecutor(router, workers=2) as ex:
            assert len(ex._blocks) == 3
            for shm, attr in zip(ex._blocks,
                                 ("points", "seg_end", "midpoints")):
                col = getattr(router, attr)
                got = np.ndarray(col.shape, dtype=col.dtype,
                                 buffer=shm.buf).copy()
                np.testing.assert_array_equal(got, col)
                assert shm.size >= col.nbytes


class TestRouterIntegration:
    def test_lookup_batch_workers_parity(self):
        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        single = router.lookup_batch(src, tgt)  # workers=1 path
        try:
            sharded = router.lookup_batch(src, tgt, workers=2)
        finally:
            router.close_executor()
        assert_same(sharded, single, FIELDS)

    def test_executor_cached_and_rebuilt_on_worker_change(self):
        net = populated(64, 0)
        router = net.router(auto_refresh=True)
        try:
            ex2 = router.sharded_executor(2)
            assert router.sharded_executor(2) is ex2
            ex3 = router.sharded_executor(3)
            assert ex3 is not ex2 and ex3.workers == 3
            assert ex2._pool is None  # old executor was closed
        finally:
            router.close_executor()

    @pytest.mark.parametrize("workers", [2.5, 2.0, 0, -3, "2", None,
                                         float("nan"), float("inf")])
    def test_bad_workers_refused_naming_the_value(self, workers):
        """A non-integral or sub-1 ``workers`` raises; the cached
        executor is neither rebuilt nor torn down."""
        net = populated(64, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net, size=64)
        try:
            ex = router.sharded_executor(2)
            with pytest.raises(ValueError, match=repr(workers)):
                router.lookup_batch(src, tgt, workers=workers)
            assert router.sharded_executor(2) is ex and ex._pool is not None
            assert ex.syncs == 1
        finally:
            router.close_executor()

    @pytest.mark.parametrize("workers", [np.int64(2), np.int32(2)],
                             ids=["int64", "int32"])
    def test_numpy_integer_workers_accepted(self, workers):
        """A NumPy integer is an integer: it shards, and shares the
        executor cached for the plain int."""
        net = populated(64, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net, size=200)
        try:
            ex = router.sharded_executor(2)
            got = router.lookup_batch(src, tgt, workers=workers)
            assert router.sharded_executor(workers) is ex
            assert type(ex.workers) is int and ex.syncs == 1
        finally:
            router.close_executor()
        assert_same(got, router.batch_fast_lookup(src, tgt), FIELDS)

    def test_available_workers_positive(self):
        assert available_workers() >= 1


def kill_one_idle_worker(ex, before):
    """SIGKILL one of ``ex``'s workers and wait until the pool knows."""
    victim = min((p for p in mp.active_children() if p.pid not in before),
                 key=lambda p: p.pid)
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()
    while not ex._pool._broken:
        time.sleep(0.01)


def _stall(task):
    """A worker task that is still running when the test kills it."""
    time.sleep(60)


class TestCrashPaths:
    def test_worker_killed_mid_batch_raises_and_recovers(self, monkeypatch):
        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        single = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        monkeypatch.setattr(shard, "_run_fast", _stall)
        before = {p.pid for p in mp.active_children()}
        ex = router.sharded_executor(2)
        try:
            blocks = shm_names(ex)
            victim = min(p.pid for p in mp.active_children()
                         if p.pid not in before)
            killer = threading.Timer(0.5, os.kill, (victim, signal.SIGKILL))
            killer.start()
            with deadline(30), pytest.raises(RuntimeError, match="died"):
                ex.batch_fast_lookup(src, tgt, keep_paths="csr")
            killer.join()
            assert ex._pool is None and ex._blocks == []
            if os.path.isdir("/dev/shm"):
                assert not any(os.path.exists(b) for b in blocks)
            monkeypatch.undo()
            with deadline(30):
                again = router.lookup_batch(src, tgt, workers=2,
                                            keep_paths="csr")
            assert router.sharded_executor(2) is ex and ex.syncs == 2
            assert_same(again, single, FIELDS + PATH_FIELDS)
        finally:
            router.close_executor()

    def test_worker_killed_between_batches_raises_and_recovers(self):
        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        single = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        before = {p.pid for p in mp.active_children()}
        ex = router.sharded_executor(2)
        try:
            with deadline(30):
                kill_one_idle_worker(ex, before)
                with pytest.raises(RuntimeError, match="died"):
                    router.lookup_batch(src, tgt, workers=2,
                                        keep_paths="csr")
            assert ex._pool is None and ex._blocks == []
            with deadline(30):
                again = router.lookup_batch(src, tgt, workers=2,
                                            keep_paths="csr")
            assert router.sharded_executor(2) is ex and ex.syncs == 2
            assert_same(again, single, FIELDS + PATH_FIELDS)
        finally:
            router.close_executor()

    def test_crashed_executor_closes_cleanly_and_for_good(self):
        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        before = {p.pid for p in mp.active_children()}
        ex = ShardedExecutor(router, workers=2)
        with deadline(30):
            kill_one_idle_worker(ex, before)
            with pytest.raises(RuntimeError, match="died"):
                ex.batch_fast_lookup(src, tgt)
        ex.close()
        ex.close()  # a no-op after the crash's teardown, too
        with pytest.raises(RuntimeError, match="closed"):
            ex.batch_fast_lookup(src, tgt)
        assert ex._pool is None and ex._blocks == []
        assert not {p.pid for p in mp.active_children()} - before

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="no /dev/shm to inspect")
    def test_no_block_outlives_a_close_or_a_reexport(self):
        net = populated(N, 0)
        router = net.router(auto_refresh=True)
        src, tgt = make_workload(net)
        with deadline(60):
            ex = ShardedExecutor(router, workers=2)
            first = shm_names(ex)
            assert len(first) == 3 and all(map(os.path.exists, first))
            net.join(0.123456789)
            ex.batch_fast_lookup(src, tgt)  # churn: re-export
            second = shm_names(ex)
            assert not any(map(os.path.exists, first))
            assert all(map(os.path.exists, second))
            ex.close()
        assert not any(map(os.path.exists, first + second))
