"""Property tests: sharded execution is split-invariant, bit-for-bit.

The :class:`ShardedExecutor` contract — slice a batch into k contiguous
shard slices, route each against the same frozen snapshot, merge — must
be bit-identical to the single-process run for ANY slicing, because
every per-lane IEEE-754 op depends only on that lane and the shared
snapshot.  Hypothesis drives the slicing (and a churn point for the
mid-batch refresh case); the comparisons are exact: merged
:class:`BatchLookupResult` arrays, :class:`BatchCongestion` internals,
and :class:`SoakStats` state all byte-equal, never approximate.

The suite routes the slices in-process through the same
``slice_bounds``/``merge_results`` machinery the real worker pool uses
(process dispatch only moves the identical computation elsewhere; the
pool itself is exercised in ``tests/core/test_shard.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.inputs import populated

from repro.core.routing_stats import BatchCongestion
from repro.core.shard import merge_results, slice_bounds
from repro.sim.scenario import SoakStats

N = 128
BATCH = 400


NET = populated(N, 31)
ROUTER = NET.router(auto_refresh=True)
_rng = np.random.default_rng(8)
_pts = NET.segments.as_array()
SOURCES = _pts[_rng.integers(0, _pts.size, size=BATCH)]
TARGETS = _rng.random(BATCH)


def _shard(router, sources, targets, workers):
    """What the pool does, in-process: slice and route each shard.

    (Workers additionally strip ``points`` before pickling and
    ``merge_results`` re-attaches it — that wrinkle is covered by
    ``tests/core/test_shard.py``; accounting needs it attached.)
    """
    return [router.batch_fast_lookup(sources[lo:hi], targets[lo:hi],
                                     keep_paths="csr")
            for lo, hi in slice_bounds(sources.size, workers)]


def _congestion_state(acc):
    return (acc.lookups, acc.total_messages,
            acc._points.tobytes(), acc._counts.tobytes())


def _soak_state(s):
    return (_congestion_state(s.route), s.hop_hist.tobytes(),
            s.cache_requests, s.ft_pairs, s.churn_ops,
            s.n_min, s.n_max, s.smoothness_max)


workers_st = st.integers(min_value=2, max_value=9)


class TestShardSliceParity:
    @settings(max_examples=40, deadline=None)
    @given(workers=workers_st)
    def test_merged_result_bit_identical(self, workers):
        whole = ROUTER.batch_fast_lookup(SOURCES, TARGETS, keep_paths="csr")
        merged = merge_results(_shard(ROUTER, SOURCES, TARGETS, workers),
                               points=ROUTER.points)
        np.testing.assert_array_equal(merged.owner_idx, whole.owner_idx)
        np.testing.assert_array_equal(merged.t, whole.t)
        np.testing.assert_array_equal(merged.hops, whole.hops)
        np.testing.assert_array_equal(merged.sources, whole.sources)
        np.testing.assert_array_equal(merged.targets, whole.targets)
        np.testing.assert_array_equal(merged.path_servers,
                                      whole.path_servers)
        np.testing.assert_array_equal(merged.path_offsets,
                                      whole.path_offsets)

    @settings(max_examples=40, deadline=None)
    @given(workers=workers_st)
    def test_per_shard_congestion_merge_equals_single(self, workers):
        single = BatchCongestion()
        single.record_batch(
            ROUTER.batch_fast_lookup(SOURCES, TARGETS, keep_paths="csr"))
        merged = BatchCongestion()
        for part in _shard(ROUTER, SOURCES, TARGETS, workers):
            shard_acc = BatchCongestion()
            shard_acc.record_batch(part)
            merged.merge(shard_acc)
        assert _congestion_state(merged) == _congestion_state(single)
        assert merged.summary(N) == single.summary(N)

    @settings(max_examples=40, deadline=None)
    @given(workers=workers_st)
    def test_per_shard_soak_stats_merge_equals_single(self, workers):
        single = SoakStats()
        single.record_route(
            ROUTER.batch_fast_lookup(SOURCES, TARGETS, keep_paths="csr"))
        merged = SoakStats()
        for part in _shard(ROUTER, SOURCES, TARGETS, workers):
            shard_acc = SoakStats()
            shard_acc.record_route(part)
            merged.merge(shard_acc)
        assert _soak_state(merged) == _soak_state(single)
        assert merged.mean_hops() == single.mean_hops()


class TestShardParityAcrossRefresh:
    @settings(max_examples=15, deadline=None)
    @given(workers=workers_st,
           churn_seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_mid_batch_refresh_keeps_parity(self, workers, churn_seed):
        """Two batches with a churn wave between them: each batch is
        sharded against the snapshot current at its dispatch (exactly
        the executor's re-sync discipline), and the merged accumulator
        must equal the single-process run over the same two batches."""
        rng = np.random.default_rng(churn_seed)
        net = populated(N, 77)
        router = net.router(auto_refresh=True)
        pts = net.segments.as_array()
        src = pts[rng.integers(0, pts.size, size=BATCH)]
        tgt = rng.random(BATCH)
        half = BATCH // 2
        joiner = float(rng.random())

        # single-process reference: two whole batches, churn between
        single = BatchCongestion()
        single.record_batch(router.batch_fast_lookup(
            src[:half], tgt[:half], keep_paths="csr"))
        net.join(joiner)  # router is stale until the next dispatch
        single.record_batch(router.batch_fast_lookup(
            src[half:], tgt[half:], keep_paths="csr"))

        # sharded run on an identical network: batch 2 is sliced across
        # workers after the same churn point (post-refresh snapshot)
        net2 = populated(N, 77)
        router2 = net2.router(auto_refresh=True)
        merged = BatchCongestion()
        merged.record_batch(router2.batch_fast_lookup(
            src[:half], tgt[:half], keep_paths="csr"))
        net2.join(joiner)
        for part in _shard(router2, src[half:], tgt[half:], workers):
            shard_acc = BatchCongestion()
            shard_acc.record_batch(part)
            merged.merge(shard_acc)

        assert _congestion_state(merged) == _congestion_state(single)
