"""Property tests: adjacency as index ranges equals the sorted key table.

``BatchRouter`` stores §2.1's neighbour relation as per-row index ranges
of the sorted point column (``adj_first`` / ``adj_count``) and answers
``_edge_member`` with one interval compare per slot.  The structure it
replaced — every directed pair expanded into a sorted ``row·2³¹ + col``
table, membership by binary search — is kept as the oracle
(``key_table``, ``isin_sorted`` in :mod:`oracles.adjacency`), beside the
scalar oracle ``adjacency_arrays``.  The contract is equality on every
point set, so the point sets are the adversarial ones of
:mod:`oracles.inputs` (clustered ids, ``x_0 == 0.0``, tiny n — which
always has a segment of length ≥ 1/Δ, i.e. a full-ring preimage) plus
pinned cases for the seam virtual row and the merged wrap range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.adjacency import (ROW_STRIDE, adjacency_arrays, csr_keys,
                               edge_keys, isin_sorted, key_table)
from oracles.inputs import BELOW_ONE, joined, point_sets, populated, unit

from repro.core.snapshot import StaleSnapshotError

DELTAS = (2, 3, 4)


def all_pairs(n: int) -> tuple:
    row, col = np.divmod(np.arange(n * n), n)
    return row, col


def assert_ranges_equal_oracles(net) -> None:
    """(i) expanded ranges == scalar oracle; (ii) membership on all n² pairs."""
    router = net.compile_router(with_adjacency=True)
    oracle = csr_keys(*adjacency_arrays(net))
    assert router.adj_first.dtype == router.adj_count.dtype == np.int32
    assert router.adj_first.shape == router.adj_count.shape
    assert router.adj_first.shape == (net.delta + 2, net.n + 1)
    assert ((router.adj_first >= 0) & (router.adj_first < net.n)).all()
    assert np.array_equal(edge_keys(router), oracle)
    assert np.array_equal(
        key_table(router.points, net.delta, net.with_ring), oracle)
    row, col = all_pairs(net.n)
    assert np.array_equal(router._edge_member(row, col),
                          isin_sorted(row * ROW_STRIDE + col, oracle))


class TestRangesEqualKeyTable:
    @settings(max_examples=200, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from(DELTAS),
           with_ring=st.booleans())
    def test_adversarial_point_sets(self, points, delta, with_ring):
        assert_ranges_equal_oracles(
            joined(points.tolist(), delta, with_ring, seed=0))

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("with_ring", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tiny_networks(self, n, delta, with_ring):
        rng = np.random.default_rng(100 * n + delta)
        assert_ranges_equal_oracles(
            joined(rng.random(n).tolist(), delta, with_ring, seed=0))
        equal = [k / n for k in range(n)]  # x_0 == 0.0: no virtual piece
        assert_ranges_equal_oracles(joined(equal, delta, with_ring, seed=0))

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("with_ring", [True, False])
    def test_sampled_pairs_at_4096(self, delta, with_ring):
        net = populated(4096, delta, delta, with_ring)
        router = net.compile_router(with_adjacency=True)
        keys = key_table(router.points, delta, with_ring)
        assert np.array_equal(edge_keys(router), keys)
        rng = np.random.default_rng(7)
        # true edges, near misses, the seam row, and uniform pairs
        edge = keys[rng.integers(0, keys.size, 20000)]
        row = np.concatenate([edge >> 31, edge >> 31,
                              np.full(4096, 4095), np.arange(4096),
                              rng.integers(0, 4096, 20000)])
        col = np.concatenate([edge & (ROW_STRIDE - 1),
                              ((edge & (ROW_STRIDE - 1))
                               + rng.integers(-2, 3, edge.size)) % 4096,
                              np.arange(4096), np.full(4096, 4095),
                              rng.integers(0, 4096, 20000)])
        got = router._edge_member(row, col)
        assert np.array_equal(got, isin_sorted(row * ROW_STRIDE + col, keys))
        assert got[:edge.size].all()


class TestPinnedColumns:
    """The places a range can go wrong, read straight off the columns."""

    def test_seam_piece_below_x0_is_the_virtual_column(self):
        router = joined([0.125, 0.25, 0.5, 0.75],
                        with_ring=False, seed=0).compile_router(True)
        # [0, 0.125): images [0, 1/16) and [1/2, 9/16), preimage [0, 1/4)
        assert router.adj_first[:, 4].tolist() == [3, 2, 3, 0]
        assert router.adj_count[:, 4].tolist() == [1, 1, 2, 0]
        # without the ring, server 0 is the seam row's neighbour only
        # through that piece's preimage
        row, col = np.array([3, 3]), np.array([0, 3])
        assert router._edge_member(row, col).tolist() == [True, False]
        router.adj_count[:, 4] = 0
        assert router._edge_member(row, col).tolist() == [False, False]

    def test_virtual_column_is_empty_when_x0_is_zero(self):
        router = joined([0.0, 0.25, 0.5, 0.75], seed=0).compile_router(True)
        assert not router.adj_count[:, 4].any()
        assert_ranges_equal_oracles(joined([0.0, 0.25, 0.5, 0.75], seed=0))

    @pytest.mark.parametrize("x0", [0.125, 0.0])
    def test_preimage_through_the_seam_is_one_merged_range(self, x0):
        router = joined([x0, 0.375, 0.625, 0.875], seed=0).compile_router(True)
        # b([3/8, 5/8)) = [3/4, 1) ∪ [0, 1/4): servers 2, 3, then 0
        assert router.adj_first[2, 1] == 2
        assert router.adj_count[2, 1] == 3
        assert_ranges_equal_oracles(joined([x0, 0.375, 0.625, 0.875], seed=0))

    def test_wrap_that_laps_itself_is_capped_at_n(self):
        points = [0.1, 0.58, 0.6, 0.62]
        router = joined(points, seed=0).compile_router(True)
        # b([0.1, 0.58)) = [0.2, 0.16) wrapping: every server, once
        assert router.adj_count[2, 0] == 4
        assert_ranges_equal_oracles(joined(points, seed=0))

    def test_fat_segment_pulls_back_to_the_full_ring(self):
        points = [0.05, 0.55, 0.8]
        router = joined(points, seed=0).compile_router(True)
        # |[0.05, 0.55)|·Δ >= 1: its preimage is everyone
        assert router.adj_count[2, 0] == 3
        assert_ranges_equal_oracles(joined(points, seed=0))

    def test_ring_slot(self):
        with_ring = joined([0.1, 0.3, 0.5, 0.7, 0.9],
                           seed=0).compile_router(True)
        assert with_ring.adj_first[3, :5].tolist() == [4, 0, 1, 2, 3]
        assert with_ring.adj_count[3].tolist() == [3, 3, 3, 3, 3, 0]
        without = joined([0.1, 0.3, 0.5, 0.7, 0.9],
                         with_ring=False, seed=0).compile_router(True)
        assert not without.adj_count[3].any()

    def test_columns_are_built_on_first_use(self):
        net = joined([0.1, 0.3, 0.5, 0.7, 0.9], seed=0)
        router = net.compile_router()
        assert router.adj_first is None and router.adj_count is None
        row, col = all_pairs(5)
        got = router._edge_member(row, col)
        assert router.adj_first.shape == (4, 6)
        eager = net.compile_router(with_adjacency=True)
        assert np.array_equal(got, eager._edge_member(row, col))

    def test_single_server_has_no_neighbours(self):
        router = joined([0.3], seed=0).compile_router(True)
        assert router.adj_count.shape == (4, 2)
        assert not router.adj_count.any()
        zero = np.zeros(3, dtype=np.intp)
        assert not router._edge_member(zero, zero).any()
        res = router.batch_dh_lookup([0.3, 0.3], [0.1, 0.9],
                                     rng=np.random.default_rng(0))
        assert res.hops.tolist() == [0, 0]


class TestRefreshRederivesTheColumns:
    @settings(max_examples=60, deadline=None)
    @given(start=point_sets(), delta=st.sampled_from(DELTAS),
           ops=st.lists(st.tuples(st.booleans(), unit, st.booleans()),
                        max_size=40))
    def test_any_interleaving_equals_a_fresh_compile(self, start, delta, ops):
        """(iii) joins/leaves in any order, refreshed in any grouping."""
        net = joined(start.tolist(), delta, seed=0)
        router = net.router(auto_refresh=True, with_adjacency=True,
                            churn_budget=10**9)
        for leave, value, sync in ops:
            if leave and net.n > 1:
                pts = list(net.points())
                net.leave(pts[int(value * len(pts))])
            elif value not in net.segments:
                net.join(value)
            if sync:
                router.refresh()
        router.refresh()
        fresh = net.compile_router(with_adjacency=True)
        assert np.array_equal(router.points, fresh.points)
        assert np.array_equal(router.adj_first, fresh.adj_first)
        assert np.array_equal(router.adj_count, fresh.adj_count)
        assert np.array_equal(edge_keys(router),
                              csr_keys(*adjacency_arrays(net)))

    def test_columns_are_rebuilt_once_per_refresh(self, monkeypatch):
        net = populated(256, 8)
        router = net.router(auto_refresh=True, with_adjacency=True)
        built = []
        build_adjacency = router._build_adjacency
        monkeypatch.setattr(
            router, "_build_adjacency",
            lambda: (built.append(1), build_adjacency())[1])
        rng = np.random.default_rng(9)
        for _ in range(8):
            net.join(float(rng.random()))
        router.refresh()
        assert built == [1]
        assert router.refresh_stats.incremental == 1
        assert router.refresh_stats.ops_replayed == 8
        assert router.refresh_stats.full_rebuilds == 0

    def test_patch_below_four_servers_bails_to_a_full_rebuild(self):
        net = joined([0.1, 0.3, 0.5, 0.7, 0.9], seed=0)
        router = net.router(auto_refresh=True, with_adjacency=True,
                            churn_budget=10**9)
        for p in list(net.points())[:3]:
            net.leave(p)
            router.refresh()
            fresh = net.compile_router(with_adjacency=True)
            assert np.array_equal(router.adj_first, fresh.adj_first)
            assert np.array_equal(router.adj_count, fresh.adj_count)
        assert net.n == 2
        assert router.refresh_stats.full_rebuilds >= 1
        assert router.adj_first.shape == (4, 3)


class TestStaleColumnsFailLoudly:
    def test_patch_that_died_half_way(self, monkeypatch):
        net = populated(64, 12)
        router = net.router(auto_refresh=True, with_adjacency=True)
        net.join(0.123456)

        def boom():
            raise MemoryError("boom")

        monkeypatch.setattr(router, "_build_adjacency", boom)
        with pytest.raises(MemoryError):
            router.refresh()
        monkeypatch.undo()
        assert router.adj_first.shape[1] != len(router.points) + 1
        one = np.array([1])
        with pytest.raises(StaleSnapshotError, match="stale router"):
            router._edge_member(one, one + 1)
        router.refresh(force_full=True)  # the documented way out
        assert router._edge_member(one, one + 1).all()


def test_below_one_id_keeps_the_relation_exact():
    """``nextafter(1, 0)`` as an id: image ends fold to 0.0 with it."""
    for delta in DELTAS:
        assert_ranges_equal_oracles(
            joined([0.25, 0.5, BELOW_ONE], delta, seed=0))
