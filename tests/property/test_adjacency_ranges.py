"""Property tests: adjacency as index ranges equals the sorted key table.

``BatchRouter`` stores §2.1's neighbour relation as per-row index ranges
of the sorted point column (``adj_first`` / ``adj_count``) and answers
``_edge_member`` with one interval compare per slot.  The structure it
replaced — every directed pair expanded into a sorted ``row·2³¹ + col``
table, membership by binary search — is kept *here* as the oracle
(:func:`key_table`, :func:`isin_sorted`), beside the scalar oracle
``net.adjacency_arrays()``.  The contract is equality on every point
set, so the point sets are the adversarial ones of ``test_cover_index``
(clustered ids, ``x_0 == 0.0``, tiny n — which always has a segment of
length ≥ 1/Δ, i.e. a full-ring preimage) plus pinned cases for the seam
virtual row, the merged wrap range and the exact-id encoder.
"""

from fractions import Fraction

import numpy as np
import pytest
from adjacency_oracle import ROW_STRIDE, csr_keys, edge_keys
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cover_index import BELOW_ONE, point_sets, unit

from repro.core.batch import _range_columns
from repro.core.network import DistanceHalvingNetwork
from repro.core.segments import normalize_array
from repro.core.shard import _ShardRouter
from repro.core.snapshot import StaleSnapshotError

DELTAS = (2, 3, 4)


# ------------------------------------------------------------------ oracle
def isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted int table (binary search)."""
    if len(table) == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(table, values)
    pos_c = np.minimum(pos, len(table) - 1)
    return (pos < len(table)) & (table[pos_c] == values)


def piece_ranges(points, starts, ends) -> tuple:
    """One ``(arc, first, count)`` range per non-wrapping arc piece."""
    full = starts == ends
    wraps = starts > ends
    part = np.flatnonzero(~full)
    tail = np.flatnonzero(wraps & (ends > 0.0))  # second piece [0, end)
    whole = np.flatnonzero(full)
    a = np.concatenate([starts[part], np.zeros(tail.size)])
    b = np.concatenate([np.where(wraps[part], 1.0, ends[part]), ends[tail]])
    lo = np.searchsorted(points, a, side="right")
    hi = np.searchsorted(points, b, side="left")
    return (np.concatenate([part, tail, whole]),
            np.concatenate([lo - 1, np.zeros(whole.size, dtype=lo.dtype)]),
            np.concatenate([hi - lo + 1,
                            np.full(whole.size, len(points), dtype=lo.dtype)]))


def key_table(pts: np.ndarray, delta: int, with_ring: bool) -> np.ndarray:
    """The sorted edge-key table, built the way the router used to."""
    n = len(pts)
    if n == 1:
        return np.zeros(0, dtype=np.int64)
    row = np.arange(n)
    a, b = pts, np.append(pts[1:], 1.0)
    if pts[0] > 0.0:
        row = np.append(row, n - 1)
        a, b = np.append(a, 0.0), np.append(b, pts[0])
    ranges = []
    factor = 1.0 / delta
    for d in range(delta):
        offset = d / delta
        arc, first, count = piece_ranges(
            pts, normalize_array(a * factor + offset),
            normalize_array(b * factor + offset))
        ranges.append((row[arc], first, count))
    length = (b - a) * delta
    full = np.zeros(n, dtype=bool)
    full[row[length >= 1]] = True
    start = normalize_array(a * delta)
    arc, first, count = piece_ranges(
        pts, start,
        np.where(full[row], start, normalize_array(start + length)))
    ranges.append((row[arc], first, count))
    if with_ring:
        ranges.append((np.arange(n), np.arange(n) - 1, np.full(n, 3)))
    rows, first, count = (np.concatenate(col) for col in zip(*ranges))
    ends = np.cumsum(count)
    cols = np.repeat(first - (ends - count), count) + np.arange(ends[-1])
    cols %= n
    rows = np.repeat(rows, count)
    other = rows != cols
    return np.unique(rows[other] * ROW_STRIDE + cols[other])


def build(points, delta=2, with_ring=True) -> DistanceHalvingNetwork:
    net = DistanceHalvingNetwork(delta=delta, with_ring=with_ring,
                                 rng=np.random.default_rng(0))
    for p in points:
        net.join(p)
    return net


def all_pairs(n: int) -> tuple:
    row, col = np.divmod(np.arange(n * n), n)
    return row, col


def assert_ranges_equal_oracles(net, exact: bool = False) -> None:
    """(i) expanded ranges == scalar oracle; (ii) membership on all n² pairs."""
    router = net.compile_router(with_adjacency=True)
    oracle = csr_keys(*net.adjacency_arrays())
    assert router.adj_first.dtype == router.adj_count.dtype == np.int32
    assert router.adj_first.shape == router.adj_count.shape
    assert router.adj_first.shape[1] == net.n + 1
    assert ((router.adj_first >= 0) & (router.adj_first < net.n)).all()
    assert np.array_equal(edge_keys(router), oracle)
    if not exact:
        assert router.adj_first.shape[0] == net.delta + 2
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
        assert_ranges_equal_oracles(build(points.tolist(), delta, with_ring))

    @settings(max_examples=60, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from(DELTAS),
           with_ring=st.booleans())
    def test_exact_ids_take_the_run_length_encoder(self, points, delta,
                                                   with_ring):
        net = build([Fraction(p) for p in points.tolist()], delta, with_ring)
        assert not net.segments.is_float()
        assert_ranges_equal_oracles(net, exact=True)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("with_ring", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tiny_networks(self, n, delta, with_ring):
        rng = np.random.default_rng(100 * n + delta)
        assert_ranges_equal_oracles(
            build(rng.random(n).tolist(), delta, with_ring))
        equal = [k / n for k in range(n)]  # x_0 == 0.0: no virtual piece
        assert_ranges_equal_oracles(build(equal, delta, with_ring))

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("with_ring", [True, False])
    def test_sampled_pairs_at_4096(self, delta, with_ring):
        net = DistanceHalvingNetwork(delta=delta, with_ring=with_ring,
                                     rng=np.random.default_rng(delta))
        net.populate(4096)
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
        router = build([0.125, 0.25, 0.5, 0.75],
                       with_ring=False).compile_router(True)
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
        router = build([0.0, 0.25, 0.5, 0.75]).compile_router(True)
        assert not router.adj_count[:, 4].any()
        assert_ranges_equal_oracles(build([0.0, 0.25, 0.5, 0.75]))

    @pytest.mark.parametrize("x0", [0.125, 0.0])
    def test_preimage_through_the_seam_is_one_merged_range(self, x0):
        router = build([x0, 0.375, 0.625, 0.875]).compile_router(True)
        # b([3/8, 5/8)) = [3/4, 1) ∪ [0, 1/4): servers 2, 3, then 0
        assert router.adj_first[2, 1] == 2
        assert router.adj_count[2, 1] == 3
        assert_ranges_equal_oracles(build([x0, 0.375, 0.625, 0.875]))

    def test_wrap_that_laps_itself_is_capped_at_n(self):
        points = [0.1, 0.58, 0.6, 0.62]
        router = build(points).compile_router(True)
        # b([0.1, 0.58)) = [0.2, 0.16) wrapping: every server, once
        assert router.adj_count[2, 0] == 4
        assert_ranges_equal_oracles(build(points))

    def test_fat_segment_pulls_back_to_the_full_ring(self):
        points = [0.05, 0.55, 0.8]
        router = build(points).compile_router(True)
        # |[0.05, 0.55)|·Δ >= 1: its preimage is everyone
        assert router.adj_count[2, 0] == 3
        assert_ranges_equal_oracles(build(points))

    def test_ring_slot(self):
        with_ring = build([0.1, 0.3, 0.5, 0.7, 0.9]).compile_router(True)
        assert with_ring.adj_first[3, :5].tolist() == [4, 0, 1, 2, 3]
        assert with_ring.adj_count[3].tolist() == [3, 3, 3, 3, 3, 0]
        without = build([0.1, 0.3, 0.5, 0.7, 0.9],
                        with_ring=False).compile_router(True)
        assert not without.adj_count[3].any()

    def test_columns_are_built_on_first_use(self):
        net = build([0.1, 0.3, 0.5, 0.7, 0.9])
        router = net.compile_router()
        assert router.adj_first is None and router.adj_count is None
        row, col = all_pairs(5)
        got = router._edge_member(row, col)
        assert router.adj_first.shape == (4, 6)
        eager = net.compile_router(with_adjacency=True)
        assert np.array_equal(got, eager._edge_member(row, col))

    def test_single_server_has_no_neighbours(self):
        router = build([0.3]).compile_router(True)
        assert router.adj_count.shape == (4, 2)
        assert not router.adj_count.any()
        zero = np.zeros(3, dtype=np.intp)
        assert not router._edge_member(zero, zero).any()
        res = router.batch_dh_lookup([0.3, 0.3], [0.1, 0.9],
                                     rng=np.random.default_rng(0))
        assert res.hops.tolist() == [0, 0]


class TestExactIdEncoder:
    def test_runs_keep_self_inside_the_ring_run(self):
        # row 1 of a 6-ring: neighbours {0, 2} plus a far one {4}
        indptr = np.array([0, 0, 3, 3, 3, 3, 3])
        indices = np.array([0, 2, 4])
        first, count = _range_columns(6, indptr, indices)
        assert first.shape == count.shape == (2, 7)
        assert (first[:, 1].tolist(), count[:, 1].tolist()) == ([0, 4],
                                                                [3, 1])
        # every other row is just itself; the virtual column stays empty
        assert count[0, [0, 2, 3, 4, 5]].tolist() == [1] * 5
        assert not count[1, [0, 2, 3, 4, 5]].any()
        assert not count[:, 6].any()

    def test_slot_count_is_the_widest_row(self):
        ids = [Fraction(k, 16) for k in (0, 1, 2, 5, 8, 11, 13)]
        net = build(ids, delta=3)
        router = net.compile_router(with_adjacency=True)
        indptr, indices = net.adjacency_arrays()
        widest = 0
        for i in range(net.n):
            members = np.sort(np.append(indices[indptr[i]:indptr[i + 1]], i))
            widest = max(widest, 1 + int((np.diff(members) != 1).sum()))
        assert router.adj_first.shape == (widest, net.n + 1)
        assert_ranges_equal_oracles(net, exact=True)

    def test_dyadic_fraction_network_routes_like_its_float_twin(self):
        ids = [Fraction(k, 32) for k in range(32)]
        exact = build(ids).compile_router(with_adjacency=True)
        twin = build([float(p) for p in ids]).compile_router(True)
        assert np.array_equal(edge_keys(exact), edge_keys(twin))
        rng = np.random.default_rng(3)
        src, tgt = rng.random(200), rng.random(200)
        tau = rng.integers(0, 2, size=(200, 64))
        a = exact.batch_dh_lookup(src, tgt, tau=tau, keep_paths=True)
        b = twin.batch_dh_lookup(src, tgt, tau=tau, keep_paths=True)
        assert np.array_equal(a.path_servers, b.path_servers)
        assert np.array_equal(a.hops, b.hops)


class TestRefreshRederivesTheColumns:
    @settings(max_examples=60, deadline=None)
    @given(start=point_sets(), delta=st.sampled_from(DELTAS),
           ops=st.lists(st.tuples(st.booleans(), unit, st.booleans()),
                        max_size=40))
    def test_any_interleaving_equals_a_fresh_compile(self, start, delta, ops):
        """(iii) joins/leaves in any order, refreshed in any grouping."""
        net = build(start.tolist(), delta)
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
                              csr_keys(*net.adjacency_arrays()))

    def test_columns_are_rebuilt_once_per_refresh(self, monkeypatch):
        net = DistanceHalvingNetwork(rng=np.random.default_rng(8))
        net.populate(256)
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
        net = build([0.1, 0.3, 0.5, 0.7, 0.9])
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
        net = DistanceHalvingNetwork(rng=np.random.default_rng(12))
        net.populate(64)
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

    def test_shard_worker_with_mismatched_columns(self):
        router = build([0.1, 0.3, 0.5, 0.7, 0.9]).compile_router(True)
        worker = _ShardRouter.__new__(_ShardRouter)
        worker.n = router.n - 1  # an export caught mid-write
        worker.adj_first, worker.adj_count = router.adj_first, router.adj_count
        with pytest.raises(StaleSnapshotError, match="auto_refresh"):
            worker._edge_member(np.array([0]), np.array([1]))


def test_below_one_id_keeps_the_relation_exact():
    """``nextafter(1, 0)`` as an id: image ends fold to 0.0 with it."""
    for delta in DELTAS:
        assert_ranges_equal_oracles(build([0.25, 0.5, BELOW_ONE], delta))
