"""The flash crowd's digit strings: the same draw, stored narrow.

``serve_batch(rng=…)`` used to keep its ``(B, 64)`` digit strings as
the ``int64`` matrix ``rng.integers`` returns — 512 bytes a request of
which the walk reads ≤ ~15 digits.  It now makes the same ``int64``
call block by block and keeps the digits in the smallest unsigned
dtype that holds ``Δ − 1``; every reader takes the narrow matrix as is.
Pinned here: the blocked draw equals the one-call draw in values and
generator state; :class:`OneDrawEngine` — the parent's ``serve_batch``
*verbatim*, one wide draw — agrees with the engine on every result
field, every state array and the generator; narrow and wide ``tau``
route alike; and what the change is *for*, the traced peak of one
62,500-lane flash batch at n=16384.
"""

import tracemalloc
from typing import Optional

import numpy as np
import pytest

from repro.core import BatchCacheEngine, DistanceHalvingNetwork
from repro.core.batch_cache import (_TAU_BLOCK, _TAU_DIGITS, BatchCacheResult,
                                    _draw_tau, _isin_sorted)
from repro.core.caching import salt_indices
from repro.core.segments import fold_unit
from repro.core.walk import (integral_array, normalize_points,
                             per_lane_matrix, ragged_to_csr)
from repro.sim.workload import demand_stream, zipf_demands

RESULT_FIELDS = ("items", "trees", "t", "serving_depth", "serving_node_key",
                 "serving_server_idx", "hops", "lookup_hops", "path_servers",
                 "path_offsets")
STATE_FIELDS = ("_keys", "_counts", "_pos", "_depths", "_prev_keys",
                "_prev_counts", "_hits", "_msgs", "_tree_replications",
                "_touched")


class OneDrawEngine(BatchCacheEngine):
    """The parent commit's ``serve_batch``, kept as the reference."""

    def serve_batch(
        self,
        item_idx,
        sources,
        tau: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> BatchCacheResult:
        """Serve one batch of requests, in array order (= arrival order).

        Routes every request with the vectorized two-phase Distance
        Halving lookup toward its (salted) root, resolves serving nodes
        against the active trees, applies step-1 replication with the
        exact sequential semantics, and books hit/message counters.

        ``tau`` fixes the per-request digit strings (shape ``(B, L)`` or
        ``(L,)``; required for bit-parity against a scalar replay);
        without it fresh digits are drawn from ``rng``.
        """
        items = integral_array(item_idx, "item_idx").ravel()
        src = normalize_points(sources, what="sources")
        if items.size != src.size:
            raise ValueError("item_idx and sources must have the same length")
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise IndexError("item index out of range for the engine's universe")
        size = int(items.size)
        delta = self.delta
        points = self._router.points
        if size == 0:
            empty_i = np.zeros(0, np.int64)
            return BatchCacheResult(
                points=points, items=empty_i, trees=empty_i, t=empty_i,
                serving_depth=empty_i, serving_node_key=empty_i,
                serving_server_idx=empty_i.astype(np.int32), hops=empty_i,
                lookup_hops=empty_i,
                path_servers=np.zeros(0, np.int32),
                path_offsets=np.zeros(1, np.int64), delta=delta)

        trees = items * self.salts + salt_indices(src, self.salts)
        targets = self._roots[trees]

        if tau is None:
            if rng is None:
                raise ValueError("serve_batch needs an rng or explicit tau")
            tau = rng.integers(0, delta, size=(size, _TAU_DIGITS))
        tau_arr = per_lane_matrix(tau, size, np.int64, "tau")

        res = self._router.batch_dh_lookup(src, targets, tau=tau_arr,
                                           keep_paths=False)
        t = res.t
        tmax = int(t.max())
        if tmax + 1 > self._depth_cap:
            raise RuntimeError(
                f"walk of {tmax} digits exceeds the engine's depth cap "
                f"{self._depth_cap}; fewer trees or larger delta needed")

        # serving node: descend the digit prefixes while they stay
        # active — prefix-closure makes the first miss the answer, so a
        # level tests only the lanes still walking.  ``off`` is the exact
        # walk offset Σ d_k Δ^k of the prefix a lane stands on.
        scales = self._scales
        node = trees * self._K
        off = np.zeros(size, dtype=np.float64)
        depth = np.zeros(size, dtype=np.int64)
        walking = np.flatnonzero(t > 0)
        while walking.size:
            d = tau_arr[walking, depth[walking]]
            child = self._first_child(node[walking]) + d
            hit = _isin_sorted(child, self._keys)
            walking = walking[hit]
            node[walking] = child[hit]
            off[walking] += d[hit] * scales[depth[walking]]
            depth[walking] += 1
            walking = walking[t[walking] > depth[walking]]

        self._replication_fixpoint(node, off, depth, t, tau_arr, trees)

        # commit epoch counters and per-server hits
        idx = np.searchsorted(self._keys, node)
        np.add.at(self._counts, idx, 1)
        cover = self._router.cover_index.cover
        serving_idx = cover(self._pos[idx]).astype(np.int32)
        np.add.at(self._hits, serving_idx, 1)
        self._touched[np.unique(trees)] = True
        self.requests_served += size

        # cache-shortened paths: phase-I walk covers j = 0..t, then
        # phase-II covers j = t..serving depth — the exact closed-form
        # trajectory the scalar engine books (not the dh route, so not
        # the shared descent).  Emitted level by level: by t descending
        # the lanes live at level j are a prefix, and every cover goes
        # straight to its slot of one lane-major ragged buffer — phase I
        # at start + j, phase II at start + 2t + 1 − j.
        raw_len = 2 * t - depth + 2          # (t+1) phase-I + (t-m+1) phase-II
        starts = np.cumsum(raw_len) - raw_len
        buf = np.empty(raw_len.sum(), dtype=np.int32)
        order = np.argsort(-t, kind="stable")
        xs, ys, floor = src[order], targets[order], depth[order]
        fwd = starts[order]
        back = fwd + 2 * t[order] + 1
        run = np.zeros(size, dtype=np.float64)   # Σ_{k<j} d_k Δ^k, sorted lanes
        live = np.bincount(t)[::-1].cumsum()[::-1]    # lanes with t >= j
        for j, m in enumerate(live):
            o = run[:m]
            if j:
                o += tau_arr[order[:m], j - 1] * scales[j - 1]
            buf[fwd[:m] + j] = cover(fold_unit((xs[:m] + o) / scales[j]))
            home = np.flatnonzero(floor[:m] <= j)
            buf[back[home] - j] = cover(
                fold_unit((ys[home] + o[home]) / scales[j]))
        servers, offsets = ragged_to_csr(buf, starts)
        np.add.at(self._msgs, servers, 1)

        return BatchCacheResult(
            points=points, items=items, trees=trees, t=t,
            serving_depth=depth, serving_node_key=node - trees * self._K,
            serving_server_idx=serving_idx, hops=np.diff(offsets) - 1,
            lookup_hops=res.hops, path_servers=servers, path_offsets=offsets,
            delta=delta)


NETS = {}


def get_net(n, delta=2):
    if (n, delta) not in NETS:
        net = DistanceHalvingNetwork(
            delta=delta, rng=np.random.default_rng(5000 + 10 * n + delta))
        net.populate(n)
        NETS[n, delta] = net
    return NETS[n, delta]


def flash_batch(net, n_items, count, rng):
    """A soak-style flash batch: Zipf items in stream order, server sources."""
    idx = demand_stream(zipf_demands(n_items, count, rng, exponent=1.2), rng)
    pts = net.segments.as_array()
    return idx, pts[rng.integers(0, pts.size, size=idx.size)]


def same_state(rng_a, rng_b):
    return rng_a.bit_generator.state == rng_b.bit_generator.state


# ------------------------------------------------------------------ the draw
class TestBlockedDraw:
    @pytest.mark.parametrize("size", [0, 1, _TAU_BLOCK - 1, _TAU_BLOCK,
                                      _TAU_BLOCK + 1, 62_500])
    @pytest.mark.parametrize("delta", [2, 3, 4, 5, 7, 16])
    def test_equals_the_one_call_draw(self, delta, size):
        mine, ref = (np.random.default_rng(70 + delta) for _ in range(2))
        got = _draw_tau(mine, delta, size)
        want = ref.integers(0, delta, size=(size, _TAU_DIGITS))
        assert got.shape == want.shape and np.array_equal(got, want)
        assert same_state(mine, ref)
        # and the stream goes on identically afterwards
        assert np.array_equal(mine.integers(0, 1 << 40, 8),
                              ref.integers(0, 1 << 40, 8))

    @pytest.mark.parametrize("delta, dtype", [(2, np.uint8), (256, np.uint8),
                                              (257, np.uint16)])
    def test_smallest_unsigned_dtype_that_holds_a_digit(self, delta, dtype):
        tau = _draw_tau(np.random.default_rng(1), delta, 5)
        assert tau.dtype == dtype and tau.shape == (5, _TAU_DIGITS)


# ------------------------------------------------------------ the readers
class TestNarrowDigitsRouteAlike:
    def test_per_lane_matrix_keeps_the_width_without_a_copy(self):
        tau = np.ones((3, 8), dtype=np.uint8)
        mat = per_lane_matrix(tau, 3, np.int64, "tau")
        assert mat.dtype == np.uint8 and np.shares_memory(mat, tau)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_batch_dh_lookup(self, delta):
        net = get_net(256, delta)
        router = net.compile_router(with_adjacency=True)
        rng = np.random.default_rng(delta)
        pts = net.segments.as_array()
        src, tgt = pts[rng.integers(0, pts.size, 500)], rng.random(500)
        wide = rng.integers(0, delta, size=(500, _TAU_DIGITS))
        a = router.batch_dh_lookup(src, tgt, tau=wide, keep_paths=True)
        b = router.batch_dh_lookup(src, tgt, tau=wide.astype(np.uint8),
                                   keep_paths=True)
        for name in ("owner_idx", "t", "hops", "phase1_hops", "path_servers",
                     "path_offsets"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestServeBatchDraw:
    @pytest.mark.parametrize("salts", [1, 3])
    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_bit_identical_to_the_one_draw_engine(self, delta, salts):
        """Several batches and an epoch boundary; threshold 1 makes the
        fixpoint and the deep descents read many narrow digits."""
        net = get_net(1024, delta)
        items = [f"hot-{i}" for i in range(6)]
        eng = BatchCacheEngine(net, items, threshold=1, salts=salts)
        ref = OneDrawEngine(net, items, threshold=1, salts=salts)
        inputs = np.random.default_rng(17 * delta + salts)
        mine, theirs = (np.random.default_rng(delta) for _ in range(2))
        for count in (3000, 1, _TAU_BLOCK + 7, None, 2500):
            if count is None:
                assert eng.advance_epoch() == ref.advance_epoch()
                continue
            idx, src = flash_batch(net, len(items), count, inputs)
            got = eng.serve_batch(idx, src, rng=mine)
            want = ref.serve_batch(idx, src, rng=theirs)
            for name in RESULT_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            for name in STATE_FIELDS:
                assert np.array_equal(getattr(eng, name), getattr(ref, name)), name
            assert same_state(mine, theirs)
        eng.check_well_formed()

    def test_flash_batch_peak_is_under_500_bytes_a_lane(self):
        """One soak-sized flash batch (62,500 lanes, 64 items, n=16384)
        with the digits drawn inside: the parent's wide ``(B, 64)``
        matrix alone was 512 B a lane, its traced peak ~918."""
        net = get_net(16384)
        eng = BatchCacheEngine(net, [f"hot-{i}" for i in range(64)])
        rng = np.random.default_rng(6)
        idx, src = flash_batch(net, 64, 62_500, rng)
        tracemalloc.start()
        try:
            eng.serve_batch(idx, src, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / idx.size <= 500, peak / idx.size
