"""Unit and regression tests for the batch caching engine (§3, vectorized).

Edge cases of the epoch machinery: the exact ``c`` boundary, a hit storm
pinned to the root, a collapse where the children split ``c-1`` / ``c``,
salted-mode counter merging, and degenerate batch shapes — each checked
against the scalar :class:`~repro.core.caching.CacheSystem` reference
where a replay is meaningful.
"""

import re

import numpy as np
import pytest
from oracles.cache import (
    engine_item_stats,
    last_epoch_served,
    scalar_item_stats,
    served_counts,
)
from oracles.inputs import populated

from repro.core import BatchCacheEngine, CacheSystem, decode_node_key
from repro.core.lookup import dh_lookup
from repro.core.routing_stats import BatchCongestion


def encode_node_key(address, delta):
    """The bijective base-Δ code ``decode_node_key`` inverts."""
    key = 0
    for d in address:
        key = key * delta + d + 1
    return key


def deep_source(net, target, tau, min_t=1):
    """A server point whose lookup toward ``target`` consumes ≥ min_t digits."""
    rng = np.random.default_rng(0)
    for p in net.segments.as_array():
        res = dh_lookup(net, float(p), target, rng, tau=tau)
        if res.t >= min_t:
            return float(p)
    raise AssertionError("no source with a deep enough walk")  # pragma: no cover


def scalar_replay(net, items, threshold, salts, item_idx, sources, tau):
    """Drive a scalar CacheSystem over the identical request stream."""
    scal = CacheSystem(net, threshold=threshold, salts=salts)
    rng = np.random.default_rng(0)  # unused: tau pins every digit
    out = []
    for i in range(len(item_idx)):
        out.append(scal.request(items[int(item_idx[i])], float(sources[i]),
                                rng, tau=tuple(int(d) for d in tau[i])))
    return scal, out


class TestNodeKeys:
    def test_roundtrip(self):
        for delta in (2, 3, 4):
            for addr in [(), (0,), (1, 0), (0, 1, delta - 1), (delta - 1,) * 5]:
                key = encode_node_key(addr, delta)
                assert decode_node_key(key, delta) == addr

    def test_root_is_zero(self):
        assert encode_node_key((), 2) == 0
        assert decode_node_key(0, 2) == ()

    def test_bijective_on_a_range(self):
        seen = {decode_node_key(k, 2) for k in range(2**6 - 1)}
        assert len(seen) == 2**6 - 1  # all distinct: the code is injective

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            decode_node_key(-1, 2)


class TestConstruction:
    def test_empty_universe_rejected(self):
        net = populated(16, 0)
        with pytest.raises(ValueError):
            BatchCacheEngine(net, [])

    def test_bad_salts_rejected(self):
        net = populated(16, 0)
        with pytest.raises(ValueError):
            BatchCacheEngine(net, ["a"], salts=0)

    def test_bad_threshold_rejected(self):
        net = populated(16, 0)
        with pytest.raises(ValueError):
            BatchCacheEngine(net, ["a"], threshold=0)

    @pytest.mark.parametrize("kwargs", [
        {"salts": 2.5}, {"salts": True}, {"salts": 2.0},
        {"threshold": 2.7}, {"threshold": False}, {"threshold": 3.0},
    ])
    def test_non_int_salts_and_threshold_refused(self, kwargs):
        """Truncation built 2 salts from 2.5 and took True as 1."""
        net = populated(64, 0)
        [(what, value)] = kwargs.items()
        with pytest.raises(ValueError,
                           match=f"{what}.*got {re.escape(repr(value))}"):
            BatchCacheEngine(net, ["a"], **kwargs)

    def test_numpy_ints_pass(self):
        net = populated(64, 0)
        engine = BatchCacheEngine(net, ["a"], threshold=np.int64(3),
                                  salts=np.int32(2))
        assert (engine.c, engine.salts) == (3, 2)
        assert type(engine.c) is int and type(engine.salts) is int

    def test_default_threshold_is_log_n(self):
        net = populated(256, 0)
        assert BatchCacheEngine(net, ["a"]).c == 8

    def test_tree_index_bounds(self):
        net = populated(16, 0)
        eng = BatchCacheEngine(net, ["a", "b"], salts=2)
        assert eng.tree_index(1, 1) == 3
        with pytest.raises(IndexError):
            eng.tree_index(2, 0)
        with pytest.raises(IndexError):
            eng.tree_index(0, 2)


class TestDegenerateBatches:
    def test_empty_batch(self):
        net = populated(32, 1)
        eng = BatchCacheEngine(net, ["a"], threshold=3)
        cong = BatchCongestion()
        res = eng.serve_batch([], [])
        cong.record_batch(res)
        assert res.size == 0
        assert res.path_offsets.tolist() == [0]
        assert eng.requests_served == 0
        assert cong.lookups == 0
        assert eng.summary()["requests"] == 0.0

    def test_single_request_matches_scalar(self):
        net = populated(32, 1)
        items = ["a"]
        tau = np.ones((1, 64), dtype=np.int64)
        src = np.asarray([deep_source(net, net.item_hash("a"),
                                      tuple(tau[0]))])
        eng = BatchCacheEngine(net, items, threshold=3)
        res = eng.serve_batch([0], src, tau=tau)
        scal, replay = scalar_replay(net, items, 3, 1, [0], src, tau)
        assert res.serving_node(0) == replay[0].serving_node
        assert res.server_path(0) == replay[0].server_path
        assert int(res.hops[0]) == replay[0].hops
        assert eng.summary() == scal.summary()

    def test_missing_tau_and_rng_rejected(self):
        net = populated(32, 0)
        eng = BatchCacheEngine(net, ["a"])
        with pytest.raises(ValueError):
            eng.serve_batch([0], [0.25])

    def test_item_out_of_range_rejected(self):
        net = populated(32, 0)
        eng = BatchCacheEngine(net, ["a"])
        with pytest.raises(IndexError):
            eng.serve_batch([1], [0.25], rng=np.random.default_rng(0))

    def test_non_finite_source_rejected_by_lane(self):
        net = populated(32, 0)
        eng = BatchCacheEngine(net, ["a"])
        with pytest.raises(ValueError, match=r"sources\[1\] is nan.*finite"):
            eng.serve_batch([0, 0], [0.25, float("nan")],
                            rng=np.random.default_rng(0))
        assert eng.requests_served == 0

    def test_mismatched_lengths_rejected(self):
        net = populated(32, 0)
        eng = BatchCacheEngine(net, ["a"])
        with pytest.raises(ValueError):
            eng.serve_batch([0, 0], [0.25], rng=np.random.default_rng(0))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(item_idx=[0] * 5, tau=np.full((5, 64), 0.5)),
         "tau digits must be integers"),
        (dict(item_idx=[0] * 5, tau=np.full(64, 0.5)),
         "tau digits must be integers"),
        (dict(item_idx=[0, 0, 0.7, 0, 0], tau=np.zeros((5, 64))),
         "item_idx must be integers"),
        (dict(item_idx=[0] * 5, tau=np.full((5, 64), 2)),
         "tau digits out of range for delta=2"),
    ], ids=["tau", "shared-tau", "item_idx", "tau-range"])
    def test_bad_digits_and_indices_leave_the_engine_untouched(
            self, kwargs, message):
        """``tau=0.5`` used to serve digit 0, ``item_idx=0.7`` item 0."""
        net = populated(32, 0)
        eng = BatchCacheEngine(net, ["a", "b"], threshold=1)
        pts = net.segments.as_array()
        eng.serve_batch([0] * 8, pts[:8], rng=np.random.default_rng(0))
        before = (eng.active_set(0), served_counts(eng, 0),
                  eng.server_messages(), eng.requests_served)
        with pytest.raises(ValueError, match=message):
            eng.serve_batch(sources=pts[:5], **kwargs)
        after = (eng.active_set(0), served_counts(eng, 0),
                 eng.server_messages(), eng.requests_served)
        assert before[:2] == after[:2] and before[3] == after[3] == 8
        assert np.array_equal(before[2], after[2])

    def test_integer_valued_floats_and_bools_accepted(self):
        net = populated(32, 0)
        pts = net.segments.as_array()
        tau = np.random.default_rng(1).integers(0, 2, size=(6, 64))
        idx = np.array([0, 1, 1, 0, 1, 1])
        results = []
        for cast_idx, cast_tau in ((np.int64, np.int64), (np.float64, np.float64),
                                   (np.bool_, np.bool_), (np.uint8, np.int8)):
            eng = BatchCacheEngine(net, ["a", "b"], threshold=1)
            results.append(eng.serve_batch(idx.astype(cast_idx), pts[:6],
                                           tau=tau.astype(cast_tau)))
        for res in results[1:]:
            assert np.array_equal(res.items, results[0].items)
            assert np.array_equal(res.path_servers, results[0].path_servers)
            assert np.array_equal(res.serving_node_key,
                                  results[0].serving_node_key)


class TestThresholdBoundary:
    """The c boundary, exactly: hit c keeps the leaf, hit c+1 splits it."""

    C = 4

    def _drive(self, count, tau_digit=1):
        net = populated(64, 3)
        items = ["hot"]
        tau = np.full((count, 64), tau_digit, dtype=np.int64)
        src = deep_source(net, net.item_hash("hot"), tuple(tau[0]))
        sources = np.full(count, src)
        eng = BatchCacheEngine(net, items, threshold=self.C)
        eng.serve_batch(np.zeros(count, np.int64), sources, tau=tau)
        return eng

    def test_exactly_c_hits_do_not_replicate(self):
        eng = self._drive(self.C)
        assert eng.tree_size(0) == 1
        assert eng.tree_replications(0) == 0
        assert served_counts(eng, 0) == {(): self.C}

    def test_c_plus_one_replicates_once(self):
        eng = self._drive(self.C + 1)
        assert eng.tree_size(0) == 1 + 2
        assert eng.tree_replications(0) == 2
        # the trigger request itself is still served at the root
        assert served_counts(eng, 0)[()] == self.C + 1

    def test_requests_after_trigger_serve_at_children(self):
        eng = self._drive(self.C + 3)
        counts = served_counts(eng, 0)
        # c+1 root hits (trigger included), the two later deep entries
        # stop at the child on their digit string
        assert counts[()] == self.C + 1
        assert counts[(1,)] == 2
        assert eng.tree_size(0) == 3


class TestRootOnlyHitStorm:
    """Entries at depth 0 can replicate the root once but never descend."""

    def test_storm_matches_scalar(self):
        net = populated(64, 4)
        items = ["hot"]
        root = net.item_hash("hot")
        # a source covering the root enters the tree at depth t = 0
        src = float(net.segments.cover_point(root))
        count, c = 50, 3
        tau = np.zeros((count, 64), dtype=np.int64)
        sources = np.full(count, src)
        eng = BatchCacheEngine(net, items, threshold=c)
        res = eng.serve_batch(np.zeros(count, np.int64), sources, tau=tau)
        assert set(res.t.tolist()) == {0}
        assert set(res.serving_depth.tolist()) == {0}
        # one replication when the storm crosses c, then the blocked
        # (non-leaf) root absorbs everything else
        assert eng.tree_size(0) == 3
        assert eng.tree_replications(0) == 2
        assert served_counts(eng, 0) == {(): count}
        scal, _ = scalar_replay(net, items, c, 1, np.zeros(count, np.int64),
                                sources, tau)
        assert eng.summary() == scal.summary()


class TestCollapseSplit:
    """A parent whose children split exactly c-1 / c survives the epoch."""

    C = 4

    def _steered_engine(self):
        net = populated(64, 5)
        items = ["hot"]
        root = net.item_hash("hot")
        tau0 = (0,) * 8
        tau1 = (1,) * 8
        src0 = deep_source(net, root, tau0)
        src1 = deep_source(net, root, tau1)
        # c+1 entries fire the root, then c hits on child (1,) and c-1
        # on child (0,) — counts land exactly on the collapse boundary
        taus, srcs = [], []
        for _ in range(self.C + 1):
            taus.append(tau1)
            srcs.append(src1)
        for _ in range(self.C):
            taus.append(tau1)
            srcs.append(src1)
        for _ in range(self.C - 1):
            taus.append(tau0)
            srcs.append(src0)
        tau = np.asarray(taus, dtype=np.int64)
        sources = np.asarray(srcs)
        eng = BatchCacheEngine(net, items, threshold=self.C)
        eng.serve_batch(np.zeros(len(taus), np.int64), sources, tau=tau)
        return eng, net, tau, sources

    def test_counts_land_on_the_boundary(self):
        eng, _, _, _ = self._steered_engine()
        counts = served_counts(eng, 0)
        assert counts[()] == self.C + 1
        assert counts[(1,)] == self.C
        assert counts[(0,)] == self.C - 1

    def test_one_child_at_c_blocks_the_collapse(self):
        eng, net, tau, sources = self._steered_engine()
        removed = eng.advance_epoch()
        assert removed == 0
        assert eng.tree_size(0) == 3
        # the boundary epoch's counters survive as the snapshot
        assert last_epoch_served(eng, 0)[(1,)] == self.C
        # a quiet epoch then collapses both children at once
        assert eng.advance_epoch() == 2
        assert eng.tree_size(0) == 1
        # scalar replay agrees on both epoch outcomes
        scal, _ = scalar_replay(net, ["hot"], self.C, 1,
                                np.zeros(tau.shape[0], np.int64), sources, tau)
        assert scal.advance_epoch() == 0
        assert scal.advance_epoch() == 2

    def test_both_children_below_c_collapse(self):
        eng, _, _, _ = self._steered_engine()
        # burn the boundary epoch, then one lonely deep hit < c
        eng.advance_epoch()
        assert eng.advance_epoch() == 2  # collapsed: back to the root
        assert eng.active_set(0) == {()}


class TestSaltedMode:
    def test_counters_merge_by_item(self):
        net = populated(128, 6)
        items = ["hot", "cold"]
        rng = np.random.default_rng(7)
        B = 400
        pts = net.segments.as_array()
        sources = pts[rng.integers(0, len(pts), size=B)]
        tau = rng.integers(0, 2, size=(B, 64))
        item_idx = np.zeros(B, np.int64)  # every request is for "hot"
        eng = BatchCacheEngine(net, items, threshold=3, salts=4)
        eng.serve_batch(item_idx, sources, tau=tau)
        per_tree_rep = [eng.tree_replications(eng.tree_index(0, j))
                        for j in range(4)]
        per_tree_cop = [eng.tree_size(eng.tree_index(0, j)) - 1
                        for j in range(4)]
        assert engine_item_stats(eng, 0) == (sum(per_tree_rep),
                                             sum(per_tree_cop))
        # the load actually spread: more than one salt tree served
        served = sum(1 for j in range(4)
                     if served_counts(eng, eng.tree_index(0, j)))
        assert served > 1
        assert engine_item_stats(eng, 1)[0] == 0

    def test_salted_parity_with_scalar(self):
        net = populated(128, 8)
        items = ["hot"]
        rng = np.random.default_rng(9)
        B = 300
        pts = net.segments.as_array()
        sources = pts[rng.integers(0, len(pts), size=B)]
        tau = rng.integers(0, 2, size=(B, 64))
        item_idx = np.zeros(B, np.int64)
        eng = BatchCacheEngine(net, items, threshold=3, salts=3)
        res = eng.serve_batch(item_idx, sources, tau=tau)
        scal, replay = scalar_replay(net, items, 3, 3, item_idx, sources, tau)
        for i in range(B):
            assert res.serving_node(i) == replay[i].serving_node
            assert res.server_path(i) == replay[i].server_path
        assert eng.summary() == scal.summary()
        assert engine_item_stats(eng, 0) == scalar_item_stats(scal, "hot")

    def test_content_update_merges_salts(self):
        net = populated(64, 10)
        eng = BatchCacheEngine(net, ["hot"], threshold=1, salts=2)
        rng = np.random.default_rng(11)
        pts = net.segments.as_array()
        B = 200
        eng.serve_batch(np.zeros(B, np.int64),
                        pts[rng.integers(0, len(pts), size=B)], rng=rng)
        msgs, t = eng.content_update(0)
        assert msgs == engine_item_stats(eng, 0)[1]
        assert t == max(eng.tree_depth(eng.tree_index(0, j)) for j in range(2))


class TestCongestionBooking:
    def test_cached_paths_book_into_batch_congestion(self):
        net = populated(64, 12)
        eng = BatchCacheEngine(net, ["hot"], threshold=2)
        cong = BatchCongestion()
        rng = np.random.default_rng(13)
        pts = net.segments.as_array()
        B = 250
        res = eng.serve_batch(np.zeros(B, np.int64),
                              pts[rng.integers(0, len(pts), size=B)],
                              rng=rng)
        cong.record_batch(res)
        assert cong.lookups == B
        assert cong.total_messages == int(res.hops.sum())
        summ = cong.summary(net.n)
        assert summ["max_load"] >= 1.0

    def test_shortened_never_longer_than_lookup(self):
        net = populated(64, 14)
        eng = BatchCacheEngine(net, ["hot"], threshold=2)
        rng = np.random.default_rng(15)
        pts = net.segments.as_array()
        B = 300
        res = eng.serve_batch(np.zeros(B, np.int64),
                              pts[rng.integers(0, len(pts), size=B)], rng=rng)
        assert (res.hops <= res.lookup_hops).all()
        assert (res.saved_hops == np.maximum(0, res.lookup_hops - res.hops)).all()


class TestSequentialSemantics:
    def test_chunked_equals_one_batch(self):
        """Chunk boundaries are invisible: same stream, same final state."""
        net = populated(128, 16)
        items = [f"i{k}" for k in range(4)]
        rng = np.random.default_rng(17)
        B = 500
        pts = net.segments.as_array()
        item_idx = rng.integers(0, 4, size=B)
        sources = pts[rng.integers(0, len(pts), size=B)]
        tau = rng.integers(0, 2, size=(B, 64))
        one = BatchCacheEngine(net, items, threshold=3)
        one.serve_batch(item_idx, sources, tau=tau)
        many = BatchCacheEngine(net, items, threshold=3)
        for lo in range(0, B, 97):
            many.serve_batch(item_idx[lo:lo + 97], sources[lo:lo + 97],
                             tau=tau[lo:lo + 97])
        assert one.summary() == many.summary()
        for k in range(4):
            assert one.active_set(k) == many.active_set(k)
            assert served_counts(one, k) == served_counts(many, k)
