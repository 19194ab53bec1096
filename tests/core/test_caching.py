"""Unit tests for the dynamic caching protocol (paper §3).

Checks the Continuous Hot Spots Protocol step by step (growth, blocking,
collapse), Observation 3.1's size bound, Lemma 3.3's depth bound, and the
content-update claim — plus the discrete mapping of active nodes to
servers (Figure 3).
"""

import itertools
import math
import re

import numpy as np
import pytest
from oracles.cache import items_cached_at, scalar_item_stats
from oracles.inputs import populated

from repro.core import BatchCacheEngine, CacheSystem
from repro.core.caching import ActiveTree, salt_indices, salted_key
from repro.core.pathtree import PathTree


def make_net(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return populated(n, rng), rng


def drive_requests(cache, net, rng, item, count):
    pts = list(net.points())
    results = []
    for _ in range(count):
        src = pts[int(rng.integers(len(pts)))]
        results.append(cache.request(item, src, rng))
    return results


class TestActiveTreeProtocol:
    def test_root_always_active(self):
        tree = ActiveTree(PathTree(0.5), threshold=3)
        assert () in tree.active
        assert tree.size() == 1
        assert tree.is_leaf(())

    def test_serving_node_is_deepest_active_prefix(self):
        tree = ActiveTree(PathTree(0.5), threshold=3)
        tree.active |= {(0,), (1,), (0, 1)}
        assert tree.serving_node((0, 1, 1, 0)) == (0, 1)
        assert tree.serving_node((1, 1, 0)) == (1,)
        assert tree.serving_node(()) == ()

    def test_replication_after_threshold(self):
        tree = ActiveTree(PathTree(0.5), threshold=2)
        # two hits are fine, the third (> c) replicates
        tree.serve((0, 0))
        tree.serve((0, 1))
        assert tree.size() == 1
        node, rep = tree.serve((1, 0))
        assert rep
        assert tree.size() == 3
        assert (0,) in tree.active and (1,) in tree.active

    def test_blocked_leaf_does_not_replicate_twice(self):
        tree = ActiveTree(PathTree(0.5), threshold=1)
        tree.serve((0,))
        _, rep1 = tree.serve((1,))
        assert rep1
        # entry exactly at the root keeps hitting it but cannot re-replicate
        _, rep2 = tree.serve(())
        assert not rep2
        assert tree.size() == 3

    def test_deep_entries_stop_at_children_after_split(self):
        tree = ActiveTree(PathTree(0.5), threshold=1)
        tree.serve((0, 0))
        tree.serve((0, 1))  # replicates root -> children
        node, _ = tree.serve((0, 1))
        assert node == (0,)

    def test_collapse_quiet_epoch(self):
        tree = ActiveTree(PathTree(0.5), threshold=2)
        for tau in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 0)):
            tree.serve(tau)
        assert tree.size() == 3
        tree.advance_epoch()  # children served < c each in the epoch? they
        # were hit 0 times (root served all) -> collapse
        assert tree.size() == 1

    def test_collapse_recursion_multiple_levels(self):
        tree = ActiveTree(PathTree(0.5), threshold=1)
        # force a depth-2 active tree
        tree.active |= {(0,), (1,), (0, 0), (0, 1)}
        removed = tree.advance_epoch()
        assert removed == 4
        assert tree.active == {()}

    def test_no_collapse_under_sustained_demand(self):
        tree = ActiveTree(PathTree(0.5), threshold=1)
        tree.active |= {(0,), (1,)}
        tree.served[(0,)] = 5
        tree.served[(1,)] = 5
        tree.advance_epoch()
        assert tree.size() == 3

    def test_counters_reset_between_epochs(self):
        tree = ActiveTree(PathTree(0.5), threshold=10)
        tree.serve((0,))
        tree.advance_epoch()
        assert sum(tree.served.values()) == 0
        assert tree.supplied_prev[()] == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ActiveTree(PathTree(0.1), threshold=0)


def _reference_collapse(active, served, c, delta=2):
    """Order-free fixpoint of steps 2–3 against *frozen* epoch counts."""
    active = set(active)
    removed = 0
    changed = True
    while changed:
        changed = False
        parents = {a[:-1] for a in active if a != ()}
        for parent in sorted(parents, key=len, reverse=True):
            siblings = [parent + (d,) for d in range(delta)]
            if not all(s in active for s in siblings):
                continue
            if any(any(s + (d,) in active for d in range(delta))
                   for s in siblings):
                continue  # not all leaves
            if all(served.get(s, 0) < c for s in siblings):
                for s in siblings:
                    active.discard(s)
                    removed += 1
                changed = True
    return active, removed


class TestAdvanceEpochOrderIndependence:
    """Regression pin for the step-2 recursion audit (ISSUE 6).

    The audit verdict: ``advance_epoch`` is order-independent because
    collapse decisions read only the ended epoch's ``served`` counters,
    which the sweep never mutates — these tests freeze that contract.
    """

    def test_decisions_use_current_epoch_counts_not_supplied_prev(self):
        tree = ActiveTree(PathTree(0.5), threshold=2)
        tree.active |= {(0,), (1,)}
        tree.served[(0,)] = 5
        tree.served[(1,)] = 5
        tree.advance_epoch()
        assert tree.size() == 3  # hot children survive their own epoch
        assert tree.supplied_prev[(0,)] == 5
        # next epoch is quiet: the (now stale) supplied_prev counts must
        # not keep the children alive
        removed = tree.advance_epoch()
        assert removed == 2
        assert tree.active == {()}

    def test_mixed_sibling_counts_block_the_group(self):
        tree = ActiveTree(PathTree(0.5), threshold=3)
        tree.active |= {(0,), (1,)}
        tree.served[(0,)] = 3   # exactly c: not cold
        tree.served[(1,)] = 2   # c - 1: cold
        assert tree.advance_epoch() == 0
        assert tree.size() == 3

    def test_cascade_does_not_consume_counts_mid_pass(self):
        # depth-2 tree where the deep group collapses and thereby turns
        # its parent into a leaf: the parent group must then be judged by
        # the same frozen counters, in the same call
        tree = ActiveTree(PathTree(0.5), threshold=2)
        tree.active |= {(0,), (1,), (0, 0), (0, 1)}
        tree.served[(0, 0)] = 1
        tree.served[(0, 1)] = 0
        tree.served[(1,)] = 1
        removed = tree.advance_epoch()
        assert removed == 4
        assert tree.active == {()}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_order_free_reference(self, seed):
        """Random prefix-closed forests: the scalar sweep reaches exactly
        the reference fixpoint computed against frozen counts."""
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 5))
        tree = ActiveTree(PathTree(0.3), threshold=c)
        # grow a random prefix-closed active set with full sibling groups
        frontier = [()]
        for _ in range(int(rng.integers(1, 8))):
            node = frontier[int(rng.integers(len(frontier)))]
            if len(node) >= 6:
                continue
            kids = [node + (0,), node + (1,)]
            if kids[0] not in tree.active:
                tree.active |= set(kids)
                frontier.extend(kids)
        for addr in list(tree.active):
            if rng.random() < 0.5:
                tree.served[addr] = int(rng.integers(0, 2 * c))
        expect_active, expect_removed = _reference_collapse(
            tree.active, dict(tree.served), c)
        removed = tree.advance_epoch()
        assert tree.active == expect_active
        assert removed == expect_removed


class TestSaltHelpers:
    def test_salt_indices_deterministic_and_in_range(self):
        pts = np.random.default_rng(0).random(1000)
        for s in (1, 2, 5):
            idx = salt_indices(pts, s)
            assert idx.min() >= 0 and idx.max() < s
            assert (idx == salt_indices(pts, s)).all()
        assert (salt_indices(pts, 1) == 0).all()

    def test_salt_indices_spread(self):
        pts = np.random.default_rng(1).random(4000)
        counts = np.bincount(salt_indices(pts, 4), minlength=4)
        assert (counts > 500).all()  # roughly balanced, no dead salt

    def test_salt_indices_validation(self):
        with pytest.raises(ValueError):
            salt_indices(np.asarray([0.5]), 0)

    def test_salted_keys_distinct(self):
        keys = {salted_key(item, j)
                for item, j in itertools.product(["x", 1, "1"], range(3))}
        assert len(keys) == 9  # types and salts never collide


class TestSaltedCacheSystem:
    def test_salts_route_to_salted_trees(self):
        net, rng = make_net(128, seed=20)
        cache = CacheSystem(net, threshold=2, salts=3)
        drive_requests(cache, net, rng, "hot", 150)
        assert all(isinstance(k, str) and "#salt" in k for k in cache.trees)
        assert scalar_item_stats(cache, "hot") == (
            sum(t.replications for t in cache.trees.values()),
            cache.total_copies())

    def test_salts_one_is_the_plain_protocol(self):
        net, rng = make_net(64, seed=21)
        cache = CacheSystem(net, threshold=2)
        assert cache.route_key("hot", 0.25) == "hot"
        drive_requests(cache, net, rng, "hot", 50)
        assert set(cache.trees) == {"hot"}

    def test_salted_requests_still_shorten_paths(self):
        net, rng = make_net(64, seed=22)
        cache = CacheSystem(net, threshold=2, salts=2)
        for r in drive_requests(cache, net, rng, "hot", 100):
            assert r.hops <= r.lookup.hops

    def test_salts_validation(self):
        net, _ = make_net(16, seed=23)
        with pytest.raises(ValueError):
            CacheSystem(net, salts=0)

    @pytest.mark.parametrize("kwargs", [
        {"salts": 2.5}, {"salts": True}, {"salts": 2.0},
        {"threshold": 2.7}, {"threshold": True}, {"threshold": 3.0},
        {"threshold": 0},
    ])
    def test_non_int_salts_and_threshold_refused(self, kwargs):
        """Truncation built c == 2 from 2.7 and took True as c == 1."""
        net, _ = make_net(64, seed=24)
        [(what, value)] = kwargs.items()
        with pytest.raises(ValueError,
                           match=f"{what}.*got {re.escape(repr(value))}"):
            CacheSystem(net, **kwargs)

    def test_numpy_ints_pass(self):
        net, _ = make_net(64, seed=25)
        cache = CacheSystem(net, threshold=np.int64(3), salts=np.int32(2))
        assert (cache.c, cache.salts) == (3, 2)
        assert type(cache.c) is int and type(cache.salts) is int
        assert CacheSystem(net).c == 6  # ⌈log₂ 64⌉


class TestObservation31:
    """Active tree ≤ 4q/c nodes at epoch end, for every initial tree."""

    @pytest.mark.parametrize("q,c", [(100, 5), (500, 10), (1000, 50)])
    def test_size_bound(self, q, c):
        rng = np.random.default_rng(q + c)
        tree = ActiveTree(PathTree(0.37), threshold=c)
        depth = 12
        for _ in range(q):
            tau = tuple(int(d) for d in rng.integers(0, 2, size=depth))
            tree.serve(tau)
        tree.advance_epoch()
        assert tree.size() <= max(1, 4 * q / c)


class TestLemma33:
    """Depth of the active tree ≤ log2(q/c) + O(1) w.h.p."""

    def test_depth_bound(self):
        rng = np.random.default_rng(1)
        c = 8
        q = 1024
        tree = ActiveTree(PathTree(0.61), threshold=c)
        for _ in range(q):
            tau = tuple(int(d) for d in rng.integers(0, 2, size=16))
            tree.serve(tau)
        assert max(map(len, tree.active)) <= math.log2(q / c) + 3


class TestCacheSystem:
    def test_requests_are_served_by_active_nodes(self):
        net, rng = make_net(64, seed=2)
        cache = CacheSystem(net, threshold=4)
        res = drive_requests(cache, net, rng, "hot", 50)
        for r in res:
            assert r.serving_node in cache.tree_for("hot").active

    def test_cache_path_never_longer_than_plain_lookup(self):
        """'No Caching Latency': serving at a cache only shortens the path."""
        net, rng = make_net(64, seed=3)
        cache = CacheSystem(net, threshold=2)
        res = drive_requests(cache, net, rng, "hot", 100)
        for r in res:
            assert r.hops <= r.lookup.hops

    def test_hot_item_replicates(self):
        net, rng = make_net(64, seed=4)
        cache = CacheSystem(net, threshold=2)
        drive_requests(cache, net, rng, "hot", 100)
        assert cache.tree_for("hot").size() > 1

    def test_cold_items_stay_single_copy(self):
        net, rng = make_net(64, seed=5)
        cache = CacheSystem(net, threshold=50)
        for i in range(20):
            drive_requests(cache, net, rng, f"cold{i}", 1)
        assert cache.total_copies() == 0

    def test_default_threshold_is_log_n(self):
        net, _ = make_net(256, seed=6)
        cache = CacheSystem(net)
        assert cache.c == 8

    def test_epoch_collapse_after_demand_stops(self):
        net, rng = make_net(64, seed=7)
        cache = CacheSystem(net, threshold=2)
        drive_requests(cache, net, rng, "hot", 200)
        cache.advance_epoch()  # hot epoch ends; counters reset
        removed = cache.advance_epoch()  # fully quiet epoch: collapse
        assert removed > 0
        assert cache.tree_for("hot").size() == 1

    def test_items_cached_accounting(self):
        net, rng = make_net(64, seed=8)
        cache = CacheSystem(net, threshold=2)
        drive_requests(cache, net, rng, "hot", 100)
        drive_requests(cache, net, rng, "warm", 40)
        per = cache.items_cached_per_server()
        # the one pass counts what a scan per server counts
        assert per.tolist() == [items_cached_at(cache, p)
                                for p in net.segments]
        assert per.sum() >= 1
        assert cache.max_items_cached() == per.max() >= 1

    def test_requests_counter(self):
        net, rng = make_net(32, seed=9)
        cache = CacheSystem(net, threshold=3)
        drive_requests(cache, net, rng, "a", 17)
        assert cache.requests_served == 17
        assert cache.summary()["requests"] == 17.0


class TestContentUpdate:
    """§3 Content Update: O(log n) messages and time down the active tree
    (the batch engine's ``content_update``)."""

    def test_update_cost_matches_tree(self):
        net, rng = make_net(64, seed=10)
        q, c = 300, 2
        eng = BatchCacheEngine(net, ["hot"], threshold=c)
        pts = net.segments.as_array()
        eng.serve_batch(np.zeros(q, np.int64),
                        pts[rng.integers(0, len(pts), size=q)], rng=rng)
        messages, time = eng.content_update(0)
        assert messages == eng.tree_size(0) - 1
        assert time == eng.tree_depth(0)
        assert messages <= 4 * q / c
        assert time <= math.log2(q / c) + 3

    def test_update_on_cold_tree_is_free(self):
        net, _ = make_net(32, seed=11)
        eng = BatchCacheEngine(net, ["x"], threshold=5)
        assert eng.content_update(0) == (0, 0)
