"""Property tests: the batch cache engine is bit-identical to the scalar one.

Hypothesis generates random demand interleavings (Zipf, adversarial
round-robin/blocked, single hotspot), random epoch boundaries, and both
salting modes; every trace is driven through the
:class:`~repro.core.batch_cache.BatchCacheEngine` and replayed request-
by-request on the scalar :class:`~repro.core.caching.CacheSystem` with
the same digit strings.  The contract checked on every trace:

* served nodes, shortened paths and hop counts match per request;
* active-set membership, per-node epoch counters and replication totals
  match per tree — including after every ``advance_epoch`` collapse;
* ``summary()`` digests are equal float-for-float;
* the deterministic forms of the §3 bounds hold: every activation level
  consumes ``c+1`` distinct serves, so an active tree that absorbed
  ``q`` requests has ``size ≤ 1 + Δ·q/(c+1)`` (the engine-side shape of
  Observation 3.1's ``4q/c``) and ``depth ≤ q/(c+1)`` (Lemma 3.3's
  bound with the w.h.p. slack removed).

The trace suite runs at n = 64; :class:`TestAdversarialPointSets` runs
the same per-request, per-tree and digest contract on the adversarial id
sets of :func:`oracles.inputs.point_sets`, down to one to four servers.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.cache import served_counts
from oracles.inputs import BELOW_ONE, joined, point_sets, populated

from repro.core import BatchCacheEngine, CacheSystem
from repro.core.caching import salted_key

@functools.lru_cache(maxsize=None)
def get_net(n):
    return populated(n, 3000 + n)


N_ITEMS = 6
ITEMS = [f"item{i}" for i in range(N_ITEMS)]


def make_demand(kind, count, rng):
    """Item index stream for one epoch of the given workload shape."""
    if kind == "zipf":
        w = np.arange(1, N_ITEMS + 1, dtype=np.float64) ** -1.2
        return rng.choice(N_ITEMS, size=count, p=w / w.sum())
    if kind == "hotspot":
        return np.zeros(count, dtype=np.int64)
    # adversarial: sorted blocks then a round-robin tail — the orderings
    # that break order-dependent replication accounting
    half = count // 2
    blocks = np.sort(rng.integers(0, N_ITEMS, size=half))
    tail = np.arange(count - half, dtype=np.int64) % N_ITEMS
    return np.concatenate([blocks, tail])


def scalar_tree_state(scal, item, salt, salts):
    key = item if salts == 1 else salted_key(item, salt)
    tree = scal.trees.get(key)
    if tree is None:
        return {()}, {}, 0
    served = {a: c for a, c in tree.served.items() if c}
    return set(tree.active), served, tree.replications


def assert_same_trees(eng, scal, salts):
    """Active sets, epoch counters and replications match, tree by tree."""
    for k in range(N_ITEMS):
        for j in range(salts):
            tree = eng.tree_index(k, j)
            active, served, reps = scalar_tree_state(scal, ITEMS[k], j, salts)
            assert eng.active_set(tree) == active
            assert served_counts(eng, tree) == served
            assert eng.tree_replications(tree) == reps


class TestTraceParity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        salts=st.sampled_from([1, 2]),
        kind=st.sampled_from(["zipf", "adversarial", "hotspot"]),
        epoch_sizes=st.lists(st.integers(min_value=15, max_value=120),
                             min_size=1, max_size=3),
    )
    def test_batch_equals_scalar_trace(self, seed, salts, kind, epoch_sizes):
        net = get_net(64)
        rng = np.random.default_rng(seed)
        threshold = int(rng.integers(1, 6))
        eng = BatchCacheEngine(net, ITEMS, threshold=threshold, salts=salts)
        scal = CacheSystem(net, threshold=threshold, salts=salts)
        dummy = np.random.default_rng(0)
        pts = net.segments.as_array()
        served_per_tree = np.zeros(eng.n_trees, dtype=np.int64)

        for count in epoch_sizes:
            item_idx = make_demand(kind, count, rng)
            sources = pts[rng.integers(0, len(pts), size=count)]
            tau = rng.integers(0, 2, size=(count, 64))

            res = eng.serve_batch(item_idx, sources, tau=tau)
            for i in range(count):
                r = scal.request(ITEMS[int(item_idx[i])], float(sources[i]),
                                 dummy, tau=tuple(int(d) for d in tau[i]))
                assert res.serving_node(i) == r.serving_node
                assert res.server_path(i) == r.server_path
                assert int(res.hops[i]) == r.hops
                assert int(res.lookup_hops[i]) == r.lookup.hops
            np.add.at(served_per_tree, res.trees, 1)

            # per-tree state parity before the epoch ends
            assert_same_trees(eng, scal, salts)
            assert eng.summary() == scal.summary()

            # epoch boundary: collapse must match node-for-node
            assert eng.advance_epoch() == scal.advance_epoch()
            for k in range(N_ITEMS):
                for j in range(salts):
                    tree = eng.tree_index(k, j)
                    active, _, _ = scalar_tree_state(scal, ITEMS[k], j, salts)
                    assert eng.active_set(tree) == active
            assert eng.summary() == scal.summary()

            # deterministic §3 bounds on every tree of the trace
            c = threshold
            for tree in range(eng.n_trees):
                q = int(served_per_tree[tree])
                assert eng.tree_size(tree) <= 1 + 2 * q / (c + 1)
                assert eng.tree_depth(tree) <= q / (c + 1)


class TestSingleEpochObservation31:
    """The classic single-epoch statement, engine-side: a fresh tree that
    absorbs q requests in one epoch ends it within 4q/c nodes."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           q=st.integers(min_value=10, max_value=200))
    def test_size_and_depth_bounds(self, seed, q):
        net = get_net(64)
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 6))
        eng = BatchCacheEngine(net, ["hot"], threshold=c)
        pts = net.segments.as_array()
        sources = pts[rng.integers(0, len(pts), size=q)]
        eng.serve_batch(np.zeros(q, np.int64), sources, rng=rng)
        assert eng.tree_depth(0) <= q / (c + 1)
        eng.advance_epoch()
        assert eng.tree_size(0) <= max(1.0, 4 * q / c)


class TestSaltRoutingParity:
    """The salt choice is a pure function of the source bits: both
    engines must route any source to the same salt tree."""

    @settings(max_examples=30, deadline=None)
    @given(src=st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                         allow_nan=False), salts=st.sampled_from([2, 3, 8]))
    def test_route_key_matches_engine_tree(self, src, salts):
        net = get_net(64)
        eng = BatchCacheEngine(net, ITEMS, threshold=3, salts=salts)
        scal = CacheSystem(net, threshold=3, salts=salts)
        res = eng.serve_batch([2], [src], rng=np.random.default_rng(1))
        tree = int(res.trees[0])
        assert tree // salts == 2
        assert salted_key(ITEMS[2], tree % salts) == scal.route_key(
            ITEMS[2], src)


class TestAdversarialPointSets:
    """The batch serve equals the scalar trace on every id set
    :func:`oracles.inputs.point_sets` draws, tiny networks included."""

    @settings(deadline=None)
    @given(points=point_sets(), salts=st.sampled_from([1, 4]),
           threshold=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(points=np.array([0.0]), salts=1, threshold=1, seed=0)
    @example(points=np.array([0.25, 0.75]), salts=4, threshold=1, seed=1)
    @example(points=np.array([0.1, 0.5, 0.9]), salts=1, threshold=2, seed=2)
    @example(points=np.array([0.0, 0.5, 0.5 + 2**-40, BELOW_ONE]), salts=4,
             threshold=1, seed=3)
    def test_batch_equals_scalar_trace(self, points, salts, threshold, seed):
        net = joined(points.tolist(), seed=seed)
        rng = np.random.default_rng(seed)
        eng = BatchCacheEngine(net, ITEMS, threshold=threshold, salts=salts)
        scal = CacheSystem(net, threshold=threshold, salts=salts)
        dummy = np.random.default_rng(0)
        for count in (12, 6):
            item_idx = make_demand("zipf", count, rng)
            sources = points[rng.integers(0, points.size, size=count)]
            tau = rng.integers(0, 2, size=(count, 64))
            res = eng.serve_batch(item_idx, sources, tau=tau)
            for i in range(count):
                r = scal.request(ITEMS[int(item_idx[i])], float(sources[i]),
                                 dummy, tau=tuple(int(d) for d in tau[i]))
                assert res.serving_node(i) == r.serving_node
                assert res.server_path(i) == r.server_path
                assert int(res.hops[i]) == r.hops
                assert int(res.lookup_hops[i]) == r.lookup.hops
            assert_same_trees(eng, scal, salts)
            assert eng.summary() == scal.summary()
            assert eng.advance_epoch() == scal.advance_epoch()
            assert eng.summary() == scal.summary()
        eng.check_well_formed()
