"""Property tests: the ragged descent equals the masked loop it replaced,
the dh walk's replayed phase II equals the descent it replaced, and its
lane-free records equal the wide ones they replaced.

:meth:`~repro.core.batch.BatchRouter._descend` walks only the lanes
still that deep (a prefix of the depth-sorted batch), takes the low
digits of the offset without a float ``np.mod``, and scatters every
cover straight into the CSR buffer.  The loop it replaced ran every
level over all lanes under a boolean ``live`` mask, filled a dense
``-1``-padded level matrix and flattened it with ``levels_to_csr``;
that loop and that function (gone from ``src/`` since every engine
writes ragged) are kept in :mod:`oracles.walk`.  The contract is
equality in dtype and bits on every point set, and agreement of both
with the scalar engine's ``server_path``.

The dh walk no longer descends: its phase II takes the image covers
phase I's stop test already took (:func:`~repro.core.walk.replay`), and
a path-less walk counts phase II's hops on the way.  ``parent_dh_walk``
(:mod:`oracles.dh_walk`) is the previous ``_dh_walk`` *verbatim*, phase
II through ``_descend`` included; with the same inputs and generator
state every digit rule must give the same result fields, dtypes
included, and leave the generator in the same state.  ``wide_dh_walk``
is the walk before its records narrowed, *verbatim* with its
``replay``: each step kept ``(slot, lanes, servers)`` and ``(lanes,
image)``, all ``intp``, where it now keeps two ``int32`` columns of
the walking lanes and rebuilds the lanes from ``t``.  The walk must
equal both.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.cache import RESULT_FIELDS, STATE_FIELDS
from oracles.compare import assert_same
from oracles.dh_walk import parent_dh_walk, parent_walk, wide_walk
from oracles.inputs import joined, point_sets, populated, unit
from oracles.walk import head_to_rows, masked_descent, masked_fast_lookup

from repro.core import BatchCacheEngine, lookup_many
from repro.core.batch import BatchRouter
from repro.peer import CostMap

FIELDS = ("owner_idx", "source_idx", "t", "hops", "path_servers",
          "path_offsets")
WALK_FIELDS = FIELDS + ("phase1_hops", "tau_used")


def pairs(net, rng, size):
    pts = net.segments.as_array()
    return pts[rng.integers(0, pts.size, size=size)], rng.random(size)


class DescentSpy:
    """Checks every ``_descend`` call of a router against the oracle."""

    def __init__(self, router):
        self.router, self.calls = router, 0

    def __call__(self, y, off, depth, order, head):
        self.calls += 1
        assert np.array_equal(np.sort(order), np.arange(y.size))
        assert (np.diff(depth[order]) <= 0).all()
        got = BatchRouter._descend(self.router, y, off, depth, order, head)
        assert_same(got, masked_descent(self.router, y, off, depth,
                                         head_to_rows(head, y.size)))
        return got


def fast_three_way(net, src, tgt):
    """New kernel ≡ masked oracle ≡ scalar engine; the routed batch."""
    router = net.compile_router()
    router._descend = spy = DescentSpy(router)
    got = router.batch_fast_lookup(src, tgt, keep_paths="csr")
    assert spy.calls == 1
    assert_same(got, masked_fast_lookup(router, got.sources, got.targets),
                FIELDS)
    for i, r in enumerate(lookup_many(net, got.sources, got.targets)):
        assert r.t == got.t[i] and r.hops == got.hops[i]
        assert r.server_path == got.server_path(i)
    return got


def dh_three_way(net, src, tgt, tau):
    """A dh batch ≡ the parent walk, with and without paths; ≡ scalar."""
    router = net.compile_router(with_adjacency=True)
    got, bare = (router.batch_dh_lookup(src, tgt, tau=tau, keep_paths=kp)
                 for kp in ("csr", False))
    for res, kp in ((got, "csr"), (bare, False)):
        for walk in (parent_walk, wide_walk):
            assert_same(res, walk(
                router, lambda r: r.batch_dh_lookup(src, tgt, tau=tau,
                                                    keep_paths=kp)),
                WALK_FIELDS)
    assert np.array_equal(got.hops, bare.hops) and bare.path_servers is None
    refs = lookup_many(net, got.sources, got.targets, algorithm="dh",
                       taus=[list(row) for row in tau])
    for i, r in enumerate(refs):
        assert r.t == got.t[i] and r.hops == got.hops[i]
        assert r.server_path == got.server_path(i)
    return got


WALK_RULES = ("dh-tau", "dh-rng", "greedy", "weighted")


def cost_router(net, seed=0):
    """A cost-aware router over ``net``: every digit rule can run on it."""
    return BatchRouter(
        net, build_adjacency=True,
        cost_map=CostMap.synthetic(n_isps=4, rng=np.random.default_rng(seed)))


def route_rule(router, rule, src, tgt, keep_paths, seed=0, **kw):
    """One dh batch under ``rule``; the generator it drew from, or None."""
    rng = np.random.default_rng(seed)
    if rule == "dh-tau":
        tau = rng.integers(0, router.delta, (np.size(tgt), 64))
        return router.batch_dh_lookup(src, tgt, tau=tau,
                                      keep_paths=keep_paths, **kw), None
    if rule == "dh-rng":
        return router.batch_dh_lookup(src, tgt, rng=rng,
                                      keep_paths=keep_paths, **kw), rng
    return router.batch_dh_lookup(src, tgt, rng=rng, policy=rule,
                                  keep_paths=keep_paths, **kw), rng


def walk_pair(router, rule, src, tgt, keep_paths, seed=0):
    """The batch under the walk and under both earlier walks, compared."""
    got, rng_got = route_rule(router, rule, src, tgt, keep_paths, seed)
    for walk in (parent_walk, wide_walk):
        want, rng_want = walk(router, lambda r: route_rule(
            r, rule, src, tgt, keep_paths, seed))
        assert_same(got, want, WALK_FIELDS)
        if rng_want is not None:
            assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return got


class TestAdversarialPointSets:
    @settings(max_examples=120, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]),
           with_ring=st.booleans(), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(unit, max_size=6))
    def test_fast_kernel_oracle_scalar(self, points, delta, with_ring, seed,
                                       extra):
        net = joined(points, delta, with_ring)
        rng = np.random.default_rng(seed)
        src, tgt = pairs(net, rng, 24)
        # targets on and next to id points reach the deepest levels
        tgt = np.concatenate([tgt, points[:6], extra])
        src = np.resize(src, tgt.size)
        router = net.compile_router()
        try:
            masked_fast_lookup(router, src, tgt)
        except (RuntimeError, OverflowError) as exc:
            # past the float engine's level cap both must refuse alike
            with pytest.raises(type(exc)):
                router.batch_fast_lookup(src, tgt, keep_paths="csr")
            return
        fast_three_way(net, src, tgt)

    @settings(max_examples=60, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]),
           with_ring=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_dh_kernel_oracle_scalar(self, points, delta, with_ring, seed):
        net = joined(points, delta, with_ring)
        rng = np.random.default_rng(seed)
        src, tgt = pairs(net, rng, 16)
        tau = rng.integers(0, delta, size=(16, 64))
        try:
            dh_three_way(net, src, tgt, tau)
        except RuntimeError as exc:
            # phase I hit its float step cap before the descent ran
            assert "phase I failed to converge" in str(exc)

    @settings(max_examples=60, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]),
           with_ring=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_dh_walk_equals_parent_walk(self, points, delta, with_ring, seed):
        """Every digit rule, with and without paths, ≡ the parent walk."""
        net = joined(points, delta, with_ring)
        router = cost_router(net, seed)
        src, tgt = pairs(net, np.random.default_rng(seed), 16)
        # targets on id points and at the ring's ends
        tgt = np.concatenate([tgt, points[:4], [0.0, 1.0 - 2.0**-53]])
        src = np.resize(src, tgt.size)
        for rule in WALK_RULES:
            for keep_paths in (False, "csr"):
                try:
                    walk_pair(router, rule, src, tgt, keep_paths, seed)
                except RuntimeError as exc:
                    # both walks stop at the float step cap alike
                    assert "phase I failed to converge" in str(exc)
                    with pytest.raises(RuntimeError, match="converge"):
                        route_rule(router, rule, src, tgt, keep_paths, seed)


class TestPinnedCases:
    def test_source_owns_target_lanes_have_depth_zero(self):
        net = joined(np.random.default_rng(1).random(32))
        pts = net.segments.as_array()
        src = pts[[3, 3, 9, 31]]
        tgt = np.array([pts[3], np.nextafter(pts[4], 0), 0.6, pts[31]])
        got = fast_three_way(net, src, tgt)
        assert got.t.tolist()[:2] == [0, 0] and got.t[3] == 0
        assert got.hops.tolist()[:2] == [0, 0]
        assert np.diff(got.path_offsets).tolist()[:2] == [1, 1]

    def test_all_lanes_depth_zero(self):
        net = joined([0.1, 0.4, 0.7])
        got = fast_three_way(net, [0.1, 0.4, 0.7], [0.2, 0.5, 0.05])
        assert (got.t == 0).all()
        assert got.path_servers.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("delta", [2, 3])
    def test_source_on_the_seam_segment(self, delta):
        net = joined(np.random.default_rng(2).random(40), delta)
        pts = net.segments.as_array()
        rng = np.random.default_rng(3)
        tgt = np.concatenate([rng.random(30), [0.0, pts[0] / 2, pts[-1]]])
        got = fast_three_way(net, np.full(tgt.size, pts[-1]), tgt)
        assert (got.source_idx == pts.size - 1).all()
        tau = rng.integers(0, delta, size=(tgt.size, 64))
        dh_three_way(net, np.full(tgt.size, pts[-1]), tgt, tau)

    def test_every_lane_the_same_depth(self):
        net = joined(np.random.default_rng(4).random(64))
        src, tgt = pairs(net, np.random.default_rng(5), 400)
        t = net.compile_router().batch_fast_lookup(src, tgt).t
        same = t == np.bincount(t).argmax()
        got = fast_three_way(net, src[same], tgt[same])
        assert got.size > 50 and np.unique(got.t).size == 1 and got.t[0] > 0

    @pytest.mark.parametrize("size", [0, 1])
    def test_tiny_batches(self, size):
        net = joined(np.random.default_rng(5).random(20))
        src, tgt = pairs(net, np.random.default_rng(6), size)
        got = fast_three_way(net, src, tgt)
        assert got.size == size and got.path_offsets.shape == (size + 1,)
        assert got.path_servers.dtype == np.int32
        tau = np.zeros((size, 64), dtype=np.int64)
        dh = dh_three_way(net, src, tgt, tau)
        assert dh.hops.shape == (size,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_tiny_networks(self, n, delta):
        net = joined(np.random.default_rng(7).random(n), delta)
        rng = np.random.default_rng(8)
        src, tgt = pairs(net, rng, 40)
        fast_three_way(net, src, tgt)
        dh_three_way(net, src, tgt, rng.integers(0, delta, size=(40, 64)))

    @pytest.mark.parametrize("delta", [2, 3, 4])
    @pytest.mark.parametrize("with_ring", [True, False])
    def test_mid_size_network(self, delta, with_ring):
        """Deeper dh walks than the adversarial sets (few points) reach."""
        net = joined(np.random.default_rng(13).random(300), delta, with_ring)
        rng = np.random.default_rng(14)
        src, tgt = pairs(net, rng, 120)
        fast_three_way(net, src, tgt)
        got = dh_three_way(net, src, tgt,
                           rng.integers(0, delta, size=(120, 64)))
        assert got.t.max() >= 3 and np.unique(got.t).size >= 3

    def test_non_power_of_two_delta_at_its_level_cap(self):
        """Δ=3 caps at level 32: the deepest lane it routes, then one past."""
        cap = int(52 / math.log2(3))
        for gap, deepest in [(3.0 ** -cap, cap), (3.0 ** -(cap + 1), None)]:
            net = joined([0.25, 0.25 + gap, 0.8], delta=3)
            src, tgt = np.full(5, 0.25), np.linspace(0.3, 0.9, 5)
            if deepest is None:
                with pytest.raises(RuntimeError, match="converge"):
                    net.compile_router().batch_fast_lookup(src, tgt)
                continue
            got = fast_three_way(net, src, tgt)
            assert got.t.max() == deepest

    def test_power_of_two_delta_past_int64_offsets(self):
        """Segments shorter than 2^-63: offsets outgrow int64, not float64."""
        low = 2.0 ** -60
        net = joined([low, low + 2.0 ** -80, 0.8])
        got = fast_three_way(net, np.full(6, low), np.linspace(0.3, 0.9, 6))
        assert got.t.max() > 63

    def test_too_few_levels_still_raises(self):
        net = joined(np.random.default_rng(9).random(64))
        src, tgt = pairs(net, np.random.default_rng(10), 50)
        router = net.compile_router()
        assert router.batch_fast_lookup(src, tgt).t.max() > 2
        with pytest.raises(RuntimeError, match="failed to converge"):
            router.batch_fast_lookup(src, tgt, max_levels=2)

    def test_after_churn_and_incremental_refresh(self):
        rng = np.random.default_rng(11)
        net = populated(96, rng)
        router = net.router(auto_refresh=True, with_adjacency=True)
        router.lookup_batch(*pairs(net, rng, 8))
        for _ in range(6):
            net.join(float(rng.random()))
        net.leave(net.segments.as_array()[17])
        src, tgt = pairs(net, rng, 200)
        got = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        assert router.refresh_stats.incremental >= 1
        assert_same(got, masked_fast_lookup(router, src, tgt), FIELDS)
        assert_same(fast_three_way(net, src, tgt), got, FIELDS)
        walk_pair(router, "dh-tau", src, tgt, "csr", seed=11)

    def test_two_worker_sharded_equals_unsharded(self):
        rng = np.random.default_rng(12)
        net = populated(128, rng)
        router = net.router(auto_refresh=True)
        src, tgt = pairs(net, rng, 600)
        try:
            sharded = router.lookup_batch(src, tgt, workers=2,
                                          keep_paths="csr")
        finally:
            router.close_executor()
        assert_same(sharded, masked_fast_lookup(router, src, tgt), FIELDS)


class TestEdgeBatches:
    """Batch sizes 0 and 1 and an all-``t = 0`` batch, with and without
    paths: the path-less walk takes its owner from phase I's first step,
    which an empty batch never runs."""

    @staticmethod
    def batch(net, kind):
        if kind == "t0":  # every target inside its source's own segment
            pts = net.segments.as_array()
            return pts, pts
        return pairs(net, np.random.default_rng(21), kind)

    @pytest.mark.parametrize("keep_paths", [False, "csr"])
    @pytest.mark.parametrize("rule", WALK_RULES)
    @pytest.mark.parametrize("kind", [0, 1, "t0"])
    def test_lookups(self, kind, rule, keep_paths):
        net = joined(np.random.default_rng(20).random(48))
        src, tgt = self.batch(net, kind)
        got = walk_pair(cost_router(net), rule, src, tgt, keep_paths)
        size = np.size(tgt)
        assert got.size == size and got.hops.shape == (size,)
        assert got.owner_idx.shape == (size,)
        assert got.owner_idx.dtype == np.intp
        if kind == "t0":
            assert (got.t == 0).all() and (got.hops == 0).all()
            assert np.array_equal(got.owner_idx, got.source_idx)
        if keep_paths:
            assert got.path_offsets.shape == (size + 1,)
            assert got.path_servers.dtype == np.int32

    @pytest.mark.parametrize("keep_paths", [False, "csr"])
    @pytest.mark.parametrize("rule", WALK_RULES)
    def test_step_cap_raises_before_returning(self, rule, keep_paths):
        net = joined(np.random.default_rng(22).random(300))
        router = cost_router(net)
        src, tgt = pairs(net, np.random.default_rng(23), 200)
        deepest = int(route_rule(router, rule, src, tgt, keep_paths)[0].t.max())
        assert deepest >= 3
        got, _ = route_rule(router, rule, src, tgt, keep_paths,
                            max_steps=deepest)
        assert got.t.max() == deepest
        def capped(r):
            return route_rule(r, rule, src, tgt, keep_paths,
                              max_steps=deepest - 1)

        with pytest.raises(RuntimeError, match="phase I failed"):
            capped(router)
        for walk in (parent_walk, wide_walk):
            with pytest.raises(RuntimeError, match="phase I failed"):
                walk(router, capped)

    @pytest.mark.parametrize("kind", [0, 1, "t0"])
    def test_serve_batch(self, kind):
        """The path-less walk inside the §3 serve ≡ the parent walk's."""
        net = joined(np.random.default_rng(24).random(64))
        items = [f"item-{i}" for i in range(4)]
        eng, ref = (BatchCacheEngine(net, items) for _ in range(2))
        ref._router._dh_walk = types.MethodType(parent_dh_walk, ref._router)
        rng = np.random.default_rng(25)
        for _ in range(2):
            if kind == "t0":  # sources on their items' roots
                idx = np.arange(4).repeat(3)
                src = eng._roots[idx]
            else:
                idx = rng.integers(0, 4, kind)
                src = rng.random(kind)
            tau = rng.integers(0, 2, (idx.size, 64))
            got, want = (e.serve_batch(idx, src, tau=tau) for e in (eng, ref))
            assert_same(got, want, RESULT_FIELDS)
            if kind == "t0":
                assert (got.t == 0).all() and (got.lookup_hops == 0).all()
            assert_same(eng, ref, STATE_FIELDS)

