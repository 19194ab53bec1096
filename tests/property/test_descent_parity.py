"""Property tests: the ragged descent equals the masked loop it replaced.

:meth:`~repro.core.batch.BatchRouter._descend` walks only the lanes
still that deep (a prefix of the depth-sorted batch), takes the low
digits of the offset without a float ``np.mod``, and scatters every
cover straight into the CSR buffer.  The loop it replaced ran every
level over all lanes under a boolean ``live`` mask, filled a dense
``-1``-padded level matrix and flattened it with
:func:`levels_to_csr`; that loop and that function (gone from ``src/``
since every engine writes ragged) are kept here as the oracle.  The
contract is equality — dtypes included — on every point set, and
agreement of both with the scalar engine's ``server_path``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from head_rows import head_to_rows
from hypothesis import strategies as st
from test_cover_index import point_sets, unit

from repro.core import DistanceHalvingNetwork, lookup_many
from repro.core.batch import BatchRouter
from repro.core.lookup import MAX_WALK_STEPS
from repro.core.segments import fold_unit

FIELDS = ("owner_idx", "source_idx", "t", "hops", "path_servers",
          "path_offsets")


def levels_to_csr(size: int, level_mats) -> tuple:
    """Flatten per-level server matrices into CSR path arrays.

    ``level_mats`` lists ``(levels × size)`` int matrices whose rows are
    in path order for every lookup (column); ``-1`` marks "no server
    recorded at this level".  The result is the vectorized equivalent of
    running :func:`~repro.core.lookup.compress_path` per column: lookup
    ``i``'s compressed server-index path is
    ``path_servers[path_offsets[i]:path_offsets[i + 1]]``.
    """
    offsets = np.zeros(size + 1, dtype=np.int64)
    mats = [m for m in level_mats if m is not None and m.size]
    if not mats or size == 0:
        return np.zeros(0, dtype=np.int32), offsets
    stacked = np.concatenate(mats, axis=0)
    depth = stacked.shape[0]
    flat = stacked.T.ravel()  # lookup-major; rows keep path order inside
    at = np.flatnonzero(flat >= 0)
    vals = flat[at]
    lane = at // depth
    keep = np.ones(vals.size, dtype=bool)
    if vals.size > 1:
        keep[1:] = (vals[1:] != vals[:-1]) | (lane[1:] != lane[:-1])
    np.cumsum(np.bincount(lane[keep], minlength=size), out=offsets[1:])
    return vals[keep].astype(np.int32), offsets


def masked_descent(router, y, off, depth, head_rows):
    """The replaced backward loop on the kernel's arguments."""
    cover = router.cover_index.cover
    tmax = int(depth.max()) if y.size else 0
    back = np.full((tmax, y.size), -1, dtype=np.int64)
    for j in range(tmax - 1, -1, -1):
        scale_j = float(router.delta) ** j
        p = fold_unit((y + np.mod(off, scale_j)) / scale_j)
        live = depth > j
        back[j, live] = cover(p)[live]
    return levels_to_csr(y.size, [np.vstack(head_rows), back[::-1]])


def masked_fast_lookup(router, src, y, max_levels=MAX_WALK_STEPS):
    """The replaced fast lookup: masked forward search, masked descent."""
    delta = router.delta
    ci = router.cover_index.cover(src)
    z = router.midpoints[ci]
    in_own = router._segment_test(ci)
    t = np.zeros(y.size, dtype=np.int64)
    s_final = np.zeros(y.size, dtype=np.float64)
    pending = np.ones(y.size, dtype=bool)
    cap = (max_levels if delta & (delta - 1) == 0
           else min(max_levels, int(52 / math.log2(delta))))
    for level in range(cap + 1):
        scale = float(delta) ** level
        s_level = np.trunc(z * scale) if level else np.zeros(y.size)
        p = fold_unit((y + s_level) / scale) if level else y
        newly = pending & in_own(p)
        t[newly] = level
        s_final[newly] = s_level[newly]
        pending &= ~newly
        if not pending.any():
            break
    else:
        raise RuntimeError("masked_fast_lookup failed to converge")
    servers, offsets = masked_descent(router, y, s_final, t, [ci])
    return {"owner_idx": router.cover_index.cover(y), "source_idx": ci,
            "t": t, "hops": np.diff(offsets) - 1,
            "path_servers": servers, "path_offsets": offsets}


def assert_same(got, expect):
    for name in FIELDS:
        a, b = getattr(got, name), expect[name]
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name


def network(points, delta=2, with_ring=True):
    net = DistanceHalvingNetwork(delta=delta, with_ring=with_ring)
    for p in points:
        net.join(float(p))
    return net


def pairs(net, rng, size):
    pts = net.segments.as_array()
    return pts[rng.integers(0, pts.size, size=size)], rng.random(size)


def fast_three_way(net, src, tgt):
    """New kernel ≡ masked oracle ≡ scalar engine; the routed batch."""
    router = net.compile_router()
    got = router.batch_fast_lookup(src, tgt, keep_paths="csr")
    assert_same(got, masked_fast_lookup(router, got.sources, got.targets))
    for i, r in enumerate(lookup_many(net, got.sources, got.targets)):
        assert r.t == got.t[i] and r.hops == got.hops[i]
        assert r.server_path == got.server_path(i)
    return got


class DescentSpy:
    """Checks every ``_descend`` call of a router against the oracle."""

    def __init__(self, router):
        self.router, self.calls = router, 0

    def __call__(self, y, off, depth, order, head):
        self.calls += 1
        assert np.array_equal(np.sort(order), np.arange(y.size))
        assert (np.diff(depth[order]) <= 0).all()
        got = BatchRouter._descend(self.router, y, off, depth, order, head)
        expect = masked_descent(self.router, y, off, depth,
                                head_to_rows(head, y.size))
        for a, b in zip(got, expect):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        return got


def dh_three_way(net, src, tgt, tau):
    """Every descent of a dh batch ≡ oracle; the batch ≡ scalar engine."""
    router = net.compile_router(with_adjacency=True)
    router._descend = spy = DescentSpy(router)
    got = router.batch_dh_lookup(src, tgt, tau=tau, keep_paths="csr")
    bare = router.batch_dh_lookup(src, tgt, tau=tau)
    assert spy.calls == 2
    assert np.array_equal(got.hops, bare.hops) and not bare.keeps_paths
    refs = lookup_many(net, got.sources, got.targets, algorithm="dh",
                       taus=[list(row) for row in tau])
    for i, r in enumerate(refs):
        assert r.t == got.t[i] and r.hops == got.hops[i]
        assert r.server_path == got.server_path(i)
    return got


class TestAdversarialPointSets:
    @settings(max_examples=120, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]),
           with_ring=st.booleans(), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(unit, max_size=6))
    def test_fast_kernel_oracle_scalar(self, points, delta, with_ring, seed,
                                       extra):
        net = network(points, delta, with_ring)
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
        net = network(points, delta, with_ring)
        rng = np.random.default_rng(seed)
        src, tgt = pairs(net, rng, 16)
        tau = rng.integers(0, delta, size=(16, 64))
        try:
            dh_three_way(net, src, tgt, tau)
        except RuntimeError as exc:
            # phase I hit its float step cap before the descent ran
            assert "phase I failed to converge" in str(exc)


class TestPinnedCases:
    def test_source_owns_target_lanes_have_depth_zero(self):
        net = network(np.random.default_rng(1).random(32))
        pts = net.segments.as_array()
        src = pts[[3, 3, 9, 31]]
        tgt = np.array([pts[3], np.nextafter(pts[4], 0), 0.6, pts[31]])
        got = fast_three_way(net, src, tgt)
        assert got.t.tolist()[:2] == [0, 0] and got.t[3] == 0
        assert got.hops.tolist()[:2] == [0, 0]
        assert np.diff(got.path_offsets).tolist()[:2] == [1, 1]

    def test_all_lanes_depth_zero(self):
        net = network([0.1, 0.4, 0.7])
        got = fast_three_way(net, [0.1, 0.4, 0.7], [0.2, 0.5, 0.05])
        assert (got.t == 0).all()
        assert got.path_servers.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("delta", [2, 3])
    def test_source_on_the_seam_segment(self, delta):
        net = network(np.random.default_rng(2).random(40), delta)
        pts = net.segments.as_array()
        rng = np.random.default_rng(3)
        tgt = np.concatenate([rng.random(30), [0.0, pts[0] / 2, pts[-1]]])
        got = fast_three_way(net, np.full(tgt.size, pts[-1]), tgt)
        assert (got.source_idx == pts.size - 1).all()
        tau = rng.integers(0, delta, size=(tgt.size, 64))
        dh_three_way(net, np.full(tgt.size, pts[-1]), tgt, tau)

    def test_every_lane_the_same_depth(self):
        net = network(np.random.default_rng(4).random(64))
        src, tgt = pairs(net, np.random.default_rng(5), 400)
        t = net.compile_router().batch_fast_lookup(src, tgt).t
        same = t == np.bincount(t).argmax()
        got = fast_three_way(net, src[same], tgt[same])
        assert got.size > 50 and np.unique(got.t).size == 1 and got.t[0] > 0

    @pytest.mark.parametrize("size", [0, 1])
    def test_tiny_batches(self, size):
        net = network(np.random.default_rng(5).random(20))
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
        net = network(np.random.default_rng(7).random(n), delta)
        rng = np.random.default_rng(8)
        src, tgt = pairs(net, rng, 40)
        fast_three_way(net, src, tgt)
        dh_three_way(net, src, tgt, rng.integers(0, delta, size=(40, 64)))

    @pytest.mark.parametrize("delta", [2, 3, 4])
    @pytest.mark.parametrize("with_ring", [True, False])
    def test_mid_size_network(self, delta, with_ring):
        """Deeper dh walks than the adversarial sets (few points) reach."""
        net = network(np.random.default_rng(13).random(300), delta, with_ring)
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
            net = network([0.25, 0.25 + gap, 0.8], delta=3)
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
        net = network([low, low + 2.0 ** -80, 0.8])
        got = fast_three_way(net, np.full(6, low), np.linspace(0.3, 0.9, 6))
        assert got.t.max() > 63

    def test_too_few_levels_still_raises(self):
        net = network(np.random.default_rng(9).random(64))
        src, tgt = pairs(net, np.random.default_rng(10), 50)
        router = net.compile_router()
        assert router.batch_fast_lookup(src, tgt).t.max() > 2
        with pytest.raises(RuntimeError, match="failed to converge"):
            router.batch_fast_lookup(src, tgt, max_levels=2)

    def test_after_churn_and_incremental_refresh(self):
        rng = np.random.default_rng(11)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(96)
        router = net.router(auto_refresh=True, with_adjacency=True)
        router.lookup_batch(*pairs(net, rng, 8))
        for _ in range(6):
            net.join(float(rng.random()))
        net.leave(net.segments.as_array()[17])
        src, tgt = pairs(net, rng, 200)
        got = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        assert router.refresh_stats.incremental >= 1
        assert_same(got, masked_fast_lookup(router, src, tgt))
        assert_same(fast_three_way(net, src, tgt), {
            name: getattr(got, name) for name in FIELDS})
        router._descend = spy = DescentSpy(router)
        router.batch_dh_lookup(src, tgt, tau=rng.integers(0, 2, (200, 64)),
                               keep_paths="csr")
        assert spy.calls == 1

    def test_two_worker_sharded_equals_unsharded(self):
        rng = np.random.default_rng(12)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(128)
        router = net.router(auto_refresh=True)
        src, tgt = pairs(net, rng, 600)
        try:
            sharded = router.lookup_batch(src, tgt, workers=2,
                                          keep_paths="csr")
        finally:
            router.close_executor()
        assert_same(sharded, masked_fast_lookup(router, src, tgt))
