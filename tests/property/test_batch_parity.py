"""Property tests: the batch engine is bit-identical to the scalar one.

The vectorized :class:`~repro.core.batch.BatchRouter` re-implements the
§2.2 routing algorithms with closed-form array arithmetic; its contract
is that *every* observable of a lookup — owner, walk parameter ``t``,
hop count, compressed server path — matches the scalar engine exactly,
for any (source, target) pair on any decomposition.  Hypothesis drives
the pair choice on shared random networks of n ∈ {16, 256}; a seeded
sweep covers n = 4096 (the throughput-scale instance, too expensive to
rebuild per example).
"""

import numpy as np
import pytest
from adjacency_oracle import edge_keys
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balance import MultipleChoice
from repro.core import DistanceHalvingNetwork, lookup_many
from repro.core.segments import cover_grid, cover_indices

unit_float = st.floats(min_value=0.0, max_value=1.0, exclude_max=False,
                       allow_nan=False, allow_infinity=False)


def _build(n, seed, balanced=False):
    rng = np.random.default_rng(seed)
    net = DistanceHalvingNetwork(rng=rng)
    net.populate(n, selector=MultipleChoice(t=4) if balanced else None)
    return net, net.compile_router(with_adjacency=True)


NETS = {}


def net_and_router(n):
    if n not in NETS:
        NETS[n] = _build(n, seed=1000 + n, balanced=(n >= 4096))
    return NETS[n]


class TestFastParityHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([16, 256]), src_pick=unit_float, y=unit_float)
    def test_single_pair_full_parity(self, n, src_pick, y):
        net, router = net_and_router(n)
        # any point works as a source: the lookup starts at its cover
        src = float(net.segments.cover_point(src_pick))
        [scalar] = lookup_many(net, [src], [y])
        batch = router.batch_fast_lookup(np.array([src]), np.array([y]),
                                         keep_paths=True)
        assert scalar.owner == batch.owner[0]
        assert scalar.t == batch.t[0]
        assert scalar.hops == batch.hops[0]
        assert scalar.server_path == batch.server_path(0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([16, 256]), y=unit_float,
           tau_bits=st.integers(min_value=0, max_value=2**64 - 1))
    def test_dh_single_pair_full_parity(self, n, y, tau_bits):
        net, router = net_and_router(n)
        src = float(net.segments.cover_point(y * 0.7919 % 1.0))
        tau = [(tau_bits >> k) & 1 for k in range(64)]
        [scalar] = lookup_many(net, [src], [y], algorithm="dh", taus=[tau])
        batch = router.batch_dh_lookup(np.array([src]), np.array([y]),
                                       tau=np.array([tau]), keep_paths=True)
        assert scalar.owner == batch.owner[0]
        assert scalar.hops == batch.hops[0]
        assert scalar.phase1_hops == batch.phase1_hops[0]
        assert scalar.server_path == batch.server_path(0)


class TestParityAtScale:
    """Seeded sweeps on the sizes the issue names, including n=4096."""

    @pytest.mark.parametrize("n,count", [(16, 400), (256, 400), (4096, 300)])
    def test_fast_parity_sweep(self, n, count):
        net, router = net_and_router(n)
        route = np.random.default_rng(2000 + n)
        pts = net.segments.as_array()
        src = pts[route.integers(0, n, size=count)]
        tgt = route.random(count)
        batch = router.batch_fast_lookup(src, tgt, keep_paths=True)
        for i, r in enumerate(lookup_many(net, src, tgt)):
            assert r.owner == batch.owner[i]
            assert r.t == batch.t[i]
            assert r.hops == batch.hops[i]
            assert r.server_path == batch.server_path(i)

    @pytest.mark.parametrize("n,count", [(16, 200), (256, 200), (4096, 100)])
    def test_dh_parity_sweep(self, n, count):
        net, router = net_and_router(n)
        route = np.random.default_rng(3000 + n)
        pts = net.segments.as_array()
        src = pts[route.integers(0, n, size=count)]
        tgt = route.random(count)
        tau = route.integers(0, 2, size=(count, 80))
        batch = router.batch_dh_lookup(src, tgt, tau=tau, keep_paths=True)
        scalar = lookup_many(net, src, tgt, algorithm="dh",
                             taus=[list(row) for row in tau])
        for i, r in enumerate(scalar):
            assert r.owner == batch.owner[i]
            assert r.t == batch.t[i]
            assert r.hops == batch.hops[i]
            assert r.server_path == batch.server_path(i)

    def test_batch_hops_respect_corollary_2_5(self):
        net, router = net_and_router(4096)
        route = np.random.default_rng(4096)
        pts = net.segments.as_array()
        src = pts[route.integers(0, 4096, size=5000)]
        batch = router.batch_fast_lookup(src, route.random(5000))
        bound = np.log2(net.n) + np.log2(net.smoothness()) + 1
        assert batch.t.max() <= bound + 1e-9
        assert (batch.hops <= batch.t).all()


class TestCsrLosslessEncoding:
    """ISSUE 4: the flattened CSR path arrays (``keep_paths="csr"``) are
    a lossless re-encoding of the scalar ``LookupResult.server_path``
    for both algorithms — and of the object-path reconstruction the
    batch engine already had."""

    @pytest.mark.parametrize("n,count", [(16, 300), (256, 300)])
    def test_fast_csr_equals_scalar_paths(self, n, count):
        net, router = net_and_router(n)
        route = np.random.default_rng(5000 + n)
        pts = net.segments.as_array()
        src = pts[route.integers(0, n, size=count)]
        tgt = route.random(count)
        batch = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        assert batch.path_servers.dtype == np.int32
        assert batch.path_offsets.dtype == np.int64
        assert (np.diff(batch.path_offsets) >= 1).all()
        assert np.array_equal(batch.path_lengths() - 1, batch.hops)
        for i, r in enumerate(lookup_many(net, src, tgt)):
            assert r.server_path == batch.server_path(i)
            assert r.server_path == batch.path_points(i).tolist()

    @pytest.mark.parametrize("n,count", [(16, 150), (256, 150)])
    def test_dh_csr_equals_scalar_paths(self, n, count):
        net, router = net_and_router(n)
        route = np.random.default_rng(6000 + n)
        pts = net.segments.as_array()
        src = pts[route.integers(0, n, size=count)]
        tgt = route.random(count)
        tau = route.integers(0, 2, size=(count, 80))
        batch = router.batch_dh_lookup(src, tgt, tau=tau, keep_paths="csr")
        assert np.array_equal(batch.path_lengths() - 1, batch.hops)
        scalar = lookup_many(net, src, tgt, algorithm="dh",
                             taus=[list(row) for row in tau])
        for i, r in enumerate(scalar):
            assert r.server_path == batch.server_path(i)

    def test_csr_matches_object_path_reconstruction(self):
        """to_csr() on a keep_paths=True result is the same encoding."""
        net, router = net_and_router(256)
        route = np.random.default_rng(42)
        pts = net.segments.as_array()
        src = pts[route.integers(0, 256, size=200)]
        tgt = route.random(200)
        tau = route.integers(0, 2, size=(200, 80))
        for algo in ("fast", "dh"):
            kw = {} if algo == "fast" else {"tau": tau}
            call = getattr(router, f"batch_{algo}_lookup")
            obj = call(src, tgt, keep_paths=True, **kw)
            csr = call(src, tgt, keep_paths="csr", **kw)
            servers, offsets = obj.to_csr()
            assert np.array_equal(servers, csr.path_servers)
            assert np.array_equal(offsets, csr.path_offsets)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           steps=st.integers(min_value=1, max_value=40),
           leave_prob=st.floats(min_value=0.0, max_value=0.8))
    def test_csr_lossless_after_churn_interleavings(self, seed, steps,
                                                    leave_prob):
        """Joins/leaves replayed through incremental refresh() must not
        perturb the CSR encoding: paths still match a scalar replay on
        the live network, for both algorithms."""
        rng = np.random.default_rng(seed)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(24)
        router = net.router(auto_refresh=True, with_adjacency=True,
                            churn_budget=10**9)
        _apply_random_churn(net, rng, steps, leave_prob,
                            refresh=lambda: router.refresh())
        route = np.random.default_rng(seed + 1)
        size = 32
        pts = net.segments.as_array()
        src = pts[route.integers(0, net.n, size=size)]
        tgt = route.random(size)
        tau = route.integers(0, net.delta, size=(size, 80))
        fast = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        dh = router.batch_dh_lookup(src, tgt, tau=tau, keep_paths="csr")
        assert np.array_equal(fast.path_lengths() - 1, fast.hops)
        assert np.array_equal(dh.path_lengths() - 1, dh.hops)
        for i, r in enumerate(lookup_many(net, src, tgt)):
            assert r.server_path == fast.server_path(i)
        scalar = lookup_many(net, src, tgt, algorithm="dh",
                             taus=[list(row) for row in tau])
        for i, r in enumerate(scalar):
            assert r.server_path == dh.server_path(i)


def _apply_random_churn(net, rng, steps, leave_prob, refresh=None):
    """Random join/leave interleaving; optionally re-sync after each op."""
    for _ in range(steps):
        if rng.random() < leave_prob and net.n > 1:
            pts = list(net.points())
            net.leave(pts[int(rng.integers(len(pts)))])
        else:
            net.join(float(rng.random()))
        if refresh is not None:
            refresh()


def _held_result(router, y):
    """A routed batch's arrays, kept: its ``points`` and the owners."""
    res = router.lookup_batch([y], [1.0 - y])
    return [res.points, res.owner]


#: Every way a router hands an array out, by index: the four registered
#: columns, ``cover_index.points``, the shard export, a held result.
HAND_OUTS = (
    lambda router, y: [router.points],
    lambda router, y: [router.seg_start],
    lambda router, y: [router.seg_end],
    lambda router, y: [router.midpoints],
    lambda router, y: [router.cover_index.points],
    lambda router, y: list(router.snapshot_columns().values()),
    _held_result,
)


def _assert_router_equals_fresh(net, router, seed):
    """The incrementally maintained router is bit-identical to a fresh
    compile — arrays, adjacency keys, and both lookup algorithms."""
    fresh = net.compile_router(with_adjacency=True)
    assert router.n == fresh.n == net.n
    # both read the map's float64 column: tie it to the id list first
    assert router.points.tolist() == [float(p) for p in net.segments]
    assert np.array_equal(router.points, fresh.points)
    assert np.array_equal(router.seg_start, fresh.seg_start)
    assert np.array_equal(router.seg_end, fresh.seg_end)
    assert np.array_equal(router.midpoints, fresh.midpoints)
    # the cover index is a derived column: the patched grid equals one
    # built from scratch at its resolution, which stays within the band
    index = router.cover_index
    size = len(index.grid)
    assert size // 8 <= router.n <= size // 2
    assert np.array_equal(index.grid, cover_grid(router.points, size))
    assert np.array_equal(index.ext, np.append(router.points, np.inf))
    if router.adj_first is None:
        router._build_adjacency()
    assert np.array_equal(router.adj_first, fresh.adj_first)
    assert np.array_equal(router.adj_count, fresh.adj_count)
    assert np.array_equal(edge_keys(router), edge_keys(fresh))

    route = np.random.default_rng(seed)
    size = 64
    pts = net.segments.as_array()
    src = pts[route.integers(0, net.n, size=size)]
    tgt = route.random(size)
    a = router.batch_fast_lookup(src, tgt)
    b = fresh.batch_fast_lookup(src, tgt)
    assert np.array_equal(a.owner_idx, b.owner_idx)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.hops, b.hops)
    tau = route.integers(0, net.delta, size=(size, 64))
    a = router.batch_dh_lookup(src, tgt, tau=tau)
    b = fresh.batch_dh_lookup(src, tgt, tau=tau)
    assert np.array_equal(a.owner_idx, b.owner_idx)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.hops, b.hops)
    assert np.array_equal(a.phase1_hops, b.phase1_hops)


class TestIncrementalRefreshParity:
    """ISSUE 3: after *any* interleaving of joins and leaves, the
    incrementally maintained auto-refresh router must be bit-identical
    to a from-scratch ``compile_router()`` — sorted arrays, adjacency
    keys, and the results of both batch lookup algorithms."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           steps=st.integers(min_value=1, max_value=48),
           leave_prob=st.floats(min_value=0.0, max_value=0.9))
    def test_any_interleaving_matches_fresh_compile(self, seed, steps,
                                                    leave_prob):
        rng = np.random.default_rng(seed)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(24)
        router = net.router(auto_refresh=True, with_adjacency=True,
                            churn_budget=10**9)
        _apply_random_churn(net, rng, steps, leave_prob)
        router.refresh()
        _assert_router_equals_fresh(net, router, seed)

    @settings(max_examples=60, deadline=None)
    @given(start=st.integers(min_value=1, max_value=9),
           ops=st.lists(st.tuples(st.booleans(), unit_float, st.booleans()),
                        min_size=1, max_size=40))
    def test_any_refresh_grouping_matches_fresh_compile(self, start, ops):
        """Joins and leaves refreshed in arbitrary groups, from sizes on
        both sides of the n < 4 bail: the adopted column, the replayed
        midpoints and the followed grid equal a fresh compile's, and the
        scalar oracles', after every refresh."""
        net = DistanceHalvingNetwork(rng=np.random.default_rng(start))
        net.populate(start)
        router = net.router(auto_refresh=True, churn_budget=10**9)
        for leave, value, sync in ops + [(False, 0.5, True)]:
            if leave and net.n > 1:
                net.leave(net.segments.point_at(int(value * net.n) % net.n))
            elif value % 1.0 not in net.segments:
                net.join(value)
            if not sync:
                continue
            before = router.points, router.midpoints, router.seg_end
            frozen = [a.copy() for a in before]
            router.refresh()
            # handed-out arrays are never edited
            assert all(np.array_equal(a, b) for a, b in zip(before, frozen))
            fresh = net.compile_router()
            assert router.points.tolist() == list(net.segments)
            assert np.array_equal(router.points, fresh.points)
            assert np.array_equal(router.seg_end, fresh.seg_end)
            assert np.array_equal(router.midpoints, fresh.midpoints)
            assert np.array_equal(router.midpoints,
                                  net.segments.midpoints_array())
            # a followed grid may sit at another resolution than a fresh
            # one (the [G/8, G/2] band); at its own it must be exact
            grid = router.cover_index.grid
            assert np.array_equal(grid, cover_grid(router.points, len(grid)))
            assert not np.shares_memory(router.points, net.segments.column)
        stats = router.refresh_stats
        assert stats.ops_synced() == net.membership_version - start

    def test_per_op_refresh_long_trace(self):
        """300 ops re-synced one at a time, checked at every 50th op."""
        rng = np.random.default_rng(777)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(256)
        router = net.router(auto_refresh=True, with_adjacency=True,
                            churn_budget=10**9)
        for chunk in range(6):
            _apply_random_churn(net, rng, 50, 0.45,
                                refresh=lambda: router.refresh())
            _assert_router_equals_fresh(net, router, 7000 + chunk)
        assert router.refresh_stats.incremental == 300
        assert router.refresh_stats.full_rebuilds == 0

    def test_grid_follows_across_resolution_changes(self):
        """n grows past G/2 and shrinks below G/8 under per-op refresh:
        the grid is re-chosen both times, never by a full rebuild."""
        rng = np.random.default_rng(4242)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(16)
        router = net.router(auto_refresh=True, churn_budget=10**9)
        sizes = {len(router.cover_index.grid)}
        for target in (70, 6):
            while net.n != target:
                if net.n < target:
                    net.join(float(rng.random()))
                else:
                    pts = list(net.points())
                    net.leave(pts[int(rng.integers(len(pts)))])
                router.refresh()
                sizes.add(len(router.cover_index.grid))
            _assert_router_equals_fresh(net, router, 4242 + target)
        assert sizes == {16, 32, 64, 128, 256}
        assert router.refresh_stats.full_rebuilds == 0

    def test_grid_after_budget_overflow_full_rebuild(self):
        """Past the churn budget the refresh recompiles; the index with it."""
        rng = np.random.default_rng(99)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(64)
        router = net.router(auto_refresh=True, churn_budget=4)
        _apply_random_churn(net, rng, 3, 0.5)
        router.refresh()
        _apply_random_churn(net, rng, 40, 0.2)
        router.refresh()
        assert router.refresh_stats.incremental == 1
        assert router.refresh_stats.full_rebuilds == 1
        _assert_router_equals_fresh(net, router, 99)
        ys = rng.random(256)
        assert np.array_equal(router.cover(ys),
                              cover_indices(router.points, ys))

    def test_mass_departure_trace_matches_fresh_compile(self):
        """The §4.1 stress (half the servers leave) through run_churn."""
        from repro.sim.churn import ChurnTrace, run_churn

        rng = np.random.default_rng(31337)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(64)
        router = net.router(auto_refresh=True, with_adjacency=True,
                            churn_budget=10**9)
        trace = ChurnTrace.mass_departure(rng, n=64, fraction=0.5)
        run_churn(net, trace, rng, on_op=lambda s, o: router.refresh())
        assert router.refresh_stats.full_rebuilds == 0
        _assert_router_equals_fresh(net, router, 999)

    @pytest.mark.parametrize("pick", range(len(HAND_OUTS)))
    def test_every_hand_out_survives_the_next_edits(self, pick):
        """Each kind of hand-out, then a join and a leave refreshed in
        place (room was made beforehand): the hand-out is unchanged."""
        net = DistanceHalvingNetwork(rng=np.random.default_rng(pick))
        net.populate(32)
        router = net.router(auto_refresh=True)
        net.join(0.5)
        router.refresh()  # outgrows the compile: the copy makes room
        handed = HAND_OUTS[pick](router, 0.25)
        kept = [a.copy() for a in handed]
        copies = router.refresh_stats.copies
        net.join(0.0625)
        router.refresh()
        net.leave(net.segments.point_at(0))
        router.refresh()
        assert router.refresh_stats.copies == copies + 1
        assert all(np.array_equal(a, b) for a, b in zip(handed, kept))
        _assert_router_equals_fresh(net, router, pick)

    @settings(max_examples=200, deadline=None)
    @given(start=st.integers(min_value=2, max_value=24),
           steps=st.lists(st.tuples(
               st.sampled_from(["join", "leave", "refresh", "hand-out"]),
               unit_float, st.integers(min_value=0, max_value=6)),
               min_size=1, max_size=60))
    def test_copy_on_write_interleaving(self, start, steps):
        """Joins, leaves, refreshes and hand-outs in any order.

        A hand-out is a column read (each registered column, the shard
        export's ``snapshot_columns()``, ``cover_index.points``) or a
        held ``lookup_batch`` result.  After every step: every array
        handed out still equals its value at hand-out; a fresh router
        equals a fresh compile; and k ≤ 16 membership ops with no
        hand-out (or full rebuild) between them made at most one copy —
        a compile is exactly n + 1 rows, a copy leaves room for 16 more.
        """
        net = DistanceHalvingNetwork(rng=np.random.default_rng(start))
        net.populate(start)
        router = net.router(auto_refresh=True, churn_budget=10**9)
        stats = router.refresh_stats
        held = []  # (hand-out, its value when handed out)
        base = (stats.copies, stats.full_rebuilds)
        ops = 0
        for kind, value, pick in steps:
            if kind == "join" and value % 1.0 not in net.segments:
                net.join(value)
                ops += 1
            elif kind == "leave" and net.n > 1:
                net.leave(net.segments.point_at(int(value * net.n) % net.n))
                ops += 1
            elif kind == "refresh":
                router.refresh()
            elif kind == "hand-out":
                held.extend((a, a.copy())
                            for a in HAND_OUTS[pick](router, value))
                base, ops = (stats.copies, stats.full_rebuilds), 0
            if stats.full_rebuilds != base[1]:
                base, ops = (stats.copies, stats.full_rebuilds), 0
            assert all(np.array_equal(a, was) for a, was in held)
            if ops <= 16:
                assert stats.copies - base[0] <= 1
            if router.is_stale:
                continue
            # the live rows, read without handing them out
            n, ext = router.n, router.cover_index.ext
            fresh = net.compile_router()
            assert n == fresh.n and len(ext) == n + 1 and ext[n] == np.inf
            assert np.array_equal(ext[:n], fresh.points)
            assert np.array_equal(router._end[:n], fresh.seg_end)
            assert np.array_equal(router._mid[:n], fresh.midpoints)
            grid = router.cover_index.grid
            assert np.array_equal(grid, cover_grid(ext[:n], len(grid)))
