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

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.adjacency import edge_keys
from oracles.compare import assert_same
from oracles.inputs import joined, point_sets, populated
from oracles.segments import midpoints_array

from repro.balance import MultipleChoice
from repro.core import BatchRouter, lookup_many
from repro.core.interval import BELOW_ONE
from repro.core.lookup import MAX_WALK_STEPS
from repro.core.segments import cover_grid, cover_indices
from repro.peer import CostMap

unit_float = st.floats(min_value=0.0, max_value=1.0, exclude_max=False,
                       allow_nan=False, allow_infinity=False)
cost_maps = st.builds(
    lambda isps, seed: CostMap.synthetic(isps, np.random.default_rng(seed)),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1))


@functools.lru_cache(maxsize=None)
def net_and_router(n):
    net = populated(n, 1000 + n,
                    selector=MultipleChoice(t=4) if n >= 4096 else None)
    return net, net.compile_router(with_adjacency=True)


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
        assert batch.t.max() <= corollary_2_5_bound(net)
        assert (batch.hops <= batch.t).all()

    @settings(max_examples=120, deadline=None)
    @given(points=point_sets(),
           picks=st.lists(st.tuples(st.integers(0, 2**16), unit_float),
                          min_size=1, max_size=24))
    @example(points=np.array([2.0**-126, 0.25, 0.5, 0.75, 1 - 2.0**-53]),
             picks=[(4, 0.5)])  # TestSeamCentreRoundsOntoOne's lane
    def test_corollary_2_5_on_adversarial_point_sets(self, points, picks):
        """Cor 2.5 is deterministic: it holds on clustered, bucket-edge
        and adjacent-float ids down to n = 1, not only on smooth sets."""
        net = joined(points, seed=0)
        router = net.compile_router()
        src = points[[i % points.size for i, _ in picks]]
        tgt = np.array([y for _, y in picks])
        try:
            batch = router.batch_fast_lookup(src, tgt)
        except RuntimeError:
            # The one refusal, shared with the scalar engine: a segment
            # shorter than 2^-512 needs more levels than the budget.
            assert corollary_2_5_bound(net) > MAX_WALK_STEPS
            return
        assert batch.t.max() <= corollary_2_5_bound(net)
        assert (batch.hops <= batch.t).all()


class TestOneUlpSegment:
    """A segment one float wide whose centre rounds onto its own end
    walks from its start: the scalar and the batch fast lookup used to
    find no walk point in it and raise "forward search failed to
    converge"."""

    # seam segments [1 - 2^-53, 0) and an inner one [0.5 - 2^-54, 0.5);
    # the refresh needs n >= 4 on both sides of the join to patch
    SEAM = ([0.0, 0.5, 1 - 2**-53], 2)
    PATCHED = [([0.0, 0.25, 0.5, 0.75, 1 - 2**-53], 4),
               ([0.0, 0.25, 0.5 - 2**-54, 0.5, 0.75], 2)]
    CASES = [SEAM] + PATCHED

    @pytest.mark.parametrize("points, row", CASES)
    def test_midpoint_falls_back_to_the_start(self, points, row):
        net = joined(points, seed=0)
        seg = net.segments.segment(row)
        assert seg.start + seg.length / 2 in (seg.end, 1.0)  # the rounding
        assert seg.midpoint == seg.start and seg.midpoint in seg
        router = net.compile_router()
        assert router.midpoints[row] == seg.start
        assert np.array_equal(router.midpoints, midpoints_array(net.segments))

    @pytest.mark.parametrize("points, row", CASES)
    def test_scalar_and_batch_route_from_it(self, points, row):
        net = joined(points, seed=0)
        router = net.compile_router()
        tgt = np.array([0.3, 0.0, 0.7, points[row], 0.999])
        src = np.full(tgt.size, points[row])
        batch = router.batch_fast_lookup(src, tgt, keep_paths=True)
        for i, r in enumerate(lookup_many(net, src, tgt)):
            assert r.owner == batch.owner[i]
            assert r.t == batch.t[i] <= corollary_2_5_bound(net)
            assert r.server_path == batch.server_path(i)

    @pytest.mark.parametrize("points, row", PATCHED)
    def test_an_incremental_refresh_settles_it_as_a_compile(self, points,
                                                            row):
        net = joined([p for i, p in enumerate(points) if i != row], seed=0)
        router = net.router(auto_refresh=True)
        net.join(points[row])
        router.refresh()
        assert router.refresh_stats.incremental == 1
        assert router.midpoints[row] == points[row]
        assert np.array_equal(router.midpoints,
                              net.compile_router().midpoints)


class TestSeamCentreRoundsOntoOne:
    """A seam segment longer below 1.0 than above 0.0 whose float centre
    rounds onto 1.0: ``[1 - 2^-53, 2^-126)`` has centre ``1 - 2^-54 +
    2^-127``, which rounds to 1.0 and folded to 0.0, inside the segment
    but in its short piece.  Walking from ``z = 0`` reaches the piece
    ``[0, 2^-126)`` only at ``t = 126``, past Cor 2.5's bound of 55 for
    the target 0.5; from ``BELOW_ONE``, the longer piece's last float,
    it takes ``t = 52``."""

    POINTS = [2.0**-126, 0.25, 0.5, 0.75, 1 - 2.0**-53]
    ROW = 4

    def test_midpoint_is_below_one(self):
        net = joined(self.POINTS, seed=0)
        seg = net.segments.segment(self.ROW)
        assert seg.wraps and seg.start + seg.length / 2 == 1.0
        assert seg.midpoint == BELOW_ONE and seg.midpoint in seg
        router = net.compile_router()
        assert router.midpoints[self.ROW] == BELOW_ONE
        assert np.array_equal(router.midpoints, midpoints_array(net.segments))

    def test_scalar_and_batch_walk_within_the_bound(self):
        net = joined(self.POINTS, seed=0)
        router = net.compile_router()
        tgt = np.array([0.5, 0.3, 0.0, 0.999, 2.0**-127])
        src = np.full(tgt.size, self.POINTS[self.ROW])
        batch = router.batch_fast_lookup(src, tgt, keep_paths=True)
        assert batch.t[0] == 52 and corollary_2_5_bound(net) == 55
        assert batch.t.max() <= corollary_2_5_bound(net)
        for i, r in enumerate(lookup_many(net, src, tgt)):
            assert r.owner == batch.owner[i]
            assert r.t == batch.t[i]
            assert r.server_path == batch.server_path(i)

    @pytest.mark.parametrize("row", [0, 4])
    def test_an_incremental_refresh_settles_it_as_a_compile(self, row):
        """Joining either end of the seam segment recomputes its row."""
        net = joined([p for i, p in enumerate(self.POINTS) if i != row],
                     seed=0)
        router = net.router(auto_refresh=True)
        net.join(self.POINTS[row])
        router.refresh()
        assert router.refresh_stats.incremental == 1
        assert router.midpoints[self.ROW] == BELOW_ONE
        assert np.array_equal(router.midpoints,
                              net.compile_router().midpoints)


def corollary_2_5_bound(net) -> float:
    """``⌈log₂ n + log₂ ρ + 1⌉``: the walk length is an integer, so the
    ceiling is the guarantee (as in test_protocol_properties.py).  A
    subnormal segment overflows ρ to ``inf``, and the bound with it."""
    bound = (math.log2(max(2, net.n)) + math.log2(max(1.0, net.smoothness()))
             + 1)
    return math.ceil(bound - 1e-9) if math.isfinite(bound) else math.inf


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
        assert np.array_equal(np.diff(batch.path_offsets) - 1, batch.hops)
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
        assert np.array_equal(np.diff(batch.path_offsets) - 1, batch.hops)
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
        net = populated(24, rng)
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
        assert np.array_equal(np.diff(fast.path_offsets) - 1, fast.hops)
        assert np.array_equal(np.diff(dh.path_offsets) - 1, dh.hops)
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


def _assert_cost_equals_fresh(net, router, cost_map):
    """The cost columns, and a greedy cost walk over them, equal a fresh
    ``BatchRouter(net, cost_map=...)``'s in dtype and every bit."""
    fresh = BatchRouter(net, cost_map=cost_map)
    assert_same(router, fresh, ("cost_isp", "cost_x", "cost_y", "_isp_cost"))
    route = np.random.default_rng(net.n)
    src = net.segments.as_array()[route.integers(0, net.n, size=32)]
    tgt = route.random(32)
    got, want = (r.batch_dh_lookup(src, tgt, policy="greedy",
                                   keep_paths="csr") for r in (router, fresh))
    assert_same(got, want, ("source_idx", "owner_idx", "t", "hops",
                            "phase1_hops", "tau_used", "path_servers",
                            "path_offsets", "algorithm", "policy"))


def _held_result(router, y):
    """A routed batch's arrays, kept: its ``points`` and the owners."""
    res = router.lookup_batch([y], [1.0 - y])
    return [res.points, res.owner]


def _held_dh_result(router, y):
    """A routed two-phase batch's arrays, kept: the dh walk's hand-out."""
    res = router.batch_dh_lookup([y], [1.0 - y],
                                 rng=np.random.default_rng(0))
    return [res.points, res.owner]


#: Every way a router hands an array out, by index: the three columns,
#: the three at once (what the shard export reads), a held fast result,
#: a held dh result.
HAND_OUTS = (
    lambda router, y: [router.points],
    lambda router, y: [router.seg_end],
    lambda router, y: [router.midpoints],
    lambda router, y: [router.points, router.seg_end, router.midpoints],
    _held_result,
    _held_dh_result,
)


def _assert_router_equals_fresh(net, router, seed):
    """The incrementally maintained router is bit-identical to a fresh
    compile — arrays, adjacency keys, and both lookup algorithms."""
    fresh = net.compile_router(with_adjacency=True)
    assert router.n == fresh.n == net.n
    # both read the map's float64 column: tie it to the id list first
    assert router.points.tolist() == [float(p) for p in net.segments]
    assert np.array_equal(router.points, fresh.points)
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
    keys, the cost columns and the results of both batch lookup
    algorithms."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           steps=st.integers(min_value=1, max_value=48),
           leave_prob=st.floats(min_value=0.0, max_value=0.9),
           cost_map=cost_maps)
    def test_any_interleaving_matches_fresh_compile(self, seed, steps,
                                                    leave_prob, cost_map):
        rng = np.random.default_rng(seed)
        net = populated(24, rng)
        router = BatchRouter(net, build_adjacency=True, auto_refresh=True,
                             churn_budget=10**9, cost_map=cost_map)
        _apply_random_churn(net, rng, steps, leave_prob)
        router.refresh()
        _assert_router_equals_fresh(net, router, seed)
        _assert_cost_equals_fresh(net, router, cost_map)

    @settings(max_examples=60, deadline=None)
    @given(start=st.integers(min_value=1, max_value=9),
           ops=st.lists(st.tuples(st.booleans(), unit_float, st.booleans()),
                        min_size=1, max_size=40),
           cost_map=cost_maps)
    def test_any_refresh_grouping_matches_fresh_compile(self, start, ops,
                                                        cost_map):
        """Joins and leaves refreshed in arbitrary groups, from sizes on
        both sides of the n < 4 bail: the adopted column, the replayed
        midpoints, the followed grid and the rehashed cost columns equal
        a fresh compile's, and the scalar oracles', after every
        refresh."""
        net = populated(start, start)
        router = BatchRouter(net, auto_refresh=True, churn_budget=10**9,
                             cost_map=cost_map)
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
                                  midpoints_array(net.segments))
            # a followed grid may sit at another resolution than a fresh
            # one (the [G/8, G/2] band); at its own it must be exact
            grid = router.cover_index.grid
            assert np.array_equal(grid, cover_grid(router.points, len(grid)))
            assert not np.shares_memory(router.points, net.segments.column)
            _assert_cost_equals_fresh(net, router, cost_map)
        stats = router.refresh_stats
        assert stats.ops_synced() == net.membership_version - start

    def test_per_op_refresh_long_trace(self):
        """300 ops re-synced one at a time, checked at every 50th op."""
        rng = np.random.default_rng(777)
        net = populated(256, rng)
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
        net = populated(16, rng)
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
        net = populated(64, rng)
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
        net = populated(64, rng)
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
        net = populated(32, pick)
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
               unit_float, st.integers(min_value=0, max_value=len(HAND_OUTS) - 1)),
               min_size=1, max_size=60))
    def test_copy_on_write_interleaving(self, start, steps):
        """Joins, leaves, refreshes and hand-outs in any order.

        A hand-out is a column read (each column, or the three the shard
        export reads) or a held ``lookup_batch`` / ``batch_dh_lookup``
        result.  After every step: every array handed out still equals its value at hand-out; a fresh router
        equals a fresh compile; and k ≤ 16 membership ops with no
        hand-out (or full rebuild) between them made at most one copy —
        a compile is exactly n + 1 rows, a copy leaves room for 16 more.
        """
        net = populated(start, start)
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
