"""Unit tests for the vectorized batch-lookup engine (core/batch.py).

The engine's contract is *bit-parity* with the scalar §2.2 algorithms:
same owners, same walk parameters, same hop counts, same compressed
server paths.  These tests pin that contract on small and degenerate
networks; tests/property/test_batch_parity.py covers random networks at
scale.
"""

import numpy as np
import pytest

from repro.balance import MultipleChoice
from repro.core import (
    DistanceHalvingNetwork,
    dh_lookup,
    equally_spaced_network,
    fast_lookup,
    lookup_many,
)


def make_net(n, seed=0, delta=2, with_ring=True, balanced=False):
    rng = np.random.default_rng(seed)
    net = DistanceHalvingNetwork(delta=delta, with_ring=with_ring, rng=rng)
    net.populate(n, selector=MultipleChoice(t=4) if balanced else None)
    return net, rng


def workload(net, size, seed):
    route = np.random.default_rng(seed)
    pts = net.segments.as_array()
    return pts[route.integers(0, net.n, size=size)], route.random(size)


class TestSnapshot:
    def test_cover_matches_segment_map(self):
        net, _ = make_net(64, seed=1)
        router = net.compile_router()
        ys = np.random.default_rng(2).random(500)
        expect = np.array([net.segments.cover(y) for y in ys])
        assert (router.cover(ys) == expect).all()

    def test_cover_array_on_segment_map(self):
        net, _ = make_net(33, seed=3)
        ys = np.random.default_rng(4).random(200)
        expect = np.array([net.segments.cover(y) for y in ys])
        assert (net.segments.cover_array(ys) == expect).all()

    def test_cover_wraps_below_first_point(self):
        net = DistanceHalvingNetwork()
        net.join(0.4)
        net.join(0.7)
        router = net.compile_router()
        assert (router.cover(np.array([0.1])) == [1]).all()

    def test_cover_rejects_points_outside_the_unit_interval(self):
        """The grid would index garbage; the oracle silently said n-1."""
        router = make_net(16, seed=1)[0].compile_router()
        for lane, value in enumerate([1.0, -0.1, 1.5, float("nan")]):
            ys = np.full(lane + 1, 0.5)
            ys[lane] = value
            with pytest.raises(ValueError, match=rf"ys\[{lane}\] is .*"
                                                 r"outside \[0, 1\)"):
                router.cover(ys)

    def test_segment_map_cover_array_is_the_searchsorted_oracle(self,
                                                               monkeypatch):
        """cover_array never touches the grid: the audits that compare a
        router against it compare grid against binary search."""
        from repro.core import segments

        def boom(*_args, **_kwargs):
            raise AssertionError("cover_array must not use the cover index")

        monkeypatch.setattr(segments.CoverIndex, "cover", boom)
        calls = []
        oracle = segments.cover_indices
        monkeypatch.setattr(
            segments, "cover_indices",
            lambda points, ys: calls.append(ys.size) or oracle(points, ys))
        net, _ = make_net(33, seed=3)
        ys = np.random.default_rng(4).random(50)
        expect = np.array([net.segments.cover(y) for y in ys])
        assert (net.segments.cover_array(ys) == expect).all()
        assert calls == [50]

    def test_midpoints_match_arcs(self):
        net, _ = make_net(50, seed=5)
        router = net.compile_router()
        for i in range(net.n):
            assert router.midpoints[i] == float(net.segments.segment(i).midpoint)

    def test_empty_network_rejected(self):
        net = DistanceHalvingNetwork()
        with pytest.raises(LookupError):
            net.compile_router()

    def test_adjacency_arrays_match_neighbor_points(self):
        net, _ = make_net(40, seed=6)
        indptr, indices = net.adjacency_arrays()
        pts = list(net.segments)
        index = {p: i for i, p in enumerate(pts)}
        for i, p in enumerate(pts):
            row = set(indices[indptr[i]:indptr[i + 1]].tolist())
            assert row == {index[q] for q in net.neighbor_points(p)}

    def test_snapshot_ignores_later_churn(self):
        net, _ = make_net(32, seed=7)
        router = net.compile_router()
        net.join(0.123456)
        assert router.n == 32  # frozen; caller must recompile after churn


class TestBatchFastLookup:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128])
    def test_parity_small_networks(self, n):
        net, _ = make_net(n, seed=n + 10)
        router = net.compile_router()
        src, tgt = workload(net, 200, n + 11)
        batch = router.batch_fast_lookup(src, tgt, keep_paths=True)
        for i, r in enumerate(lookup_many(net, src, tgt)):
            assert r.owner == batch.owner[i]
            assert r.t == batch.t[i]
            assert r.hops == batch.hops[i]
            assert r.server_path == batch.server_path(i)

    def test_parity_general_delta(self):
        net, _ = make_net(81, seed=30, delta=4)
        router = net.compile_router()
        src, tgt = workload(net, 150, 31)
        batch = router.batch_fast_lookup(src, tgt)
        for i, r in enumerate(lookup_many(net, src, tgt)):
            assert (r.owner, r.t, r.hops) == (
                batch.owner[i], batch.t[i], batch.hops[i])

    def test_parity_equally_spaced_dyadic(self):
        # Fraction ids, but dyadic, so the float snapshot is exact
        net = equally_spaced_network(6)
        router = net.compile_router()
        src, tgt = workload(net, 150, 32)
        batch = router.batch_fast_lookup(src, tgt, keep_paths=True)
        for i, r in enumerate(lookup_many(net, src, tgt)):
            assert [float(p) for p in r.server_path] == batch.server_path(i)

    @pytest.mark.parametrize("entry", ["fast", "dh", "cost"])
    @pytest.mark.parametrize("scalar_side", ["sources", "targets"])
    def test_scalar_broadcasts_on_either_side(self, entry, scalar_side):
        """A scalar target used to raise 'must have the same length'."""
        from repro.peer import CostAwareBatchRouter, CostMap

        net, _ = make_net(32, seed=33)
        cost_map = CostMap.synthetic(n_isps=3, rng=np.random.default_rng(5))
        router = CostAwareBatchRouter(net, cost_map)
        many = np.random.default_rng(34).random(50)
        one = float(net.segments.as_array()[3])
        call = {
            "fast": router.batch_fast_lookup,
            "dh": lambda s, t, **kw: router.batch_dh_lookup(
                s, t, tau=np.zeros(64, dtype=np.int64), **kw),
            "cost": lambda s, t, **kw: router.batch_cost_dh_lookup(
                s, t, policy="greedy", **kw),
        }[entry]
        pair = (one, many) if scalar_side == "sources" else (many, one)
        batch = call(*pair, keep_paths="csr")
        full = call(*np.broadcast_arrays(*pair), keep_paths="csr")
        assert batch.size == 50
        assert (getattr(batch, scalar_side) == one).all()
        assert np.array_equal(batch.owner_idx, full.owner_idx)
        assert np.array_equal(batch.path_servers, full.path_servers)
        assert np.array_equal(batch.path_offsets, full.path_offsets)

    def test_scalar_pair_is_a_batch_of_one(self):
        net, _ = make_net(8, seed=35)
        batch = net.compile_router().lookup_batch(0.2, 0.3)
        assert batch.size == 1 and batch.hops.shape == (1,)

    def test_mismatched_lengths_rejected(self):
        net, _ = make_net(8, seed=35)
        router = net.compile_router()
        with pytest.raises(ValueError):
            router.batch_fast_lookup(np.zeros(4), np.zeros(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_points_rejected_by_lane(self, bad):
        """A NaN target used to spin 512 levels, then 'failed to converge'."""
        net, _ = make_net(16, seed=2)
        router = net.compile_router(with_adjacency=True)
        src, tgt = workload(net, 8, seed=3)
        poisoned = tgt.copy()
        poisoned[5] = bad
        with pytest.raises(ValueError, match=r"targets\[5\] is .*finite"):
            router.batch_fast_lookup(src, poisoned)
        with pytest.raises(ValueError, match=r"targets\[5\] is .*finite"):
            router.batch_dh_lookup(src, poisoned,
                                   rng=np.random.default_rng(0))
        poisoned = src.copy()
        poisoned[2] = bad
        with pytest.raises(ValueError, match=r"sources\[2\] is .*finite"):
            router.batch_fast_lookup(poisoned, tgt)
        with pytest.raises(ValueError, match=r"sources\[2\] is .*finite"):
            router.batch_dh_lookup(poisoned, tgt,
                                   rng=np.random.default_rng(0))

    def test_paths_require_keep_paths(self):
        net, _ = make_net(8, seed=36)
        router = net.compile_router()
        res = router.batch_fast_lookup(np.array([0.1]), np.array([0.5]))
        with pytest.raises(ValueError):
            res.server_path(0)

    def test_targets_normalized(self):
        net, _ = make_net(16, seed=37)
        router = net.compile_router()
        a = router.batch_fast_lookup(np.array([0.0]), np.array([1.25]))
        b = router.batch_fast_lookup(np.array([0.0]), np.array([0.25]))
        assert a.owner[0] == b.owner[0] and a.hops[0] == b.hops[0]


class TestBatchDHLookup:
    @pytest.mark.parametrize("with_ring", [True, False])
    def test_parity_fixed_tau(self, with_ring):
        net, _ = make_net(64, seed=40, with_ring=with_ring)
        router = net.compile_router(with_adjacency=True)
        src, tgt = workload(net, 120, 41)
        tau = np.random.default_rng(42).integers(0, 2, size=(120, 64))
        batch = router.batch_dh_lookup(src, tgt, tau=tau, keep_paths=True)
        scalar = lookup_many(net, src, tgt, algorithm="dh",
                             taus=[list(row) for row in tau])
        for i, r in enumerate(scalar):
            assert r.owner == batch.owner[i]
            assert r.t == batch.t[i]
            assert r.hops == batch.hops[i]
            assert r.phase1_hops == batch.phase1_hops[i]
            assert r.server_path == batch.server_path(i)

    def test_rng_mode_reaches_owner_within_bounds(self):
        net, _ = make_net(128, seed=43, balanced=True)
        router = net.compile_router(with_adjacency=True)
        src, tgt = workload(net, 500, 44)
        res = router.batch_dh_lookup(src, tgt, rng=np.random.default_rng(45))
        expect = net.segments.cover_array(res.targets)
        assert (res.owner_idx == expect).all()
        rho = net.smoothness()
        assert res.hops.max() <= 2 * np.log2(net.n) + 2 * np.log2(rho) + 2

    def test_shared_tau_row_broadcasts(self):
        net, _ = make_net(32, seed=46)
        router = net.compile_router(with_adjacency=True)
        src, tgt = workload(net, 20, 47)
        tau = np.random.default_rng(48).integers(0, 2, size=64)
        res = router.batch_dh_lookup(src, tgt, tau=tau)
        scalar = lookup_many(net, src, tgt, algorithm="dh",
                             taus=[list(tau)] * 20)
        assert [r.hops for r in scalar] == res.hops.tolist()

    def test_exhausted_tau_raises(self):
        net, _ = make_net(256, seed=49)
        router = net.compile_router(with_adjacency=True)
        with pytest.raises(ValueError):
            router.batch_dh_lookup(np.array([0.01]), np.array([0.9]),
                                   tau=np.array([[0]]))

    def test_needs_rng_or_tau(self):
        net, _ = make_net(8, seed=50)
        router = net.compile_router(with_adjacency=True)
        with pytest.raises(ValueError):
            router.batch_dh_lookup(np.array([0.1]), np.array([0.5]))

    def test_tau_digits_validated(self):
        net, _ = make_net(8, seed=51)
        router = net.compile_router(with_adjacency=True)
        with pytest.raises(ValueError):
            router.batch_dh_lookup(np.array([0.1]), np.array([0.5]),
                                   tau=np.array([[7, 0, 1]]))

    @pytest.mark.parametrize("tau", [
        np.array([[0, -1, 1]]),
        np.array([0, 2, 1]),                      # a shared 1-D row
        np.array([[0, 1, 1], [0, 1, 2]], dtype=np.int8),
    ], ids=["negative", "shared-row", "last-lane"])
    def test_tau_range_guard_runs_on_every_call(self, tau):
        net, _ = make_net(8, seed=51)
        router = net.compile_router(with_adjacency=True)
        size = tau.shape[0] if tau.ndim == 2 else 3
        with pytest.raises(ValueError,
                           match="tau digits out of range for delta=2"):
            router.batch_dh_lookup(np.full(size, 0.1), np.full(size, 0.5),
                                   tau=tau)

    @pytest.mark.parametrize("tau", [
        [[0.5] * 64], np.full(64, 0.5), [[0.0] * 63 + [float("nan")]],
        [[1e30] * 64],
    ], ids=["half", "shared-row", "nan", "huge"])
    def test_fractional_tau_digits_rejected(self, tau):
        """``0.5`` used to truncate to digit 0 and route."""
        net, _ = make_net(8, seed=51)
        router = net.compile_router(with_adjacency=True)
        with pytest.raises(ValueError, match="tau digits must be integers"):
            router.batch_dh_lookup(np.array([0.1]), np.array([0.5]), tau=tau)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_,
                                       np.uint8, np.int16, np.uint64])
    def test_integer_valued_tau_of_any_dtype_accepted(self, dtype):
        net, _ = make_net(64, seed=52)
        router = net.compile_router(with_adjacency=True)
        src, tgt = np.array([0.1, 0.7]), np.array([0.5, 0.2])
        tau = np.random.default_rng(53).integers(0, 2, size=(2, 64))
        want = router.batch_dh_lookup(src, tgt, tau=tau, keep_paths=True)
        got = router.batch_dh_lookup(src, tgt, tau=tau.astype(dtype),
                                     keep_paths=True)
        assert np.array_equal(got.path_servers, want.path_servers)
        assert np.array_equal(got.path_offsets, want.path_offsets)

    def test_single_server_zero_hops(self):
        net = DistanceHalvingNetwork()
        net.join(0.2)
        router = net.compile_router(with_adjacency=True)
        res = router.batch_dh_lookup(np.array([0.2, 0.2]), np.array([0.8, 0.1]),
                                     rng=np.random.default_rng(0))
        assert (res.hops == 0).all() and (res.t == 0).all()


class TestCsrPaths:
    """Unit contract of the CSR path representation (keep_paths='csr')."""

    def test_csr_paths_match_object_paths(self):
        net, _ = make_net(32, seed=70)
        router = net.compile_router()
        src, tgt = workload(net, 100, 71)
        obj = router.batch_fast_lookup(src, tgt, keep_paths=True)
        csr = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        for i in range(100):
            assert obj.server_path(i) == csr.server_path(i)

    def test_keep_paths_true_means_csr(self):
        net, _ = make_net(16, seed=72)
        router = net.compile_router()
        src, tgt = workload(net, 30, 72)
        res = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        obj = router.batch_fast_lookup(src, tgt, keep_paths=True)
        assert res.keeps_paths and obj.keeps_paths
        assert res.path_servers.dtype == np.int32
        assert np.array_equal(res.path_servers, obj.path_servers)
        assert np.array_equal(res.path_offsets, obj.path_offsets)
        bare = router.batch_fast_lookup(src, tgt)
        assert not bare.keeps_paths and bare.path_offsets is None
        with pytest.raises(ValueError, match="keep_paths=False"):
            bare.server_path(0)

    def test_path_lengths_are_hops_plus_one(self):
        net, _ = make_net(64, seed=73)
        router = net.compile_router()
        src, tgt = workload(net, 80, 74)
        res = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        assert np.array_equal(res.path_lengths(), res.hops + 1)

    def test_path_points_decode(self):
        net, _ = make_net(24, seed=75)
        router = net.compile_router()
        src, tgt = workload(net, 40, 76)
        res = router.batch_fast_lookup(src, tgt, keep_paths="csr")
        for i in (0, 17, 39):
            pts = res.path_points(i)
            assert pts.tolist() == res.server_path(i)
            assert pts[0] == res.points[res.source_idx[i]]

    def test_to_csr_requires_paths(self):
        net, _ = make_net(8, seed=77)
        router = net.compile_router()
        res = router.batch_fast_lookup(np.array([0.1]), np.array([0.5]))
        with pytest.raises(ValueError, match="keep_paths"):
            res.to_csr()
        with pytest.raises(ValueError, match="keep_paths"):
            res.path_lengths()

    def test_invalid_keep_paths_rejected(self):
        net, _ = make_net(8, seed=78)
        router = net.compile_router(with_adjacency=True)
        with pytest.raises(ValueError, match="keep_paths"):
            router.batch_fast_lookup(np.array([0.1]), np.array([0.5]),
                                     keep_paths="objects")
        with pytest.raises(ValueError, match="keep_paths"):
            router.batch_dh_lookup(np.array([0.1]), np.array([0.5]),
                                   rng=np.random.default_rng(0),
                                   keep_paths="objects")

    def test_dh_csr_covers_both_phases(self):
        net, _ = make_net(64, seed=79)
        router = net.compile_router(with_adjacency=True)
        src, tgt = workload(net, 60, 80)
        tau = np.random.default_rng(81).integers(0, 2, size=(60, 64))
        res = router.batch_dh_lookup(src, tgt, tau=tau, keep_paths="csr")
        scalar = lookup_many(net, src, tgt, algorithm="dh",
                             taus=[list(row) for row in tau])
        for i, r in enumerate(scalar):
            assert r.server_path == res.server_path(i)

    def test_empty_batch_yields_empty_csr(self):
        net, _ = make_net(8, seed=82)
        router = net.compile_router()
        res = router.batch_fast_lookup(np.zeros(0), np.zeros(0),
                                       keep_paths="csr")
        assert res.path_servers.size == 0
        assert res.path_offsets.tolist() == [0]


class TestLookupMany:
    def test_fast_matches_individual_calls(self):
        net, _ = make_net(32, seed=60)
        src, tgt = workload(net, 25, 61)
        many = lookup_many(net, src, tgt)
        for i, r in enumerate(many):
            assert r.server_path == fast_lookup(net, src[i], tgt[i]).server_path

    def test_dh_with_taus_matches_individual_calls(self):
        net, _ = make_net(32, seed=62)
        src, tgt = workload(net, 10, 63)
        taus = [list(np.random.default_rng(64 + i).integers(0, 2, 64))
                for i in range(10)]
        many = lookup_many(net, src, tgt, algorithm="dh", taus=taus)
        for i, r in enumerate(many):
            ref = dh_lookup(net, src[i], tgt[i], None, tau=taus[i])
            assert r.server_path == ref.server_path

    def test_rejects_unknown_algorithm(self):
        net, _ = make_net(4, seed=65)
        with pytest.raises(ValueError):
            lookup_many(net, [0.1], [0.2], algorithm="magic")

    def test_dh_requires_randomness(self):
        net, _ = make_net(4, seed=66)
        with pytest.raises(ValueError):
            lookup_many(net, [0.1], [0.2], algorithm="dh")


class TestUnitFold:
    """Walk values rounding to exactly 1.0 must fold to 0.0 (as the
    scalar engine's normalize-at-use does), or routes diverge."""

    def test_dh_parity_at_target_nextafter_one(self):
        net, _ = make_net(50, seed=3)
        router = net.compile_router(with_adjacency=True)
        y = np.nextafter(1.0, 0)  # y/2 + 1/2 rounds to exactly 1.0
        src = net.segments.as_array()[5]
        tau = np.full((1, 64), 1, dtype=np.int64)
        batch = router.batch_dh_lookup([src], [y], tau=tau, keep_paths=True)
        ref = dh_lookup(net, src, y, None, tau=list(tau[0]))
        assert ref.t == batch.t[0]
        assert ref.hops == batch.hops[0]
        assert ref.server_path == batch.server_path(0)

    def test_fast_parity_at_target_nextafter_one(self):
        net, _ = make_net(50, seed=3)
        router = net.compile_router()
        y = np.nextafter(1.0, 0)
        srcs = net.segments.as_array()
        batch = router.batch_fast_lookup(srcs, np.full(net.n, y),
                                         keep_paths=True)
        for i, r in enumerate(lookup_many(net, srcs, np.full(net.n, y))):
            assert r.t == batch.t[i]
            assert r.hops == batch.hops[i]
            assert r.server_path == batch.server_path(i)


class TestStaleRouter:
    def test_lazy_adjacency_after_churn_raises(self):
        net, _ = make_net(16, seed=9)
        router = net.compile_router()  # lazy adjacency
        net.join(0.987654)
        with pytest.raises(RuntimeError, match="rebuild"):
            router.batch_dh_lookup(
                [0.1], [0.3], tau=np.zeros((1, 32), dtype=np.int64)
            )


class TestDeepWalks:
    def test_fast_parity_beyond_mantissa_levels(self):
        # a ~2^-53-length segment forces t=55; power-of-two delta scales
        # exactly, so the batch engine must match the scalar one there
        net = DistanceHalvingNetwork()
        net.join(0.3)
        net.join(float(np.nextafter(np.nextafter(0.3, 1), 1)))
        router = net.compile_router()
        batch = router.batch_fast_lookup([0.3], [0.9], keep_paths=True)
        ref = fast_lookup(net, 0.3, 0.9)
        assert ref.t == batch.t[0] == 55
        assert ref.hops == batch.hops[0]
        assert ref.server_path == batch.server_path(0)
