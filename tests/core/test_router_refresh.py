"""Staleness semantics of the batch router under membership change.

The contract (ISSUE 3): every join/leave bumps the network's membership
version; a plain ``compile_router()`` snapshot *raises* an actionable
stale-router error instead of silently serving outdated routes; an
``auto_refresh`` router re-syncs before every batch — incrementally
inside the churn budget, by full rebuild beyond it or when the
membership log window was exceeded — and therefore never serves a stale
snapshot.
"""

import numpy as np
import pytest
from adjacency_oracle import edge_keys

from repro.core import DistanceHalvingNetwork


def make_net(n, seed=0):
    rng = np.random.default_rng(seed)
    net = DistanceHalvingNetwork(rng=rng)
    net.populate(n)
    return net


class TestMembershipVersion:
    def test_join_and_leave_bump_version(self):
        net = make_net(0, seed=1)
        assert net.membership_version == 0
        net.join(0.25)
        net.join(0.75)
        assert net.membership_version == 2
        net.leave(0.25)
        assert net.membership_version == 3

    def test_populate_counts_every_join(self):
        net = make_net(17, seed=2)
        assert net.membership_version == 17

    def test_lookups_do_not_bump_version(self):
        net = make_net(8, seed=3)
        before = net.membership_version
        router = net.compile_router()
        router.batch_fast_lookup([0.1], [0.9])
        net.owner_of(0.5)
        assert net.membership_version == before

    def test_log_records_sorted_indices(self):
        net = DistanceHalvingNetwork(rng=np.random.default_rng(4))
        net.join(0.5)
        net.join(0.25)  # inserts before 0.5 -> index 0
        net.join(0.75)
        ops = net.membership_log.ops_since(0)
        assert [(k, i) for k, _p, i in ops] == [
            ("join", 0), ("join", 0), ("join", 2)]
        net.leave(0.25)
        assert net.membership_log.ops_since(3) == [("leave", 0.25, 0)]

    def test_ops_since_future_version_rejected(self):
        net = make_net(4, seed=5)
        with pytest.raises(ValueError):
            net.membership_log.ops_since(99)

    def test_log_trim_returns_none(self):
        net = make_net(4, seed=6)
        net.membership_log.cap = 3
        for i in range(6):
            net.join(0.01 + i * 0.001)
        assert net.membership_log.ops_since(4) is None  # trimmed away
        assert len(net.membership_log.ops_since(10)) == 0
        assert len(net.membership_log.ops_since(7)) == 3


class TestStaleRouterRaises:
    @pytest.mark.parametrize("churn", ["join", "leave"])
    def test_fast_lookup_raises_after_churn(self, churn):
        net = make_net(16, seed=7)
        router = net.compile_router()
        if churn == "join":
            net.join(0.123456)
        else:
            net.leave(list(net.points())[3])
        with pytest.raises(RuntimeError, match="auto_refresh"):
            router.batch_fast_lookup([0.1], [0.2])

    def test_dh_lookup_raises_after_churn(self):
        net = make_net(16, seed=8)
        router = net.compile_router(with_adjacency=True)
        net.join(0.654321)
        with pytest.raises(RuntimeError, match="rebuild"):
            router.batch_dh_lookup([0.1], [0.2],
                                   tau=np.zeros((1, 32), dtype=np.int64))

    def test_cover_raises_after_churn(self):
        net = make_net(16, seed=9)
        router = net.compile_router()
        net.join(0.42)
        with pytest.raises(RuntimeError, match="stale"):
            router.cover(np.array([0.5]))

    def test_recompile_recovers(self):
        net = make_net(16, seed=10)
        net.join(0.42)
        router = net.compile_router()
        res = router.batch_fast_lookup([0.1], [0.42])
        assert res.owner[0] == net.segments.cover_point(0.42)


class TestAutoRefresh:
    def test_never_serves_stale_owners(self):
        net = make_net(64, seed=11)
        router = net.router(auto_refresh=True)
        rng = np.random.default_rng(12)
        for step in range(25):
            if step % 3 == 2 and net.n > 4:
                net.leave(list(net.points())[int(rng.integers(net.n))])
            else:
                net.join(float(rng.random()))
            targets = rng.random(50)
            res = router.batch_fast_lookup(np.zeros(50), targets)
            assert router.n == net.n
            assert np.array_equal(res.owner_idx,
                                  net.segments.cover_array(targets))

    def test_dh_with_adjacency_tracks_churn(self):
        net = make_net(48, seed=13)
        router = net.router(auto_refresh=True, with_adjacency=True)
        rng = np.random.default_rng(14)
        for _ in range(6):
            net.join(float(rng.random()))
            net.leave(list(net.points())[int(rng.integers(net.n))])
            tau = rng.integers(0, 2, size=(20, 64))
            src = net.segments.as_array()[rng.integers(0, net.n, size=20)]
            res = router.batch_dh_lookup(src, rng.random(20), tau=tau)
            fresh = net.compile_router(with_adjacency=True)
            ref = fresh.batch_dh_lookup(src, res.targets, tau=tau)
            assert np.array_equal(res.owner_idx, ref.owner_idx)
            assert np.array_equal(res.t, ref.t)
            assert np.array_equal(res.hops, ref.hops)

    def test_version_property_follows_network(self):
        net = make_net(8, seed=15)
        router = net.router(auto_refresh=True)
        assert router.version == net.membership_version
        net.join(0.9999)
        assert router.is_stale
        router.batch_fast_lookup([0.1], [0.5])
        assert not router.is_stale
        assert router.version == net.membership_version

    def test_refresh_noop_when_fresh(self):
        net = make_net(8, seed=16)
        router = net.router(auto_refresh=True)
        router.refresh()
        assert router.refresh_stats.refreshes == 0

    def test_explicit_force_full(self):
        net = make_net(8, seed=17)
        router = net.router(auto_refresh=True)
        net.join(0.33)
        router.refresh(force_full=True)
        assert router.refresh_stats.full_rebuilds == 1
        assert router.version == net.membership_version

    def test_all_servers_leaving_raises_on_next_batch(self):
        net = make_net(2, seed=18)
        router = net.router(auto_refresh=True)
        for p in list(net.points()):
            net.leave(p)
        with pytest.raises(LookupError, match="empty"):
            router.batch_fast_lookup([0.1], [0.2])


class TestRefreshModes:
    def test_small_churn_stays_incremental(self):
        net = make_net(128, seed=19)
        router = net.router(auto_refresh=True)
        rng = np.random.default_rng(20)
        for _ in range(5):
            net.join(float(rng.random()))
            router.refresh()
        assert router.refresh_stats.incremental == 5
        assert router.refresh_stats.full_rebuilds == 0
        assert router.refresh_stats.ops_replayed == 5

    def test_exceeding_budget_falls_back_to_full(self):
        net = make_net(128, seed=21)
        router = net.router(auto_refresh=True, churn_budget=4)
        rng = np.random.default_rng(22)
        for _ in range(9):
            net.join(float(rng.random()))
        router.refresh()
        assert router.refresh_stats.full_rebuilds == 1
        assert router.refresh_stats.incremental == 0
        assert np.array_equal(router.points, net.segments.as_array())

    def test_negative_budget_rejected(self):
        """A budget below zero used to be accepted and made every refresh
        a full rebuild, so a refresh-cost gate measured nothing."""
        net = make_net(32, seed=26)
        with pytest.raises(ValueError, match="budget must be >= 0.* got -1"):
            net.router(auto_refresh=True, churn_budget=-1)
        assert net.router(auto_refresh=True, churn_budget=0).budget == 0

    def test_log_window_exceeded_falls_back_to_full(self):
        net = make_net(32, seed=23)
        net.membership_log.cap = 4
        router = net.router(auto_refresh=True, churn_budget=10**9)
        rng = np.random.default_rng(24)
        for _ in range(10):
            net.join(float(rng.random()))
        router.refresh()
        assert router.refresh_stats.full_rebuilds == 1
        assert np.array_equal(router.points, net.segments.as_array())

    def test_tiny_network_falls_back_to_full(self):
        net = make_net(5, seed=25)
        router = net.router(auto_refresh=True, churn_budget=10**9)
        for p in list(net.points())[:3]:
            net.leave(p)
            router.refresh()
        assert net.n == 2
        assert router.refresh_stats.full_rebuilds >= 1
        assert np.array_equal(router.points, net.segments.as_array())
        assert np.array_equal(router.midpoints,
                              net.compile_router().midpoints)

    def test_full_rebuild_keeps_adjacency_table(self):
        """A budget-triggered full rebuild must not silently defer the
        neighbour-table rebuild into the next dh batch."""
        net = make_net(64, seed=28)
        router = net.router(auto_refresh=True, with_adjacency=True,
                            churn_budget=2)
        rng = np.random.default_rng(29)
        for _ in range(6):
            net.join(float(rng.random()))
        router.refresh()
        assert router.refresh_stats.full_rebuilds == 1
        fresh = net.compile_router(with_adjacency=True)
        assert np.array_equal(edge_keys(router), edge_keys(fresh))

    def test_seconds_per_op_accounting(self):
        net = make_net(64, seed=26)
        router = net.router(auto_refresh=True)
        rng = np.random.default_rng(27)
        for _ in range(4):
            net.join(float(rng.random()))
            router.refresh()
        stats = router.refresh_stats
        assert stats.ops_replayed == 4
        assert stats.seconds > 0
        assert stats.seconds_per_op() == pytest.approx(stats.seconds / 4)


class TestCopyOnWrite:
    """Handed-out arrays are read-only and never edited; unshared
    buffers are edited in place, and a compile allocates no headroom."""

    def test_unshared_buffers_are_edited_in_place(self):
        net = make_net(64, seed=40)
        router = net.router(auto_refresh=True)
        rng = np.random.default_rng(41)
        for _ in range(12):  # the first join outgrows the compile: 1 copy
            net.join(float(rng.random()))
            router.refresh()
            net.leave(net.segments.point_at(int(rng.integers(net.n))))
            router.refresh()
        assert router.refresh_stats.copies == 1
        points, ends, mids = router.points, router.seg_end, router.midpoints
        kept = points.copy(), ends.copy(), mids.copy()
        assert not points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mids[0] = 0.5
        for _ in range(3):  # one copy per hand-out, not per op
            net.join(float(rng.random()))
            router.refresh()
        assert router.refresh_stats.copies == 2
        for was, now in zip(kept, (points, ends, mids)):
            assert np.array_equal(was, now)
        assert router.refresh_stats.incremental == 27

    def test_compiles_are_exactly_n_plus_one_rows(self):
        from repro.core.batch_cache import BatchCacheEngine

        net = make_net(40, seed=42)
        for router in (net.compile_router(), net.router(auto_refresh=True),
                       BatchCacheEngine(net, ["a", "b"])._router):
            assert len(router._ext) == len(router.cover_index.ext) == 41
            assert router._ext is router.cover_index.ext
            assert len(router._end) == len(router._mid) == 40

    def test_pickle_round_trip_shares_one_point_buffer(self):
        import pickle

        net = make_net(32, seed=43)
        router = net.router(auto_refresh=True)
        net.join(0.123)
        router.refresh()
        copy = pickle.loads(pickle.dumps(router))
        assert copy._ext is copy.cover_index.ext
        assert len(copy._ext) == copy.n + 1  # trimmed to the live rows
        twin = copy._net  # the restored router follows the restored net
        twin.join(0.456)
        twin.leave(twin.segments.point_at(3))
        copy.refresh()
        fresh = twin.compile_router()
        assert np.array_equal(copy.points, fresh.points)
        assert np.array_equal(copy.seg_end, fresh.seg_end)
        assert np.array_equal(copy.midpoints, fresh.midpoints)
        assert np.array_equal(copy.cover(np.linspace(0, 0.99, 50)),
                              twin.segments.cover_array(
                                  np.linspace(0, 0.99, 50)))
        assert router.n == 33  # the original is untouched

    def test_exact_ids_refresh_by_full_rebuild(self):
        from fractions import Fraction

        net = DistanceHalvingNetwork(rng=np.random.default_rng(44))
        for k in range(8):
            net.join(Fraction(2 * k + 1, 17))
        router = net.router(auto_refresh=True, churn_budget=10**9)
        net.join(Fraction(1, 3))
        router.refresh()
        assert router.refresh_stats.full_rebuilds == 1
        assert np.array_equal(router.midpoints,
                              net.segments.midpoints_array())


class TestRefreshOpAccounting:
    """Regression (ISSUE 8): a fallback full rebuild must not book the
    ops it absorbed as incrementally *replayed* — that inflated the
    per-op refresh cost denominator, making one rebuild that swallowed a
    whole churn wave look like thousands of cheap incremental patches."""

    def test_window_overflow_mid_chunk_books_ops_exactly_once(self):
        net = make_net(256, seed=30)
        net.membership_log.cap = 64
        router = net.router(auto_refresh=True)
        rng = np.random.default_rng(31)

        # a few incremental singles (the steady-state soak pattern) ...
        for _ in range(3):
            net.join(float(rng.random()))
            router.refresh()
        # ... then a churn wave that exceeds the journal window mid-chunk
        wave = 200
        for _ in range(wave):
            net.join(float(rng.random()))
        router.refresh()

        stats = router.refresh_stats
        assert stats.incremental == 3
        assert stats.full_rebuilds == 1
        assert stats.ops_replayed == 3          # only the true replays
        assert stats.ops_absorbed == wave       # the rebuild's wave
        # every membership op since compile counted in exactly one bucket
        assert stats.ops_synced() == 3 + wave
        assert router.version == net.membership_version
        # a second refresh is a no-op and must not re-count anything
        router.refresh()
        assert stats.ops_synced() == 3 + wave

    def test_budget_fallback_books_ops_as_absorbed(self):
        net = make_net(128, seed=32)
        router = net.router(auto_refresh=True, churn_budget=4)
        rng = np.random.default_rng(33)
        for _ in range(9):
            net.join(float(rng.random()))
        router.refresh()
        stats = router.refresh_stats
        assert stats.ops_replayed == 0
        assert stats.ops_absorbed == 9
        assert stats.seconds_per_op() == pytest.approx(stats.seconds / 9)

    def test_mixed_run_per_op_cost_uses_both_buckets(self):
        net = make_net(128, seed=34)
        router = net.router(auto_refresh=True, churn_budget=4)
        rng = np.random.default_rng(35)
        net.join(float(rng.random()))
        router.refresh()                        # 1 replayed
        for _ in range(7):
            net.join(float(rng.random()))
        router.refresh()                        # 7 absorbed
        stats = router.refresh_stats
        assert (stats.ops_replayed, stats.ops_absorbed) == (1, 7)
        assert stats.seconds_per_op() == pytest.approx(stats.seconds / 8)
