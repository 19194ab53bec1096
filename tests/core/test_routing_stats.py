"""Unit tests for congestion accounting (Definition 3 bookkeeping)."""

import numpy as np
import pytest

from repro.core import (
    BatchCongestion,
    CongestionCounter,
    DistanceHalvingNetwork,
    compress_path,
    fast_lookup,
    lookup_many,
)
from repro.core.lookup import LookupResult


def fake_result(path):
    return LookupResult(target=0.5, owner=path[-1], server_path=list(path),
                        continuous_path=[], t=len(path) - 1)


def routed_net(n=64, seed=0):
    rng = np.random.default_rng(seed)
    net = DistanceHalvingNetwork(rng=rng)
    net.populate(n)
    return net, net.router(auto_refresh=True, with_adjacency=True)


def scalar_counter(net, src, tgt, algorithm="fast", tau=None):
    c = CongestionCounter()
    taus = None if tau is None else [list(row) for row in tau]
    for r in lookup_many(net, src, tgt, algorithm=algorithm, taus=taus):
        c.record(r)
    return c


class TestCongestionCounter:
    def test_empty(self):
        c = CongestionCounter()
        assert c.max_load() == 0
        assert c.max_congestion() == 0.0
        assert c.mean_load(10) == 0.0

    def test_record_counts_every_server_once(self):
        c = CongestionCounter()
        c.record(fake_result([0.1, 0.2, 0.3]))
        assert c.load_of(0.1) == c.load_of(0.2) == c.load_of(0.3) == 1
        assert c.total_messages == 2

    def test_max_congestion_is_frequency(self):
        c = CongestionCounter()
        for _ in range(4):
            c.record(fake_result([0.1, 0.2]))
        c.record(fake_result([0.3]))
        assert c.max_congestion() == pytest.approx(4 / 5)

    def test_record_path_raw(self):
        c = CongestionCounter()
        c.record_path([0.5, 0.6, 0.7, 0.8])
        assert c.lookups == 1
        assert c.total_messages == 3

    def test_loads_vector_includes_zeros(self):
        c = CongestionCounter()
        c.record(fake_result([0.1]))
        vec = c.loads([0.1, 0.2, 0.3])
        assert list(vec) == [1.0, 0.0, 0.0]

    def test_mean_load(self):
        c = CongestionCounter()
        c.record(fake_result([0.1, 0.2]))
        c.record(fake_result([0.2, 0.3]))
        assert c.mean_load(4) == pytest.approx(1.0)

    def test_summary_keys(self):
        c = CongestionCounter()
        c.record(fake_result([0.1, 0.2]))
        s = c.summary(2)
        assert set(s) == {"lookups", "max_load", "mean_load", "max_congestion",
                          "total_messages"}

    def test_integration_with_real_lookups(self):
        rng = np.random.default_rng(0)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(32)
        c = CongestionCounter()
        pts = list(net.points())
        for _ in range(50):
            c.record(fast_lookup(net, pts[int(rng.integers(32))], float(rng.random())))
        assert c.lookups == 50
        assert sum(c.visits.values()) >= 50  # at least the sources
        assert c.max_load() >= 2             # some server repeats


class TestLoadsVectorized:
    """ISSUE 4: loads() via sorted-array searchsorted, parity with the
    old per-point dict-probe list comprehension."""

    def test_parity_with_dict_probe(self):
        net, _router = routed_net(48, seed=11)
        rng = np.random.default_rng(12)
        pts = net.segments.as_array()
        c = scalar_counter(net, pts[rng.integers(0, 48, size=120)],
                           rng.random(120))
        # universe: every server plus points that were never visited
        universe = list(pts) + [0.123456789, 0.987654321]
        old = np.asarray([c.visits.get(p, 0) for p in universe], dtype=float)
        assert np.array_equal(c.loads(universe), old)

    def test_accepts_ndarray_and_generator(self):
        c = CongestionCounter()
        c.record(fake_result([0.25, 0.5]))
        expect = [0.0, 1.0, 1.0]
        assert list(c.loads(np.asarray([0.1, 0.25, 0.5]))) == expect
        assert list(c.loads(p for p in [0.1, 0.25, 0.5])) == expect

    def test_empty_counter_all_zero(self):
        c = CongestionCounter()
        assert list(c.loads([0.1, 0.9])) == [0.0, 0.0]

    def test_exact_ids_colliding_after_float_cast_sum_counts(self):
        """Distinct exact ids that round to the same float64 key must
        pool their counts in the shared key space, not drop one."""
        from fractions import Fraction

        third = Fraction(1, 3)
        as_float = Fraction(float(third))
        c = CongestionCounter()
        c.visits[third] = 2
        c.visits[as_float] = 3
        assert list(c.loads([float(third)])) == [5.0]
        merged = BatchCongestion()
        merged.merge_counter(c)
        assert merged.load_of(float(third)) == 5


class TestRecordPathReconciliation:
    """ISSUE 4: record() and record_path() must agree for the same
    underlying route — raw consecutive duplicates are compressed before
    booking, so baseline-DHT comparisons stay apples-to-apples."""

    def test_duplicated_raw_path_matches_record(self):
        raw = [0.1, 0.1, 0.2, 0.3, 0.3, 0.2, 0.2]
        a, b = CongestionCounter(), CongestionCounter()
        a.record(fake_result(compress_path(raw)))
        b.record_path(raw)
        assert a.visits == b.visits
        assert a.total_messages == b.total_messages
        assert a.summary(4) == b.summary(4)

    def test_messages_are_hops_of_compressed_path(self):
        c = CongestionCounter()
        c.record_path([0.5, 0.5, 0.6, 0.6, 0.7])  # 3 distinct servers
        assert c.total_messages == 2
        assert c.max_load() == 1

    def test_already_compressed_path_unchanged(self):
        c = CongestionCounter()
        c.record_path([0.5, 0.6, 0.7, 0.8])
        assert c.total_messages == 3
        assert sum(c.visits.values()) == 4


class TestBatchCongestion:
    def test_empty(self):
        c = BatchCongestion()
        assert c.max_load() == 0
        assert c.max_congestion() == 0.0
        assert c.mean_load(10) == 0.0
        assert c.summary(10)["lookups"] == 0.0
        assert list(c.loads([0.1])) == [0.0]

    def test_requires_csr_paths(self):
        net, router = routed_net(16, seed=20)
        res = router.batch_fast_lookup(np.array([0.1]), np.array([0.5]))
        with pytest.raises(ValueError, match="keep_paths"):
            BatchCongestion().record_batch(res)

    @pytest.mark.parametrize("algorithm", ["fast", "dh"])
    def test_bit_identical_to_scalar_counter(self, algorithm):
        net, router = routed_net(64, seed=21)
        rng = np.random.default_rng(22)
        pts = net.segments.as_array()
        src = pts[rng.integers(0, 64, size=300)]
        tgt = rng.random(300)
        tau = rng.integers(0, net.delta, size=(300, 64))
        scal = scalar_counter(net, src, tgt, algorithm,
                              tau if algorithm == "dh" else None)
        batch = BatchCongestion()
        if algorithm == "fast":
            batch.record_batch(router.batch_fast_lookup(src, tgt,
                                                        keep_paths="csr"))
        else:
            batch.record_batch(router.batch_dh_lookup(src, tgt, tau=tau,
                                                      keep_paths="csr"))
        assert batch.summary(net.n) == scal.summary(net.n)
        assert batch.max_load() == scal.max_load()
        assert np.array_equal(batch.loads(pts), scal.loads(pts))
        for p in pts[:8]:
            assert batch.load_of(p) == scal.load_of(p)

    def test_merge_across_batches_matches_single_batch(self):
        net, router = routed_net(64, seed=23)
        rng = np.random.default_rng(24)
        pts = net.segments.as_array()
        src = pts[rng.integers(0, 64, size=200)]
        tgt = rng.random(200)
        whole = BatchCongestion()
        whole.record_batch(router.batch_fast_lookup(src, tgt,
                                                    keep_paths="csr"))
        split = BatchCongestion()
        other = BatchCongestion()
        split.record_batch(router.batch_fast_lookup(src[:77], tgt[:77],
                                                    keep_paths="csr"))
        other.record_batch(router.batch_fast_lookup(src[77:], tgt[77:],
                                                    keep_paths="csr"))
        split.merge(other)
        assert split.summary(net.n) == whole.summary(net.n)
        assert np.array_equal(split.visited_points, whole.visited_points)

    def test_merge_across_snapshots_under_churn(self):
        """Batches routed before and after membership changes merge by
        server id, matching a scalar counter fed the same lookups."""
        net, router = routed_net(48, seed=25)
        rng = np.random.default_rng(26)
        total = BatchCongestion()
        scal = CongestionCounter()

        def one_round():
            pts = net.segments.as_array()
            src = pts[rng.integers(0, net.n, size=80)]
            tgt = rng.random(80)
            total.record_batch(router.batch_fast_lookup(src, tgt,
                                                        keep_paths="csr"))
            for r in lookup_many(net, src, tgt):
                scal.record(r)

        one_round()
        net.join(0.3141592653589793)
        net.leave(net.segments.as_array()[5])
        one_round()
        assert total.summary(net.n) == scal.summary(net.n)

    def test_merge_counter_mixes_scalar_and_batch(self):
        net, router = routed_net(32, seed=27)
        rng = np.random.default_rng(28)
        pts = net.segments.as_array()
        src = pts[rng.integers(0, 32, size=100)]
        tgt = rng.random(100)
        ref = scalar_counter(net, src, tgt)
        mixed = BatchCongestion()
        mixed.record_batch(router.batch_fast_lookup(src[:40], tgt[:40],
                                                    keep_paths="csr"))
        mixed.merge_counter(scalar_counter(net, src[40:], tgt[40:]))
        assert mixed.summary(net.n) == ref.summary(net.n)

    def test_to_counter_round_trip(self):
        net, router = routed_net(32, seed=29)
        rng = np.random.default_rng(30)
        pts = net.segments.as_array()
        src = pts[rng.integers(0, 32, size=60)]
        tgt = rng.random(60)
        batch = BatchCongestion()
        batch.record_batch(router.batch_fast_lookup(src, tgt,
                                                    keep_paths="csr"))
        counter = batch.to_counter()
        assert counter.summary(net.n) == batch.summary(net.n)
        back = BatchCongestion()
        back.merge_counter(counter)
        assert back.summary(net.n) == batch.summary(net.n)

    def test_true_mode_paths_account_via_lazy_to_csr(self):
        net, router = routed_net(16, seed=31)
        rng = np.random.default_rng(32)
        pts = net.segments.as_array()
        src = pts[rng.integers(0, 16, size=30)]
        tgt = rng.random(30)
        via_true = BatchCongestion()
        via_true.record_batch(router.batch_fast_lookup(src, tgt,
                                                       keep_paths=True))
        via_csr = BatchCongestion()
        via_csr.record_batch(router.batch_fast_lookup(src, tgt,
                                                      keep_paths="csr"))
        assert via_true.summary(net.n) == via_csr.summary(net.n)


class TestSameSnapshotAccumulation:
    """Batches whose visited set is the one already held add in place;
    any other merge takes the keyed path — both match the scalar counter."""

    @staticmethod
    def round_(net, router, rng, total, scal, size=400):
        pts = net.segments.as_array()
        src = pts[rng.integers(0, net.n, size=size)]
        tgt = rng.random(size)
        total.record_batch(router.batch_fast_lookup(src, tgt,
                                                    keep_paths="csr"))
        for r in lookup_many(net, src, tgt):
            scal.record(r)

    def test_same_snapshot_adds_in_place(self):
        net, router = routed_net(16, seed=40)
        rng = np.random.default_rng(41)
        total, scal = BatchCongestion(), CongestionCounter()
        self.round_(net, router, rng, total, scal)
        keys = total.visited_points
        assert keys.size == net.n  # 400 lookups visit all 16 servers
        for _ in range(3):
            self.round_(net, router, rng, total, scal)
            assert total.visited_points is keys
        assert total.summary(net.n) == scal.summary(net.n)
        assert np.array_equal(total.loads(keys), scal.loads(keys))

    def test_in_place_add_does_not_alias_the_merged_accumulator(self):
        net, router = routed_net(16, seed=42)
        rng = np.random.default_rng(43)
        a, b, scal = BatchCongestion(), BatchCongestion(), CongestionCounter()
        self.round_(net, router, rng, a, scal)
        b.merge(a)  # b starts as a copy of a's totals
        before = a.summary(net.n)
        self.round_(net, router, rng, b, CongestionCounter())
        assert a.summary(net.n) == before

    def test_partial_visit_takes_the_keyed_path(self):
        """Same snapshot, but a batch too small to visit every server."""
        net, router = routed_net(64, seed=44)
        rng = np.random.default_rng(45)
        total, scal = BatchCongestion(), CongestionCounter()
        for size in (5, 300, 7, 300, 300, 3):
            self.round_(net, router, rng, total, scal, size=size)
        assert total.summary(net.n) == scal.summary(net.n)
        pts = net.segments.as_array()
        assert np.array_equal(total.loads(pts), scal.loads(pts))

    def test_alternating_same_and_cross_snapshot(self):
        net, router = routed_net(24, seed=46)
        rng = np.random.default_rng(47)
        total, scal = BatchCongestion(), CongestionCounter()
        for step in range(6):
            self.round_(net, router, rng, total, scal)
            self.round_(net, router, rng, total, scal)  # same snapshot
            if step % 2:
                net.leave(net.segments.as_array()[int(rng.integers(net.n))])
            else:
                net.join(float(rng.random()))
        self.round_(net, router, rng, total, scal)
        assert total.summary(net.n) == scal.summary(net.n)
        seen = total.visited_points
        assert np.array_equal(total.loads(seen), scal.loads(seen))
        assert total.lookups == scal.lookups == 13 * 400
