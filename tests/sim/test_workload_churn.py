"""Tests for workload generators, churn driver, metrics and rng helpers."""

import math

import numpy as np
import pytest

from repro.balance import MultipleChoice
from repro.core import DistanceHalvingNetwork
from repro.sim import (
    ChurnOp,
    ChurnTrace,
    bit_reversal_permutation,
    log_slope,
    loglog_slope,
    random_pairs,
    random_permutation,
    run_churn,
    shift_permutation,
    single_hotspot_demands,
    spawn_many,
    summarize,
    zipf_demands,
)
from repro.sim.workload import balanced_network, pairs_to_arrays, rate_fields


class TestWorkloads:
    def test_random_pairs_sources_are_servers(self):
        rng = np.random.default_rng(1)
        servers = [0.1, 0.4, 0.9]
        sources, targets = random_pairs(servers, rng, 50)
        assert set(sources.tolist()) <= set(servers)
        assert ((0 <= targets) & (targets < 1)).all()

    def test_random_pairs_is_the_inline_draw_it_replaced(self):
        # one integers(0, n, size) then one random(size): every seeded
        # experiment stream depends on exactly this order
        pts = np.sort(np.random.default_rng(0).random(64))
        sources, targets = random_pairs(pts, np.random.default_rng(7), 500)
        ref = np.random.default_rng(7)
        assert np.array_equal(sources, pts[ref.integers(0, 64, size=500)])
        assert np.array_equal(targets, ref.random(500))
        # the split array form survivor_pairs returns
        assert sources.dtype == targets.dtype == np.float64
        assert sources.shape == targets.shape == (500,)
        again = pairs_to_arrays((sources, targets))
        assert again[0] is sources and again[1] is targets

    @pytest.mark.parametrize("delta", [2, 4])
    def test_balanced_network_is_the_two_line_build(self, delta):
        net = balanced_network(96, np.random.default_rng(5), delta=delta)
        ref = DistanceHalvingNetwork(delta=delta, rng=np.random.default_rng(5))
        ref.populate(96, selector=MultipleChoice(t=4))
        assert net.delta == delta and net.n == 96
        assert list(net.points()) == list(ref.points())
        # rng stays the network's own generator: the next join agrees too
        assert net.join().point == ref.join().point

    def test_rate_fields(self):
        fields = rate_fields(1000, 0.5, 10, 2.0)
        assert fields == {"batch_secs": 0.5, "scalar_secs": 2.0,
                          "batch_rate": 2000.0, "scalar_rate": 5.0,
                          "speedup": 400.0}
        assert list(fields) == ["batch_secs", "scalar_secs", "batch_rate",
                                "scalar_rate", "speedup"]

    def test_rate_fields_zero_seconds_and_skipped_scalar_leg(self):
        instant = rate_fields(1000, 0.0, 10, 2.0)
        assert instant["batch_rate"] == math.inf
        assert instant["speedup"] == math.inf
        # scalar_sample=0: nothing replayed, in zero seconds
        skipped = rate_fields(1000, 0.5, 0, 0.0)
        assert skipped["scalar_rate"] == math.inf
        assert skipped["speedup"] == 0.0

    def test_measure_faults_without_a_scalar_replay(self):
        from repro.experiments.faults_exp import measure_faults

        res = measure_faults(n=64, pairs=200, scalar_sample=0)
        assert res["scalar_sample"] == 0 and res["scalar_secs"] == 0.0
        assert res["scalar_rate"] == math.inf and res["speedup"] == 0.0
        assert res["parity_ok"] is True

    def test_random_permutation_is_permutation(self):
        rng = np.random.default_rng(2)
        servers = list(np.random.default_rng(0).random(32))
        pairs = random_permutation(servers, rng)
        targets = [t for _, t in pairs]
        assert sorted(targets) == sorted(servers)

    def test_bit_reversal_structure(self):
        servers = [(i + 0.01) / 16 for i in range(16)]
        pairs = bit_reversal_permutation(servers)
        # server at 0.25 + eps (binary 0100) targets bucket 0010 = 2/16
        src, tgt = pairs[4]
        assert abs(tgt - (2 + 0.5) / 16) < 1e-9

    def test_shift_permutation_wraps(self):
        pairs = shift_permutation([0.9], shift=0.2)
        assert pairs[0][1] == pytest.approx(0.1)

    def test_zipf_demands_sum(self):
        q = zipf_demands(100, 1000, np.random.default_rng(3))
        assert sum(q) == 1000
        assert q[0] > q[-1]  # head is hot

    def test_single_hotspot(self):
        q = single_hotspot_demands(10, 500, hot_index=3)
        assert q[3] == 500 and sum(q) == 500


class TestChurn:
    def test_trace_generation_counts(self):
        trace = ChurnTrace.generate(np.random.default_rng(4), steps=100, leave_prob=0.0)
        assert all(op.kind == "join" for op in trace.ops)

    def test_mass_departure_shape(self):
        trace = ChurnTrace.mass_departure(np.random.default_rng(5), n=100, fraction=0.5)
        joins = sum(1 for op in trace.ops if op.kind == "join")
        leaves = sum(1 for op in trace.ops if op.kind == "leave")
        assert joins == 100 and leaves == 50

    def test_run_churn_reports(self):
        rng = np.random.default_rng(6)
        net = DistanceHalvingNetwork(rng=rng)
        trace = ChurnTrace.generate(rng, steps=120, leave_prob=0.3)
        report = run_churn(net, trace, rng, sample_every=4)
        assert report.final_n == net.n
        assert report.final_n > 0
        assert len(report.smoothness_series) > 0

    def test_join_leave_touches_constant_servers(self):
        """§1 'cost of join/leave': only O(degree) servers change state."""
        rng = np.random.default_rng(7)
        net = DistanceHalvingNetwork(rng=rng)
        trace = ChurnTrace.generate(rng, steps=150, leave_prob=0.3, warmup=64)
        report = run_churn(net, trace, rng, sample_every=2)
        # the affected set is the neighbourhood of the touched segment:
        # bounded by the degree bound ρ+4 + ⌈2ρ⌉+1 + ring ≈ O(ρ)
        assert report.max_touched() <= 40
        assert report.mean_touched() <= 15

    def test_on_op_hook_sees_every_operation(self):
        rng = np.random.default_rng(8)
        net = DistanceHalvingNetwork(rng=rng)
        trace = ChurnTrace.generate(rng, steps=40, leave_prob=0.3)
        seen = []
        run_churn(net, trace, rng, on_op=lambda step, op: seen.append((step, op.kind)))
        assert len(seen) == len(trace.ops)
        assert [s for s, _ in seen] == list(range(len(trace.ops)))
        assert {k for _, k in seen} <= {"join", "leave"}


class TestMeasuredRegionFollowsSelector:
    """Regression: with a selector, the measured affected region must be
    the neighbourhood of the point the join actually lands on — not a
    throwaway uniform probe's neighbourhood (the old bug)."""

    POINTS = [0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 0.55, 0.6, 0.9, 0.95]
    LANDING = 0.93

    @staticmethod
    def _build(points):
        net = DistanceHalvingNetwork(rng=np.random.default_rng(0))
        for p in points:
            net.join(p)
        return net

    def _oracle_touched(self):
        """Touched count computed around the actual landing point."""
        net = self._build(self.POINTS)
        owner = net.segments.cover_point(self.LANDING)
        region = [owner] + net.neighbor_points(owner)
        before = {q: frozenset(net.neighbor_points(q)) for q in region}
        net.join(point=self.LANDING)
        return sum(
            1 for q, b in before.items()
            if q not in net.servers or frozenset(net.neighbor_points(q)) != b
        )

    def test_touched_measured_around_actual_join_point(self):
        net = self._build(self.POINTS)
        selector = lambda _net, _rng: self.LANDING  # noqa: E731
        trace = ChurnTrace(ops=[ChurnOp("join")])
        report = run_churn(net, trace, np.random.default_rng(123),
                           selector=selector, sample_every=1)
        assert self.LANDING in net.servers  # the selector chose the id
        assert report.touched_per_op == [self._oracle_touched()]

    def test_selector_receives_driver_rng(self):
        net = self._build(self.POINTS)
        calls = []

        def selector(net_arg, rng_arg):
            calls.append((net_arg, rng_arg))
            return float(rng_arg.random())

        trace = ChurnTrace(ops=[ChurnOp("join")])
        rng = np.random.default_rng(55)
        expected = float(np.random.default_rng(55).random())
        run_churn(net, trace, rng, selector=selector, sample_every=1)
        assert len(calls) == 1 and calls[0][0] is net
        assert expected in (float(p) for p in net.points())


class TestChurnReproducibility:
    """Identical seeds must yield identical traces and pinned statistics
    (the bit-reproducibility contract every experiment relies on)."""

    def test_generate_identical_across_invocations(self):
        a = ChurnTrace.generate(np.random.default_rng(42), steps=300,
                                leave_prob=0.4, warmup=8)
        b = ChurnTrace.generate(np.random.default_rng(42), steps=300,
                                leave_prob=0.4, warmup=8)
        assert a.ops == b.ops
        c = ChurnTrace.generate(np.random.default_rng(43), steps=300,
                                leave_prob=0.4, warmup=8)
        assert a.ops != c.ops

    def test_mass_departure_identical_across_invocations(self):
        a = ChurnTrace.mass_departure(np.random.default_rng(9), n=200,
                                      fraction=0.5)
        b = ChurnTrace.mass_departure(np.random.default_rng(9), n=200,
                                      fraction=0.5)
        assert a.ops == b.ops
        assert sum(op.kind == "leave" for op in a.ops) == 100

    @staticmethod
    def _pinned_run():
        rng = np.random.default_rng(2026)
        net = DistanceHalvingNetwork(rng=rng)
        trace = ChurnTrace.generate(rng, steps=200, leave_prob=0.35,
                                    warmup=32)
        return run_churn(net, trace, rng, sample_every=4)

    def test_report_statistics_pinned_for_fixed_seed(self):
        report = self._pinned_run()
        assert report.final_n == 100
        assert len(report.touched_per_op) == 57
        assert report.touched_per_op[:10] == [4, 3, 12, 4, 11, 6, 5, 5, 5, 6]
        assert report.max_touched() == 21
        assert report.mean_touched() == pytest.approx(7.631578947368421,
                                                      rel=1e-12)
        assert report.final_smoothness() == pytest.approx(224.93698544694962,
                                                          rel=1e-12)

    def test_report_identical_across_invocations(self):
        a, b = self._pinned_run(), self._pinned_run()
        assert a.touched_per_op == b.touched_per_op
        assert a.smoothness_series == b.smoothness_series
        assert a.final_n == b.final_n


class TestMetrics:
    def test_summarize(self):
        s = summarize([1, 2, 3, 4, 100])
        assert s.count == 5
        assert s.max == 100
        assert s.p50 == 3

    def test_summarize_empty(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_loglog_slope_recovers_power(self):
        xs = [2**k for k in range(4, 10)]
        ys = [x**0.5 * 3 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(0.5, abs=1e-9)

    def test_log_slope_recovers_log_coefficient(self):
        xs = [2**k for k in range(4, 10)]
        ys = [2.5 * math.log2(x) + 1 for x in xs]
        assert log_slope(xs, ys) == pytest.approx(2.5, abs=1e-9)

    def test_slopes_need_two_points(self):
        with pytest.raises(ValueError):
            loglog_slope([1], [1])
        with pytest.raises(ValueError):
            log_slope([1], [1])


class TestRng:
    def test_spawn_many_independent(self):
        gens = spawn_many(3, 4)
        vals = [g.random() for g in gens]
        assert len(set(vals)) == 4

    def test_spawn_many_reproducible(self):
        v1 = [g.random() for g in spawn_many(11, 3)]
        v2 = [g.random() for g in spawn_many(11, 3)]
        assert v1 == v2
