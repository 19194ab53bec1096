"""Tests for workload generators, churn driver, metrics and rng helpers."""

import math
import re

import numpy as np
import pytest
from oracles.inputs import joined, populated

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
from repro.sim.workload import balanced_network


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
        # the split array form every generator returns
        assert sources.dtype == targets.dtype == np.float64
        assert sources.shape == targets.shape == (500,)

    @pytest.mark.parametrize("delta", [2, 4])
    def test_balanced_network_is_the_two_line_build(self, delta):
        net = balanced_network(96, np.random.default_rng(5), delta=delta)
        ref = populated(96, 5, delta=delta, selector=MultipleChoice(t=4))
        assert net.delta == delta and net.n == 96
        assert list(net.points()) == list(ref.points())
        # rng stays the network's own generator: the next join agrees too
        assert net.join().point == ref.join().point

    def test_measure_faults_without_a_scalar_replay(self):
        from repro.experiments.faults_exp import measure_faults
        from repro.faults import FTBatchEngine, OverlappingDHNetwork
        from repro.sim.rng import spawn_many

        net = OverlappingDHNetwork(64, spawn_many(64, 3)[0])
        res = measure_faults(FTBatchEngine(net), pairs=200, scalar_sample=0)
        assert res["scalar_sample"] == 0
        assert res["parity_ok"] is True

    def test_random_permutation_is_permutation(self):
        rng = np.random.default_rng(2)
        servers = list(np.random.default_rng(0).random(32))
        sources, targets = random_permutation(servers, rng)
        assert sources.tolist() == servers
        assert sorted(targets.tolist()) == sorted(servers)
        # one permutation(n) draw, as the pair list it replaced made
        perm = np.random.default_rng(2).permutation(32)
        assert targets.tolist() == [servers[i] for i in perm]

    def test_bit_reversal_structure(self):
        servers = [(i + 0.01) / 16 for i in range(16)]
        sources, targets = bit_reversal_permutation(servers)
        # server at 0.25 + eps (binary 0100) targets bucket 0010 = 2/16
        assert sources[4] == servers[4]
        assert abs(targets[4] - (2 + 0.5) / 16) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 5, 64, 1000])
    def test_bit_reversal_is_the_string_reversal(self, n):
        """The integer bit reversal equals the per-point string one the
        pair list was built with, in the same IEEE operations."""
        servers = np.sort(np.random.default_rng(n).random(n))
        sources, targets = bit_reversal_permutation(servers)
        bits = max(1, int(math.ceil(math.log2(max(2, n)))))
        want = [(int(format(int(p * (1 << bits)) & ((1 << bits) - 1),
                            f"0{bits}b")[::-1], 2) + 0.5) / (1 << bits)
                for p in servers.tolist()]
        assert targets.dtype == np.float64 and targets.tolist() == want
        assert sources.tolist() == servers.tolist()

    def test_shift_permutation_wraps(self):
        sources, targets = shift_permutation([0.9, 0.3, -0.2], shift=0.2)
        assert sources.tolist() == [0.9, 0.3, -0.2]
        assert targets.tolist() == [(p + 0.2) % 1.0 for p in (0.9, 0.3, -0.2)]
        assert targets[0] == pytest.approx(0.1)

    def test_zipf_demands_sum(self):
        q = zipf_demands(100, 1000, np.random.default_rng(3))
        assert sum(q) == 1000
        assert q[0] > q[-1]  # head is hot

    def test_single_hotspot(self):
        q = single_hotspot_demands(10, 500, hot_index=3)
        assert q[3] == 500 and sum(q) == 500


def warmed(joins: int, trace: ChurnTrace) -> ChurnTrace:
    """``trace`` after ``joins`` warm-up joins (which draw nothing)."""
    return ChurnTrace([ChurnOp("join")] * joins + trace.ops)


class TestChurn:
    def test_trace_generation_counts(self):
        trace = ChurnTrace.generate(np.random.default_rng(4), steps=100, leave_prob=0.0)
        assert all(op.kind == "join" for op in trace.ops)

    def test_mass_departure_shape(self):
        trace = ChurnTrace.mass_departure(np.random.default_rng(5), n=100, fraction=0.5)
        joins = sum(1 for op in trace.ops if op.kind == "join")
        leaves = sum(1 for op in trace.ops if op.kind == "leave")
        assert joins == 100 and leaves == 50

    @pytest.mark.parametrize("kwargs", [
        {"steps": -3}, {"steps": 2.5}, {"steps": True},
        {"steps": 10, "leave_prob": 1.5}, {"steps": 10, "leave_prob": -0.1},
        {"steps": 10, "leave_prob": float("nan")},
    ])
    def test_generate_refuses_out_of_range_inputs(self, kwargs):
        rng, ref = (np.random.default_rng(7) for _ in range(2))
        bad = list(kwargs.values())[-1]
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            ChurnTrace.generate(rng, **kwargs)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n, fraction", [
        (-1, 0.5), (10.0, 0.5), (10, 2.0), (10, -0.5), (10, float("nan")),
    ])
    def test_mass_departure_refuses_out_of_range_inputs(self, n, fraction):
        bad = fraction if type(n) is int and n >= 0 else n
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            ChurnTrace.mass_departure(np.random.default_rng(8), n, fraction)

    def test_the_bounds_themselves_are_valid(self):
        rng = np.random.default_rng(9)
        assert len(ChurnTrace.generate(rng, 0).ops) == 0
        assert all(op.kind == "leave" for op in
                   ChurnTrace.generate(rng, 20, leave_prob=1.0).ops)
        assert len(ChurnTrace.mass_departure(rng, 10, fraction=1.0).ops) == 20

    def test_run_churn_reports(self):
        rng = np.random.default_rng(6)
        net = DistanceHalvingNetwork(rng=rng)
        trace = warmed(16, ChurnTrace.generate(rng, steps=120, leave_prob=0.3))
        report = run_churn(net, trace, sample_every=4)
        assert report.final_n == net.n
        assert report.final_n > 0
        assert len(report.smoothness_series) > 0

    def test_join_leave_touches_constant_servers(self):
        """§1 'cost of join/leave': only O(degree) servers change state."""
        rng = np.random.default_rng(7)
        net = DistanceHalvingNetwork(rng=rng)
        trace = warmed(64, ChurnTrace.generate(rng, steps=150, leave_prob=0.3))
        report = run_churn(net, trace, sample_every=2)
        # the affected set is the neighbourhood of the touched segment:
        # bounded by the degree bound ρ+4 + ⌈2ρ⌉+1 + ring ≈ O(ρ)
        assert max(report.touched_per_op) <= 40
        assert report.mean_touched() <= 15

    def test_on_op_hook_sees_every_operation(self):
        rng = np.random.default_rng(8)
        net = DistanceHalvingNetwork(rng=rng)
        trace = warmed(16, ChurnTrace.generate(rng, steps=40, leave_prob=0.3))
        seen = []
        run_churn(net, trace, on_op=lambda step, op: seen.append((step, op.kind)))
        assert len(seen) == len(trace.ops)
        assert [s for s, _ in seen] == list(range(len(trace.ops)))
        assert {k for _, k in seen} <= {"join", "leave"}


class TestMeasuredRegionFollowsSelector:
    """Regression: with a selector, the measured affected region must be
    the neighbourhood of the point the join actually lands on — not a
    throwaway uniform probe's neighbourhood (the old bug)."""

    POINTS = [0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 0.55, 0.6, 0.9, 0.95]
    LANDING = 0.93

    def _oracle_touched(self):
        """Touched count computed around the actual landing point."""
        net = joined(self.POINTS, seed=0)
        owner = net.segments.cover_point(self.LANDING)
        region = [owner] + net.neighbor_points(owner)
        before = {q: frozenset(net.neighbor_points(q)) for q in region}
        net.join(point=self.LANDING)
        return sum(
            1 for q, b in before.items()
            if q not in net.servers or frozenset(net.neighbor_points(q)) != b
        )

    def test_touched_measured_around_actual_join_point(self):
        net = joined(self.POINTS, seed=0)
        selector = lambda _net, _rng: self.LANDING  # noqa: E731
        trace = ChurnTrace(ops=[ChurnOp("join")])
        report = run_churn(net, trace, selector=selector, sample_every=1)
        assert self.LANDING in net.servers  # the selector chose the id
        assert report.touched_per_op == [self._oracle_touched()]

    def test_selector_receives_the_network_rng(self):
        net = joined(self.POINTS, seed=0)
        calls = []

        def selector(net_arg, rng_arg):
            calls.append((net_arg, rng_arg))
            return float(rng_arg.random())

        trace = ChurnTrace(ops=[ChurnOp("join")])
        expected = float(joined(self.POINTS, seed=0).choose_point())
        run_churn(net, trace, selector=selector, sample_every=1)
        assert len(calls) == 1
        assert calls[0][0] is net and calls[0][1] is net._rng
        assert expected in (float(p) for p in net.points())


class TestSamplingRateKeepsTheNetwork:
    """How often ``run_churn`` measures must not decide who joins: a
    measured join takes its id from the network's generator, as every
    other join does."""

    @pytest.mark.parametrize("selector", [None, MultipleChoice(t=4)],
                             ids=["uniform", "multiple-choice"])
    def test_every_rate_ends_on_the_same_ids(self, selector):
        trace = ChurnTrace.generate(np.random.default_rng(5), steps=96)
        ends = []
        for every in (1, 32):
            net = balanced_network(256, np.random.default_rng(4))
            report = run_churn(net, trace, selector=selector,
                               sample_every=every)
            assert len(report.touched_per_op) == -(-96 // every)
            ends.append(net.segments.as_array().tolist())
        assert ends[0] == ends[1]


class TestChurnReproducibility:
    """Identical seeds must yield identical traces and pinned statistics
    (the bit-reproducibility contract every experiment relies on)."""

    def test_generate_identical_across_invocations(self):
        a = ChurnTrace.generate(np.random.default_rng(42), steps=300,
                                leave_prob=0.4)
        b = ChurnTrace.generate(np.random.default_rng(42), steps=300,
                                leave_prob=0.4)
        assert a.ops == b.ops
        c = ChurnTrace.generate(np.random.default_rng(43), steps=300,
                                leave_prob=0.4)
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
        trace = warmed(32, ChurnTrace.generate(rng, steps=200,
                                               leave_prob=0.35))
        return run_churn(net, trace, sample_every=4)

    def test_report_statistics_pinned_for_fixed_seed(self):
        report = self._pinned_run()
        assert report.final_n == 100
        assert len(report.touched_per_op) == 57
        assert report.touched_per_op[:10] == [4, 3, 12, 4, 11, 6, 5, 5, 5, 6]
        assert max(report.touched_per_op) == 21
        assert report.mean_touched() == pytest.approx(7.631578947368421,
                                                      rel=1e-12)
        assert report.smoothness_series[-1] == pytest.approx(
            224.93698544694962, rel=1e-12)

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
