"""Unit tests for the overlapping DHT and fault models (paper §6)."""

import math

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    OverlappingDHNetwork,
    canonical_path,
    random_byzantine,
    random_failstop,
    resistant_lookup,
    simple_lookup,
)
from repro.core.interval import Arc, arcs_cover_ring


@pytest.fixture(scope="module")
def net():
    rng = np.random.default_rng(5)
    return OverlappingDHNetwork(256, rng)


class TestStructure:
    def test_coverage_is_logarithmic(self, net):
        """Every point covered by Θ(log n) servers (§6.2 property list)."""
        rng = np.random.default_rng(0)
        counts = net.coverage_counts(rng.random(300))
        log_n = math.log2(net.n)
        assert counts.min() >= log_n / 4
        assert counts.max() <= 4 * log_n

    def test_degree_is_logarithmic(self, net):
        """Θ(log n) degree — §6 argues this is necessary for resilience."""
        log_n = math.log2(net.n)
        assert net.max_degree() <= 24 * log_n
        assert net.degree(net.points[0]) >= log_n / 2

    def test_segments_cover_ring(self, net):
        arcs = []
        for x in net.points:
            a, b = net.segment_of(x)
            arcs.append(Arc(a, (b + 1e-12) % 1.0))
        assert arcs_cover_ring(arcs)

    def test_alpha_estimates_log_n(self, net):
        log_n = math.log2(net.n)
        alphas = np.array(list(net.alpha.values()), dtype=float)
        assert np.median(alphas) >= log_n / 2
        assert alphas.max() <= 3.5 * log_n

    def test_covers_point_closed_segment(self, net):
        x = net.points[10]
        assert net.covers_point(x, x)
        assert net.covers_point(x, net.end[x])

    def test_replica_group_is_clique(self, net):
        """§6.2: servers of one item are pairwise connected."""
        net.store_item("item", 1)
        group = net.replica_group("item")
        assert len(group) >= 2
        for a in group:
            nbs = set(net.neighbors(a)) | {a}
            for b in group:
                assert b in nbs

    def test_coverage_factor_scales(self):
        rng = np.random.default_rng(6)
        thin = OverlappingDHNetwork(128, np.random.default_rng(6), coverage_factor=0.5)
        thick = OverlappingDHNetwork(128, np.random.default_rng(6), coverage_factor=2.0)
        probes = rng.random(100)
        assert thick.coverage_counts(probes).mean() > thin.coverage_counts(probes).mean()

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            OverlappingDHNetwork(4, np.random.default_rng(0))

    def test_item_hash_is_64_wise_and_drawn_from_rng(self):
        a, b = (OverlappingDHNetwork(16, np.random.default_rng(9)) for _ in "ab")
        assert a.item_hash.k == 64
        assert a.item_hash("item") == b.item_hash("item")


class TestCanonicalPath:
    def test_ends_at_target(self, net):
        rng = np.random.default_rng(1)
        for _ in range(30):
            src = net.points[int(rng.integers(net.n))]
            t = float(rng.random())
            path = canonical_path(net, src, t)
            assert path[-1] == pytest.approx(t)

    def test_starts_in_source_segment(self, net):
        rng = np.random.default_rng(2)
        for _ in range(30):
            src = net.points[int(rng.integers(net.n))]
            path = canonical_path(net, src, float(rng.random()))
            a, b = net.segment_of(src)
            assert (path[0] - a) % 1.0 <= (b - a) % 1.0

    def test_length_theorem_6_3(self, net):
        """Path length ≤ log n + O(1)."""
        rng = np.random.default_rng(3)
        log_n = math.log2(net.n)
        for _ in range(50):
            src = net.points[int(rng.integers(net.n))]
            path = canonical_path(net, src, float(rng.random()))
            assert len(path) - 1 <= log_n + 3

    def test_consecutive_points_are_continuous_edges(self, net):
        rng = np.random.default_rng(4)
        g = net.graph
        src = net.points[7]
        path = canonical_path(net, src, float(rng.random()))
        for a, b in zip(path, path[1:]):
            # b = backward(a): a is a child of b
            assert g.backward(a) == pytest.approx(b, abs=1e-9)


class TestSimpleLookup:
    def test_no_faults_succeeds(self, net):
        rng = np.random.default_rng(5)
        net.store_item("k", "v")
        for _ in range(30):
            src = net.points[int(rng.integers(net.n))]
            res = simple_lookup(net, src, "k", rng)
            assert res.success
            assert res.parallel_time <= math.log2(net.n) + 3

    def test_theorem_6_4_random_failstop(self, net):
        """All surviving servers locate all items under p = 0.2."""
        rng = np.random.default_rng(6)
        plan = random_failstop(net.points, 0.2, rng)
        net.store_item("doc", "x")
        failures = 0
        trials = 0
        for i in range(0, net.n, 4):
            src = net.points[i]
            if not plan.is_alive(src):
                continue
            trials += 1
            if not simple_lookup(net, src, "doc", rng, plan).success:
                failures += 1
        assert trials > 20
        assert failures == 0

    def test_high_failure_rate_can_break_thin_coverage(self):
        """With tiny coverage and massive p, lookups may fail — the
        phenomenon Claim 6.5's 'sufficiently small p' guards against."""
        rng = np.random.default_rng(7)
        thin = OverlappingDHNetwork(64, rng, coverage_factor=0.4)
        thin.store_item("d", 1)
        plan = random_failstop(thin.points, 0.85, rng)
        results = [
            simple_lookup(thin, s, "d", rng, plan).success
            for s in thin.points
            if plan.is_alive(s)
        ]
        assert len(results) == 0 or not all(results) or len(results) < 20


class TestResistantLookup:
    def test_no_faults_succeeds(self, net):
        net.store_item("r", 9)
        res = resistant_lookup(net, net.points[0], "r")
        assert res.success

    def test_theorem_6_6_byzantine(self, net):
        """Correct majority survives p = 0.15 payload corruption."""
        rng = np.random.default_rng(8)
        plan = random_byzantine(net.points, 0.15, rng)
        net.store_item("z", 1)
        oks = [
            resistant_lookup(net, net.points[i], "z", plan).success
            for i in range(0, net.n, 8)
        ]
        assert sum(oks) / len(oks) >= 0.95

    def test_message_complexity_log_cubed(self, net):
        """O(log³ n) messages; parallel time ≤ log n + O(1)."""
        res = resistant_lookup(net, net.points[1], "z")
        log_n = math.log2(net.n)
        assert res.messages <= 8 * log_n**3
        assert res.messages >= log_n**2 / 4  # it really floods
        assert res.parallel_time <= log_n + 3

    def test_zero_hop_dead_replica_group_fails_cleanly(self, net):
        """Regression: a zero-hop lookup whose whole replica group is
        dead used to crash on the empty final majority; it now reports a
        plain failure with zero levels traversed."""
        src = net.points[3]
        plan = FaultPlan(failed=set(net.covers(src)) | {src})
        res = resistant_lookup(net, src, "k", plan, target=src)
        assert not res.success
        assert res.parallel_time == 0
        assert res.messages == 0

    def test_midpath_death_parallel_time_counts_traversed_levels(self, net):
        """Regression: dying at relay level k must report k, not the
        requested walk length."""
        y = 0.42
        plan = FaultPlan(failed=set(net.covers(y)))
        src = next(p for p in net.points if not net.covers_point(p, y))
        res = resistant_lookup(net, src, "k", plan, target=y)
        assert not res.success
        assert res.parallel_time == 1 < len(res.path_points) - 1

    def test_simple_lookup_fails_against_byzantine(self, net):
        """Contrast: the cheap lookup trusts a single holder, so a lying
        holder corrupts the answer — resistant lookup exists for a reason."""
        rng = np.random.default_rng(9)
        plan = FaultPlan(liars=set(net.replica_group("z")))
        res = simple_lookup(net, net.points[2], "z", rng, plan)
        assert not res.success
        res2 = resistant_lookup(net, net.points[2], "z", plan)
        assert not res2.success  # everyone lying is unrecoverable too


class TestFaultPlans:
    def test_failstop_probability(self):
        rng = np.random.default_rng(10)
        servers = list(np.arange(1000) / 1000.0)
        plan = random_failstop(servers, 0.3, rng)
        assert 230 <= len(plan.failed) <= 370

    def test_bad_probability_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            random_failstop([0.1], 1.0, rng)
        with pytest.raises(ValueError):
            random_byzantine([0.1], -0.1, rng)

    def test_liar_answers_corrupt(self):
        plan = FaultPlan(liars={0.5})
        assert plan.answer_of(0.5, "v") != "v"
        assert plan.answer_of(0.4, "v") == "v"
