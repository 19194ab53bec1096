"""Unit tests for the vectorized fault-tolerant batch engine (§6.3)."""

import math

import numpy as np
import pytest

from repro.core import BatchCongestion
from repro.core.lookup import MAX_WALK_STEPS, compress_path
from repro.core.walk import level_points
from repro.faults import (
    FTBatchEngine,
    FaultPlan,
    canonical_path,
    random_byzantine,
    random_failstop,
    resistant_lookup,
    simple_lookup,
)


@pytest.fixture(scope="module")
def engine(net):
    return FTBatchEngine(net)


def _random_workload(net, rng, count):
    src = net.points_array[rng.integers(0, net.n, size=count)]
    tgt = rng.random(count)
    u = rng.random((count, 32))
    return src, tgt, u


def _assert_simple_parity(net, engine, plan, seed, count=150):
    rng = np.random.default_rng(seed)
    src, tgt, u = _random_workload(net, rng, count)
    batch = engine.batch_simple_lookup(src, tgt, choices=u, plan=plan,
                                       keep_paths="csr")
    for i in range(count):
        ref = simple_lookup(net, float(src[i]), "k", plan=plan,
                            target=float(tgt[i]), choices=list(u[i]))
        assert bool(ref.success) == bool(batch.success[i])
        assert ref.messages == int(batch.messages[i])
        assert ref.parallel_time == int(batch.parallel_time[i])
        assert compress_path(ref.servers) == batch.server_path(i)
    return batch


def _assert_resistant_parity(net, engine, plan, seed, count=100):
    rng = np.random.default_rng(seed)
    src, tgt, _ = _random_workload(net, rng, count)
    batch = engine.batch_resistant_lookup(src, tgt, plan=plan)
    for i in range(count):
        ref = resistant_lookup(net, float(src[i]), "k", plan,
                               target=float(tgt[i]))
        assert bool(ref.success) == bool(batch.success[i])
        assert ref.messages == int(batch.messages[i])
        assert ref.parallel_time == int(batch.parallel_time[i])
    return batch


class TestCoverTable:
    def test_matches_scalar_covers(self, net):
        """Array-backed cover tables replay the scalar scan exactly."""
        probes = np.random.default_rng(0).random(200)
        cand, mask = net.cover_table(probes)
        for b, y in enumerate(probes):
            expected = net.covers(float(y))
            got = [float(net.points_array[cand[k, b]])
                   for k in range(net.max_back) if mask[k, b]]
            assert got == expected

    def test_id_points_covered_by_self(self, net):
        """Exact id points: the owning server is always among the covers."""
        cand, mask = net.cover_table(net.points_array)
        own = cand[0] == np.arange(net.n)
        assert own.all()
        assert mask[0].all()

    def test_coverage_counts_vectorized(self, net):
        probes = np.random.default_rng(1).random(100)
        counts = net.coverage_counts(probes)
        assert counts.min() >= 1
        assert (counts == [len(net.covers(float(p))) for p in probes]).all()


class TestFaultPlanMasks:
    def test_masks_match_sets(self, net):
        plan = random_failstop(net.points, 0.3, np.random.default_rng(2))
        plan.liars = set(net.points[:10])
        failed = plan.failed_mask(net.points_array)
        alive = plan.alive_mask(net.points_array)
        liars = plan.liar_mask(net.points_array)
        for i, p in enumerate(net.points):
            assert failed[i] == (p in plan.failed)
            assert alive[i] == plan.is_alive(p)
            assert liars[i] == (p in plan.liars)

    def test_masks_roundtrip(self, net):
        rng = np.random.default_rng(3)
        failed = rng.random(net.n) < 0.2
        liars = rng.random(net.n) < 0.1
        pts = net.points_array
        plan = FaultPlan(failed={float(p) for p in pts[failed]},
                         liars={float(p) for p in pts[liars]})
        assert (plan.failed_mask(net.points_array) == failed).all()
        assert (plan.liar_mask(net.points_array) == liars).all()

    def test_empty_plan_masks(self, net):
        plan = FaultPlan()
        assert not plan.failed_mask(net.points_array).any()
        assert plan.alive_mask(net.points_array).all()


class TestCanonicalWalks:
    def test_matches_scalar_canonical_path(self, net, engine):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, net.n, size=100).astype(np.int64)
        tgt = rng.random(100)
        t, s = engine.canonical_walks(idx, tgt)
        for b in range(100):
            path = canonical_path(net, net.points[int(idx[b])], float(tgt[b]))
            assert len(path) - 1 == int(t[b])
            for level in range(int(t[b]) + 1):
                p = level_points(tgt[b:b + 1], s[b:b + 1],
                                 2.0 ** level, 2)[0]
                assert p == path[int(t[b]) - level]

    def test_walk_length_theorem_6_3(self, net, engine):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, net.n, size=300).astype(np.int64)
        t, _ = engine.canonical_walks(idx, rng.random(300))
        assert int(t.max()) <= math.log2(net.n) + 3
        assert int(t.max()) <= MAX_WALK_STEPS


class TestBatchSimpleLookup:
    def test_parity_no_faults(self, net, engine):
        batch = _assert_simple_parity(net, engine, FaultPlan(), seed=10)
        assert batch.success.all()

    def test_parity_failstop(self, net, engine):
        plan = random_failstop(net.points, 0.3, np.random.default_rng(11))
        _assert_simple_parity(net, engine, plan, seed=12)

    def test_parity_heavy_failstop(self, net, engine):
        """Past the knee: failures appear and still match bit-for-bit."""
        plan = random_failstop(net.points, 0.7, np.random.default_rng(13))
        batch = _assert_simple_parity(net, engine, plan, seed=14)
        assert not batch.success.all()

    def test_parity_byzantine(self, net, engine):
        plan = random_byzantine(net.points, 0.3, np.random.default_rng(15))
        batch = _assert_simple_parity(net, engine, plan, seed=16)
        # the cheap lookup trusts the holder: liars cost it lookups
        assert 0.4 < batch.success_rate() < 1.0

    def test_rng_mode_draws_choices(self, net, engine):
        src, tgt, _ = _random_workload(net, np.random.default_rng(17), 50)
        res = engine.batch_simple_lookup(src, tgt, key=18)
        assert res.success.all()
        assert res.parallel_time.max() <= math.log2(net.n) + 3

    def test_needs_rng_or_choices(self, net, engine):
        with pytest.raises(ValueError, match="key or explicit choices"):
            engine.batch_simple_lookup(net.points_array[:2], [0.1, 0.2])

    def test_choices_exhausted_raises(self, net, engine):
        src, tgt, _ = _random_workload(net, np.random.default_rng(19), 20)
        with pytest.raises(ValueError, match="exhausted"):
            engine.batch_simple_lookup(src, tgt,
                                       choices=np.zeros((20, 1)))

    def test_source_must_be_id_point(self, net, engine):
        with pytest.raises(ValueError, match="server id points"):
            engine.batch_simple_lookup(np.array([0.5 * net.points[0]]),
                                       np.array([0.3]), key=0)

    def test_integer_sources_refused(self, net, engine):
        """Sources are id points only, as the router's are: an index
        array is read as points and refused."""
        idx = np.random.default_rng(20).integers(1, net.n, size=30)
        with pytest.raises(ValueError, match="server id points"):
            engine.batch_simple_lookup(idx, np.full(30, 0.25),
                                       choices=np.full((30, 32), 0.0))

    def test_all_covers_dead_fails_identically(self, net, engine):
        """A path point with zero alive covers kills the walk (both
        engines, same accounting)."""
        y = 0.123456
        plan = FaultPlan(failed=set(net.covers(y)))
        # a source that does not cover y, so the walk has to reach it
        src = next(p for p in net.points if not net.covers_point(p, y))
        u = np.zeros((1, 32))
        batch = engine.batch_simple_lookup(np.array([src]), np.array([y]),
                                           choices=u, plan=plan,
                                           keep_paths=True)
        ref = simple_lookup(net, src, "k", plan=plan, target=y,
                            choices=list(u[0]))
        assert not ref.success and not batch.success[0]
        assert ref.messages == int(batch.messages[0])
        assert ref.parallel_time == int(batch.parallel_time[0])
        assert int(batch.parallel_time[0]) < int(batch.t[0])

    def test_zero_hop_dead_source(self, net, engine):
        """t = 0 with the whole replica group dead: holder is the dead
        source itself."""
        src = net.points[7]
        plan = FaultPlan(failed=set(net.covers(src)) | {src})
        batch = engine.batch_simple_lookup(np.array([src]), np.array([src]),
                                           choices=np.zeros((1, 32)),
                                           plan=plan)
        ref = simple_lookup(net, src, "k", plan=plan, target=src,
                            choices=[0.0])
        assert int(batch.t[0]) == 0
        assert not batch.success[0] and not ref.success
        assert int(batch.parallel_time[0]) == ref.parallel_time == 0


class TestBatchResistantLookup:
    def test_parity_no_faults(self, net, engine):
        batch = _assert_resistant_parity(net, engine, FaultPlan(), seed=30)
        assert batch.success.all()

    def test_parity_byzantine(self, net, engine):
        plan = random_byzantine(net.points, 0.2, np.random.default_rng(31))
        _assert_resistant_parity(net, engine, plan, seed=32)

    def test_parity_heavy_mixed(self, net, engine):
        plan = FaultPlan(
            failed=random_failstop(net.points, 0.4,
                                   np.random.default_rng(33)).failed,
            liars=random_byzantine(net.points, 0.3,
                                   np.random.default_rng(34)).liars)
        batch = _assert_resistant_parity(net, engine, plan, seed=35)
        assert not batch.success.all()

    def test_message_complexity(self, net, engine):
        rng = np.random.default_rng(36)
        src, tgt, _ = _random_workload(net, rng, 200)
        res = engine.batch_resistant_lookup(src, tgt)
        logn = math.log2(net.n)
        assert int(res.messages.max()) <= 8 * logn**3
        assert float(res.messages.mean()) >= logn**2 / 4
        assert int(res.parallel_time.max()) <= logn + 3

    def test_hops_undefined_for_floods(self, net, engine):
        """Flood message counts must not masquerade as walk hops."""
        rng = np.random.default_rng(37)
        src, tgt, _ = _random_workload(net, rng, 5)
        res = engine.batch_resistant_lookup(src, tgt)
        with pytest.raises(ValueError, match="Simple Lookup batches only"):
            res.hops


class TestByzantineEdgeCases:
    """The satellite edge cases: ties, dead cover sets, lone liars."""

    def _source_avoiding(self, net, y):
        return next(p for p in net.points if not net.covers_point(p, y))

    def test_exact_tie_majority_is_no_majority(self, net, engine):
        """One honest + one lying replica split the vote 1–1: nothing
        clears the strict-majority filter and the flood dies."""
        y = 0.654321
        covers = net.covers(y)
        assert len(covers) >= 3
        plan = FaultPlan(failed=set(covers[2:]), liars={covers[1]})
        src = self._source_avoiding(net, y)
        ref = resistant_lookup(net, src, "k", plan, target=y)
        batch = engine.batch_resistant_lookup(np.array([src]), np.array([y]),
                                              plan=plan)
        assert not ref.success and not batch.success[0]
        # died at the very first relay level, after 1 level of travel
        assert ref.parallel_time == int(batch.parallel_time[0]) == 1
        assert ref.messages == int(batch.messages[0])

    def test_all_covers_dead_path_point(self, net, engine):
        y = 0.271828
        plan = FaultPlan(failed=set(net.covers(y)))
        src = self._source_avoiding(net, y)
        ref = resistant_lookup(net, src, "k", plan, target=y)
        batch = engine.batch_resistant_lookup(np.array([src]), np.array([y]),
                                              plan=plan)
        assert not ref.success and not batch.success[0]
        assert ref.messages == int(batch.messages[0]) == 0
        assert ref.parallel_time == int(batch.parallel_time[0]) == 1

    def test_zero_hop_all_dead_replica_group(self, net, engine):
        """t = 0 and the whole replica group dead: the scalar engine used
        to crash on the empty majority; now both report a failure."""
        src = net.points[11]
        plan = FaultPlan(failed=set(net.covers(src)) | {src})
        ref = resistant_lookup(net, src, "k", plan, target=src)
        batch = engine.batch_resistant_lookup(np.array([src]),
                                              np.array([src]), plan=plan)
        assert not ref.success and not batch.success[0]
        assert ref.parallel_time == int(batch.parallel_time[0]) == 0

    def test_lone_liar_forwards_its_corruption(self, net, engine):
        """A single surviving (lying) cover *does* clear the majority
        filter — its corruption rides to the requester, who then
        rejects it: resistant fails rather than returning garbage."""
        y = 0.314159
        covers = net.covers(y)
        plan = FaultPlan(failed=set(covers[1:]), liars={covers[0]})
        src = self._source_avoiding(net, y)
        ref = resistant_lookup(net, src, "k", plan, target=y)
        batch = engine.batch_resistant_lookup(np.array([src]), np.array([y]),
                                              plan=plan)
        assert not ref.success and not batch.success[0]
        # the corruption survived the whole path (no early death)
        assert ref.parallel_time == int(batch.parallel_time[0]) > 1
        assert ref.messages == int(batch.messages[0]) > 0

    def test_simple_and_resistant_agree_fault_free(self, net, engine):
        rng = np.random.default_rng(40)
        src, tgt, u = _random_workload(net, rng, 100)
        simple = engine.batch_simple_lookup(src, tgt, choices=u)
        resist = engine.batch_resistant_lookup(src, tgt)
        assert simple.success.all() and resist.success.all()
        assert (simple.t == resist.t).all()
        assert (simple.parallel_time == resist.parallel_time).all()


class TestNonFiniteInputs:
    """Non-finite points fail at entry, naming the lane, like every engine.

    They used to pass the entry, warn ``invalid value encountered in
    remainder`` and die 512 levels later with ``batch canonical path
    failed to converge``.
    """

    @staticmethod
    def _lookup(engine, algorithm, sources, targets):
        if algorithm == "simple":
            return engine.batch_simple_lookup(sources, targets, key=0)
        return engine.batch_resistant_lookup(sources, targets)

    @pytest.mark.parametrize("algorithm", ["simple", "resistant"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_nonfinite_target_raises_at_entry(self, net, engine, algorithm,
                                              bad):
        with pytest.raises(ValueError,
                           match=rf"targets\[1\] must be a finite real, got {bad!r}"):
            self._lookup(engine, algorithm, net.points_array[:3],
                         [0.1, bad, 0.3])

    @pytest.mark.parametrize("algorithm", ["simple", "resistant"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_float_source_raises_at_entry(self, net, engine,
                                                    algorithm, bad):
        src = net.points_array[:3].copy()
        src[2] = bad
        with pytest.raises(ValueError,
                           match=rf"sources\[2\] must be a finite real, got {bad!r}"):
            self._lookup(engine, algorithm, src, [0.1, 0.2, 0.3])

    def test_scalar_target_broadcasts(self, net, engine):
        """The documented scalar broadcast, via the shared entry check."""
        res = engine.batch_resistant_lookup(net.points_array[:4], 0.25)
        assert res.size == 4 and (res.targets == 0.25).all()


class TestParallelTimeLevelsTraversed:
    """Regression (satellite fix): parallel_time counts levels actually
    traversed, never the requested walk length."""

    def test_resistant_midpath_death_reports_traversed_levels(self, net):
        rng = np.random.default_rng(50)
        seen_early_death = False
        for _ in range(200):
            src = net.points[int(rng.integers(net.n))]
            y = float(rng.random())
            plan = random_failstop(net.points, 0.85,
                                   np.random.default_rng(int(rng.integers(1 << 31))))
            res = resistant_lookup(net, src, "k", plan, target=y)
            assert res.parallel_time <= len(res.path_points) - 1
            assert res.parallel_time <= MAX_WALK_STEPS
            if (not res.success
                    and 0 < res.parallel_time < len(res.path_points) - 1):
                seen_early_death = True
        assert seen_early_death, "sweep never exercised a mid-path death"

    def test_simple_failure_reports_traversed_levels(self, net):
        rng = np.random.default_rng(51)
        y = 0.777
        plan = FaultPlan(failed=set(net.covers(y)))
        src = next(p for p in net.points if not net.covers_point(p, y))
        res = simple_lookup(net, src, "k", rng, plan, target=y)
        assert not res.success
        assert res.parallel_time == len(res.servers) - 1
        assert res.parallel_time < len(res.path_points) - 1


class TestCsrPathContract:
    def test_csr_shape_and_decode(self, net, engine):
        rng = np.random.default_rng(60)
        src, tgt, u = _random_workload(net, rng, 80)
        res = engine.batch_simple_lookup(src, tgt, choices=u,
                                         keep_paths="csr")
        servers, offsets = res.to_csr()
        assert offsets.shape == (81,)
        assert offsets[0] == 0 and offsets[-1] == servers.size
        assert (np.diff(offsets) >= 1).all()
        assert servers.dtype == np.int32
        lengths = np.diff(offsets)
        assert (lengths == res.messages + 1).all()  # compressed walks
        for i in (0, 13, 79):
            pts = res.path_points(i)
            assert pts[0] == res.points[res.source_idx[i]] or len(pts) >= 1
            assert res.server_path(i) == [float(p) for p in pts]

    def test_keep_paths_true_lazy_csr(self, net, engine):
        rng = np.random.default_rng(61)
        src, tgt, u = _random_workload(net, rng, 40)
        lazy = engine.batch_simple_lookup(src, tgt, choices=u,
                                          keep_paths=True)
        eager = engine.batch_simple_lookup(src, tgt, choices=u,
                                           keep_paths="csr")
        ls, lo = lazy.to_csr()
        es, eo = eager.to_csr()
        assert (ls == es).all() and (lo == eo).all()

    def test_no_paths_raises(self, net, engine):
        rng = np.random.default_rng(62)
        src, tgt, u = _random_workload(net, rng, 10)
        res = engine.batch_simple_lookup(src, tgt, choices=u)
        with pytest.raises(ValueError, match="keep_paths=False"):
            res.to_csr()

    def test_bad_keep_paths_rejected(self, net, engine):
        with pytest.raises(ValueError, match="keep_paths"):
            engine.batch_simple_lookup(net.points_array[:1], [0.5],
                                       choices=np.zeros((1, 32)),
                                       keep_paths="yes")

    def test_congestion_accounting_accepts_ft_batches(self, net, engine):
        """The CSR arrays plug straight into the PR-4 accounting spine."""
        rng = np.random.default_rng(63)
        src, tgt, u = _random_workload(net, rng, 500)
        res = engine.batch_simple_lookup(src, tgt, choices=u,
                                         keep_paths="csr")
        cong = BatchCongestion()
        cong.record_batch(res)
        assert cong.lookups == 500
        assert cong.total_messages == int(res.messages.sum())
        assert cong.max_load() >= 1
