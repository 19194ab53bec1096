"""The streaming soak scenario engine and its invariant checker."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.sim.scenario import (
    DEFAULT_PHASES,
    Phase,
    ScenarioEngine,
    SoakStats,
    parse_phases,
)


class TestParsePhases:
    def test_default_script_has_at_least_six_phases(self):
        phases = parse_phases(DEFAULT_PHASES)
        assert len(phases) >= 6
        assert {ph.kind for ph in phases} >= {
            "lookups", "churn", "flash", "failstop", "byzantine",
            "rebalance", "mass"}

    def test_args_parse(self):
        phases = parse_phases("lookups:5000, churn:64 ,mass:0.5")
        assert phases == [Phase("lookups", 5000.0), Phase("churn", 64.0),
                          Phase("mass", 0.5)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown phase"):
            parse_phases("lookups,teleport")

    def test_negative_arg_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            parse_phases("churn:-3")

    @pytest.mark.parametrize("spec,what", [
        # counts used to truncate to 0 (and the soak still passed)
        ("churn:0.5", "integral count"), ("lookups:0.5", "integral count"),
        ("flash:0.5", "integral count"), ("rebalance:0.5", "integral count"),
        ("lookups:inf", "integral count"), ("churn:nan", "integral count"),
        # probabilities used to raise only when their phase was reached
        ("failstop:1.5", "probability"), ("byzantine:1", "probability"),
        ("byzantine:nan", "probability"),
        # a fraction above 1 emptied the network (LookupError)
        ("mass:2", "fraction"), ("mass:inf", "fraction"),
    ])
    def test_arguments_a_phase_cannot_run_rejected(self, spec, what):
        with pytest.raises(ValueError, match=f"takes an? {what}"):
            parse_phases("lookups," + spec)

    def test_boundary_arguments_accepted(self):
        phases = parse_phases("churn:0,failstop:0,byzantine:0.99,mass:1")
        assert [ph.arg for ph in phases] == [0.0, 0.0, 0.99, 1.0]

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError, match="no phases"):
            parse_phases(" , ")


class TestSoakStats:
    def test_fresh_stats_are_empty(self):
        s = SoakStats()
        assert s.route.lookups == 0 and s.total_requests == 0
        assert s.mean_hops() == 0.0
        summary = s.summary(16)
        assert summary["total_requests"] == 0.0
        assert summary["ft_success_rate"] == 1.0

    def test_merge_is_exact_and_associative(self):
        a, b, c = SoakStats(), SoakStats(), SoakStats()
        a.hop_hist = np.array([1, 2], dtype=np.int64)
        b.hop_hist = np.array([0, 1, 5], dtype=np.int64)
        c.hop_hist = np.array([3], dtype=np.int64)
        a.churn_ops, b.ft_pairs, c.cache_requests = 7, 3, 9
        b.ft_successes = 2
        a.observe_network(100, 2.5)
        b.observe_network(80, 4.0)
        left = SoakStats().merge(a).merge(b).merge(c)
        inner = SoakStats().merge(b).merge(c)
        right = SoakStats().merge(a).merge(inner)
        assert left.equals(right)
        assert left.hop_hist.tolist() == [4, 3, 5]
        assert left.n_min == 80 and left.n_max == 100
        assert left.smoothness_max == 4.0

    def test_equals_detects_tampering(self):
        a = SoakStats()
        a.hop_hist = np.array([1, 1], dtype=np.int64)
        b = a.snapshot()
        assert a.equals(b)
        b.hop_hist[0] += 1
        assert not a.equals(b)
        c = a.snapshot()
        c.ft_messages += 1
        assert not a.equals(c)

    def test_snapshot_is_independent(self):
        a = SoakStats()
        a.hop_hist = np.array([2], dtype=np.int64)
        snap = a.snapshot()
        a.hop_hist[0] = 99
        a.churn_ops = 5
        assert snap.hop_hist.tolist() == [2]
        assert snap.churn_ops == 0

    def test_summary_is_json_native(self):
        s = SoakStats()
        s.hop_hist = np.array([0, 4], dtype=np.int64)
        s.ft_pairs, s.ft_successes = 4, 3
        payload = s.summary(8)
        json.dumps(payload)  # raises on any NumPy scalar
        assert all(isinstance(v, (int, float)) and not hasattr(v, "dtype")
                   for v in payload.values())
        assert payload["ft_success_rate"] == 0.75
        assert payload["mean_hops"] == 1.0


class SmallSoak:
    """Shared tiny scenario (one network build per test class)."""

    N = 128
    LOOKUPS = 6000
    CHUNK = 2048


class TestScenarioEngine(SmallSoak):
    @pytest.fixture(scope="class")
    def result(self):
        eng = ScenarioEngine(n=self.N, lookups=self.LOOKUPS,
                             chunk=self.CHUNK, seed=11, items=8)
        return eng.run(), eng

    def test_full_default_scenario_passes_invariants(self, result):
        res, eng = result
        assert res["invariants_ok"]
        assert res["owners_ok"] and res["merge_ok"]
        assert res["healing_ok"] and res["cache_ok"]
        assert res["invariant_checks"] == len(res["invariants"])
        # one audit batch per phase, each with >= 4 checks
        assert res["invariant_checks"] >= 4 * len(res["rows"])

    def test_lookup_budget_is_spent(self, result):
        res, eng = result
        routed = sum(row["lookups"] for row in res["rows"])
        assert routed == self.LOOKUPS
        assert res["total_requests"] >= self.LOOKUPS
        assert res["total_requests"] == eng.total.total_requests

    def test_rows_cover_every_phase(self, result):
        res, _ = result
        assert [r["phase"].split(":")[1] for r in res["rows"]] \
            == res["phases"]
        assert len(res["phases"]) >= 6

    def test_memory_stays_chunk_bounded(self, result):
        """The accumulator never holds per-request state: its arrays are
        O(servers + max hops), not O(requests)."""
        res, eng = result
        n_max = eng.total.n_max
        assert eng.total.route._points.size <= n_max
        assert eng.total.cache._points.size <= n_max
        assert eng.total.hop_hist.size <= 64
        assert res["stats"]["route_lookups"] == self.LOOKUPS

    def test_result_is_json_safe(self, result):
        res, _ = result
        json.dumps(res)

    def test_explicit_phase_args_are_honored(self):
        eng = ScenarioEngine(n=self.N, lookups=self.LOOKUPS,
                             chunk=self.CHUNK, seed=3, items=6)
        res = eng.run("lookups:1000,churn:32,lookups:500,"
                      "failstop:0.2,rebalance:16,mass:0.25")
        rows = res["rows"]
        assert rows[0]["lookups"] == 1000
        assert rows[1]["churn_ops"] == 32
        assert rows[2]["lookups"] == 500
        assert rows[4]["churn_ops"] == 16
        assert res["invariants_ok"]

    def test_seed_determinism(self):
        def run():
            eng = ScenarioEngine(n=self.N, lookups=2000, chunk=1024,
                                 seed=7, items=6)
            return eng.run("lookups,churn:24,flash:2000,failstop:0.3")
        a, b = run(), run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seeds_differ(self):
        def run(seed):
            eng = ScenarioEngine(n=self.N, lookups=2000, chunk=1024,
                                 seed=seed, items=6)
            return eng.run("lookups,churn:24")
        assert json.dumps(run(1)["stats"]) != json.dumps(run(2)["stats"])


class TestInvariantChecker(SmallSoak):
    def make_engine(self, strict=True):
        return ScenarioEngine(n=self.N, lookups=1000, chunk=512,
                              seed=19, items=6, strict=strict)

    def test_detects_corrupted_share(self):
        eng = self.make_engine(strict=False)
        eng.run("lookups,failstop:0.1")
        key = eng.store.keys()[0]
        item = eng.store._items[key]
        srv, (idx, payload) = next(iter(item.share_at.items()))
        item.share_at[srv] = (idx, bytes([payload[0] ^ 0xFF]) + payload[1:])
        rows = eng.check_invariants("tampered")
        erasure = [r for r in rows if r["check"] == "erasure"]
        assert erasure and not erasure[0]["ok"]

    def test_detects_tampered_totals(self):
        eng = self.make_engine(strict=False)
        eng.run("lookups,churn:16")
        eng.total.churn_ops += 1  # booked op that no snapshot carries
        rows = eng.check_invariants("tampered")
        merge = [r for r in rows if r["check"] == "merge"]
        assert merge and not merge[0]["ok"]

    def test_detects_malformed_cache_tree(self):
        eng = self.make_engine(strict=False)
        eng.run("flash:2000")
        cache = eng._last_cache_engine
        assert cache is not None
        cache._depths = cache._depths + 1  # roots no longer at depth 0
        rows = eng.check_invariants("tampered")
        bad = [r for r in rows if r["check"] == "cache"]
        assert bad and not bad[0]["ok"]

    def test_owner_audit_checks_grid_against_oracle(self):
        """A corrupted cover grid cannot hide: the audit compares the
        router's index with SegmentMap.cover_array (searchsorted) and
        reports the grid's own consistency."""
        eng = self.make_engine(strict=False)
        eng.run("lookups,churn:16")
        owners = [r for r in eng.check_invariants("clean")
                  if r["check"] == "owners"]
        assert owners[0]["ok"] and "cover grid" not in owners[0]["detail"]
        eng.router.cover_index.grid[:] = eng.router.cover_index.grid[::-1]
        owners = [r for r in eng.check_invariants("tampered")
                  if r["check"] == "owners"]
        assert not owners[0]["ok"]
        detail = owners[0]["detail"]
        assert "cover grid len=" in detail and "grid[-1]=" in detail
        assert "monotone=False" in detail and "buckets differ" in detail

    def test_one_wrong_bucket_fails_the_owner_audit(self):
        """A bucket one below its cover still answers every lookup (the
        walk steps past it), so only the grid audit can see it."""
        eng = self.make_engine(strict=False)
        eng.run("lookups,churn:16")
        grid = eng.router.cover_index.grid
        grid[int(np.argmax(grid > 0))] -= 1
        ys = np.random.default_rng(3).random(4096)
        assert np.array_equal(eng.router.cover(ys),
                              eng.net.segments.cover_array(ys))
        owners = [r for r in eng.check_invariants("tampered")
                  if r["check"] == "owners"]
        assert not owners[0]["ok"]
        assert "1 buckets differ from a fresh grid" in owners[0]["detail"]

    def test_column_behind_the_maps_back_fails_the_network_audit(self):
        """The auto-refresh router and the audit's fresh compile both
        read ``SegmentMap.column``; the network check ties that column
        to the id list, so a corrupted mirror fails by name."""
        eng = self.make_engine(strict=False)
        eng.run("lookups,churn:16")
        assert all(r["ok"] for r in eng.check_invariants("clean"))
        segs = eng.net.segments
        segs._buf[5] = np.nextafter(segs._buf[5], 1.0)  # one ulp, still sorted
        rows = {r["check"]: r for r in eng.check_invariants("tampered")}
        assert not rows["network"]["ok"]
        assert "column out of step with the id list" in rows["network"]["detail"]
        assert not rows["owners"]["ok"]  # frozen copy vs corrupted compile

    def test_strict_mode_raises(self):
        eng = self.make_engine(strict=True)
        eng.run("lookups")
        eng.total.churn_ops += 1
        with pytest.raises(AssertionError, match="merge"):
            eng.check_invariants("tampered")

    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError, match="n must be an int >= 16, got 4"):
            ScenarioEngine(n=4)

    @pytest.mark.parametrize("field,value", [
        # each used to run truncated, empty or unchecked
        ("chunk", 2.7), ("items", -3), ("lookups", -5),
        ("payload", 8.0), ("n", 16.9), ("n", True), ("chunk", 0),
    ])
    def test_refuses_a_bad_count_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            ScenarioEngine(**{"n": 16, field: value})


class TestPhaseTable(SmallSoak):
    def engine(self, **kw):
        return ScenarioEngine(**{"n": self.N, "lookups": 3000, "chunk": 512,
                                 "seed": 5, "items": 6, **kw})

    def test_defaults_become_explicit_arguments(self):
        """``run`` fills every omitted argument from the table before it
        starts: the default script and its explicit twin end alike."""
        a, b = self.engine(), self.engine()
        a.run(DEFAULT_PHASES)
        b.run("lookups:1500,churn:192,lookups:1500,flash:375,failstop:0.08,"
              "byzantine:0.05,rebalance:32,mass:0.3")
        assert b.total.equals(a.total)
        assert np.array_equal(b.router.points, a.router.points)

    def test_one_run_per_phase_replays_one_run(self):
        """Phase names keep counting across ``run`` calls, so a script run
        one phase at a time ends exactly as the one-call run does."""
        script = ("lookups:700,churn:20,flash:300,failstop:0.3,byzantine:0.2,"
                  "rebalance:8,mass:0.5,failstop:0.5,byzantine:0.1,"
                  "lookups:200")
        whole, steps = self.engine(), self.engine()
        whole.run(script)
        for token in script.split(","):
            steps.run(token)
        assert steps.total.equals(whole.total)
        assert np.array_equal(steps.net.segments.as_array(),
                              whole.net.segments.as_array())
        assert np.array_equal(steps.router.points, whole.router.points)
        assert steps.invariant_rows == whole.invariant_rows
        assert [r["phase"] for r in whole.invariant_rows][-1] == "10:lookups"

    def test_an_emptied_substrate_loses_its_items_without_crashing(self):
        """A fail-stop wave that kills every substrate server books no FT
        pairs (there is no live source), heals, and reports the loss."""
        eng = ScenarioEngine(n=16, chunk=128, seed=0, items=4)
        res = eng.run("failstop:0.99,byzantine:0.5,lookups:100")
        assert not eng.alive and res["ft_alive_fraction"] == 0.0
        assert [row["ft"] for row in res["rows"]] == [0, 0, 0]
        assert res["stats"]["items_lost"] == 4.0
        assert res["invariants_ok"] and not res["healing_ok"]
        assert res["stats"]["route_lookups"] == 100.0

    def test_the_soak_cli_fails_an_emptied_substrate(self, capsys):
        from repro.cli import main

        rc = main(["soak", "--n", "16", "--seed", "0", "--chunk", "128",
                   "--items", "4", "--phases", "failstop:0.99"])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestChunkMemory:
    """A chunk loop holds one chunk's result at a time."""

    N, CHUNK = 1024, 4096

    def engine(self):
        eng = ScenarioEngine(n=self.N, lookups=0, chunk=self.CHUNK, seed=1,
                             invariants=False)
        eng.run(f"lookups:{self.CHUNK}")  # warm: lazy tables are not the phase's
        return eng

    def phase_peak(self, count: int) -> int:
        eng = self.engine()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            eng.run(f"lookups:{count}")
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    def result_bytes(self) -> int:
        """What one routed chunk's result holds, traced."""
        router = self.engine().router
        rng = np.random.default_rng(2)
        src = router.points[rng.integers(0, router.points.size, self.CHUNK)]
        tgt = rng.random(self.CHUNK)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            res = router.lookup_batch(src, tgt, keep_paths="csr")
            assert res.size == self.CHUNK
            return tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()

    def test_two_chunk_lookups_phase_peaks_within_one_result(self):
        """The second chunk routes after the first one's result is
        booked and dropped, so a two-chunk phase peaks less than half a
        result above a one-chunk phase; keeping the first result alive
        through the second chunk cost all of one."""
        excess = self.phase_peak(2 * self.CHUNK) - self.phase_peak(self.CHUNK)
        assert excess < self.result_bytes() / 2, excess
