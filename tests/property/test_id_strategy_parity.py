"""Property tests: the vectorised §4 id rules equal their loops.

:meth:`MultipleChoice.select` on float ids answers all ``t·log n``
probes at once over ``SegmentMap.column`` (one ``searchsorted``, a
gathered ``end − start``, ``argmax``).  The per-probe loop it replaced —
``cover`` → ``segment_length`` → strict ``>`` in sample order → the
winner's ``Arc.midpoint`` — is kept as the oracle ``scalar_select`` in
:mod:`oracles.segments`.  The contract is the same returned id **and**
the same rng state afterwards, so every id a network ever chooses is
bit-identical; the point sets are the adversarial ones of
:mod:`oracles.inputs` (clustered ids, ``x_0 == 0.0``, tiny n) plus pinned
cases for the seam segment, exact length ties and n ∈ {1, 2, 3}.  Exact
(``Fraction``) ids no longer take a loop: ``select`` and ``grow`` refuse
a map that holds one.

``grow`` (every strategy) chooses a whole batch of joins in windows; its
oracle is ``loop_grow``, ``count`` rounds of ``select`` + ``insert``:
same ids, same insertion indices, same rng state, and a duplicate id
raises in both.  :meth:`DistanceHalvingNetwork.populate` commits a
``grow`` in one step; its oracle is the parent's ``populate`` kept
verbatim as ``loop_populate``, one ``join`` per server, compared on
servers, ids, journal, router replay, items and rng.  Digests of whole
``populate`` runs and of one soak, recorded on the commit before the
vectorisation, pin the composed result.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.inputs import BELOW_ONE, point_sets, populated
from oracles.segments import loop_grow, loop_populate, scalar_select

import repro.balance.strategies as strategies_module
from repro.balance import ImprovedSingleChoice, MultipleChoice, SingleChoice
from repro.core import DistanceHalvingNetwork
from repro.core.segments import SegmentMap
from repro.experiments.soak import deterministic_payload
from repro.sim.scenario import ScenarioEngine


def assert_same_choice(strategy, segments, seed) -> float:
    """Same id and same stream position from cloned generators."""
    rng, ref = (np.random.default_rng(seed) for _ in range(2))
    got = strategy.select(segments, rng)
    expect = scalar_select(strategy, segments, ref)
    assert got == expect and type(got) is float
    assert rng.bit_generator.state == ref.bit_generator.state
    return got


STRATEGIES = [MultipleChoice(t=1), MultipleChoice(t=4), MultipleChoice(t=20)]
strategies = st.sampled_from(STRATEGIES)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestVectorEqualsLoop:
    @settings(max_examples=300, deadline=None)
    @given(points=point_sets(), strategy=strategies, seed=seeds)
    def test_adversarial_point_sets(self, points, strategy, seed):
        assert_same_choice(strategy, SegmentMap(points.tolist()), seed)

    @settings(max_examples=60, deadline=None)
    @given(points=point_sets(), strategy=strategies, seed=seeds,
           joins=st.integers(1, 24))
    def test_a_run_of_joins_stays_in_step(self, points, strategy, seed, joins):
        """Each chosen id is inserted before the next probe round."""
        segments = SegmentMap(points.tolist())
        for k in range(joins):
            p = assert_same_choice(strategy, segments, seed + k)
            if p not in segments:
                segments.insert(p)
        segments.check_invariants()

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: f"t{s.t}")
    @pytest.mark.parametrize("points", [
        [0.3],                              # n = 1: the full ring
        [0.0],
        [BELOW_ONE],
        [0.2, 0.7],                         # n = 2, equal halves: a tie
        [0.0, 0.5],
        [0.1, 0.2, 0.3],                    # n = 3, the seam segment longest
        [0.4, 0.5, 0.6],                    # seam longest, wraps through 0
        [0.0, 0.001, 0.002],                # x_0 == 0.0, seam row longest
        [0.0, 0.25, 0.5, 0.75],             # dyadic: four exact ties
        [k / 16 for k in range(16)],        # dyadic: every length equal
        [0.0, 0.125, 0.25, 0.5, 0.625, 0.75],   # ties among the longest
        [0.5 + k * 1e-12 for k in range(40)],   # clustered in one bucket
    ], ids=lambda p: f"n{len(p)}-x0_{p[0]:g}")
    def test_pinned_point_sets(self, strategy, points):
        segments = SegmentMap(points)
        for seed in range(25):
            assert_same_choice(strategy, segments, seed)

    def test_first_maximum_wins_an_exact_tie(self):
        """All lengths equal: the first *sample*'s segment is split."""
        segments = SegmentMap([k / 8 for k in range(8)])
        strategy = MultipleChoice(t=4)
        for seed in range(50):
            rng, ref = (np.random.default_rng(seed) for _ in range(2))
            first = segments.cover(float(ref.random(12)[0]))
            assert strategy.select(segments, rng) == first / 8 + 1 / 16

    def test_empty_map_draws_one_uniform_id(self):
        rng, ref = (np.random.default_rng(5) for _ in range(2))
        assert MultipleChoice().select(SegmentMap(), rng) == float(ref.random())
        assert rng.bit_generator.state == ref.bit_generator.state


class TestExactIdsTakeTheLoop:
    """Exact ids raise before any draw; float ids read the column."""

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: f"t{s.t}")
    def test_exact_ids_raise_before_any_draw(self, strategy):
        segments = SegmentMap([k / 8 for k in range(8)])
        segments.insert(Fraction(1, 3))  # one exact id is enough
        rng, ref = (np.random.default_rng(4) for _ in range(2))
        with pytest.raises(ValueError, match="float ids only"):
            strategy.select(segments, rng)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_float_ids_do_read_the_column(self, monkeypatch):
        reads = []
        column = SegmentMap.column.fget
        monkeypatch.setattr(
            SegmentMap, "column",
            property(lambda self: reads.append(1) or column(self)))
        MultipleChoice().select(SegmentMap([0.1, 0.6]),
                                np.random.default_rng(0))
        assert reads


# -------------------------------------------------------------- grow oracle
class Scripted:
    """An rng that hands out the given draws in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def assert_same_growth(strategy, segments: SegmentMap, seed: int,
                       count: int) -> None:
    """``grow`` equals the loop: ids, indices and stream position.

    When the loop's ``insert`` refuses a duplicate id, ``grow`` must
    refuse too; ``segments`` is never changed.
    """
    rng, ref = (np.random.default_rng(seed) for _ in range(2))
    before = segments.as_array()
    try:
        expect = loop_grow(strategy, segments, ref, count)
    except ValueError:
        with pytest.raises(ValueError, match="already present"):
            strategy.grow(segments, rng, count)
        return
    ids, at = strategy.grow(segments, rng, count)
    assert ids.dtype == np.float64 and len(ids) == len(at) == count
    assert ids.tolist() == expect[0]
    assert at.tolist() == expect[1]
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(segments.as_array(), before)


GROW_STRATEGIES = [SingleChoice(), ImprovedSingleChoice(), *STRATEGIES]
grow_strategies = st.sampled_from(GROW_STRATEGIES)


def _strategy_id(s) -> str:
    return f"{s.name}-t{getattr(s, 't', '')}"


class TestGrowEqualsLoop:
    @settings(max_examples=200, deadline=None)
    @given(points=point_sets(), strategy=grow_strategies, seed=seeds,
           count=st.integers(0, 300))
    def test_adversarial_point_sets(self, points, strategy, seed, count):
        assert_same_growth(strategy, SegmentMap(points.tolist()), seed, count)

    @pytest.mark.parametrize("strategy", GROW_STRATEGIES, ids=_strategy_id)
    @pytest.mark.parametrize("points", [
        [],                                 # n = 0: the first id is a draw
        [0.3],                              # n = 1: the full ring
        [0.0],
        [BELOW_ONE],
        [0.2, 0.7],                         # n = 2
        [0.1, 0.2, 0.3],                    # n = 3, the seam segment longest
        [0.4, 0.5, 0.6],                    # seam longest, wraps through 0
        [0.0, 0.001, 0.002],                # x_0 == 0.0, seam row longest
        [0.0, BELOW_ONE],                   # a one-ulp seam segment
        [k / 16 for k in range(16)],        # dyadic: every length equal
        [0.5 + k * 1e-12 for k in range(40)],   # clustered in one bucket
        [0.9 + k * 5e-4 for k in range(100)],   # a window splits the seam
    ], ids=lambda p: f"n{len(p)}-x0_{p[0]:g}" if p else "n0")
    def test_pinned_point_sets(self, strategy, points):
        segments = SegmentMap(points)
        for seed, count in [(0, 1), (1, 2), (2, 5), (3, 64), (4, 700)]:
            assert_same_growth(strategy, segments, seed, count)

    @pytest.mark.parametrize("t", [1, 4, 20])
    def test_windows_reevaluate_and_stay_exact(self, t, monkeypatch):
        """Some joins' choices are split earlier in their window.

        With more probes than it lists up front, a displaced join that
        runs off its short list is walked again over all its probes.
        """
        calls = []
        reevaluate = strategies_module._reevaluate

        def spy(*args):
            chosen = reevaluate(*args)
            calls.append((args[-1], chosen is None))
            return chosen

        monkeypatch.setattr(strategies_module, "_reevaluate", spy)
        assert_same_growth(MultipleChoice(t=t), SegmentMap(), 7, 3000)
        assert calls
        if t > 1:  # t·⌈log₂ n⌉ probes outnumber the short list from n = 5
            assert (False, True) in calls and (True, False) in calls

    def test_a_displaced_join_demotes_a_later_first_chooser(self, monkeypatch):
        """The cascade, in one pinned window of three joins (t = 1).

        Join 0 splits A, the longest segment.  Join 1 chose A too, so it
        is displaced; A's halves now lose to B.  Join 2 chose B first,
        but join 1 split B before it: join 2 is displaced in turn and
        takes C.
        """
        col = [0.0, 0.3, 0.5, 0.62] + [0.62 + 0.38 * k / 30 for k in range(1, 30)]
        segments = SegmentMap(col)  # n = 33: six probes a join, one window
        tail = [0.7, 0.8, 0.9, 0.75]
        probes = ([0.1, 0.7, 0.8, 0.9, 0.75, 0.85]     # A
                  + [0.2, 0.4] + tail                   # A, then B
                  + [0.45, 0.55] + tail)                # B, then C
        walked = []
        reevaluate = strategies_module._reevaluate
        monkeypatch.setattr(strategies_module, "_reevaluate",
                            lambda *a: walked.append(a[2]) or reevaluate(*a))
        expect = loop_grow(MultipleChoice(t=1), segments, Scripted(probes), 3)
        ids, at = MultipleChoice(t=1).grow(segments, Scripted(probes), 3)
        assert expect[0] == [0.15, 0.4, 0.56]
        assert (ids.tolist(), at.tolist()) == expect
        assert walked == [1, 2]

    @pytest.mark.parametrize("strategy", GROW_STRATEGIES, ids=_strategy_id)
    def test_exact_ids_raise(self, strategy):
        segments = SegmentMap([Fraction(k, 7) for k in range(7)])
        rng, ref = (np.random.default_rng(5) for _ in range(2))
        with pytest.raises(ValueError, match="float ids only"):
            strategy.grow(segments, rng, 40)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert len(segments) == 7

    def test_duplicates_raise_as_the_loop_does(self):
        """A drawn id already present, or drawn twice within one window."""
        segments = SegmentMap(np.arange(80) / 80)
        fresh = (np.arange(40) + 0.5) / 800
        # one window of 40 joins from n = 80: join 9 repeats an old id,
        # then join 8's id
        for script in ([*fresh[:9], 3 / 80, *fresh[9:]],
                       [*fresh[:9], fresh[8], *fresh[9:]]):
            with pytest.raises(ValueError, match="already present"):
                loop_grow(SingleChoice(), segments, Scripted(script), 40)
            with pytest.raises(ValueError, match="already present"):
                SingleChoice().grow(segments, Scripted(script), 40)
            assert segments.as_array().tolist() == (np.arange(80) / 80).tolist()

    U = 2**-53  # one ulp in [0.5, 1)

    @pytest.mark.parametrize("strategy, points, probes, start", [
        # the seam segment [1 - 2^-53, 0), as the window opened
        (ImprovedSingleChoice(), [0.0, 0.5, BELOW_ONE], [BELOW_ONE],
         BELOW_ONE),
        (MultipleChoice(t=1), [0.0, 0.5, BELOW_ONE], [BELOW_ONE] * 2,
         BELOW_ONE),
        # join 0 halves [0.5, 0.5 + 2u); displaced join 1 walks its
        # upper piece, one ulp wide
        (MultipleChoice(t=1), [0.0, 0.5, 0.5 + 2 * U], [0.5, 0.5, 0.5 + U, 0.5],
         0.5 + U),
    ], ids=["improved-seam", "multiple-seam", "multiple-piece"])
    def test_a_one_ulp_segment_offers_its_start(self, strategy, points,
                                                probes, start):
        """A segment or piece one float wide whose centre rounds onto its
        end offers its start, as ``Arc.midpoint`` does: that start is
        already present, and ``grow`` refuses the same point the loop's
        ``insert`` does."""
        segments = SegmentMap(points)
        count = len(probes) // max(1, strategy._probes(3))
        for run in (loop_grow, lambda *a: a[0].grow(*a[1:])):
            with pytest.raises(ValueError, match="already present") as err:
                run(strategy, segments, Scripted(probes), count)
            assert repr(start) in str(err.value)

    def test_probe_count_steps_at_powers_of_two(self):
        for n in range(1, 5000):
            assert strategies_module._ceil_log2(n) == max(
                1, int(np.ceil(np.log2(max(2, n)))))
        for k in range(1, 40):
            assert strategies_module._ceil_log2(2**k) == k
            assert strategies_module._ceil_log2(2**k + 1) == k + 1


def twin_networks(seed: int, setup=None):
    """Two equal networks from cloned generators; ``setup(net)`` on each."""
    nets = [DistanceHalvingNetwork(rng=np.random.default_rng(seed))
            for _ in range(2)]
    if setup is not None:
        for net in nets:
            setup(net)
    return nets


def assert_same_network(got: DistanceHalvingNetwork,
                        expect: DistanceHalvingNetwork) -> None:
    """Ids, servers (order, names, objects), journal, items and rng."""
    got.check_invariants()
    assert got.segments.points == expect.segments.points
    assert np.array_equal(got.segments.column, expect.segments.column)
    assert list(got.servers) == list(expect.servers)
    for i, (p, srv) in enumerate(got.servers.items()):
        twin = expect.servers[p]
        assert srv.point is p and srv.name == twin.name
        assert got.segments.point_at(got.segments.index_of(p)) is p
        assert list(srv.store.items()) == list(twin.store.items())
    log, ref = got.membership_log, expect.membership_log
    assert (log.version, log._head, log.cap) == (ref.version, ref._head,
                                                  ref.cap)
    assert log._ops == ref._ops
    assert all(type(op[1]) is float and type(op[2]) is int for op in log._ops)
    assert got._rng.bit_generator.state == expect._rng.bit_generator.state


class TestPopulateEqualsTheLoop:
    @pytest.mark.parametrize("selector", [None, *GROW_STRATEGIES],
                             ids=lambda s: "none" if s is None
                             else _strategy_id(s))
    @pytest.mark.parametrize("start", [0, 37])
    def test_servers_ids_and_journal(self, selector, start):
        got, expect = twin_networks(
            5, lambda net: loop_populate(net, start, MultipleChoice()))
        got.populate(700, selector=selector)
        loop_populate(expect, 700, selector)
        assert_same_network(got, expect)

    def test_journal_past_its_cap(self):
        """100 + 9000 + 400 joins: version, head and the kept 8192 ops."""
        got, expect = twin_networks(
            8, lambda net: loop_populate(net, 100, MultipleChoice()))
        for net, populate in ((got, got.populate),
                              (expect, lambda n, selector: loop_populate(
                                  expect, n, selector))):
            populate(9000, selector=MultipleChoice(t=4))
            populate(400, selector=MultipleChoice(t=4))
        assert got.membership_log.version == 9500
        assert got.membership_log.ops_since(9500 - 8192 - 1) is None
        assert_same_network(got, expect)

    @pytest.mark.parametrize("count", [12, 200])
    def test_auto_refresh_router_replays_the_same_ops(self, count):
        """Within the churn budget a patch, past it a full rebuild."""
        got, expect = twin_networks(
            9, lambda net: loop_populate(net, 300, MultipleChoice()))
        routers = [net.router(auto_refresh=True) for net in (got, expect)]
        targets = np.random.default_rng(10).random(500)
        for router in routers:
            router.batch_fast_lookup(np.zeros(500), targets)
        got.populate(count, selector=MultipleChoice())
        loop_populate(expect, count, MultipleChoice())
        results = [router.batch_fast_lookup(np.zeros(500), targets)
                   for router in routers]
        assert np.array_equal(results[0].owner_idx, results[1].owner_idx)
        assert np.array_equal(results[0].owner_idx,
                              got.segments.cover_array(targets))
        assert np.array_equal(routers[0].points, routers[1].points)
        stats = [r.refresh_stats for r in routers]
        assert (stats[0].incremental, stats[0].full_rebuilds,
                stats[0].ops_replayed) == (stats[1].incremental,
                                           stats[1].full_rebuilds,
                                           stats[1].ops_replayed)
        assert stats[0].incremental == (count == 12)

    def test_items_move_to_the_same_owners(self):
        def setup(net):
            loop_populate(net, 64, MultipleChoice())
            for k in range(600):
                net.store_item(f"item-{k}", k)

        got, expect = twin_networks(11, setup)
        got.populate(500, selector=MultipleChoice())
        loop_populate(expect, 500, MultipleChoice())
        assert_same_network(got, expect)
        assert sum(len(s.store) for s in got.servers.values()) == 600

    def test_a_duplicate_commits_nothing(self):
        """The loop keeps the joins before a duplicate; populate keeps none."""
        peek = DistanceHalvingNetwork(rng=np.random.default_rng(13))
        draws = peek._rng.random(10)   # what SingleChoice will draw next
        got, expect = twin_networks(13, lambda net: net.join(draws[6]))
        with pytest.raises(ValueError, match="already present"):
            loop_populate(expect, 10)
        assert expect.n == 7           # the loop committed joins 1..6
        column = got.segments.as_array()
        with pytest.raises(ValueError, match="already present"):
            got.populate(10)
        assert got.n == 1 and list(got.servers) == [draws[6]]
        assert np.array_equal(got.segments.column, column)
        assert got.membership_log.version == 1
        got.check_invariants()

    def test_refuses_a_selector_without_grow(self):
        net = DistanceHalvingNetwork(rng=np.random.default_rng(14))
        with pytest.raises(TypeError, match="grow"):
            net.populate(3, selector=lambda net, rng: float(rng.random()))
        assert net.n == 0


# ------------------------------------------------------------------ digests
def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedDigests:
    """Recorded on the parent commit (the per-probe loop), byte for byte."""

    @pytest.mark.parametrize("seed, digest", [
        (2007, "97326af9ac85ce52fa3d5c5f942361be"
               "7e254e523f8e195a5824bf8a1b58e5f5"),
        (11, "39467002ab0e57809af7d9d33ef7bb04"
             "38bbf436e89ec2645848c7f0a1cfb826"),
    ], ids=["seed2007", "seed11"])
    def test_populate_4096_ids(self, seed, digest):
        net = populated(4096, seed, selector=MultipleChoice(t=4))
        assert _sha256(net.segments.as_array().tobytes()) == digest
        net.check_invariants()

    def test_soak_1024_seed_0_payload(self):
        """Re-recorded once, when every draw of the soak became keyed."""
        result = ScenarioEngine(n=1024, seed=0).run()
        payload = json.dumps(deterministic_payload(result), sort_keys=True)
        assert _sha256(payload.encode()) == (
            "264bc6cfded9c0baec75f71d7f024e71"
            "bb5ec9e897db4127930a411121bb97c5")
