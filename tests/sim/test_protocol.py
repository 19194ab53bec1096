"""Tests for the message-level lookup protocol (iterative vs recursive)."""

import math

import numpy as np
import pytest
from oracles.inputs import populated

from repro.balance import MultipleChoice
from repro.sim.protocol import (build_protocol_network, run_protocol_lookup,
                                run_protocol_lookups)


@pytest.fixture(scope="module")
def net():
    return populated(64, 0, selector=MultipleChoice(t=4))


@pytest.fixture()
def sim(net):
    return build_protocol_network(net)


class TestRecursive:
    def test_reaches_owner(self, net, sim):
        rng = np.random.default_rng(1)
        pts = list(net.points())
        for _ in range(40):
            src = pts[int(rng.integers(net.n))]
            tgt = float(rng.random())
            out = run_protocol_lookup(sim, net, src, tgt, rng, "recursive")
            assert out.done
            assert out.owner == net.segments.cover_point(tgt)

    def test_message_count_is_hops_plus_reply(self, net, sim):
        rng = np.random.default_rng(2)
        src = list(net.points())[3]
        out = run_protocol_lookup(sim, net, src, 0.77, rng, "recursive")
        assert out.messages == out.hops + 2  # inject + forwards + reply

    def test_hop_bound(self, net, sim):
        rng = np.random.default_rng(3)
        pts = list(net.points())
        rho = net.smoothness()
        bound = 2 * math.log2(net.n) + 2 * math.log2(rho) + 2
        for _ in range(30):
            src = pts[int(rng.integers(net.n))]
            out = run_protocol_lookup(sim, net, src, float(rng.random()), rng,
                                      "recursive")
            assert out.hops <= bound


class TestIterative:
    def test_reaches_owner(self, net, sim):
        rng = np.random.default_rng(4)
        pts = list(net.points())
        for _ in range(40):
            src = pts[int(rng.integers(net.n))]
            tgt = float(rng.random())
            out = run_protocol_lookup(sim, net, src, tgt, rng, "iterative")
            assert out.done
            assert out.owner == net.segments.cover_point(tgt)

    def test_costs_about_double_messages(self, net, sim):
        """Footnote 1's iterative-vs-recursive difference, measured."""
        rng = np.random.default_rng(5)
        pts = list(net.points())
        rec = it = 0
        for _ in range(40):
            src = pts[int(rng.integers(net.n))]
            tgt = float(rng.random())
            rec += run_protocol_lookup(sim, net, src, tgt, rng, "recursive").messages
            it += run_protocol_lookup(sim, net, src, tgt, rng, "iterative").messages
        assert it >= 1.5 * rec

    def test_requester_observes_every_step(self, net, sim):
        rng = np.random.default_rng(6)
        src = list(net.points())[7]
        out = run_protocol_lookup(sim, net, src, 0.123, rng, "iterative")
        # iterative path records each probed server exactly once per step
        assert len(out.path) == out.hops + 1


class TestTransportEffects:
    def test_latency_accumulates(self, net):
        slow = build_protocol_network(net, latency=lambda a, b: 5.0)
        rng = np.random.default_rng(7)
        src = list(net.points())[2]
        out = run_protocol_lookup(slow, net, src, 0.9, rng, "recursive")
        assert out.done
        assert out.completed_at >= 5.0 * (out.hops + 1)

    def test_a_bad_query_refuses_the_batch_before_anything_is_sent(self, net,
                                                                   sim):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="target must be a finite real"):
            run_protocol_lookups(sim, net, [(0.1, 0.2), (0.3, math.nan)],
                                 [rng, rng])
        with pytest.raises(ValueError, match="shorter"):
            run_protocol_lookups(sim, net, [(0.1, 0.2), (0.3, 0.4)], [rng])
        assert sim.delivered == sim.loop.events_run == 0

    def test_style_validation(self, net, sim):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            run_protocol_lookup(sim, net, 0.1, 0.2, rng, style="bogus")

    def test_failed_node_stalls_lookup(self, net):
        """Fail-stop without the §6 overlap: the lookup simply dies —
        motivating the overlapping construction."""
        sim = build_protocol_network(net)
        rng = np.random.default_rng(9)
        pts = list(net.points())
        src = pts[0]
        # fail the owner of the target
        tgt = 0.555
        sim.failed.add(net.segments.cover_point(tgt))
        out = run_protocol_lookup(sim, net, src, tgt, rng, "recursive")
        assert not out.done


def _queries(net, count, seed):
    rng = np.random.default_rng(seed)
    pts = list(net.points())
    return [(pts[int(rng.integers(net.n))], float(rng.random()))
            for _ in range(count)]


def _link(a, b):
    """A fixed, uneven per-link delay of 1–7 (sums of it are exact)."""
    return float(1 + (3 * int(a * 2**20) + int(b * 2**20)) % 7)


class _BadDigits:
    """A digit source that hands out 5, out of range at Δ = 2."""

    def integers(self, low, high):
        return 5


def _a_query_that_draws_digits(net):
    """Over one hop: phase I took a digit before the hand-off."""
    return next((s, t) for s, t in _queries(net, 40, 15)
                if run_protocol_lookup(build_protocol_network(net), net, s, t,
                                       np.random.default_rng(0)).hops > 1)


class TestConcurrentLookups:
    """Many lookups in flight on one network, their messages interleaved."""

    @pytest.mark.parametrize("style", ["recursive", "iterative"])
    def test_all_reach_their_owner(self, net, style):
        delay = np.random.default_rng(10)
        sim = build_protocol_network(
            net, latency=lambda a, b: float(delay.exponential()))
        queries = _queries(net, 100, 11)
        rngs = [np.random.default_rng(k) for k in range(100)]
        outs = run_protocol_lookups(sim, net, queries, rngs, style)
        for (_, target), out in zip(queries, outs):
            assert out.done and out.target == target
            assert out.owner == out.path[-1] == net.segments.cover_point(target)

    @pytest.mark.parametrize("style", ["recursive", "iterative"])
    def test_message_counts_add_up_to_the_deliveries(self, net, style):
        sim = build_protocol_network(net)
        outs = run_protocol_lookups(
            sim, net, _queries(net, 50, 12),
            [np.random.default_rng(k) for k in range(50)], style)
        assert all(out.done for out in outs)
        assert sum(out.messages for out in outs) == sim.delivered

    @pytest.mark.parametrize("style", ["recursive", "iterative"])
    def test_latency_counts_from_each_injection(self, net, style):
        """Per-link delays on a reused network: each lookup reads the sum
        of its own messages' delays, not the loop's clock."""
        sim = build_protocol_network(net, latency=_link)
        for seed in (13, 14):
            queries = _queries(net, 20, seed)
            outs = run_protocol_lookups(
                sim, net, queries,
                [np.random.default_rng(k) for k in range(20)], style)
            for out in outs:
                first, *rest = out.path
                if style == "recursive":  # done when the owner is reached
                    hops = zip(out.path, rest)
                else:
                    hops = [(first, first)] + [(first, p) for p in rest] + [
                        (p, first) for p in rest]
                assert out.completed_at == _link(first, first) + sum(
                    _link(a, b) for a, b in hops), out.path
        assert sim.loop.now > 0

    @pytest.mark.parametrize("style", ["recursive", "iterative"])
    def test_bad_digit_raises_instead_of_hanging(self, net, style):
        source, target = _a_query_that_draws_digits(net)
        with pytest.raises(ValueError,
                           match=r"digit must be an int in \[0, 2\), got 5"):
            run_protocol_lookup(build_protocol_network(net), net, source,
                                target, _BadDigits(), style)

    def test_good_lookups_complete_beside_a_bad_one(self, net, sim):
        """The bad lookup's error stops the loop, not the network: the
        next batch runs beside the messages the first one left queued,
        and each of its lookups still reads its own latency."""
        good = _queries(net, 20, 16)
        rngs = [np.random.default_rng(k) for k in range(20)]
        with pytest.raises(ValueError, match="got 5"):
            run_protocol_lookups(sim, net, [_a_query_that_draws_digits(net)]
                                 + good, [_BadDigits()] + rngs)
        outs = run_protocol_lookups(sim, net, good,
                                    [np.random.default_rng(k) for k in range(20)])
        for (_, target), out in zip(good, outs):
            assert out.done and out.owner == net.segments.cover_point(target)
            assert out.completed_at == out.hops + 1

    def test_a_dropped_lookup_does_not_stop_the_others(self, net):
        """Messages of one lookup vanish mid-route; that lookup stays
        undone, every other one completes, and its retry does too."""
        queries = [(s, t) for s, t in _queries(net, 30, 17)
                   if net.segments.cover_point(s) != net.segments.cover_point(t)]
        victim = queries[0][1]
        sim = build_protocol_network(
            net, drop_rule=lambda msg: (msg.sender != msg.recipient
                                        and msg.payload.outcome.target == victim))
        outs = run_protocol_lookups(
            sim, net, queries,
            [np.random.default_rng(k) for k in range(len(queries))])
        assert not outs[0].done and sim.dropped == 1
        for (_, target), out in zip(queries[1:], outs[1:]):
            assert out.done and out.owner == net.segments.cover_point(target)
        sim.drop_rule = None
        again = run_protocol_lookup(sim, net, *queries[0],
                                    np.random.default_rng(0))
        assert again.done and again.owner == net.segments.cover_point(victim)

    def test_an_empty_batch_sends_nothing(self, net, sim):
        assert run_protocol_lookups(sim, net, [], []) == []
        assert sim.delivered == sim.loop.events_run == 0
