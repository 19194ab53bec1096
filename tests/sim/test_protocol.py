"""Tests for the message-level lookup protocol (iterative vs recursive)."""

import math

import numpy as np
import pytest
from oracles.inputs import populated

from repro.balance import MultipleChoice
from repro.sim.protocol import build_protocol_network, run_protocol_lookup


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
        for k in range(40):
            src = pts[int(rng.integers(net.n))]
            tgt = float(rng.random())
            out = run_protocol_lookup(sim, net, src, tgt, rng, "recursive", k)
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
        for k in range(30):
            src = pts[int(rng.integers(net.n))]
            out = run_protocol_lookup(sim, net, src, float(rng.random()), rng,
                                      "recursive", k)
            assert out.hops <= bound


class TestIterative:
    def test_reaches_owner(self, net, sim):
        rng = np.random.default_rng(4)
        pts = list(net.points())
        for k in range(40):
            src = pts[int(rng.integers(net.n))]
            tgt = float(rng.random())
            out = run_protocol_lookup(sim, net, src, tgt, rng, "iterative", k)
            assert out.done
            assert out.owner == net.segments.cover_point(tgt)

    def test_costs_about_double_messages(self, net, sim):
        """Footnote 1's iterative-vs-recursive difference, measured."""
        rng = np.random.default_rng(5)
        pts = list(net.points())
        rec = it = 0
        for k in range(40):
            src = pts[int(rng.integers(net.n))]
            tgt = float(rng.random())
            rec += run_protocol_lookup(sim, net, src, tgt, rng, "recursive", k).messages
            it += run_protocol_lookup(sim, net, src, tgt, rng, "iterative", k).messages
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
