"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventLoop, SimNetwork, SimNode


class Echo(SimNode):
    """Replies 'pong' to every 'ping'."""

    def on_message(self, msg):
        if msg.payload == "ping":
            self.send(msg.sender, "pong")


class Recorder(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.log = []

    def on_message(self, msg):
        self.log.append((self.network.loop.now, msg.sender, msg.payload))


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        out = []
        loop.schedule(3.0, lambda: out.append("c"))
        loop.schedule(1.0, lambda: out.append("a"))
        loop.schedule(2.0, lambda: out.append("b"))
        loop.run()
        assert out == ["a", "b", "c"]

    def test_ties_broken_by_schedule_order(self):
        loop = EventLoop()
        out = []
        loop.schedule(1.0, lambda: out.append(1))
        loop.schedule(1.0, lambda: out.append(2))
        loop.run()
        assert out == [1, 2]

    def test_now_advances(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [5.0]

    def test_until_limit(self):
        loop = EventLoop()
        out = []
        loop.schedule(1.0, lambda: out.append(1))
        loop.schedule(10.0, lambda: out.append(2))
        loop.run(until=5.0)
        assert out == [1]
        assert len(loop._heap) == 1  # the later event still queued

    def test_nested_scheduling(self):
        loop = EventLoop()
        out = []

        def first():
            out.append("first")
            loop.schedule(1.0, lambda: out.append("second"))

        loop.schedule(1.0, first)
        loop.run()
        assert out == ["first", "second"]
        assert loop.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, lambda: None)


class TestSimNetwork:
    def test_ping_pong(self):
        net = SimNetwork()
        net.add_node(Echo("a"))
        rec = net.add_node(Recorder("b"))
        net.nodes["b"].send("a", "ping")
        net.run()
        assert rec.log == [(2.0, "a", "pong")]

    def test_duplicate_node_rejected(self):
        net = SimNetwork()
        net.add_node(Echo("a"))
        with pytest.raises(ValueError):
            net.add_node(Echo("a"))

    def test_custom_latency(self):
        net = SimNetwork(latency=lambda a, b: 7.0)
        rec = net.add_node(Recorder("b"))
        net.add_node(Echo("a"))
        net.nodes["a"].send("b", "x")
        net.run()
        assert rec.log[0][0] == 7.0

    def test_unknown_recipient_refused(self):
        net = SimNetwork()
        net.add_node(Echo("a"))
        with pytest.raises(KeyError, match="ghost"):
            net.nodes["a"].send("ghost", "x")

    def test_counters(self):
        net = SimNetwork()
        net.add_node(Echo("a"))
        rec = net.add_node(Recorder("b"))
        net.nodes["b"].send("a", "ping")
        net.run()
        assert net.nodes["b"].sent == 1
        assert net.nodes["a"].received == 1
        assert net.delivered == 2  # ping + pong
