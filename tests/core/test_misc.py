"""Edge-case coverage: small helpers and error paths across core modules."""

import pickle
import tracemalloc

import numpy as np
import pytest
from oracles.inputs import joined, populated

from repro.balance import MultipleChoice
from repro.core import DistanceHalvingNetwork, dh_lookup, fast_lookup
from repro.core.lookup import LookupResult
from repro.core.node import Server
from repro.core.segments import SegmentMap
from repro.sim.engine import EventLoop


class TestServer:
    def test_default_name_from_point(self):
        s = Server(point=0.125)
        assert s.name == "server@0.125000"

    def test_explicit_name(self):
        s = Server(point=0.5, name="x")
        assert s.name == "x"
        s.name = "y"
        assert s.name == "y"

    def test_hashable_by_point(self):
        assert hash(Server(point=0.25)) == hash(Server(point=0.25, name="other"))
        assert hash(Server(point=0.25)) == hash(0.25)

    def test_equality_compares_point_name_and_store(self):
        assert Server(point=0.25) == Server(point=0.25)
        assert Server(point=0.25) != Server(point=0.25, name="other")
        assert Server(point=0.25) != Server(point=0.5)
        s = Server(point=0.25)
        s.store["k"] = (0.3, 1)
        assert s != Server(point=0.25)
        assert Server(point=0.25) != 0.25

    def test_repr(self):
        assert repr(Server(point=0.5)) == (
            "Server(point=0.5, name='server@0.500000', store={})")

    def test_pickle_round_trip(self):
        for s in (Server(point=0.75), Server(point=0.25, name="x")):
            s.store["k"] = (0.8, "v")
            back = pickle.loads(pickle.dumps(s))
            assert back == s and back.name == s.name and back.store == s.store

    def test_one_store_per_server_and_no_instance_dict(self):
        a, b = Server(point=0.1), Server(point=0.2)
        a.store["k"] = (0.15, 1)
        assert b.store == {} and a.store is not b.store
        assert not hasattr(a, "__dict__")
        with pytest.raises(AttributeError, match="messages_handled"):
            a.messages_handled

    def test_populate_holds_at_most_140_bytes_per_server(self):
        """The Server objects of populate(16384): object, store and name."""
        net = DistanceHalvingNetwork(rng=np.random.default_rng(3))
        tracemalloc.start()
        try:
            net.populate(16384, selector=MultipleChoice(t=4))
            before = tracemalloc.get_traced_memory()[0]
            for p in net.servers:  # same table, the Servers dropped
                net.servers[p] = None
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed / 16384 <= 140


class TestLookupResult:
    def test_hops_property(self):
        r = LookupResult(target=0.5, owner=0.4, server_path=[0.1, 0.4],
                         continuous_path=[], t=1)
        assert r.hops == 1

    def test_zero_hop_result(self):
        r = LookupResult(target=0.5, owner=0.4, server_path=[0.4],
                         continuous_path=[], t=0)
        assert r.hops == 0


class TestSegmentMapExtras:
    def test_as_array_dtype(self):
        sm = SegmentMap([0.5, 0.25])
        arr = sm.as_array()
        assert arr.dtype == np.float64
        assert list(arr) == [0.25, 0.5]

    def test_empty_analytics_raise(self):
        sm = SegmentMap()
        with pytest.raises(LookupError):
            sm.smoothness()
        with pytest.raises(LookupError):
            sm.min_segment_length()
        with pytest.raises(LookupError):
            sm.max_segment_length()
        with pytest.raises(LookupError):
            sm.covering_points(__import__("repro.core.interval", fromlist=["Arc"]).Arc(0.1, 0.2))

    def test_contains(self):
        sm = SegmentMap([0.5])
        assert 0.5 in sm
        assert 0.25 not in sm


class TestNetworkExtras:
    def test_servers_by_point_and_owner_of(self):
        net = DistanceHalvingNetwork()
        net.join(0.2)
        net.join(0.7)
        assert net.servers[0.2].point == 0.2
        assert net.owner_of(0.5).point == 0.2
        assert net.owner_of(0.9).point == 0.7

    def test_points_sorted_view(self):
        net = joined((0.9, 0.1, 0.5))
        assert list(net.points()) == [0.1, 0.5, 0.9]

    def test_average_degree_empty(self):
        assert DistanceHalvingNetwork().average_degree() == 0.0

    def test_lookup_from_non_server_point(self):
        """Sources may be arbitrary points; routing starts at their cover."""
        rng = np.random.default_rng(0)
        net = populated(32, rng)
        res = fast_lookup(net, 0.123456, 0.9)
        assert res.server_path[0] == net.segments.cover_point(0.123456)
        res2 = dh_lookup(net, 0.123456, 0.9, rng)
        assert res2.server_path[-1] == net.segments.cover_point(0.9)


class TestEngineExtras:
    def test_max_events_cap(self):
        loop = EventLoop()

        def reschedule():
            loop.schedule(1.0, reschedule)

        loop.schedule(1.0, reschedule)
        loop.run(max_events=25)
        assert loop.events_run == 25


class TestCliErrors:
    def test_failing_experiment_sets_exit_code(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.experiments import common

        def fake(seed=0, quick=False):
            return common.ExperimentResult("FAKE", "t", "c", checks={"x": False})

        monkeypatch.setitem(common._REGISTRY, "FAKE", fake)
        assert main(["run", "FAKE"]) == 1
