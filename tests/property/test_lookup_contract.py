"""One node step, one transport: the scalar runtimes agree, and with their parents.

:mod:`repro.core.lookup` is the single home of the forward search
(:func:`approach_walk`), the §2.2.2 step (:class:`DhHeader`,
:func:`dh_step`) and the local view (:class:`LocalView`); ``dh_lookup``
and the discrete-event protocol (recursive and iterative) are three
drivers of the one step.  This module pins

* the three drivers to each other — server path, owner, hops, message
  counts, latency — for the same digit source, on adversarial point
  sets, tiny networks, exact ``Fraction`` ids and the float-boundary
  hand-off, and with many lookups in flight under a random latency
  (§2.2 fn. 4: no implied assumption of synchrony);
* ``fast_lookup`` / ``dh_lookup`` / ``canonical_path`` / the message
  twins to the functions they replaced, kept **verbatim** as oracles in
  :mod:`oracles.lookup` (``parent_*``: the private copies of the commit
  before the fold — the forward search twice, the hop rule three times,
  the local cover twice);
* the step cap that used to differ per copy (the other two error rules —
  non-finite points, an exhausted pinned ``τ`` — are pinned over the
  public entry points in ``tests/sim/test_lookup_errors.py``);
* the single home itself, with a stdlib-``ast`` guard.
"""

import ast
import dataclasses
import pathlib
from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles.inputs import joined, point_sets, populated, unit
from oracles.lookup import (
    parent_canonical_path,
    parent_dh_lookup,
    parent_fast_lookup,
    parent_protocol_path,
    verify_adjacent,
)

import repro
from repro.core import DistanceHalvingNetwork, dh_lookup, fast_lookup
from repro.core.debruijn import equally_spaced_network
from repro.core.interval import Arc
from repro.core.lookup import MAX_WALK_STEPS, DhHeader, LocalView, dh_step
from repro.faults import OverlappingDHNetwork, canonical_path
from repro.sim.protocol import (
    DHProtocolNode,
    build_protocol_network,
    run_protocol_lookup,
    run_protocol_lookups,
)


# ------------------------------------------------------------ the one property
def outcome_of(call):
    """``("ok", value)`` or ``("raised", type)`` — runtimes must fail alike too."""
    try:
        return "ok", call()
    except (RuntimeError, OverflowError, ValueError) as exc:
        return "raised", type(exc)


def assert_runtimes_agree(net, source, target, seed):
    """dh_lookup ≡ recursive ≡ iterative ≡ their parents on one lookup.

    The digit source is ``default_rng(seed)`` for every runtime (each
    draws one digit per phase-I step, in order).  Each style routes the
    lookup twice on one network: the second run's latency is its own,
    not the loop's clock.
    """
    def fresh():
        return np.random.default_rng(seed)

    kind, ref = outcome_of(lambda: dh_lookup(net, source, target, fresh()))
    assert (kind, ref) == outcome_of(
        lambda: parent_dh_lookup(net, source, target, fresh()))
    for style in ("recursive", "iterative"):
        sim = build_protocol_network(net)
        for _ in range(2):
            got_kind, out = outcome_of(lambda: run_protocol_lookup(
                sim, net, source, target, fresh(), style))
            if kind == "raised":
                assert (got_kind, out) == (kind, ref), style
                break
            assert out.done and out.path == ref.server_path, style
            assert (out.owner, out.hops) == (ref.owner, ref.hops), style
            assert out.target == ref.target
            # inject + one per hop + reply / inject + (probe, reply) per
            # server − the reply the last probe-reply stands in for: what
            # X2 reports
            assert out.messages == (ref.hops + 2 if style == "recursive"
                                    else 2 * ref.hops + 2), style
            assert out.completed_at == (ref.hops + 1 if style == "recursive"
                                        else 2 * ref.hops + 2), style
    if kind == "raised":
        return None
    # pinned to exactly the digits taken: nobody asks for one more
    tau = list(ref.phase2_digits)
    assert dh_lookup(net, source, target, None, tau=tau) == ref
    assert parent_protocol_path(net, source, target, fresh()) == ref.server_path
    assert ref.server_path[-1] == ref.owner == net.segments.cover_point(target)
    return ref


class TestRuntimesAgree:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]),
           with_ring=st.booleans(), seed=st.integers(0, 2**32 - 1),
           target=unit)
    def test_adversarial_point_sets(self, points, delta, with_ring, seed,
                                    target):
        net = joined(points, delta, with_ring)
        rng = np.random.default_rng(seed)
        source = float(points[int(rng.integers(points.size))])
        assert_runtimes_agree(net, source, target, seed)
        # a target on an id point reaches the deepest levels
        assert_runtimes_agree(net, float(rng.random()), float(points[0]), seed)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(2, 48), seed=st.integers(0, 2**31), target=unit)
    @example(n=45, seed=4031, target=1 - 2**-53)  # the float-boundary hand-off
    def test_random_networks(self, n, seed, target):
        rng = np.random.default_rng(seed)
        net = populated(n, rng)
        source = list(net.points())[int(rng.integers(n))]
        ref = assert_runtimes_agree(net, source, target, seed)
        assert ref is not None and verify_adjacent(ref, net)

    @pytest.mark.parametrize("delta", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_networks(self, n, delta):
        rng = np.random.default_rng(10 * n + delta)
        net = populated(n, rng, delta)
        for k, source in enumerate(net.points()):
            for target in (0.0, float(rng.random()), 1 - 2**-53, source):
                assert assert_runtimes_agree(net, source, target, k) is not None

    def test_exact_debruijn_ids(self):
        """``Fraction`` ids ``i/32``: every comparison in the step is exact."""
        net = equally_spaced_network(5)
        rng = np.random.default_rng(32)
        points = list(net.points())
        for k in range(32):
            source = points[int(rng.integers(32))]
            target = float(points[k]) if k % 4 == 0 else float(rng.random())
            assert assert_runtimes_agree(net, source, target, k) is not None


class TestNoSynchronyAssumed:
    """§2.2 fn. 4 on the event loop: many lookups in flight at once, each
    message delayed at random, and every lookup still routes as
    ``dh_lookup`` does on its own digits."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]),
           with_ring=st.booleans(), seed=st.integers(0, 2**32 - 1),
           k=st.integers(8, 24), style=st.sampled_from(["recursive",
                                                        "iterative"]))
    def test_random_latency_changes_no_route(self, points, delta, with_ring,
                                             seed, k, style):
        net = joined(points, delta, with_ring)
        rng = np.random.default_rng(seed)
        queries = [(float(points[int(rng.integers(points.size))]),
                    float(rng.random())) for _ in range(k)]
        seeds = [int(s) for s in rng.integers(2**32, size=k)]
        delay = np.random.default_rng(seed + 1)
        sim = build_protocol_network(
            net, latency=lambda a, b: float(delay.exponential()))
        outs = run_protocol_lookups(
            sim, net, queries, [np.random.default_rng(s) for s in seeds], style)
        for (source, target), s, out in zip(queries, seeds, outs):
            ref = dh_lookup(net, source, target, np.random.default_rng(s))
            assert out.done and out.path == ref.server_path
            assert (out.owner, out.hops) == (ref.owner, ref.hops)


class TestAgainstTheParents:
    """Field for field: the fold changed no value of any result."""

    @settings(max_examples=60, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]),
           with_ring=st.booleans(), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(unit, max_size=4))
    def test_fast_and_dh_lookup(self, points, delta, with_ring, seed, extra):
        net = joined(points, delta, with_ring)
        rng = np.random.default_rng(seed)
        targets = [float(t) for t in rng.random(6)] + list(points[:3]) + extra
        tau = [int(d) for d in rng.integers(0, delta, size=40)]
        for target in targets:
            source = float(rng.random())
            assert outcome_of(lambda: fast_lookup(net, source, target)) == \
                outcome_of(lambda: parent_fast_lookup(net, source, target))
            # a 40-digit τ also runs out on the unsmooth sets: same error
            assert outcome_of(
                lambda: dh_lookup(net, source, target, None, tau=tau)
            ) == outcome_of(
                lambda: parent_dh_lookup(net, source, target, None, tau=tau))

    def test_lookup_result_fields_at_scale(self):
        rng = np.random.default_rng(5)
        net = populated(300, rng)
        points = list(net.points())
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(200):
            source, target = points[int(rng.integers(300))], float(rng.random())
            assert dataclasses.astuple(fast_lookup(net, source, target)) == \
                dataclasses.astuple(parent_fast_lookup(net, source, target))
            assert dataclasses.astuple(dh_lookup(net, source, target, a)) == \
                dataclasses.astuple(parent_dh_lookup(net, source, target, b))

    @pytest.mark.parametrize("n", [8, 9, 64, 256])
    def test_canonical_path(self, n):
        net = OverlappingDHNetwork(n, np.random.default_rng(n))
        rng = np.random.default_rng(n + 1)
        for k in range(100):
            source = net.points[int(rng.integers(n))]
            target = net.points[k % n] if k % 5 == 0 else float(rng.random())
            assert canonical_path(net, source, target) == \
                parent_canonical_path(net, source, target)


# ---------------------------------------------------------------- the step cap
@pytest.fixture(scope="module")
def net64():
    return populated(64, 99)


class TestOneStepCap:
    """The step cap lives in ``dh_step`` alone (the pinned-``τ`` rule and
    the entry check: ``tests/sim/test_lookup_errors.py``)."""

    def test_the_step_cap_is_the_oracles(self):
        """No cover anywhere ⇒ raise after digit 513, having tested 513 images.

        The message twins used to test once more, at ``t = 513``, and
        then report an error verdict instead of raising.
        """
        net = populated(8, 0)
        tested = []
        header = DhHeader.start(0.3, 0.7)
        with pytest.raises(RuntimeError, match="phase I failed to converge"):
            while True:
                dh_step(net.graph, header, tested.append,  # covers nothing
                        np.random.default_rng(1))
        assert header.t == MAX_WALK_STEPS + 1 == len(tested)

    def test_every_runtime_stops_at_the_one_cap(self, net64, monkeypatch):
        """Lower the cap: the three runtimes refuse the same lookups alike."""
        monkeypatch.setattr(repro.core.lookup, "MAX_WALK_STEPS", 2)
        points = list(net64.points())
        rng = np.random.default_rng(8)
        refused = 0
        for k in range(30):
            source, target = points[int(rng.integers(64))], float(rng.random())
            expect = outcome_of(lambda: dh_lookup(
                net64, source, target, np.random.default_rng(k)))
            refused += expect == ("raised", RuntimeError)
            for name, run in {
                "recursive": lambda: run_protocol_lookup(
                    build_protocol_network(net64), net64, source, target,
                    np.random.default_rng(k)).path,
                "iterative": lambda: run_protocol_lookup(
                    build_protocol_network(net64), net64, source, target,
                    np.random.default_rng(k), "iterative").path,
            }.items():
                kind, got = outcome_of(run)
                assert (kind, got) == (
                    expect if kind == "raised"
                    else ("ok", expect[1].server_path)), name
        assert 5 <= refused < 30


# -------------------------------------------------------------- one home each
SRC = pathlib.Path(repro.__file__).parent
WALK_PRIMITIVES = ("MAX_WALK_STEPS", "child", "approach_digits")


def walk_primitives_used(path: pathlib.Path) -> List[str]:
    """Names / attributes of the hop rule and forward search a module touches."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in WALK_PRIMITIVES:
            hits.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    return hits


class TestSingleHome:
    def test_transports_and_canonical_path_hold_no_walk_code(self):
        """``sim/`` (but the workload generators) and ``faults/lookup_ft.py``
        reach the hop rule and the forward search only through
        :mod:`repro.core.lookup`."""
        modules = [p for p in sorted((SRC / "sim").glob("*.py"))
                   if p.name != "workload.py"]
        modules.append(SRC / "faults" / "lookup_ft.py")
        assert len(modules) >= 8
        assert [h for p in modules for h in walk_primitives_used(p)] == []

    def test_the_guard_sees_what_it_guards(self):
        hits = walk_primitives_used(SRC / "core" / "lookup.py")
        assert {h.split()[-1] for h in hits} == set(WALK_PRIMITIVES)

    def test_the_transport_holds_one_local_view(self, net64):
        """"Routes with purely local state", enforced by the one type."""
        point = list(net64.points())[0]
        node = DHProtocolNode(point, net64)
        assert type(node.view) is LocalView
        routing_state = {k for k, v in vars(node).items()
                         if isinstance(v, (Arc, dict, DistanceHalvingNetwork))}
        assert routing_state == set(), routing_state
        view = LocalView(net64, point)
        assert set(view.neighbor_segments) == set(net64.neighbor_points(point))
        sim = build_protocol_network(net64)
        assert all(type(s.view) is LocalView for s in sim.nodes.values())
