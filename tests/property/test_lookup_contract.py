"""One node step, two transports: the scalar runtimes agree, and with their parents.

:mod:`repro.core.lookup` is the single home of the forward search
(:func:`approach_walk`), the §2.2.2 step (:class:`DhHeader`,
:func:`dh_step`) and the local view (:class:`LocalView`); ``dh_lookup``,
the discrete-event protocol (recursive and iterative) and the asyncio
fabric are four drivers of the one step.  This module pins

* the four drivers to each other — server path, owner, hops, message
  counts — for the same digit source, on adversarial point sets, tiny
  networks, exact ``Fraction`` ids and the float-boundary hand-off;
* ``fast_lookup`` / ``dh_lookup`` / ``canonical_path`` / the message
  twins to the functions they replaced, kept here **verbatim** as
  oracles (``parent_*``: the private copies of the commit before the
  fold — the forward search twice, the hop rule three times, the local
  cover twice);
* the step cap that used to differ per copy (the other two error rules —
  non-finite points, an exhausted pinned ``τ`` — are pinned over the
  public entry points in ``tests/sim/test_lookup_errors.py``);
* the single home itself, with a stdlib-``ast`` guard.
"""

import ast
import asyncio
import dataclasses
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_cover_index import point_sets, unit
from test_descent_parity import network

import repro
from repro.core import DistanceHalvingNetwork, dh_lookup, fast_lookup
from repro.core.continuous import Digits
from repro.core.debruijn import equally_spaced_network
from repro.core.interval import Arc, normalize
from repro.core.lookup import (
    MAX_WALK_STEPS,
    DhHeader,
    LocalView,
    LookupResult,
    compress_path,
    dh_step,
)
from repro.faults import OverlappingDHNetwork, canonical_path
from repro.sim.asyncnet import AsyncDHNetwork, AsyncServer, run_async_lookups
from repro.sim.protocol import (
    DHProtocolNode,
    build_protocol_network,
    run_protocol_lookup,
)


# ------------------------------------------------- the parent's code, verbatim
def parent_fast_lookup(net, source_point, target) -> LookupResult:
    g = net.graph
    y = normalize(float(target))
    src = normalize(float(source_point))
    # the lookup is initiated by the server covering the source point
    seg = net.segments.segment_of(net.segments.cover_point(src))
    z = seg.midpoint

    # Step 1: minimal t with w(σ(z)_t, y) ∈ s(V).  (Claim 2.4: distance to z
    # after t steps is ≤ Δ^-t, so t ≈ -log |s(V)| suffices.)
    t = 0
    digits: Digits = ()
    while t <= MAX_WALK_STEPS:
        digits = g.approach_digits(z, t)
        if g.walk(digits, y) in seg:
            break
        t += 1
    else:  # pragma: no cover - MAX_WALK_STEPS is far beyond any theorem bound
        raise RuntimeError("fast_lookup failed to converge; degenerate segment?")

    # Step 2: move backwards along b edges; the point after k backward steps
    # is w(digits[:t-k], y), computed in closed form for numeric stability.
    continuous = [g.walk(digits[:j], y) for j in range(t, -1, -1)]
    servers = compress_path([net.segments.cover_point(p) for p in continuous])
    return LookupResult(
        target=y,
        owner=net.segments.cover_point(y),
        server_path=servers,
        continuous_path=continuous,
        t=t,
        phase2_digits=digits,
    )


def parent_dh_lookup(net, source_point, target, rng, tau=None) -> LookupResult:
    g = net.graph
    y = normalize(float(target))
    src = normalize(float(source_point))

    def digit(i: int) -> int:
        if tau is not None:
            if i >= len(tau):
                raise ValueError("supplied tau exhausted before lookup finished")
            return int(tau[i])
        return int(rng.integers(0, g.delta))

    taus: List[int] = []
    pos = src          # w(τ_t, x_i) — message position, forward-stable
    image = y          # w(τ_t, y)  — target image moving with the message
    t = 0
    phase1_servers: List[float] = [net.segments.cover_point(src)]

    while t <= MAX_WALK_STEPS:
        cur = phase1_servers[-1]
        if image in net.segments.segment_of(cur):
            break
        neigh = net.neighbor_points(cur)
        holder = net.segments.cover_point(image)
        if holder in neigh:
            phase1_servers.append(holder)
            break
        d = digit(t)
        taus.append(d)
        t += 1
        pos = g.child(pos, d)
        # the closed form phase II starts from: stepping child(image, d)
        # instead can round to 1.0, fold to 0.0 and stay there, so the
        # hand-off would test another point than phase II descends from
        image = g.walk(taus, y)
        phase1_servers.append(net.segments.cover_point(pos))
    else:  # pragma: no cover
        raise RuntimeError("dh_lookup phase I failed to converge")

    # Phase II: from w(τ_t, y) backwards to y, deleting the last digit each
    # step (paper: "each step the server handling the message deletes the
    # last bit in τ").  Closed-form recomputation per step.
    digits = tuple(taus)
    continuous_back = [g.walk(digits[:j], y) for j in range(len(digits), -1, -1)]
    phase2_servers = [net.segments.cover_point(p) for p in continuous_back]

    servers = compress_path(phase1_servers + phase2_servers)
    continuous = [g.walk(digits[:j], src) for j in range(len(digits) + 1)]
    continuous += continuous_back
    return LookupResult(
        target=y,
        owner=net.segments.cover_point(y),
        server_path=servers,
        continuous_path=continuous,
        t=t,
        phase2_digits=digits,
        phase1_hops=max(0, len(compress_path(phase1_servers)) - 1),
    )


def parent_canonical_path(net, source, target) -> List[float]:
    g = net.graph
    y = normalize(float(target))
    a, b = net.segment_of(source)
    seg_len = (b - a) % 1.0
    z = (a + seg_len / 2.0) % 1.0

    def in_segment(p: float) -> bool:
        return (p - a) % 1.0 <= seg_len

    t = 0
    digits: Digits = ()
    while t <= MAX_WALK_STEPS:
        digits = g.approach_digits(z, t)
        if in_segment(g.walk(digits, y)):
            break
        t += 1
    else:  # pragma: no cover
        raise RuntimeError("canonical path failed to converge")
    return [g.walk(digits[:j], y) for j in range(t, -1, -1)]


class ParentProtocolNode:
    """``sim/protocol.py``'s node before the fold: its own cover, its own rule."""

    def __init__(self, point, net):
        self.point = point
        self.segment: Arc = net.segments.segment_of(point)
        self.graph = net.graph
        self._seg_of: Dict[float, Arc] = {
            q: net.segments.segment_of(q) for q in net.neighbor_points(point)
        }

    def local_cover(self, y: float) -> Optional[float]:
        if y in self.segment:
            return self.point
        for q, seg in self._seg_of.items():
            if y in seg:
                return q
        return None

    def next_step(self, state: dict, rng: np.random.Generator
                  ) -> Tuple[str, Optional[float], dict]:
        g = self.graph
        st = dict(state)
        if st["phase"] == 1:
            holder = self.local_cover(st["image"])
            if holder == self.point:
                st["phase"] = 2
                return self.next_step(st, rng)
            if holder is not None:
                st["phase"] = 2
                return "forward", holder, st
            if st["t"] > MAX_WALK_STEPS:  # pragma: no cover
                return "error", None, st
            d = int(rng.integers(0, g.delta))
            st["tau"] = st["tau"] + [d]
            st["t"] += 1
            st["position"] = g.child(st["position"], d)
            # closed form, as phase 2 recomputes it (see core.lookup.dh_lookup)
            st["image"] = g.walk(tuple(st["tau"]), st["target"])
            nxt = self.local_cover(st["position"])
            if nxt is None:  # pragma: no cover
                return "error", None, st
            if nxt == self.point:
                return self.next_step(st, rng)
            return "forward", nxt, st
        # phase 2: strip digits walking back to the target
        if st["t"] == 0:
            return "done", None, st
        st["t"] -= 1
        back = g.walk(tuple(st["tau"][: st["t"]]), st["target"])
        nxt = self.local_cover(back)
        if nxt is None:  # pragma: no cover
            return "error", None, st
        if nxt == self.point:
            return self.next_step(st, rng)
        return "forward", nxt, st


@dataclass
class ParentAsyncMessage:
    target: float
    source_point: float
    tau: List[int] = field(default_factory=list)
    t: int = 0
    phase: int = 1
    position: float = 0.0          # current w(τ_t, x_i) (phase I)
    image: float = 0.0             # current w(τ_t, y)  (phase I)
    path: List[float] = field(default_factory=list)
    done: "asyncio.Future[List[float]]" = None  # type: ignore[assignment]


class ParentAsyncServer:
    """``sim/asyncnet.py``'s server before the fold (``_route`` verbatim)."""

    def __init__(self, point, net):
        self.point = point
        self.segment: Arc = net.segments.segment_of(point)
        self.neighbors: List[float] = net.neighbor_points(point)
        self.graph = net.graph
        self._seg_of: Dict[float, Arc] = {
            q: net.segments.segment_of(q) for q in self.neighbors
        }

    def _local_cover(self, y: float) -> Optional[float]:
        if y in self.segment:
            return self.point
        for q, seg in self._seg_of.items():
            if y in seg:
                return q
        return None

    async def _route(self, msg, fabric) -> None:
        g = self.graph
        if msg.phase == 1:
            # phase I termination test: w(τ_t, y) covered here or next door
            holder = self._local_cover(msg.image)
            if holder == self.point:
                msg.phase = 2
                await self._route(msg, fabric)
                return
            if holder is not None:
                msg.phase = 2
                await fabric.send(holder, msg)
                return
            if msg.t > MAX_WALK_STEPS:  # pragma: no cover - safety valve
                msg.done.set_exception(RuntimeError("phase I diverged"))
                return
            d = int(fabric.rng.integers(0, g.delta)) if msg.t >= len(msg.tau) else msg.tau[msg.t]
            if msg.t >= len(msg.tau):
                msg.tau.append(d)
            msg.t += 1
            msg.position = g.child(msg.position, d)
            # closed form, as phase II recomputes it (see core.lookup.dh_lookup)
            msg.image = g.walk(tuple(msg.tau[: msg.t]), msg.target)
            nxt = self._local_cover(msg.position)
            if nxt is None:  # neighbour tables stale — cannot happen when static
                msg.done.set_exception(RuntimeError("routing hole"))
                return
            if nxt == self.point:
                await self._route(msg, fabric)
            else:
                await fabric.send(nxt, msg)
        else:
            # phase II: walk backwards deleting the last digit of τ each hop.
            # Termination only at depth 0 (the cover of y itself) keeps the
            # path identical to the deterministic reference implementation.
            if msg.t == 0:
                msg.done.set_result(msg.path)
                return
            msg.t -= 1
            nxt_point = g.walk(tuple(msg.tau[: msg.t]), msg.target)
            nxt = self._local_cover(nxt_point)
            if nxt is None:
                msg.done.set_exception(RuntimeError("phase II hole"))
                return
            if nxt == self.point:
                await self._route(msg, fabric)
            else:
                await fabric.send(nxt, msg)


# ---------------------------------------------------- drivers for the oracles
def parent_protocol_path(net, source, target, rng) -> List[float]:
    """Drive ``next_step`` hop by hop; the server path (the parent sent
    hops + 2 messages for it recursively, 2·hops + 2 iteratively)."""
    nodes = {p: ParentProtocolNode(p, net) for p in net.segments}
    src, tgt = normalize(float(source)), normalize(float(target))
    state = {"phase": 1, "t": 0, "tau": [], "position": src, "image": tgt,
             "target": tgt}
    path = [net.segments.cover_point(src)]
    while True:
        verdict, nxt, state = nodes[path[-1]].next_step(state, rng)
        if verdict != "forward":
            assert verdict == "done"
            return path
        path.append(nxt)


def parent_async_path(net, source, target, tau, rng) -> List[float]:
    """Drive ``_route`` with an in-order queue in place of the task inboxes."""
    servers = {p: ParentAsyncServer(p, net) for p in net.segments}

    class Fabric:
        def __init__(self):
            self.rng, self.queue = rng, []

        async def send(self, recipient, msg):
            self.queue.append((recipient, msg))

    async def main():
        fabric = Fabric()
        src, tgt = normalize(float(source)), normalize(float(target))
        msg = ParentAsyncMessage(
            target=tgt, source_point=src, tau=list(tau), position=src,
            image=tgt, done=asyncio.get_running_loop().create_future())
        await fabric.send(net.segments.cover_point(src), msg)
        while fabric.queue:
            recipient, msg = fabric.queue.pop(0)
            msg.path.append(recipient)
            await servers[recipient]._route(msg, fabric)
        return await msg.done

    return asyncio.run(main())


# ------------------------------------------------------------ the one property
def outcome_of(call):
    """``("ok", value)`` or ``("raised", type)`` — runtimes must fail alike too."""
    try:
        return "ok", call()
    except (RuntimeError, OverflowError, ValueError) as exc:
        return "raised", type(exc)


def assert_runtimes_agree(net, source, target, seed):
    """dh_lookup ≡ recursive ≡ iterative ≡ asyncio ≡ their parents on one lookup.

    The digit source is ``default_rng(seed)`` for every rng-driven
    runtime (each draws one digit per phase-I step, in order) and the
    digits ``dh_lookup`` took, pinned, for the asyncio fabric.
    """
    def fresh():
        return np.random.default_rng(seed)

    kind, ref = outcome_of(lambda: dh_lookup(net, source, target, fresh()))
    assert (kind, ref) == outcome_of(
        lambda: parent_dh_lookup(net, source, target, fresh()))
    for style in ("recursive", "iterative"):
        sim = build_protocol_network(net)
        got_kind, out = outcome_of(lambda: run_protocol_lookup(
            sim, net, source, target, fresh(), style))
        if kind == "raised":
            assert (got_kind, out) == (kind, ref), style
            continue
        assert out.done and out.path == ref.server_path, style
        assert (out.owner, out.hops) == (ref.owner, ref.hops), style
        assert out.target == ref.target
        # inject + one per hop + reply / inject + (probe, reply) per server
        # − the reply the last probe-reply stands in for: what X2 reports
        assert out.messages == (ref.hops + 2 if style == "recursive"
                                else 2 * ref.hops + 2), style
        assert out.completed_at == (ref.hops + 1 if style == "recursive"
                                    else 2 * ref.hops + 2), style
    got = outcome_of(lambda: run_async_lookups(net, [(source, target)],
                                               fresh()))
    if kind == "raised":
        assert got == (kind, ref)
        return None
    assert got == ("ok", [ref.server_path])
    # pinned to exactly the digits taken: nobody asks for one more
    tau = list(ref.phase2_digits)
    assert run_async_lookups(net, [(source, target)], None,
                             taus=[tau]) == [ref.server_path]
    assert dh_lookup(net, source, target, None, tau=tau) == ref
    assert parent_protocol_path(net, source, target, fresh()) == ref.server_path
    assert parent_async_path(net, source, target, tau, None) == ref.server_path
    assert parent_async_path(net, source, target, [], fresh()) == ref.server_path
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
        net = network(points, delta, with_ring)
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
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(n)
        source = list(net.points())[int(rng.integers(n))]
        ref = assert_runtimes_agree(net, source, target, seed)
        assert ref is not None and ref.verify_adjacent(net)

    @pytest.mark.parametrize("delta", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_networks(self, n, delta):
        rng = np.random.default_rng(10 * n + delta)
        net = DistanceHalvingNetwork(delta=delta, rng=rng)
        net.populate(n)
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


class TestAgainstTheParents:
    """Field for field: the fold changed no value of any result."""

    @settings(max_examples=60, deadline=None)
    @given(points=point_sets(), delta=st.sampled_from([2, 3, 4]),
           with_ring=st.booleans(), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(unit, max_size=4))
    def test_fast_and_dh_lookup(self, points, delta, with_ring, seed, extra):
        net = network(points, delta, with_ring)
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
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(300)
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
    net = DistanceHalvingNetwork(rng=np.random.default_rng(99))
    net.populate(64)
    return net


class TestOneStepCap:
    """The step cap lives in ``dh_step`` alone (the pinned-``τ`` rule and
    the entry check: ``tests/sim/test_lookup_errors.py``)."""

    def test_the_step_cap_is_the_oracles(self):
        """No cover anywhere ⇒ raise after digit 513, having tested 513 images.

        The message twins used to test once more, at ``t = 513``, and
        then report an error verdict instead of raising.
        """
        net = DistanceHalvingNetwork(rng=np.random.default_rng(0))
        net.populate(8)
        tested = []
        header = DhHeader.start(0.3, 0.7)
        with pytest.raises(RuntimeError, match="phase I failed to converge"):
            while True:
                dh_step(net.graph, header, tested.append,  # covers nothing
                        np.random.default_rng(1))
        assert header.t == MAX_WALK_STEPS + 1 == len(tested)

    def test_every_runtime_stops_at_the_one_cap(self, net64, monkeypatch):
        """Lower the cap: the four runtimes refuse the same lookups alike."""
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
                "asyncio": lambda: run_async_lookups(
                    net64, [(source, target)], np.random.default_rng(k))[0],
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
        assert len(modules) >= 9
        assert [h for p in modules for h in walk_primitives_used(p)] == []

    def test_the_guard_sees_what_it_guards(self):
        hits = walk_primitives_used(SRC / "core" / "lookup.py")
        assert {h.split()[-1] for h in hits} == set(WALK_PRIMITIVES)

    def test_both_transports_hold_one_local_view(self, net64):
        """"Routes with purely local state", enforced by the one type."""
        point = list(net64.points())[0]
        for node in (DHProtocolNode(point, net64), AsyncServer(point, net64)):
            assert type(node.view) is LocalView
            routing_state = {k for k, v in vars(node).items()
                             if isinstance(v, (Arc, dict, DistanceHalvingNetwork))}
            assert routing_state == set(), routing_state
        view = LocalView(net64, point)
        assert set(view.neighbor_segments) == set(net64.neighbor_points(point))
        fabric = AsyncDHNetwork(net64, np.random.default_rng(0))
        assert all(type(s.view) is LocalView for s in fabric.servers.values())
