"""Asyncio runtime for the Distance Halving protocols.

The discrete-event engine (:mod:`repro.sim.engine`) gives deterministic
hop-count semantics; this module demonstrates the same node logic running
under genuine asynchrony — every server is an ``asyncio`` task with an
inbox queue, and a routed lookup is a message physically forwarded from
task to task using only each node's *local* routing state (its segment
and neighbour table), as a real deployment would.

The paper's remark (footnote 4): the analysis has "no implied assumption
of synchrony" — :func:`run_async_lookups` validates that by checking the
asynchronously-routed paths match the deterministic
:func:`repro.core.lookup.dh_lookup` paths digit-for-digit when given the
same ``τ`` strings.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.interval import Arc, normalize
from ..core.lookup import MAX_WALK_STEPS
from ..core.network import DistanceHalvingNetwork

__all__ = ["AsyncLookupMessage", "AsyncServer", "AsyncDHNetwork", "run_async_lookups"]


@dataclass
class AsyncLookupMessage:
    """Header of an in-flight lookup (paper §2.2.2's message header)."""

    target: float
    source_point: float
    tau: List[int] = field(default_factory=list)
    t: int = 0
    phase: int = 1
    position: float = 0.0          # current w(τ_t, x_i) (phase I)
    image: float = 0.0             # current w(τ_t, y)  (phase I)
    path: List[float] = field(default_factory=list)
    done: "asyncio.Future[List[float]]" = None  # type: ignore[assignment]


class AsyncServer:
    """One server task: local segment + neighbour table + inbox.

    Routing state is snapshotted from the discrete network at start-up —
    the async layer exercises message passing, not churn.
    """

    def __init__(self, point: float, net: DistanceHalvingNetwork):
        self.point = point
        self.segment: Arc = net.segments.segment_of(point)
        self.neighbors: List[float] = net.neighbor_points(point)
        self.graph = net.graph
        self._seg_of: Dict[float, Arc] = {
            q: net.segments.segment_of(q) for q in self.neighbors
        }
        self.inbox: "asyncio.Queue[AsyncLookupMessage]" = asyncio.Queue()
        self.handled = 0

    def _local_cover(self, y: float) -> Optional[float]:
        """Which of {self} ∪ neighbours covers ``y`` — local knowledge only."""
        if y in self.segment:
            return self.point
        for q, seg in self._seg_of.items():
            if y in seg:
                return q
        return None

    async def run(self, fabric: "AsyncDHNetwork") -> None:
        while True:
            msg = await self.inbox.get()
            if msg is None:  # type: ignore[comparison-overlap]
                break
            self.handled += 1
            msg.path.append(self.point)
            await self._route(msg, fabric)

    async def _route(self, msg: AsyncLookupMessage, fabric: "AsyncDHNetwork") -> None:
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


class AsyncDHNetwork:
    """Asyncio fabric over a (static snapshot of a) Distance Halving DHT."""

    def __init__(self, net: DistanceHalvingNetwork, rng: np.random.Generator,
                 latency: float = 0.0):
        self.net = net
        self.rng = rng
        self.latency = latency
        self.servers: Dict[float, AsyncServer] = {
            p: AsyncServer(p, net) for p in net.segments
        }
        self._tasks: List[asyncio.Task] = []

    async def send(self, recipient: float, msg: AsyncLookupMessage) -> None:
        if self.latency:
            await asyncio.sleep(self.latency)
        await self.servers[recipient].inbox.put(msg)

    async def start(self) -> None:
        for srv in self.servers.values():
            self._tasks.append(asyncio.create_task(srv.run(self)))

    async def stop(self) -> None:
        for srv in self.servers.values():
            await srv.inbox.put(None)  # type: ignore[arg-type]
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def lookup(self, source_point: float, target: float,
                     tau: Optional[Sequence[int]] = None) -> List[float]:
        """Route one lookup; resolves to the server path (id points)."""
        loop = asyncio.get_running_loop()
        src = normalize(float(source_point))
        msg = AsyncLookupMessage(
            target=normalize(float(target)),
            source_point=src,
            tau=list(tau) if tau is not None else [],
            position=src,
            image=normalize(float(target)),
            done=loop.create_future(),
        )
        await self.send(self.net.segments.cover_point(src), msg)
        return await msg.done


def run_async_lookups(
    net: DistanceHalvingNetwork,
    queries: Sequence[Tuple[float, float]],
    rng: np.random.Generator,
    taus: Optional[Sequence[Sequence[int]]] = None,
) -> List[List[float]]:
    """Route a batch of ``(source, target)`` lookups on the asyncio fabric.

    Returns the server path of each lookup.  Supplying ``taus`` pins the
    random digit strings so results can be compared hop-for-hop with the
    deterministic :func:`repro.core.lookup.dh_lookup`.
    """

    async def main() -> List[List[float]]:
        fabric = AsyncDHNetwork(net, rng)
        await fabric.start()
        try:
            coros = [
                fabric.lookup(s, t, tau=None if taus is None else taus[i])
                for i, (s, t) in enumerate(queries)
            ]
            return list(await asyncio.gather(*coros))
        finally:
            await fabric.stop()

    return asyncio.run(main())
