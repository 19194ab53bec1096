"""Asyncio runtime for the Distance Halving protocols.

The discrete-event engine (:mod:`repro.sim.engine`) gives deterministic
hop-count semantics; this module runs the same node step —
:meth:`repro.core.lookup.LocalView.route`, the one the discrete-event
protocol calls — under genuine asynchrony: every server is an
``asyncio`` task with an inbox queue, and a routed lookup is a message
physically forwarded from task to task using only each node's *local*
routing state (its segment and neighbour table), as a real deployment
would.

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

from ..core.lookup import DhHeader, LocalView
from ..core.network import DistanceHalvingNetwork

__all__ = ["AsyncLookupMessage", "AsyncServer", "AsyncDHNetwork", "run_async_lookups"]


@dataclass
class AsyncLookupMessage:
    """An in-flight lookup: §2.2.2's header plus what only the transport needs."""

    header: DhHeader
    done: "asyncio.Future[List[float]]"
    path: List[float] = field(default_factory=list)


class AsyncServer:
    """One server task: local view (segment + neighbour table) + inbox.

    Routing state is snapshotted from the discrete network at start-up —
    the async layer exercises message passing, not churn.
    """

    def __init__(self, point: float, net: DistanceHalvingNetwork):
        self.point = point
        self.view = LocalView(net, point)
        self.inbox: "asyncio.Queue[Optional[AsyncLookupMessage]]" = asyncio.Queue()
        self.handled = 0

    async def run(self, fabric: "AsyncDHNetwork") -> None:
        while (msg := await self.inbox.get()) is not None:
            if msg.done.done():     # the caller gave up (cancelled) mid-route
                continue
            self.handled += 1
            msg.path.append(self.point)
            try:
                nxt = self.view.route(msg.header, fabric.rng)
            except Exception as exc:
                # fail this lookup only; the task keeps serving the rest
                msg.done.set_exception(exc)
                continue
            if nxt is None:
                msg.done.set_result(msg.path)
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
            await srv.inbox.put(None)
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def lookup(self, source_point: float, target: float,
                     tau: Optional[Sequence[int]] = None) -> List[float]:
        """Route one lookup; resolves to the server path (id points).

        A pinned ``tau`` is never extended from the fabric's rng (same
        ``tau`` ⇒ same route): a lookup that outruns it fails with
        ``ValueError("supplied tau exhausted …")`` as ``dh_lookup`` does.
        Whatever routing raises fails this lookup alone (non-finite
        points raise before anything is sent); the fabric serves on.
        """
        msg = AsyncLookupMessage(DhHeader.start(source_point, target, tau),
                                 asyncio.get_running_loop().create_future())
        await self.send(self.net.segments.cover_point(msg.header.position), msg)
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
    deterministic :func:`repro.core.lookup.dh_lookup`.  The first lookup
    to fail raises its error here.
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
