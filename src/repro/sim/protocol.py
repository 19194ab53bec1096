"""The Distance Halving lookup as a discrete-event message protocol.

Paper footnote 1 distinguishes the combinatorial analysis from systems
concerns: "in 'real life' systems, an iterative lookup algorithm may
behave very differently from a recursive one".  This module makes that
difference measurable by running the §2.2.2 lookup on the
:class:`~repro.sim.engine.SimNetwork` in both styles:

* **recursive** — the message is forwarded hop by hop; the final holder
  replies straight to the requester (hops + 2 messages counting the
  injection, latency = path latency);
* **iterative** — the requester drives every step itself: it asks the
  current server for the next hop and contacts that server directly
  (2·hops + 2 messages, latency = 2·path latency, but the requester
  observes every step — the robustness argument for iterative lookups).

Only the transport lives here.  What a node decides is
:meth:`repro.core.lookup.LocalView.route` — the one §2.2.2 step over
the node's segment and neighbour-table snapshot — in both styles, and a
latency function can model heterogeneous links.

Footnote 4 ("no implied assumption of synchrony") is many lookups in
flight under a random latency: each still routes as ``dh_lookup`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .. import checks
from ..core.lookup import DhHeader, LocalView
from ..core.network import DistanceHalvingNetwork
from .engine import Message, SimNetwork, SimNode

__all__ = ["LookupOutcome", "DHProtocolNode", "build_protocol_network",
           "run_protocol_lookups", "run_protocol_lookup"]


@dataclass
class LookupOutcome:
    """What the requester learns, plus transport-level accounting."""

    target: float
    owner: Optional[float] = None
    done: bool = False
    hops: int = 0
    messages: int = 0
    completed_at: float = math.inf      # latency, counted from the injection
    path: List[float] = field(default_factory=list)


@dataclass
class _Request:
    """Payload of every message of one lookup: the header and the books."""

    header: DhHeader
    outcome: LookupOutcome
    rng: np.random.Generator
    requester: float
    injected_at: float
    next: Optional[float] = None    # probe-reply: where the probed node points


class DHProtocolNode(SimNode):
    """A server participating in the message-level DH lookup protocol.

    ``Message.kind`` selects the role: ``lookup`` (recursive forwarding),
    ``probe`` / ``probe-reply`` (iterative: answer with the next hop /
    the requester contacting it), ``reply`` (the recursive answer).
    """

    def __init__(self, point: float, net: DistanceHalvingNetwork):
        super().__init__(point)
        self.point = point
        self.view = LocalView(net, point)

    def on_message(self, msg: Message) -> None:
        req: _Request = msg.payload
        outcome = req.outcome
        if msg.kind == "lookup":
            outcome.path.append(self.point)
            nxt = self.view.route(req.header, req.rng)
            outcome.messages += 1
            if nxt is None:
                self._finish(req, self.point)
                self.send(req.requester, req, "reply")
            else:
                outcome.hops += 1
                self.send(nxt, req, "lookup")
        elif msg.kind == "probe":
            req.next = self.view.route(req.header, req.rng)
            outcome.messages += 1
            self.send(req.requester, req, "probe-reply")
        elif msg.kind == "probe-reply":
            outcome.path.append(msg.sender)
            if req.next is None:
                self._finish(req, msg.sender)
            else:
                outcome.hops += 1
                outcome.messages += 1
                self.send(req.next, req, "probe")

    def _finish(self, req: _Request, owner: float) -> None:
        outcome = req.outcome
        outcome.done = True
        outcome.owner = owner
        outcome.completed_at = self.network.loop.now - req.injected_at


def build_protocol_network(
    net: DistanceHalvingNetwork,
    latency: Optional[Callable[[Hashable, Hashable], float]] = None,
) -> SimNetwork:
    """Wrap a DHT snapshot into a SimNetwork of protocol nodes."""
    sim = SimNetwork(latency=latency)
    for p in net.segments:
        sim.add_node(DHProtocolNode(p, net))
    return sim


def run_protocol_lookups(
    sim: SimNetwork,
    net: DistanceHalvingNetwork,
    queries: Sequence[Tuple[float, float]],
    rngs: Sequence[np.random.Generator],
    style: str = "recursive",
) -> List[LookupOutcome]:
    """Inject every ``(source, target)`` lookup at once, then run the loop.

    Lookup ``k`` draws its digits from ``rngs[k]`` alone, so the order
    its messages interleave with the others' changes nothing it routes.
    Raises what :func:`~repro.core.lookup.dh_lookup` raises: a non-finite
    point before anything is sent, the first non-convergence out of the
    loop.  A raise drops the messages still queued, the other lookups'
    included, so the network's next run delivers only its own.
    """
    checks.choice(style, "style", ("recursive", "iterative"))
    lookups = [(DhHeader.start(source, target), rng)
               for (source, target), rng in zip(queries, rngs, strict=True)]
    kind = "lookup" if style == "recursive" else "probe"
    outcomes = []
    for header, rng in lookups:
        first = net.segments.cover_point(header.position)
        outcome = LookupOutcome(header.target, messages=1)  # the injection
        # self-delivery: SimNetwork handles same-node messages like any other
        sim.nodes[first].send(
            first, _Request(header, outcome, rng, first, sim.loop.now), kind)
        outcomes.append(outcome)
    try:
        sim.run()
    except BaseException:
        sim.loop.clear()
        raise
    return outcomes


def run_protocol_lookup(
    sim: SimNetwork,
    net: DistanceHalvingNetwork,
    source: float,
    target: float,
    rng: np.random.Generator,
    style: str = "recursive",
) -> LookupOutcome:
    """One lookup through :func:`run_protocol_lookups`."""
    return run_protocol_lookups(sim, net, [(source, target)], [rng], style)[0]
