"""Deterministic discrete-event simulation engine.

The paper analyses protocols at the algorithmic layer (footnote 1 of §1
explicitly brackets out systems concerns), so the natural substrate is a
simulator whose observable quantities — hop counts, per-server message
loads, parallel time — coincide with the quantities in the theorems.

:class:`EventLoop` is a classic ``(time, seq)``-ordered heap scheduler;
:class:`SimNetwork` layers message passing with per-link latency on top
of it.  Handlers run atomically at their scheduled
time; the ``seq`` tiebreaker makes runs bit-for-bit reproducible.

Paper footnote 4 ("there is no implied assumption of synchrony") is
honoured: protocols built on this engine never read global state, only
messages, so a random per-message ``latency`` reorders their deliveries
without changing what any node decides (:mod:`repro.sim.protocol`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional

from .. import checks

__all__ = ["Event", "EventLoop", "Message", "SimNode", "SimNetwork"]


@dataclass(order=True)
class Event:
    """A scheduled callback; ordering is (time, seq) for determinism."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventLoop:
    """Minimal deterministic event loop."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self.events_run: int = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        checks.real(delay, "delay", "[0, inf)")
        ev = Event(self.now + delay, next(self._seq), action)
        heapq.heappush(self._heap, ev)
        return ev

    def clear(self) -> None:
        """Drop every pending event; none of them will run.

        The clock and ``events_run`` keep their values: what already ran
        stays counted.
        """
        self._heap.clear()

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run events in order until the queue drains (or a limit hits)."""
        if until is not None:
            checks.real(until, "until", "[0, inf]")
        max_events = checks.count(max_events, "max_events")
        while self._heap and self.events_run < max_events:
            if until is not None and self._heap[0].time > until:
                break
            ev = heapq.heappop(self._heap)
            self.now = ev.time
            self.events_run += 1
            ev.action()


@dataclass
class Message:
    """A protocol message between simulated nodes."""

    sender: Hashable
    recipient: Hashable
    payload: Any
    kind: str = "msg"
    hops: int = 0


class SimNode:
    """Base class for protocol nodes: override :meth:`on_message`."""

    def __init__(self, node_id: Hashable):
        self.node_id = node_id
        self.network: Optional["SimNetwork"] = None
        self.received: int = 0
        self.sent: int = 0

    def on_message(self, msg: Message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def send(self, recipient: Hashable, payload: Any, kind: str = "msg") -> None:
        """Send a message through the owning network."""
        assert self.network is not None, "node not attached to a network"
        self.network.deliver(Message(self.node_id, recipient, payload, kind))


class SimNetwork:
    """Message-passing fabric over an :class:`EventLoop`.

    ``latency`` maps ``(sender, recipient)`` to a delay (default 1.0 per
    hop, matching the paper's hop-count metric).  Every message arrives:
    the §6 faults are modelled on the batch engines (:mod:`repro.faults`).
    """

    def __init__(
        self,
        latency: Optional[Callable[[Hashable, Hashable], float]] = None,
    ) -> None:
        self.loop = EventLoop()
        self.nodes: Dict[Hashable, SimNode] = {}
        self.latency = latency or (lambda a, b: 1.0)
        self.delivered: int = 0

    def add_node(self, node: SimNode) -> SimNode:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node.network = self
        self.nodes[node.node_id] = node
        return node

    def deliver(self, msg: Message) -> None:
        """Schedule delivery of a message to a node of the network."""
        if msg.recipient not in self.nodes:
            raise KeyError(f"unknown recipient {msg.recipient!r}")
        sender_node = self.nodes.get(msg.sender)
        if sender_node is not None:
            sender_node.sent += 1
        delay = self.latency(msg.sender, msg.recipient)

        def _arrive() -> None:
            node = self.nodes[msg.recipient]
            node.received += 1
            self.delivered += 1
            msg.hops += 1
            node.on_message(msg)

        self.loop.schedule(delay, _arrive)

    def run(self, until: Optional[float] = None) -> None:
        self.loop.run(until=until)
