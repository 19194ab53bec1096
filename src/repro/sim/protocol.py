"""The Distance Halving lookup as a discrete-event message protocol.

Paper footnote 1 distinguishes the combinatorial analysis from systems
concerns: "in 'real life' systems, an iterative lookup algorithm may
behave very differently from a recursive one".  This module makes that
difference measurable by running the §2.2.2 lookup on the
:class:`~repro.sim.engine.SimNetwork` in both styles:

* **recursive** — the message is forwarded hop by hop; the final holder
  replies straight to the requester (hops + 1 messages, latency = path
  latency);
* **iterative** — the requester drives every step itself: it asks the
  current server for the next hop and contacts that server directly
  (2·hops messages, latency = 2·path latency, but the requester observes
  every step — the robustness argument for iterative lookups).

Both implementations route with purely local node state (segment +
neighbour table snapshots), and a latency function / drop rule can model
heterogeneous links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.interval import Arc, normalize
from ..core.lookup import MAX_WALK_STEPS
from ..core.network import DistanceHalvingNetwork
from .engine import Message, SimNetwork, SimNode

__all__ = ["LookupOutcome", "DHProtocolNode", "build_protocol_network",
           "run_protocol_lookup"]


@dataclass
class LookupOutcome:
    """What the requester learns, plus transport-level accounting."""

    request_id: int
    target: float
    owner: Optional[float] = None
    done: bool = False
    hops: int = 0
    messages: int = 0
    completed_at: float = math.inf
    path: List[float] = field(default_factory=list)


class DHProtocolNode(SimNode):
    """A server participating in the message-level DH lookup protocol."""

    def __init__(self, point: float, net: DistanceHalvingNetwork):
        super().__init__(point)
        self.point = point
        self.segment: Arc = net.segments.segment_of(point)
        self.graph = net.graph
        self._seg_of: Dict[float, Arc] = {
            q: net.segments.segment_of(q) for q in net.neighbor_points(point)
        }

    # --------------------------------------------------------- local routing
    def local_cover(self, y: float) -> Optional[float]:
        if y in self.segment:
            return self.point
        for q, seg in self._seg_of.items():
            if y in seg:
                return q
        return None

    def next_step(self, state: dict, rng: np.random.Generator
                  ) -> Tuple[str, Optional[float], dict]:
        """One §2.2.2 protocol step from this node's local view.

        Returns ``(kind, next_node, new_state)`` where kind is ``done``
        (this node owns the target), ``forward`` (send to next_node) or
        ``error`` (routing hole — impossible on a static snapshot).
        """
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

    # ------------------------------------------------------------- messaging
    def on_message(self, msg: Message) -> None:
        kind = msg.payload["kind"]
        outcome: LookupOutcome = msg.payload["outcome"]
        rng: np.random.Generator = msg.payload["rng"]
        if kind == "lookup":  # recursive style
            outcome.path.append(self.point)
            verdict, nxt, state = self.next_step(msg.payload["state"], rng)
            if verdict == "done":
                outcome.done = True
                outcome.owner = self.point
                outcome.completed_at = self.network.loop.now
                outcome.messages += 1
                self.send(msg.payload["requester"], {"kind": "reply",
                                                     "outcome": outcome,
                                                     "rng": rng})
            elif verdict == "forward":
                outcome.hops += 1
                outcome.messages += 1
                self.send(nxt, {**msg.payload, "state": state})
        elif kind == "probe":  # iterative style: answer with the next hop
            verdict, nxt, state = self.next_step(msg.payload["state"], rng)
            outcome.messages += 1
            self.send(msg.payload["requester"], {
                "kind": "probe-reply", "outcome": outcome, "rng": rng,
                "verdict": verdict, "next": nxt, "state": state,
                "probed": self.point,
            })
        elif kind in ("reply", "probe-reply"):
            handler = msg.payload.get("on_reply")
            if handler is not None:  # pragma: no cover - requester only
                handler(msg)


class _Requester(DHProtocolNode):
    """A requester node driving iterative lookups."""

    def __init__(self, point: float, net: DistanceHalvingNetwork):
        super().__init__(point, net)
        self.pending: Dict[int, LookupOutcome] = {}

    def start_iterative(self, outcome: LookupOutcome, first: float,
                        state: dict, rng: np.random.Generator) -> None:
        self.pending[outcome.request_id] = outcome
        outcome.messages += 1
        self.send(first, {"kind": "probe", "outcome": outcome, "state": state,
                          "rng": rng, "requester": self.point})

    def on_message(self, msg: Message) -> None:
        kind = msg.payload["kind"]
        if kind == "probe-reply":
            outcome: LookupOutcome = msg.payload["outcome"]
            outcome.path.append(msg.payload["probed"])
            verdict = msg.payload["verdict"]
            rng = msg.payload["rng"]
            if verdict == "done":
                outcome.done = True
                outcome.owner = msg.payload["probed"]
                outcome.completed_at = self.network.loop.now
                self.pending.pop(outcome.request_id, None)
                return
            if verdict == "forward":
                outcome.hops += 1
                outcome.messages += 1
                self.send(msg.payload["next"], {
                    "kind": "probe", "outcome": outcome,
                    "state": msg.payload["state"], "rng": rng,
                    "requester": self.point,
                })
                return
            self.pending.pop(outcome.request_id, None)  # pragma: no cover
        elif kind == "reply":
            outcome = msg.payload["outcome"]
            self.pending.pop(outcome.request_id, None)
        else:
            super().on_message(msg)


def build_protocol_network(
    net: DistanceHalvingNetwork,
    latency: Optional[Callable[[Hashable, Hashable], float]] = None,
    drop_rule: Optional[Callable[[Message], bool]] = None,
) -> SimNetwork:
    """Wrap a DHT snapshot into a SimNetwork of protocol nodes."""
    sim = SimNetwork(latency=latency, drop_rule=drop_rule)
    for p in net.segments:
        sim.add_node(_Requester(p, net))
    return sim


def run_protocol_lookup(
    sim: SimNetwork,
    net: DistanceHalvingNetwork,
    source: float,
    target: float,
    rng: np.random.Generator,
    style: str = "recursive",
    request_id: int = 0,
) -> LookupOutcome:
    """Inject one lookup and run the event loop to completion."""
    if style not in ("recursive", "iterative"):
        raise ValueError("style must be 'recursive' or 'iterative'")
    src = normalize(float(source))
    tgt = normalize(float(target))
    first = net.segments.cover_point(src)
    outcome = LookupOutcome(request_id=request_id, target=tgt)
    state = {"phase": 1, "t": 0, "tau": [], "position": src, "image": tgt,
             "target": tgt}
    requester: _Requester = sim.nodes[first]  # type: ignore[assignment]
    if style == "recursive":
        outcome.messages += 1
        requester.send(first, {"kind": "lookup", "outcome": outcome,
                               "state": state, "rng": rng,
                               "requester": first})
        # self-delivery: SimNetwork handles same-node messages like any other
    else:
        requester.start_iterative(outcome, first, state, rng)
    sim.run()
    return outcome
