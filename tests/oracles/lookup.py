"""Oracles of :mod:`repro.core.lookup`: the lookups before the one step."""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.continuous import Digits
from repro.core.interval import Arc, normalize
from repro.core.lookup import MAX_WALK_STEPS, LookupResult, compress_path
from repro.core.network import DistanceHalvingNetwork


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


def verify_adjacent(self: LookupResult, net: DistanceHalvingNetwork) -> bool:
    """Check every consecutive pair of path servers is a network edge."""
    return all(
        net.are_neighbors(a, b)
        for a, b in zip(self.server_path, self.server_path[1:])
    )
