"""Lookup algorithms on the Distance Halving DHT (paper §2.2): the scalar reference.

The scalar twin of :mod:`repro.core.walk` — the single home of what the
scalar runtimes share:

* :func:`approach_walk`: the forward search "smallest ``t`` with
  ``w(σ(z)_t, y) ∈ s(V)``" (Claim 2.4: ``t ≤ log n + log ρ + 1`` on
  smooth decompositions) plus the backward points, parameterised by the
  segment test as :func:`~repro.core.walk.forward_levels` is.  **Fast
  Lookup** (§2.2.1; "Greedy Lookup" in Corollary 2.5 / Theorem 2.7)
  reads it through the half-open ``Arc``, §6.3's canonical path
  (:mod:`repro.faults.lookup_ft`) through §6.2's closed segment.
* :class:`DhHeader` + :func:`dh_step`: the **Distance Halving Lookup**
  (§2.2.2) as the paper states it — a header and one rule per step.
  Phase I walks the *source* forward under random digits ``τ`` until
  the target's image ``w(τ_t, y)`` is covered by the current server or
  a neighbour (Observation 2.3: the walks approach at rate ``Δ^{-t}``);
  phase II walks back from ``w(τ_t, y)`` to ``y``.  Path length
  ≤ ``2 log n + 2 log ρ`` (Theorem 2.8).
* :class:`LocalView`: what one server knows, and what it does with a
  header.  The message transport (:mod:`repro.sim.protocol`) holds
  nothing else — that is what "routes with purely local state" means
  here; :func:`dh_lookup` drives the same step over the global cover
  map.

Backward points are recomputed in closed form from the digit prefix (no
float error accumulates on the doubling steps); results carry the server
path for congestion accounting and the trajectory for the §3 cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import checks
from .continuous import ContinuousGraph, Digits
from .interval import Arc, normalize
from .network import DistanceHalvingNetwork

__all__ = ["LookupResult", "fast_lookup", "dh_lookup", "lookup_many",
           "compress_path", "MAX_WALK_STEPS", "ring_point", "approach_walk",
           "DhHeader", "dh_step", "LocalView"]

#: Hard safety bound on walk length; Corollary 2.5 / Theorem 2.8 give
#: ≈ 2(log n + log ρ) ≤ 4 log n for reasonable ρ, far below this.
MAX_WALK_STEPS = 512


@dataclass
class LookupResult:
    """Outcome of a routed lookup.

    ``server_path`` lists the id points of the servers that handled the
    message in order (consecutive duplicates removed) — its length minus
    one is the hop count.  ``continuous_path`` is the trajectory in ``I``;
    ``phase2_digits`` is the digit prefix identifying the path-tree branch
    used by the caching protocol (§3.1); ``t`` is the walk-length
    parameter chosen by the algorithm.
    """

    target: float
    owner: float
    server_path: List[float]
    continuous_path: List[float]
    t: int
    phase2_digits: Digits = ()
    phase1_hops: int = 0

    @property
    def hops(self) -> int:
        """Number of network hops (messages sent between distinct servers)."""
        return max(0, len(self.server_path) - 1)


def compress_path(points: Sequence[float]) -> List[float]:
    """Remove consecutive duplicates (same server handling several walk steps).

    The hop count of a route is ``len(compress_path(servers)) - 1``; the
    batch engine reproduces exactly this compression when reconstructing
    per-lookup server paths.
    """
    out: List[float] = []
    for p in points:
        if not out or out[-1] != p:
            out.append(p)
    return out


def ring_point(value, what: str) -> float:
    """``value`` folded into ``[0, 1)``; the entry check of every scalar lookup.

    A NaN or infinite point has no cover: :func:`repro.checks.finite`
    refuses it, as it does for the batch engines.
    """
    return normalize(float(checks.finite(value, what)))


def approach_walk(graph: ContinuousGraph, z: float, y: float,
                  in_segment: Callable[[float], bool]) -> Tuple[Digits, List[float]]:
    """The approach walk of Claim 2.4 toward ``y`` from a segment around ``z``.

    Finds the smallest ``t`` whose point ``w(σ(z)_t, y)`` passes the
    source's segment test (it is within ``Δ^-t`` of ``z``, so
    ``t ≈ -log |s(V)|`` suffices) and returns ``σ(z)_t`` with the points
    the ``b`` edges then visit, ``[w(σ_t, y), …, w(σ_0, y) = y]``.
    """
    for t in range(MAX_WALK_STEPS + 1):
        digits = graph.approach_digits(z, t)
        if in_segment(graph.walk(digits, y)):
            return digits, graph.walk_points(digits, y)[::-1]
    raise RuntimeError("forward search failed to converge; degenerate segment?")


def fast_lookup(
    net: DistanceHalvingNetwork,
    source_point: float,
    target: float,
) -> LookupResult:
    """Fast (greedy) lookup of the server covering ``target`` (§2.2.1).

    Deterministic: the path depends only on the source segment's midpoint
    ``z`` and the target.  Path length ≤ ``log_Δ n + log_Δ ρ + 1``
    (Corollary 2.5), congestion ``Θ(log n / n)`` for random pairs
    (Theorem 2.7).
    """
    cover = net.segments.cover_point
    y = ring_point(target, "target")
    # the lookup is initiated by the server covering the source point
    seg = net.segments.segment_of(cover(ring_point(source_point, "source")))
    digits, continuous = approach_walk(net.graph, seg.midpoint, y,
                                       seg.__contains__)
    return LookupResult(
        target=y,
        owner=cover(y),
        server_path=compress_path([cover(p) for p in continuous]),
        continuous_path=continuous,
        t=len(digits),
        phase2_digits=digits,
    )


def lookup_many(
    net: DistanceHalvingNetwork,
    sources: Sequence[float],
    targets: Sequence[float],
    algorithm: str = "fast",
    rng: Optional[np.random.Generator] = None,
    taus: Optional[Sequence[Sequence[int]]] = None,
) -> List[LookupResult]:
    """Route many lookups one at a time through the scalar engine.

    This is the reference loop the vectorised
    :class:`~repro.core.batch.BatchRouter` is measured against (and
    parity-checked against): identical semantics, one Python call per
    hop per lookup.  ``taus`` optionally fixes the per-lookup digit
    strings of the Distance Halving algorithm so a batch run with the
    same strings is bit-comparable.
    """
    checks.choice(algorithm, "algorithm", ("fast", "dh"))
    if algorithm == "dh" and rng is None and taus is None:
        raise ValueError("dh lookups need an rng or explicit taus")
    out: List[LookupResult] = []
    for i, (s, y) in enumerate(zip(sources, targets)):
        if algorithm == "fast":
            out.append(fast_lookup(net, float(s), float(y)))
        else:
            tau = None if taus is None else taus[i]
            out.append(dh_lookup(net, float(s), float(y), rng, tau=tau))
    return out


@dataclass
class DhHeader:
    """The §2.2.2 message header ``(τ, t, w(τ_t, x), w(τ_t, y))``.

    ``tau`` holds the digits taken; ``t == len(tau)`` in phase I and
    counts back to 0 in phase II ("each step the server handling the
    message deletes the last bit in τ").  ``pinned`` is a caller-fixed
    digit string: the walk reads it and may not outrun it.
    """

    target: float
    position: float                 # w(τ_t, x) — forward-stable (phase I)
    image: float                    # w(τ_t, y) — the target's image
    pinned: Optional[Sequence[int]] = None
    tau: List[int] = field(default_factory=list)
    t: int = 0
    phase: int = 1

    @classmethod
    def start(cls, source_point: float, target: float,
              tau: Optional[Sequence[int]] = None) -> "DhHeader":
        """Header of a fresh lookup; both points must be finite."""
        y = ring_point(target, "target")
        return cls(target=y, position=ring_point(source_point, "source"),
                   image=y, pinned=tau)


def dh_step(graph: ContinuousGraph, header: DhHeader,
            local_cover: Callable[[float], Optional[float]],
            rng: Optional[np.random.Generator]) -> Optional[float]:
    """One step of the Distance Halving lookup (§2.2.2) on ``header``.

    ``local_cover(p)`` is the handling server's "which of me and my
    neighbours covers ``p``, if any".  Returns the point the message
    moves to (whoever covers it takes the next step), ``None`` at ``y``.
    Phase I: once ``w(τ_t, y)`` is covered here or next door, move there
    and begin phase II; else take one more digit — of a pinned ``τ``,
    which must not run out, else from ``rng`` — and move to
    ``f_d(w(τ_t, x))``.  Phase II: delete a digit, move to ``w(τ_{t-1}, y)``.
    """
    h = header
    if h.phase == 2:
        if h.t == 0:
            return None
        h.t -= 1
        h.image = graph.walk(h.tau[:h.t], h.target)
        return h.image
    if h.t > MAX_WALK_STEPS:
        raise RuntimeError("dh_lookup phase I failed to converge")
    if local_cover(h.image) is not None:
        h.phase = 2
        return h.image
    if h.pinned is None:
        d = int(rng.integers(0, graph.delta))
    elif h.t < len(h.pinned):
        d = int(h.pinned[h.t])
    else:
        raise ValueError("supplied tau exhausted before lookup finished")
    h.tau.append(d)
    h.t += 1
    h.position = graph.child(h.position, d)
    # the closed form phase II starts from: stepping child(image, d)
    # instead can round to 1.0, fold to 0.0 and stay there, so the
    # hand-off would test another point than phase II descends from
    h.image = graph.walk(h.tau, h.target)
    return h.position


class LocalView:
    """What one server knows: its segment and its neighbours' (a snapshot)."""

    def __init__(self, net: DistanceHalvingNetwork, point: float):
        self.point = point
        self.graph = net.graph
        self.segment: Arc = net.segments.segment_of(point)
        self.neighbor_segments: Dict[float, Arc] = {
            q: net.segments.segment_of(q) for q in net.neighbor_points(point)
        }

    def cover(self, y: float) -> Optional[float]:
        """Which of this server and its neighbours covers ``y``, if any."""
        if y in self.segment:
            return self.point
        for q, seg in self.neighbor_segments.items():
            if y in seg:
                return q
        return None

    def route(self, header: DhHeader,
              rng: Optional[np.random.Generator]) -> Optional[float]:
        """Step a message until it must leave this server.

        Returns the neighbour to forward to, ``None`` when this server
        owns the target.  A point no known segment covers means a stale
        neighbour table (impossible on a static snapshot).
        """
        while (point := dh_step(self.graph, header, self.cover, rng)) is not None:
            nxt = self.cover(point)
            if nxt is None:
                raise RuntimeError(f"routing hole: {self.point!r} cannot place {point!r}")
            if nxt != self.point:
                return nxt
        return None


def dh_lookup(
    net: DistanceHalvingNetwork,
    source_point: float,
    target: float,
    rng: np.random.Generator,
    tau: Optional[Sequence[int]] = None,
) -> LookupResult:
    """Distance Halving (two-phase, randomised) lookup (§2.2.2).

    Loops :func:`dh_step` over the global cover map.  Supplying ``tau``
    fixes the random digit string (used by tests and by the caching
    experiments to steer the path-tree branch); a lookup that outruns
    it raises ``ValueError``.
    """
    g, segs = net.graph, net.segments
    header = DhHeader.start(source_point, target, tau)
    src, y = header.position, header.target
    servers: List[float] = [segs.cover_point(src)]

    def here_or_next_door(p: float) -> Optional[float]:
        cur = servers[-1]
        if p in segs.segment_of(cur):
            return cur
        holder = segs.cover_point(p)
        return holder if holder in net.neighbor_points(cur) else None

    back: List[float] = []        # w(τ_t, y), …, w(τ_0, y) = y
    while (point := dh_step(g, header, here_or_next_door, rng)) is not None:
        servers.append(segs.cover_point(point))
        if header.phase == 2:
            back.append(point)

    digits = tuple(header.tau)
    t = len(digits)
    return LookupResult(
        target=y,
        owner=segs.cover_point(y),
        server_path=compress_path(servers),
        continuous_path=g.walk_points(digits, src) + back,
        t=t,
        phase2_digits=digits,
        # phase I ends where w(τ_t, y) is covered: t moves and the hand-off
        phase1_hops=len(compress_path(servers[: t + 2])) - 1,
    )
