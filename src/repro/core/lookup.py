"""Lookup algorithms on the Distance Halving DHT (paper §2.2).

Two algorithms are implemented, exactly as in the paper:

**Fast Lookup** (§2.2.1; the text also calls it "Greedy Lookup" in
Corollary 2.5/Theorem 2.7).  To find point ``y`` from server ``V`` with
segment midpoint ``z``: pick the smallest ``t`` with
``w(σ(z)_t, y) ∈ s(V)`` (Claim 2.4 guarantees ``t ≤ log n + log ρ + 1``
for smooth decompositions), then walk *backwards* along ``b`` edges from
that point to ``y``.  Each intermediate point is recomputed in closed form
from the digit prefix, so no float error accumulates on the doubling
steps.

**Distance Halving Lookup** (§2.2.2).  Valiant-style two-phase routing:
phase I walks the *source* point forward under fresh random digits ``τ``
until the image ``w(τ_t, y)`` of the target is covered by the current
server or one of its neighbours (Observation 2.3: the two walks approach
each other at rate ``Δ^{-t}``); phase II walks backwards from
``w(τ_t, y)`` to ``y``.  Path length ≤ ``2 log n + 2 log ρ``
(Theorem 2.8) and the randomness gives the permutation-routing and
hot-spot properties of Theorems 2.10/2.11 and Section 3.

Both functions return a :class:`LookupResult` carrying the full server
path (for congestion accounting) and the continuous trajectory (for the
caching protocol, which needs the path-tree nodes of phase II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .continuous import Digits
from .interval import normalize
from .network import DistanceHalvingNetwork

__all__ = ["LookupResult", "fast_lookup", "dh_lookup", "lookup_many",
           "compress_path", "MAX_WALK_STEPS"]

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

    @property
    def source(self) -> float:
        return self.server_path[0]

    def verify_adjacent(self, net: DistanceHalvingNetwork) -> bool:
        """Check every consecutive pair of path servers is a network edge."""
        return all(
            net.are_neighbors(a, b)
            for a, b in zip(self.server_path, self.server_path[1:])
        )


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
    if algorithm not in ("fast", "dh"):
        raise ValueError(f"unknown algorithm {algorithm!r}; use 'fast' or 'dh'")
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


def dh_lookup(
    net: DistanceHalvingNetwork,
    source_point: float,
    target: float,
    rng: np.random.Generator,
    tau: Optional[Sequence[int]] = None,
) -> LookupResult:
    """Distance Halving (two-phase, randomised) lookup (§2.2.2).

    Phase I sends the message along the random walk of the *source* point
    ``w(τ_t, x_i)`` until ``w(τ_t, y)`` is covered by the current server
    or one of its neighbours; phase II descends the backward edges from
    ``w(τ_t, y)`` to ``y``.  Supplying ``tau`` fixes the random digit
    string (used by tests and by the caching experiments to steer the
    path-tree branch).
    """
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
