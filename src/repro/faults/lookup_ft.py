"""Fault-tolerant lookups on the overlapping DHT (paper §6.3).

Both algorithms emulate the *canonical path* — the Claim 2.4 approach
walk between the source's segment and the target
(:func:`repro.core.lookup.approach_walk`, the forward search the fast
lookup runs, read through §6.2's closed cyclic segment) — through the
overlapping cover sets:

* **Simple Lookup** (Theorem 6.3): forward through *one* randomly chosen
  alive cover of each path point; ``log n + O(1)`` time and messages;
  under random fail-stop every surviving server still reaches every item
  (Theorem 6.4) because w.h.p. every point keeps an alive cover
  (Claim 6.5).
* **False-message-resistant Lookup** (Theorem 6.6): forward through
  *all* covers of each path point, each server accepting only the
  majority of what the previous cover set sent — ``log n`` parallel
  time, ``O(log³ n)`` messages, and the answer survives Byzantine
  payload corruption as long as every point is covered by an honest
  majority.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import checks
from ..core.lookup import approach_walk, ring_point
from ..core.walk import per_lane_matrix
from ..hashing.kwise import Key
from ..peer.costmap import CostMap
from ..peer.itracker import NO_COST_MAP, CostOracle
from ..peer.policy import POLICIES, select_index
from .models import FaultPlan
from .overlap import OverlappingDHNetwork

__all__ = ["FTLookupResult", "canonical_path", "simple_lookup", "resistant_lookup"]


@dataclass
class FTLookupResult:
    """Outcome of a fault-tolerant lookup."""

    success: bool
    value: object = None
    path_points: List[float] = field(default_factory=list)   # continuous path
    servers: List[float] = field(default_factory=list)       # one per hop (simple)
    messages: int = 0
    parallel_time: int = 0


def canonical_path(
    net: OverlappingDHNetwork, source: float, target: float
) -> List[float]:
    """The §6.3 canonical path: continuous points from ``s(V)`` to ``y``.

    Claim 2.4 instantiated with ``z`` the source segment's midpoint: the
    walk point enters the source's segment after ``t ≈ log n`` steps, and
    the backward traversal visits ``w(σ(z)_{t-k}, y)`` down to ``y``.
    """
    a, b = net.segment_of(ring_point(source, "source"))
    seg_len = (b - a) % 1.0
    z = (a + seg_len / 2.0) % 1.0
    return approach_walk(net.graph, z, ring_point(target, "target"),
                         lambda p: (p - a) % 1.0 <= seg_len)[1]


def _majority(values: Sequence[object]) -> Tuple[object, bool]:
    """The most frequent of ``values`` and whether it is a strict majority."""
    counts: Dict[object, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best, cnt = max(counts.items(), key=lambda kv: kv[1])
    return best, cnt * 2 > len(values)


def simple_lookup(
    net: OverlappingDHNetwork,
    source: float,
    key: Key,
    rng: Optional[np.random.Generator] = None,
    plan: Optional[FaultPlan] = None,
    *,
    target: Optional[float] = None,
    choices: Optional[Sequence[float]] = None,
    cost_map: Optional[CostMap] = None,
    policy: str = "uniform",
) -> FTLookupResult:
    """Theorem 6.3's Simple Lookup under an optional fault plan.

    Each hop picks one random *alive* server among the Θ(log n) covers of
    the next canonical point.  Fails only if some path point lost all its
    covers — which Claim 6.5 says happens with vanishing probability for
    small fail-stop ``p``.

    ``target`` overrides the item-hash position (the batch sweeps route
    raw ring points).  Hop ``k`` reads one uniform ``u``: ``choices[k]``
    when given, else a ``rng.random()`` draw.  Under ``policy`` (one of
    :data:`~repro.peer.policy.POLICIES`) :func:`~repro.peer.policy
    .select_index` picks among the alive covers with it: ``"uniform"``,
    the paper's rule, takes cover ``⌊u·|alive|⌋`` and reads no cost;
    ``"greedy"`` and ``"weighted"`` score each alive cover's edge from
    the current server through ``cost_map`` (the columns of the two id
    points, :class:`~repro.peer.itracker.CostOracle`), and refuse to run
    without one.  With the same uniforms and map the walk is
    bit-identical to :meth:`repro.faults.batch_ft.FTBatchEngine
    .batch_simple_lookup` on an engine built with that ``cost_map=``,
    which is how the parity cross-checks replay sub-workloads, and it
    refuses what the batch refuses (a non-finite uniform or one outside
    ``[0, 1)`` raises ``ValueError``).  One of ``rng`` / ``choices`` is
    required, except by "greedy", which reads no uniform.
    """
    plan = plan if plan is not None else FaultPlan()
    checks.choice(policy, "policy", POLICIES)
    if policy != "uniform" and cost_map is None:
        raise ValueError(NO_COST_MAP.format(policy=policy,
                                            engine="simple_lookup"))
    if rng is None and choices is None and policy != "greedy":
        raise ValueError("simple_lookup needs an rng or explicit choices")
    if choices is not None:
        choices = per_lane_matrix(choices, 1, np.float64, "choices")[0]
    if target is None:
        target = net.item_hash(key)
    path = canonical_path(net, source, target)
    servers: List[float] = [source]
    messages = 0
    for hop, point in enumerate(path[1:]):
        alive = net.covers(point, alive=None)
        alive = [s for s in alive if plan.is_alive(s)]
        if not alive:
            return FTLookupResult(False, path_points=path, servers=servers,
                                  messages=messages, parallel_time=len(servers) - 1)
        if choices is not None and hop >= len(choices):
            raise ValueError("supplied choices exhausted before lookup finished")
        u = (float(choices[hop]) if choices is not None
             else float(rng.random()) if rng is not None else None)
        costs = np.zeros(len(alive))  # uniform reads no cost
        if policy != "uniform":
            costs = CostOracle([servers[-1], *alive], cost_map).edge_costs(
                0, np.arange(1, len(alive) + 1))
        nxt = alive[select_index(costs, u, policy)]
        if nxt != servers[-1]:
            messages += 1
        servers.append(nxt)
    holder = servers[-1]
    value = plan.answer_of(holder, ("VALUE", key))
    ok = plan.is_alive(holder) and value == ("VALUE", key)
    return FTLookupResult(ok, value=value, path_points=path, servers=servers,
                          messages=messages, parallel_time=len(path) - 1)


def resistant_lookup(
    net: OverlappingDHNetwork,
    source: float,
    key: Key,
    plan: Optional[FaultPlan] = None,
    *,
    target: Optional[float] = None,
) -> FTLookupResult:
    """Theorem 6.6's false-message-resistant lookup.

    The request floods from the cover set of each canonical point to the
    next; each server forwards only the value received from a majority of
    the previous cover set.  At the target, the requester takes the
    majority of the replica group's answers.

    Returns message complexity (Σ |S_k|·|S_{k+1}| over alive pairs — the
    O(log³ n) of the theorem) and parallel time (the number of relay
    levels the flood actually traversed before answering or dying).
    ``target`` overrides the item-hash position, as in
    :func:`simple_lookup`.
    """
    plan = plan if plan is not None else FaultPlan()
    if target is None:
        target = net.item_hash(key)
    path = canonical_path(net, source, target)
    true_value = ("VALUE", key)

    # The value travels from the item holders backwards to the requester
    # in the paper's presentation; equivalently (and how we simulate it)
    # the request floods forward and the item's covers answer: what must
    # survive majority filtering is the *payload* at every relay layer.
    # Relay layers: cover sets of each canonical point from the target end
    # back to the source.
    layers: List[List[float]] = []
    for point in reversed(path):  # start at y's covers, end at source's
        layers.append(net.covers(point))
    messages = 0
    # layer 0: the replica group answers (liars corrupt their copy)
    current_values: Dict[float, object] = {}
    for s in layers[0]:
        if plan.is_alive(s):
            current_values[s] = plan.answer_of(s, true_value)
    for k in range(1, len(layers)):
        nxt_values: Dict[float, object] = {}
        senders = [s for s in layers[k - 1] if plan.is_alive(s) and s in current_values]
        for r in layers[k]:
            if not plan.is_alive(r):
                continue
            received = []
            for s in senders:
                messages += 1
                # a lying relay corrupts whatever it forwards
                received.append(plan.answer_of(s, current_values[s]))
            if not received:
                continue
            # majority filter (Theorem 6.6: forward only the majority value)
            best, strict = _majority(received)
            if strict:
                nxt_values[r] = best
        current_values = nxt_values
        if not current_values:
            # died after k relay levels — report the levels actually
            # traversed, not the full requested walk length
            return FTLookupResult(False, path_points=path, messages=messages,
                                  parallel_time=k)
    if not current_values:
        # zero-hop path (t = 0) whose replica group is entirely dead
        return FTLookupResult(False, path_points=path, messages=messages,
                              parallel_time=0)
    best, strict = _majority(list(current_values.values()))
    return FTLookupResult(best == true_value and strict, value=best,
                          path_points=path, messages=messages,
                          parallel_time=len(layers) - 1)
