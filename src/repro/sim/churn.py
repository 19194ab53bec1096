"""Churn processes: servers joining and leaving over time.

The cost-of-join/leave metric of §1 and the smoothness-under-deletions
question of §4.1 both need a driver that applies join/leave traces to a
network (or balancer) and records per-operation costs.  Two processes are
provided:

* :class:`ChurnTrace` — a reproducible sequence of join/leave ops with a
  tunable leave fraction (the "half the servers leave" stress of §4.1);
* :func:`run_churn` — applies a trace to a
  :class:`~repro.core.network.DistanceHalvingNetwork` with a chosen id
  strategy, measuring state-change cost (how many servers' neighbour
  sets were touched) per operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Literal, Optional

import numpy as np

from ..core.network import DistanceHalvingNetwork

__all__ = ["ChurnOp", "ChurnTrace", "run_churn", "ChurnReport"]

OpKind = Literal["join", "leave"]


@dataclass(frozen=True)
class ChurnOp:
    """One trace step: a join, or a leave of the server at ``victim``.

    ``victim`` indexes the then-alive sorted server list, reduced mod
    its current size when the op is applied (unused by joins).
    """

    kind: OpKind
    victim: int = 0


@dataclass
class ChurnTrace:
    """A reproducible interleaving of joins and leaves."""

    ops: List[ChurnOp]

    @classmethod
    def generate(
        cls,
        rng: np.random.Generator,
        steps: int,
        leave_prob: float = 0.3,
        warmup: int = 16,
    ) -> "ChurnTrace":
        """``warmup`` joins, then ``steps`` ops each a leave w.p. ``leave_prob``."""
        ops: List[ChurnOp] = [ChurnOp("join") for _ in range(warmup)]
        for _ in range(steps):
            if rng.random() < leave_prob:
                ops.append(ChurnOp("leave", victim=int(rng.integers(1 << 30))))
            else:
                ops.append(ChurnOp("join"))
        return cls(ops)

    @classmethod
    def mass_departure(cls, rng: np.random.Generator, n: int, fraction: float = 0.5
                       ) -> "ChurnTrace":
        """Join n servers then delete a random ``fraction`` of them (§4.1)."""
        ops: List[ChurnOp] = [ChurnOp("join") for _ in range(n)]
        for _ in range(int(n * fraction)):
            ops.append(ChurnOp("leave", victim=int(rng.integers(1 << 30))))
        return cls(ops)


@dataclass
class ChurnReport:
    """Outcome of applying a churn trace."""

    smoothness_series: List[float] = field(default_factory=list)
    touched_per_op: List[int] = field(default_factory=list)
    final_n: int = 0

    def max_touched(self) -> int:
        """Most servers one measured op touched (0 with none measured)."""
        return max(self.touched_per_op, default=0)

    def mean_touched(self) -> float:
        """Mean servers touched per measured op (0.0 with none measured)."""
        if not self.touched_per_op:
            return 0.0
        return float(np.mean(self.touched_per_op))

    def final_smoothness(self) -> float:
        """The last sampled ρ (``inf`` when nothing was sampled)."""
        return self.smoothness_series[-1] if self.smoothness_series else float("inf")


def run_churn(
    net: DistanceHalvingNetwork,
    trace: ChurnTrace,
    rng: np.random.Generator,
    selector: Optional[Callable] = None,
    sample_every: int = 8,
    on_op: Optional[Callable[[int, ChurnOp], None]] = None,
) -> ChurnReport:
    """Apply a churn trace; measure smoothness and per-op locality.

    The per-op cost counts the servers whose neighbour set changes — the
    §1 "cost of join/leave" metric.  Cost is measured exactly (before vs
    after neighbour sets of the affected region) every ``sample_every``
    ops to keep the driver fast, since neighbourhood recomputation is the
    expensive part.

    On measured joins the id point is chosen *first* (by the
    ``selector``, or uniformly from ``rng``) so the affected region is
    computed around the point the join actually lands on — measuring
    around a throwaway probe while a selector places the server
    elsewhere would report the wrong neighbourhood's cost.

    ``on_op(step, op)`` is invoked after every applied operation; the
    churn-soak experiment uses it to re-sync an incremental router and
    account its per-op refresh cost.
    """
    report = ChurnReport()
    step = 0
    for op in trace.ops:
        measure = (step % sample_every == 0) and net.n > 2
        if op.kind == "join" or net.n == 0:
            if measure:
                # pick the landing point up front so the measured region
                # is the neighbourhood the join really touches
                if selector is not None:
                    point = float(selector(net, rng))
                else:
                    point = float(rng.random())
                owner = net.segments.cover_point(point)
                region = [owner] + net.neighbor_points(owner)
                affected_before = {q: frozenset(net.neighbor_points(q))
                                   for q in region}
                net.join(point=point)
            else:
                net.join(selector=selector)
        else:
            victim = net.segments.point_at(op.victim % net.n)
            if measure:
                region = [victim] + net.neighbor_points(victim)
                affected_before = {q: frozenset(net.neighbor_points(q))
                                   for q in region}
            net.leave(victim)
        if measure:
            touched = 0
            for q, before in affected_before.items():
                if q in net.servers and frozenset(net.neighbor_points(q)) != before:
                    touched += 1
                elif q not in net.servers:
                    touched += 1
            report.touched_per_op.append(touched)
            if net.n >= 2:
                report.smoothness_series.append(net.smoothness())
        if on_op is not None:
            on_op(step, op)
        step += 1
    report.final_n = net.n
    if net.n >= 2:
        report.smoothness_series.append(net.smoothness())
    return report
