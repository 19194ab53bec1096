"""P4P/ALTO-style network-cost layer over the continuous-discrete DHT.

The paper's lookups pick uniformly among covering edges; real
deployments pick by network cost.  This package supplies the pieces —
a deterministic :class:`~repro.peer.costmap.CostMap` (per-server ISP
labels + coordinates hashed from the id point), an iTracker-like
:class:`~repro.peer.itracker.CostOracle` holding the cost columns and
scoring candidate covering edges, the shared selection policies
(uniform / greedy-cheapest / softmin-weighted) with bit-parity-proof
scalar twins.  Both engines' cost paths are built with ``cost_map=``: a
:class:`~repro.core.batch.BatchRouter` (its snapshot rebuilds its
oracle through churn refresh) routed with ``batch_dh_lookup(policy=)``,
and a :class:`~repro.faults.batch_ft.FTBatchEngine` routed with
``batch_simple_lookup(policy=)``.  See
``docs/COST_MODEL.md`` for the determinism rules.
"""

from .costmap import CostMap, hash01, pair_costs
from .itracker import (
    CostOracle,
    cross_isp_counts,
    path_cost_totals,
)
from .policy import POLICIES, select_index, select_rows
from .routing import CostAwareBatchRouter

__all__ = [
    "POLICIES",
    "CostAwareBatchRouter",
    "CostMap",
    "CostOracle",
    "cross_isp_counts",
    "hash01",
    "pair_costs",
    "path_cost_totals",
    "select_index",
    "select_rows",
]
