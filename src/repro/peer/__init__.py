"""P4P/ALTO-style network-cost layer over the continuous-discrete DHT.

The paper's lookups pick uniformly among covering edges; real
deployments pick by network cost.  This package supplies the pieces —
a deterministic :class:`~repro.peer.costmap.CostMap` (per-server ISP
labels + coordinates hashed from the id point), an iTracker-like
:class:`~repro.peer.itracker.CostOracle` scoring candidate covering
edges, the shared selection policies (uniform / greedy-cheapest /
temperature-weighted) with bit-parity-proof scalar twins, and
:class:`~repro.peer.routing.CostAwareBatchRouter`, a BatchRouter whose
snapshot carries cost columns through churn refresh.  See
``docs/COST_MODEL.md`` for the determinism rules.
"""

from .costmap import CostMap, hash01, pair_costs
from .itracker import (
    CostOracle,
    cross_isp_counts,
    path_cost_totals,
)
from .policy import POLICIES, check_policy, select_index, select_rows
from .routing import CostAwareBatchRouter

__all__ = [
    "POLICIES",
    "CostAwareBatchRouter",
    "CostMap",
    "CostOracle",
    "check_policy",
    "cross_isp_counts",
    "hash01",
    "pair_costs",
    "path_cost_totals",
    "select_index",
    "select_rows",
]
