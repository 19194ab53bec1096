"""The cost-aware router under its former name.

A cost-aware router is a :class:`~repro.core.batch.BatchRouter` built
with ``cost_map=``; :class:`CostAwareBatchRouter` is that constructor
spelled the old way, kept while ``benchmarks/spine/workloads.py`` calls
it.  ROADMAP item 1 deletes it with that file's next change.
"""

from ..core.batch import BatchRouter


class CostAwareBatchRouter(BatchRouter):
    """``BatchRouter(net, cost_map=cost_map)``, adjacency built by default."""

    def __init__(self, net, cost_map, build_adjacency=True,
                 auto_refresh=False, churn_budget=None) -> None:
        super().__init__(net, build_adjacency, auto_refresh, churn_budget,
                         cost_map)
