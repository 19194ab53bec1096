"""Cost-aware BatchRouter: snapshot cost columns that survive churn.

:class:`CostAwareBatchRouter` extends the core
:class:`~repro.core.batch.BatchRouter` with three snapshot columns —
``cost_isp`` (int64 label), ``cost_x``/``cost_y`` (pre-scaled float64
coordinates) — plus the non-column ``_isp_cost`` matrix.

The cost columns are **pure functions of the sorted point column**
(hashes of the id points), so after any ``refresh()`` — incremental
patch or full rebuild — they are recomputed wholesale and are
bit-identical to a freshly compiled router over the same membership.
"""

import numpy as np

from ..core.batch import BatchRouter
from .costmap import CostMap


class CostAwareBatchRouter(BatchRouter):
    """A BatchRouter whose snapshot carries per-server network costs.

    Construct it over a :class:`~repro.core.DistanceHalvingNetwork`
    exactly like a plain router, plus the :class:`CostMap`; the
    cost-aware lookup (``batch_cost_dh_lookup`` / ``lookup_batch`` with
    a ``policy=``) requires these columns and raises an actionable
    error on a plain router.
    """

    def __init__(
        self,
        net,
        cost_map: CostMap,
        build_adjacency: bool = True,
        auto_refresh: bool = False,
        churn_budget=None,
    ) -> None:
        self.cost_map = cost_map
        super().__init__(
            net,
            build_adjacency=build_adjacency,
            auto_refresh=auto_refresh,
            churn_budget=churn_budget,
        )

    def _rebuild(self) -> None:
        """Full recompile, then rederive the cost columns from points."""
        super()._rebuild()
        self._refresh_cost_columns()

    def _patch(self, pending) -> bool:
        """Incremental patch; cost columns are rehashed afterwards."""
        if not super()._patch(pending):
            return False
        self._refresh_cost_columns()
        return True

    def _refresh_cost_columns(self) -> None:
        """Recompute labels/coordinates from the (possibly new) points.

        Pure hashing makes this O(n) and bit-reproducible, which is the
        whole churn-stability story: there is no per-column patch logic
        to drift out of sync with the point column.
        """
        # the live rows, read without handing the column out
        cols = self.cost_map.columns(self._ext[:self.n])
        self.cost_isp = cols["cost_isp"]
        self.cost_x = cols["cost_x"]
        self.cost_y = cols["cost_y"]
        self._isp_cost = np.ascontiguousarray(
            self.cost_map.isp_cost, dtype=np.float64
        )
