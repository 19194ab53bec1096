"""iTracker-like cost oracle + cross-ISP traffic accounting over CSR paths.

:class:`CostOracle` is the query side of the P4P picture: built from a
frozen sorted point array and a :class:`~repro.peer.costmap.CostMap`,
it precomputes the per-server label/coordinate columns once and answers
"what does the edge i→j cost?" as a pure array gather — the batch
engines call :meth:`CostOracle.edge_costs` with a (K, B) candidate
matrix, the scalar walks call :meth:`CostOracle.cost_between` with the
alive-cover list, and both evaluate the same float64 expression
(:func:`~repro.peer.costmap.pair_costs`), which is what makes the
policy picks bit-comparable.

The module-level functions account traffic over the CSR path arrays
(``path_servers``/``path_offsets``) every batch result emits.  The
accountants gather each path entry's columns once and read transition
``i`` as entries ``i → i+1``; the one transition per row boundary,
``path_offsets[1:-1] − 1``, is zeroed instead of compacted out.
Per-lookup cross-ISP counts are then one ``cumsum`` read at the row
ends (exact in integers), and summed path costs one ``np.bincount``
whose boundary weights are ``+0.0`` — it adds each row's costs in path
order, so the totals keep their bits.  Every path holds at least its
source, so malformed blocks (empty rows, offsets that miss the server
array, negative server ids) raise ``ValueError`` up front.
"""

from typing import Tuple

import numpy as np

from .costmap import CostMap, pair_costs


class CostOracle:
    """Scores candidate covering edges for a frozen point array.

    The point array must be sorted and static for the oracle's lifetime
    (it is the §6 overlapping network's ``points_array``); points are
    mapped back to indices by exact binary search, so the oracle can be
    driven with either indices or raw id points.
    """

    def __init__(self, points, cost_map: CostMap) -> None:
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("CostOracle needs a 1-d non-empty point array")
        if np.any(np.diff(pts) < 0):
            raise ValueError("CostOracle needs a sorted point array")
        self.points = pts
        self.cost_map = cost_map
        self.isp = cost_map.isp_of(pts)
        self.x, self.y = cost_map.coords_of(pts)

    @property
    def isp_cost(self) -> np.ndarray:
        """The k×k inter-ISP cost matrix."""
        return self.cost_map.isp_cost

    def index_of(self, points) -> np.ndarray:
        """Exact indices of id points in the frozen array (raises if absent)."""
        pts = np.asarray(points, dtype=np.float64)
        idx = np.searchsorted(self.points, pts)
        idx = np.minimum(idx, self.points.size - 1)
        if not np.all(self.points[idx] == pts):
            raise ValueError("point not present in the oracle's point array")
        return idx

    def edge_costs(self, i_idx, j_idx) -> np.ndarray:
        """Cost of edges i→j by index; broadcasts, e.g. (B,) × (K, B)."""
        i_idx = np.asarray(i_idx)
        j_idx = np.asarray(j_idx)
        return pair_costs(
            self.isp[i_idx], self.isp[j_idx],
            self.x[i_idx], self.y[i_idx],
            self.x[j_idx], self.y[j_idx],
            self.cost_map.isp_cost,
        )

    def cost_between(self, p_from, p_to) -> np.ndarray:
        """Costs from one id point to a list of id points (scalar walks)."""
        return self.edge_costs(
            self.index_of(p_from), self.index_of(np.asarray(p_to))
        )


def _csr_block(path_servers, path_offsets) -> Tuple[np.ndarray, np.ndarray]:
    """``(path_servers, path_offsets)`` as arrays, checked to be a CSR block.

    O(lookups) plus one ``min`` over the servers; raises ``ValueError``
    naming the argument when the offsets do not start at 0, do not end
    at the server count, or describe an empty row (every path holds its
    source), or when a server index is negative (a gather would wrap it
    to the last server).  A zero-lookup block (offsets ``[0]``) is valid.
    """
    servers = np.asarray(path_servers)
    offsets = np.asarray(path_offsets)
    if offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("path_offsets must be 1-d with at least one entry")
    if offsets[0] != 0:
        raise ValueError(f"path_offsets[0] is {offsets[0]}, must be 0")
    if offsets[-1] != servers.size:
        raise ValueError(
            f"path_offsets[-1] is {offsets[-1]}, but path_servers holds "
            f"{servers.size} entries")
    empty = np.flatnonzero(offsets[1:] <= offsets[:-1])
    if empty.size:
        raise ValueError(
            f"path_offsets gives row {empty[0]} no entries; every path "
            "holds at least its source")
    if servers.size and servers.min() < 0:
        raise ValueError("path_servers holds a negative server index")
    return servers, offsets


def cross_isp_counts(
    isp_labels: np.ndarray,
    path_servers: np.ndarray,
    path_offsets: np.ndarray,
) -> np.ndarray:
    """Per-lookup count of hops that cross an ISP boundary.

    ``isp_labels`` is the per-server label column (``CostOracle.isp``
    or ``CostAwareBatchRouter.cost_isp``) aligned with the server
    indices stored in the CSR path arrays.
    """
    servers, offsets = _csr_block(path_servers, path_offsets)
    lab = isp_labels.take(servers)
    cross = np.not_equal(lab[1:], lab[:-1])
    cross[offsets[1:-1] - 1] = False
    # running[i]: the crossings among the transitions before entry i
    running = np.zeros(lab.size, dtype=np.int64)
    np.cumsum(cross, out=running[1:])
    return np.diff(running.take(offsets[1:] - 1), prepend=0)


def path_cost_totals(
    oracle: CostOracle,
    path_servers: np.ndarray,
    path_offsets: np.ndarray,
) -> np.ndarray:
    """Per-lookup total network cost of the routed path."""
    servers, offsets = _csr_block(path_servers, path_offsets)
    lab = oracle.isp.take(servers)
    x = oracle.x.take(servers)
    y = oracle.y.take(servers)
    costs = pair_costs(lab[:-1], lab[1:], x[:-1], y[:-1], x[1:], y[1:],
                       oracle.cost_map.isp_cost)
    costs[offsets[1:-1] - 1] = 0.0
    rows = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    totals = np.bincount(rows[:-1], weights=costs, minlength=offsets.size - 1)
    # a bincount over no entries ignores its weights' dtype
    return totals.astype(np.float64, copy=False)
