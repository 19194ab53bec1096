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
(``path_servers``/``path_offsets``) every batch result emits.  They
walk the block in row-aligned chunks of about :data:`_BLOCK` entries,
so every temporary is chunk-sized whatever the batch.  Per chunk the
servers are cast to ``intp`` once, each entry's columns are gathered
once, and transition ``i`` is read as entries ``i → i+1``; the one
transition per row boundary is zeroed instead of compacted out.
Per-lookup cross-ISP counts are then one ``np.add.reduceat`` over the
row starts (exact in integers), and summed path costs one
``np.bincount`` — it adds each row's costs in path order, so the totals
keep their bits.  Every path holds at least its source, so malformed
blocks (non-integer or multi-dimensional arrays, empty rows, offsets
that miss the server array, negative server ids) raise ``ValueError``
up front.
"""

from typing import Iterator, Tuple

import numpy as np

from .costmap import CostMap, pair_costs

#: Path entries per accountant chunk.  A float64 temporary over a chunk
#: is then 64 KB: under glibc's 128 KB mmap threshold, so the heap
#: recycles it instead of every call faulting fresh pages in, and inside
#: L2.  A row longer than this is a chunk of its own.
_BLOCK = 8192


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
    naming the argument when either array is not a 1-d integer array (a
    bool would read as server ids 1 / 0), when the offsets are empty, do
    not start at 0, do not end at the server count, or describe an empty
    row (every path holds its source), or when a server index is
    negative (a gather would wrap it to the last server).  A zero-lookup
    block (offsets ``[0]``) is valid.
    """
    servers = np.asarray(path_servers)
    offsets = np.asarray(path_offsets)
    for name, arr in (("path_servers", servers), ("path_offsets", offsets)):
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise ValueError(f"{name} must be a 1-d integer array; got a "
                             f"{arr.ndim}-d {arr.dtype} array")
    if offsets.size == 0:
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


def _chunks(servers: np.ndarray, offsets: np.ndarray) -> Iterator[tuple]:
    """``(lo, hi, ids, starts)`` per row-aligned chunk of a CSR block.

    Rows ``lo .. hi − 1`` hold at most :data:`_BLOCK` entries together,
    or are one row longer than that; ``ids`` are their servers cast to
    ``intp`` once, ``starts`` the rows' first entries within ``ids``.
    """
    lookups = offsets.size - 1
    lo = 0
    while lo < lookups:
        first = int(offsets[lo])
        hi = int(np.searchsorted(offsets, first + _BLOCK, side="right")) - 1
        hi = max(hi, lo + 1)
        ids = servers[first:offsets[hi]].astype(np.intp, copy=False)
        yield lo, hi, ids, offsets[lo:hi] - first
        lo = hi


def cross_isp_counts(
    isp_labels: np.ndarray,
    path_servers: np.ndarray,
    path_offsets: np.ndarray,
) -> np.ndarray:
    """Per-lookup count of hops that cross an ISP boundary.

    ``isp_labels`` is the per-server label column (``CostOracle.isp``,
    or ``cost_isp`` of a ``BatchRouter`` built with ``cost_map=``)
    aligned with the server indices stored in the CSR path arrays.
    """
    servers, offsets = _csr_block(path_servers, path_offsets)
    counts = np.empty(offsets.size - 1, dtype=np.int64)
    for lo, hi, ids, starts in _chunks(servers, offsets):
        lab = isp_labels.take(ids)
        # cross[i]: entries i → i+1 differ; each row's last slot stays
        # False, so a row's slots sum to its crossings
        cross = np.zeros(ids.size, dtype=bool)
        np.not_equal(lab[1:], lab[:-1], out=cross[:-1])
        cross[starts[1:] - 1] = False
        np.add.reduceat(cross, starts, dtype=np.int64, out=counts[lo:hi])
    return counts


def path_cost_totals(
    oracle: CostOracle,
    path_servers: np.ndarray,
    path_offsets: np.ndarray,
) -> np.ndarray:
    """Per-lookup total network cost of the routed path."""
    servers, offsets = _csr_block(path_servers, path_offsets)
    totals = np.empty(offsets.size - 1, dtype=np.float64)
    for lo, hi, ids, starts in _chunks(servers, offsets):
        lab = oracle.isp.take(ids)
        x = oracle.x.take(ids)
        y = oracle.y.take(ids)
        costs = pair_costs(lab[:-1], lab[1:], x[:-1], y[:-1], x[1:], y[1:],
                           oracle.cost_map.isp_cost)
        costs[starts[1:] - 1] = 0.0
        rows = np.repeat(np.arange(hi - lo), np.diff(offsets[lo:hi + 1]))
        # boundary weights are +0.0, and each row adds in path order
        totals[lo:hi] = np.bincount(rows[:-1], weights=costs,
                                    minlength=hi - lo)
    return totals
