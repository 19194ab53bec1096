"""iTracker-like cost oracle + cross-ISP traffic accounting over CSR paths.

:class:`CostOracle` is the query side of the P4P picture and the one
holder of a point array's cost columns: built from the array and a
:class:`~repro.peer.costmap.CostMap`, it computes the per-server
label/coordinate columns once and answers "what does the edge i→j
cost?" as a pure array gather by index.  Both batch engines score their
candidates through :meth:`CostOracle.edge_costs` — a
:class:`~repro.core.batch.BatchRouter` built with ``cost_map=`` keeps
one as ``cost`` and rebuilds it every refresh, a
:class:`~repro.faults.batch_ft.FTBatchEngine` built with ``cost_map=``
keeps one over its frozen ids — and the scalar walk gathers through
the same method over an oracle of each hop's own id points (the
columns are pure hashes of the ids), so every pick evaluates the same
float64 expression (:func:`~repro.peer.costmap.pair_costs`) and is
bit-comparable.

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


#: The one refusal of a policy that reads costs by an engine (or the
#: scalar walk) given no cost map, formatted with ``policy`` and
#: ``engine``, the callable that takes ``cost_map=``.
NO_COST_MAP = ("cost_map must be set to route with policy {policy!r}, got "
               "None: pass cost_map= (a repro.peer.CostMap) to "
               "{engine}(...)")


class CostOracle:
    """The cost columns of a point array and the edge-cost gather over them.

    ``isp`` (int64), ``x`` and ``y`` (float64) are the map's columns of
    ``points`` (:meth:`~repro.peer.costmap.CostMap.columns`), aligned
    with its indices.  They are pure hashes of the ids, so an oracle
    over the same ids is bit-identical however it was built.  The
    oracle keeps no point array, so it never aliases a router's
    copy-on-write buffers: callers map id points to indices themselves.
    """

    def __init__(self, points, cost_map: CostMap) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("CostOracle needs a 1-d non-empty point array")
        self.cost_map = cost_map
        cols = cost_map.columns(pts)
        self.isp, self.x, self.y = (cols["cost_isp"], cols["cost_x"],
                                    cols["cost_y"])

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
    e.g. ``cost.isp`` of an engine built with ``cost_map=``)
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
