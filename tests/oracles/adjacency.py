"""Oracles of the §2.1 neighbour relation, as sorted key tables."""

from typing import List

import numpy as np

from repro.core.segments import normalize_array

ROW_STRIDE = np.int64(1) << 31


def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style ``(indptr, indices)`` of the undirected neighbour sets.

    Row ``i`` (servers in sorted id order) holds the sorted indices of
    ``neighbor_points(x_i)`` — forward, backward and (when enabled)
    ring neighbours, self excluded.  This is the routing table the
    batch engine consults for the Distance Halving lookup's
    "covered by a neighbour" test.
    """
    pts = list(self.segments)
    index = {p: i for i, p in enumerate(pts)}
    indptr = np.zeros(len(pts) + 1, dtype=np.int64)
    indices: List[int] = []
    for i, p in enumerate(pts):
        row = sorted(index[q] for q in self.neighbor_points(p))
        indices.extend(row)
        indptr[i + 1] = len(indices)
    return indptr, np.asarray(indices, dtype=np.int64)


def csr_keys(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sorted keys of CSR neighbour rows (:func:`adjacency_arrays`)."""
    rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64),
                     np.diff(indptr))
    return np.sort(rows * ROW_STRIDE + indices)


def edge_keys(router) -> np.ndarray:
    """Sorted distinct keys of every directed neighbour pair, self excluded.

    Builds the range columns first when the router has none yet.  The
    virtual column ``n`` (the seam segment's piece ``[0, x_0)``) belongs
    to row ``n - 1``.
    """
    if router.adj_first is None:
        router._build_adjacency()
    n = router.n
    slots, columns = router.adj_first.shape
    assert columns == n + 1 and router.adj_count.shape == (slots, columns)
    first = router.adj_first.ravel().astype(np.int64)
    count = router.adj_count.ravel().astype(np.int64)
    assert ((count >= 0) & (count <= n)).all()
    ends = np.cumsum(count)
    cols = (np.repeat(first - (ends - count), count) + np.arange(ends[-1])) % n
    rows = np.repeat(np.tile(np.minimum(np.arange(columns), n - 1), slots),
                     count)
    other = rows != cols
    return np.unique(rows[other] * ROW_STRIDE + cols[other])


def isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted int table (binary search)."""
    if len(table) == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(table, values)
    pos_c = np.minimum(pos, len(table) - 1)
    return (pos < len(table)) & (table[pos_c] == values)


def piece_ranges(points, starts, ends) -> tuple:
    """One ``(arc, first, count)`` range per non-wrapping arc piece."""
    full = starts == ends
    wraps = starts > ends
    part = np.flatnonzero(~full)
    tail = np.flatnonzero(wraps & (ends > 0.0))  # second piece [0, end)
    whole = np.flatnonzero(full)
    a = np.concatenate([starts[part], np.zeros(tail.size)])
    b = np.concatenate([np.where(wraps[part], 1.0, ends[part]), ends[tail]])
    lo = np.searchsorted(points, a, side="right")
    hi = np.searchsorted(points, b, side="left")
    return (np.concatenate([part, tail, whole]),
            np.concatenate([lo - 1, np.zeros(whole.size, dtype=lo.dtype)]),
            np.concatenate([hi - lo + 1,
                            np.full(whole.size, len(points), dtype=lo.dtype)]))


def key_table(pts: np.ndarray, delta: int, with_ring: bool) -> np.ndarray:
    """The sorted edge-key table, built the way the router used to."""
    n = len(pts)
    if n == 1:
        return np.zeros(0, dtype=np.int64)
    row = np.arange(n)
    a, b = pts, np.append(pts[1:], 1.0)
    if pts[0] > 0.0:
        row = np.append(row, n - 1)
        a, b = np.append(a, 0.0), np.append(b, pts[0])
    ranges = []
    factor = 1.0 / delta
    for d in range(delta):
        offset = d / delta
        arc, first, count = piece_ranges(
            pts, normalize_array(a * factor + offset),
            normalize_array(b * factor + offset))
        ranges.append((row[arc], first, count))
    length = (b - a) * delta
    full = np.zeros(n, dtype=bool)
    full[row[length >= 1]] = True
    start = normalize_array(a * delta)
    arc, first, count = piece_ranges(
        pts, start,
        np.where(full[row], start, normalize_array(start + length)))
    ranges.append((row[arc], first, count))
    if with_ring:
        ranges.append((np.arange(n), np.arange(n) - 1, np.full(n, 3)))
    rows, first, count = (np.concatenate(col) for col in zip(*ranges))
    ends = np.cumsum(count)
    cols = np.repeat(first - (ends - count), count) + np.arange(ends[-1])
    cols %= n
    rows = np.repeat(rows, count)
    other = rows != cols
    return np.unique(rows[other] * ROW_STRIDE + cols[other])
