"""Shared test helper: a router's neighbour relation as a sorted key table.

``BatchRouter`` stores adjacency as per-row index ranges (``adj_first``
/ ``adj_count``); the tests compare relations as sets, so they expand
the ranges into the sorted ``row·2³¹ + col`` keys the scalar oracle
``net.adjacency_arrays()`` encodes to.  Importable from every test
directory because ``tests/conftest.py`` puts ``tests/`` on ``sys.path``.
"""

import numpy as np

ROW_STRIDE = np.int64(1) << 31


def csr_keys(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sorted keys of CSR neighbour rows (``net.adjacency_arrays()``)."""
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
