"""The congestion booking as it was before its blocked ``np.bincount``."""

import numpy as np

from repro.core.routing_stats import BatchCongestion


class ParentBatchCongestion(BatchCongestion):
    """``BatchCongestion`` with the parent's ``record_batch`` (one
    ``np.bincount`` over the whole batch) and ``_merge_sorted``
    (concatenate plus stable argsort unless the keys are the same),
    verbatim; the read API is inherited."""

    def record_batch(self, result) -> None:
        servers, _offsets = result.to_csr()
        counts = np.bincount(servers, minlength=len(result.points))
        nz = counts > 0
        self._merge_sorted(
            np.asarray(result.points, dtype=np.float64)[nz], counts[nz])
        self.lookups += result.size
        self.total_messages += int(result.hops.sum())

    def _merge_sorted(self, points: np.ndarray, counts: np.ndarray) -> None:
        if points.size == 0:
            return
        if self._points.size == 0:
            self._points = points.copy()
            self._counts = counts.astype(np.int64)
            return
        if np.array_equal(points, self._points):
            self._counts += counts
            return
        allp = np.concatenate([self._points, points])
        allc = np.concatenate([self._counts, counts])
        order = np.argsort(allp, kind="stable")
        p = allp[order]
        c = allc[order]
        first = np.ones(p.size, dtype=bool)
        first[1:] = p[1:] != p[:-1]
        self._points = p[first]
        self._counts = np.add.reduceat(c, np.flatnonzero(first))
