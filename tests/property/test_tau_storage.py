"""The flash crowd's digit strings: read narrow, never drawn whole.

``serve_batch(rng=…)`` used to keep its ``(B, 64)`` digit strings as
the ``int64`` matrix ``rng.integers`` returns — 512 bytes a request of
which the walk reads ≤ ~15 digits — and later as a narrow matrix drawn
block by block.  Its digits are now a function of one key and the lane
(:class:`repro.core.walk.KeyedLanes`), so no matrix is drawn at all;
a caller's ``tau`` is still read at the width it came in.  Pinned here:
narrow and wide ``tau`` route alike, and what the change is *for*, the
traced peak of one 62,500-lane flash batch at n=16384, whose byte
history the pin's docstring keeps.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from oracles.compare import assert_same
from oracles.inputs import populated

from repro.core import BatchCacheEngine
from repro.core.walk import per_lane_matrix
from repro.sim.workload import demand_stream, zipf_demands


@functools.lru_cache(maxsize=None)
def get_net(n, delta=2):
    return populated(n, 5000 + 10 * n + delta, delta)


def flash_batch(net, n_items, count, rng):
    """A soak-style flash batch: Zipf items in stream order, server sources."""
    idx = demand_stream(zipf_demands(n_items, count, rng, exponent=1.2), rng)
    pts = net.segments.as_array()
    return idx, pts[rng.integers(0, pts.size, size=idx.size)]


# ------------------------------------------------------------ the readers
class TestNarrowDigitsRouteAlike:
    def test_per_lane_matrix_keeps_the_width_without_a_copy(self):
        tau = np.ones((3, 8), dtype=np.uint8)
        mat = per_lane_matrix(tau, 3, np.int64, "tau")
        assert mat.dtype == np.uint8 and np.shares_memory(mat, tau)

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_batch_dh_lookup(self, delta):
        net = get_net(256, delta)
        router = net.compile_router(with_adjacency=True)
        rng = np.random.default_rng(delta)
        pts = net.segments.as_array()
        src, tgt = pts[rng.integers(0, pts.size, 500)], rng.random(500)
        wide = rng.integers(0, delta, size=(500, 64))
        a = router.batch_dh_lookup(src, tgt, tau=wide, keep_paths=True)
        b = router.batch_dh_lookup(src, tgt, tau=wide.astype(np.uint8),
                                   keep_paths=True)
        assert_same(a, b, ("owner_idx", "t", "hops", "phase1_hops",
                           "path_servers", "path_offsets"))


class TestServeBatchDraw:
    def test_flash_batch_peak_is_under_255_bytes_a_lane(self):
        """One soak-sized flash batch (62,500 lanes, 64 items, n=16384)
        with the digits drawn inside: the wide ``(B, 64)`` matrix alone
        was 512 B a lane, its traced peak ~918.  Narrow digits took that
        to ~467; keeping only the ``tmax`` digit columns and the walk's
        ``t`` / ``hops`` past the walk, ~380; a CSR writer that compacts
        its buffer in place instead of copying it, ~315; the walk and
        the path emission one lane block at a time, ~232 (the bound is
        that plus 10 %)."""
        net = get_net(16384)
        eng = BatchCacheEngine(net, [f"hot-{i}" for i in range(64)])
        rng = np.random.default_rng(6)
        idx, src = flash_batch(net, 64, 62_500, rng)
        tracemalloc.start()
        try:
            eng.serve_batch(idx, src, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / idx.size <= 255, peak / idx.size
