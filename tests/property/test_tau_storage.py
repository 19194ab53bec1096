"""The flash crowd's digit strings: the same draw, stored narrow.

``serve_batch(rng=…)`` used to keep its ``(B, 64)`` digit strings as
the ``int64`` matrix ``rng.integers`` returns — 512 bytes a request of
which the walk reads ≤ ~15 digits.  It now makes the same ``int64``
call block by block and keeps the digits in the smallest unsigned
dtype that holds ``Δ − 1``; every reader takes the narrow matrix as is.
Pinned here: the blocked draw equals the one-call draw in values and
generator state; ``OneDrawEngine`` (:mod:`oracles.cache`) — the
parent's ``serve_batch`` *verbatim*, one wide draw — agrees with the
engine on every result field, every state array and the generator, in
dtype and bits; narrow and wide ``tau`` route alike; and what the change
is *for*, the traced peak of one 62,500-lane flash batch at n=16384,
whose byte history the pin's docstring keeps.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from oracles.cache import RESULT_FIELDS, STATE_FIELDS, OneDrawEngine
from oracles.compare import assert_same
from oracles.inputs import populated

from repro.core import BatchCacheEngine
from repro.core.batch_cache import _TAU_BLOCK, _TAU_DIGITS, _draw_tau
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


def same_state(rng_a, rng_b):
    return rng_a.bit_generator.state == rng_b.bit_generator.state


# ------------------------------------------------------------------ the draw
class TestBlockedDraw:
    @pytest.mark.parametrize("size", [0, 1, _TAU_BLOCK - 1, _TAU_BLOCK,
                                      _TAU_BLOCK + 1, 62_500])
    @pytest.mark.parametrize("delta", [2, 3, 4, 5, 7, 16])
    def test_equals_the_one_call_draw(self, delta, size):
        mine, ref = (np.random.default_rng(70 + delta) for _ in range(2))
        got = _draw_tau(mine, delta, size)
        want = ref.integers(0, delta, size=(size, _TAU_DIGITS))
        assert got.shape == want.shape and np.array_equal(got, want)
        assert same_state(mine, ref)
        # and the stream goes on identically afterwards
        assert np.array_equal(mine.integers(0, 1 << 40, 8),
                              ref.integers(0, 1 << 40, 8))

    @pytest.mark.parametrize("delta, dtype", [(2, np.uint8), (256, np.uint8),
                                              (257, np.uint16)])
    def test_smallest_unsigned_dtype_that_holds_a_digit(self, delta, dtype):
        tau = _draw_tau(np.random.default_rng(1), delta, 5)
        assert tau.dtype == dtype and tau.shape == (5, _TAU_DIGITS)


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
        wide = rng.integers(0, delta, size=(500, _TAU_DIGITS))
        a = router.batch_dh_lookup(src, tgt, tau=wide, keep_paths=True)
        b = router.batch_dh_lookup(src, tgt, tau=wide.astype(np.uint8),
                                   keep_paths=True)
        assert_same(a, b, ("owner_idx", "t", "hops", "phase1_hops",
                           "path_servers", "path_offsets"))


class TestServeBatchDraw:
    @pytest.mark.parametrize("salts", [1, 3])
    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_bit_identical_to_the_one_draw_engine(self, delta, salts):
        """Several batches and an epoch boundary; threshold 1 makes the
        fixpoint and the deep descents read many narrow digits."""
        net = get_net(1024, delta)
        items = [f"hot-{i}" for i in range(6)]
        eng = BatchCacheEngine(net, items, threshold=1, salts=salts)
        ref = OneDrawEngine(net, items, threshold=1, salts=salts)
        inputs = np.random.default_rng(17 * delta + salts)
        mine, theirs = (np.random.default_rng(delta) for _ in range(2))
        for count in (3000, 1, _TAU_BLOCK + 7, None, 2500):
            if count is None:
                assert eng.advance_epoch() == ref.advance_epoch()
                continue
            idx, src = flash_batch(net, len(items), count, inputs)
            got = eng.serve_batch(idx, src, rng=mine)
            want = ref.serve_batch(idx, src, rng=theirs)
            assert_same(got, want, RESULT_FIELDS)
            assert_same(eng, ref, STATE_FIELDS)
            assert same_state(mine, theirs)
        eng.check_well_formed()

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
