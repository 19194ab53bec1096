"""The congestion booking in bounded temporaries, bit for bit.

``BatchCongestion.record_batch`` counts ``path_servers`` with one
``np.bincount`` per block of ``max(_BLOCK, n)`` entries, summed into one
``int64`` vector: ``bincount`` copies its ``int32`` input to ``intp``,
which over a whole soak chunk was 8 B a path entry.  ``_merge_sorted``
adds the counts of keys it already holds in place and inserts only the
new keys, where it used to concatenate and stable-sort both whenever
the key sets differed.  ``ParentBatchCongestion`` (:mod:`oracles.
routing_stats`) is the parent's booking verbatim; the accumulators must
agree in ``_points`` and ``_counts``, dtype and bits, on generated key
sets, on real batches across block boundaries and churn, and under
``merge``.  What the change is *for* is pinned last: the traced peak
of booking about a million entries at n = 16384.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.inputs import populated
from oracles.routing_stats import ParentBatchCongestion

from repro.core import routing_stats
from repro.core.routing_stats import BatchCongestion

STATE = ("lookups", "total_messages", "_points", "_counts")

#: a shared key universe: batches book sorted subsets of it
UNIVERSE = np.sort(np.random.default_rng(0).random(40))


@st.composite
def key_sets(draw):
    """``(points, counts)``: a sorted subset of the universe, or of a
    shifted copy (keys no batch held), with positive int64 counts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = UNIVERSE if draw(st.booleans()) else UNIVERSE + 1e-3
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.95, 1.0]))
    points = keys[rng.random(keys.size) < share]
    return points, rng.integers(1, 1000, size=points.size)


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(key_sets(), min_size=1, max_size=8))
def test_merges_equal_the_parent(batches):
    mine, parent = BatchCongestion(), ParentBatchCongestion()
    for points, counts in batches:
        mine._merge_sorted(points, counts)
        parent._merge_sorted(points, counts)
        assert_same(mine, parent, STATE)


def route(router, rng, lanes):
    pts = router.points
    return router.lookup_batch(pts[rng.integers(0, pts.size, size=lanes)],
                               rng.random(lanes), keep_paths="csr")


@pytest.mark.parametrize("block", [16, 17, 333, 1 << 20])
def test_real_batches_across_blocks_and_churn(block, monkeypatch):
    """Blocks of ``max(_BLOCK, n)`` entries: n itself (the floor), one
    more than n, uneven, and one block per batch; a join and a leave
    between batches move the key set and n."""
    monkeypatch.setattr(routing_stats, "_BLOCK", block)
    net = populated(16, 316)
    router = net.router(auto_refresh=True)
    rng = np.random.default_rng(block)
    mine, parent = BatchCongestion(), ParentBatchCongestion()
    for step in range(6):
        res = route(router, rng, 40 + 30 * step)
        mine.record_batch(res)
        parent.record_batch(res)
        assert_same(mine, parent, STATE)
        if step == 2:
            net.join(float(rng.random()))
        if step == 4:
            net.leave(net.segments.point_at(3))
    other, other_parent = BatchCongestion(), ParentBatchCongestion()
    res = route(router, rng, 50)
    other.record_batch(res)
    other_parent.record_batch(res)
    mine.merge(other)
    parent.merge(other_parent)
    assert_same(mine, parent, STATE)


def test_a_batch_that_visits_no_server_books_nothing():
    mine = BatchCongestion()
    mine.record_batch(route(populated(16, 316).compile_router(),
                            np.random.default_rng(1), 0))
    assert mine._points.size == mine._counts.size == mine.lookups == 0
    assert mine._counts.dtype == np.int64


def test_booking_a_million_entries_stays_under_a_byte_each():
    """About a million path entries at n = 16384: the traced peak above
    the ``int64`` count vector stays ≤ 1 B an entry, for a fresh and for
    a steady-state accumulator.  The parent's one ``bincount`` read
    ~8.0 B an entry (its ``intp`` copy of ``path_servers``)."""
    net = populated(16384, 3)
    res = route(net.compile_router(), np.random.default_rng(3), 72_000)
    entries, output = res.path_servers.size, 8 * net.n
    assert entries > 1_000_000
    steady = BatchCongestion()
    steady.record_batch(res)
    for acc in (BatchCongestion(), steady):
        tracemalloc.start()
        try:
            acc.record_batch(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - output <= entries, (peak - output) / entries
