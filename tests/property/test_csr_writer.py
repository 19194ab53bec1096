"""The sparse CSR writer against the dense one it replaced.

:func:`dense_ragged_to_csr` is the previous ``ragged_to_csr``
*verbatim*: a bool mask over every slot, a shifted compare, an
``arange`` / ``repeat`` slot index for the ``lens=`` form and an
``int64`` ``kept`` index of every surviving entry.  The writer now finds
the rare repeated server with one compare and does O(lanes + dropped)
work after it, handing the buffer through when nothing merges.  Both
must agree on dtype and value of both CSR arrays — on generated ragged
buffers aimed at the corners (repeats across a lane boundary, runs
inside a lane, garbage tails equal to their neighbours) and on the real
buffers every engine emits.  One more test pins what the rewrite is
*for*: a repeat-free buffer costs the writer at most one byte per entry.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.base as baselines_base
import repro.core.batch_cache as batch_cache
import repro.core.walk as walk
import repro.faults.batch_ft as batch_ft
from repro.baselines import ChordNetwork
from repro.core import BatchCacheEngine, DistanceHalvingNetwork
from repro.core.walk import ragged_to_csr
from repro.faults import FTBatchEngine, OverlappingDHNetwork, random_failstop
from repro.peer import CostAwareBatchRouter, CostMap


def dense_ragged_to_csr(buf, starts, lens=None) -> tuple:
    """The previous writer, kept verbatim as the oracle."""
    first = np.zeros(buf.size, dtype=bool)
    first[starts] = True
    keep = first.copy()
    keep[1:] |= buf[1:] != buf[:-1]
    if lens is not None:
        alloc = np.diff(np.append(starts, buf.size))
        slot = np.arange(buf.size) - np.repeat(starts, alloc)
        keep &= slot < np.repeat(lens, alloc)
    kept = np.flatnonzero(keep)
    return (buf[kept].astype(np.int32, copy=False),
            np.append(np.flatnonzero(first[kept]), kept.size))


def assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def check(buf, starts, lens=None):
    """Both writers on the same input; the oracle runs on a copy first."""
    want = dense_ragged_to_csr(buf.copy(), starts, lens)
    got = ragged_to_csr(buf, starts, lens)
    assert_same(got, want)
    return got


# ------------------------------------------------------- generated buffers
#: one lane: runs of (server, length) — length ≥ 2 is a repeat inside the
#: lane — over a four-server alphabet, how many unwritten slots follow,
#: whether its first server repeats the previous lane's last, and what
#: its unwritten tail holds
LANE = st.tuples(
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)),
             min_size=1, max_size=5),
    st.integers(0, 3),
    st.booleans(),
    st.sampled_from(["last", "next", "zero"]),
)


def build(lanes, buf_dtype, starts_dtype):
    """``(buf, starts, lens)`` of a lane-major ragged buffer."""
    written = []
    for runs, _, joined, _ in lanes:
        row = [v for v, k in runs for _ in range(k)]
        if joined and written:  # opens with the previous lane's last server
            row[0] = written[-1][-1]
        written.append(row)
    lens = np.array([len(r) for r in written], dtype=np.int64)
    alloc = lens + np.array([spare for _, spare, _, _ in lanes], dtype=np.int64)
    starts = np.cumsum(alloc) - alloc
    buf = np.zeros(int(alloc.sum()), dtype=buf_dtype)
    for i, (row, (_, spare, _, fill)) in enumerate(zip(written, lanes)):
        s = starts[i]
        buf[s:s + len(row)] = row
        if fill == "last":    # the tail repeats the lane's own last server
            buf[s + len(row):s + alloc[i]] = row[-1]
        elif fill == "next" and i + 1 < len(written):
            buf[s + len(row):s + alloc[i]] = written[i + 1][0]
    return buf, starts.astype(starts_dtype), lens


DTYPES = st.sampled_from([np.int32, np.int64])


class TestGenerated:
    @given(st.lists(LANE, min_size=1, max_size=12), DTYPES, DTYPES)
    @settings(max_examples=300, deadline=None)
    def test_lens_form(self, lanes, buf_dtype, starts_dtype):
        check(*build(lanes, buf_dtype, starts_dtype))

    @given(st.lists(LANE, min_size=1, max_size=12), DTYPES, DTYPES)
    @settings(max_examples=300, deadline=None)
    def test_hole_free_form(self, lanes, buf_dtype, starts_dtype):
        hole_free = [(runs, 0, joined, fill) for runs, _, joined, fill in lanes]
        buf, starts, _ = build(hole_free, buf_dtype, starts_dtype)
        check(buf, starts)

    @given(st.lists(LANE, min_size=1, max_size=12), DTYPES)
    @settings(max_examples=100, deadline=None)
    def test_full_lens_equals_no_lens(self, lanes, starts_dtype):
        hole_free = [(runs, 0, joined, fill) for runs, _, joined, fill in lanes]
        buf, starts, lens = build(hole_free, np.int32, starts_dtype)
        assert_same(check(buf, starts, lens), check(buf, starts))

    @pytest.mark.parametrize("starts_dtype", [np.int32, np.int64])
    def test_repeat_across_every_boundary_never_merges(self, starts_dtype):
        """All-singleton lanes of one server: every repeat opens a lane."""
        buf = np.full(50, 7, dtype=np.int32)
        servers, offsets = check(buf, np.arange(50, dtype=starts_dtype))
        assert servers is buf and offsets.tolist() == list(range(51))

    def test_run_inside_one_lane(self):
        buf = np.array([1, 2, 2, 2, 2, 3, 3], dtype=np.int32)
        servers, offsets = check(buf, np.array([0]))
        assert servers.tolist() == [1, 2, 3] and offsets.tolist() == [0, 3]

    @pytest.mark.parametrize("lens", [None, np.zeros(0, np.int64)])
    def test_zero_lanes(self, lens):
        servers, offsets = check(np.zeros(0, np.int32),
                                 np.zeros(0, np.int64), lens)
        assert servers.size == 0 and offsets.tolist() == [0]

    def test_single_lane_with_tail(self):
        buf = np.array([5, 5, 6, 6, 6], dtype=np.int32)
        servers, offsets = check(buf, np.array([0]), np.array([3]))
        assert servers.tolist() == [5, 6] and offsets.tolist() == [0, 2]

    def test_int64_buffer_comes_back_int32(self):
        servers, _ = check(np.arange(6, dtype=np.int64), np.array([0, 3]))
        assert servers.dtype == np.int32


# --------------------------------------------------------- engine buffers
ENGINE_MODULES = (walk, batch_cache, batch_ft, baselines_base)


@pytest.fixture
def oracle_writer(monkeypatch):
    """Route every engine's CSR emission through :func:`check`."""
    calls = []

    def checked(buf, starts, lens=None):
        calls.append(buf.size)
        return check(buf, starts, lens)

    for module in ENGINE_MODULES:
        monkeypatch.setattr(module, "ragged_to_csr", checked)
    return calls


@lru_cache(maxsize=None)
def cost_router(delta, n):
    """``(net, router)``: a populated network and its cost-aware router."""
    net = DistanceHalvingNetwork(delta=delta,
                                 rng=np.random.default_rng(100 * n + delta))
    net.populate(n)
    return net, CostAwareBatchRouter(
        net, CostMap.synthetic(n_isps=4, rng=np.random.default_rng(n)))


@lru_cache(maxsize=None)
def ft_net(n):
    return OverlappingDHNetwork(n, np.random.default_rng(n + 5))


SIZES = [1, 2, 3, 64, 1024]
LANES = 600


def pairs(router, seed):
    rng = np.random.default_rng(seed)
    pts = router.points
    return pts[rng.integers(0, pts.size, size=LANES)], rng.random(LANES), rng


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("delta", [2, 3, 4])
class TestEngineBuffers:
    def test_fast_and_dh(self, oracle_writer, delta, n):
        _, router = cost_router(delta, n)
        src, tgt, rng = pairs(router, n + delta)
        for res in (router.batch_fast_lookup(src, tgt, keep_paths=True),
                    router.batch_dh_lookup(src, tgt, rng=rng,
                                           keep_paths=True)):
            want = router.cover_index.cover(res.targets)
            assert res.owner_idx.dtype == want.dtype
            assert np.array_equal(res.owner_idx, want)
        assert len(oracle_writer) == 2

    def test_owner_without_paths(self, delta, n):
        _, router = cost_router(delta, n)
        src, tgt, rng = pairs(router, n + delta + 1)
        for res in (router.batch_fast_lookup(src, tgt),
                    router.batch_dh_lookup(src, tgt, rng=rng)):
            assert np.array_equal(res.owner_idx,
                                  router.cover_index.cover(res.targets))

    @pytest.mark.parametrize("policy", ["greedy", "weighted"])
    def test_cost_dh(self, oracle_writer, delta, n, policy):
        _, router = cost_router(delta, n)
        src, tgt, rng = pairs(router, n + delta + 2)
        router.batch_cost_dh_lookup(src, tgt, rng=rng, policy=policy,
                                    keep_paths=True)
        assert len(oracle_writer) == 1

    def test_serve_batch(self, oracle_writer, delta, n):
        net, router = cost_router(delta, n)
        src, _, rng = pairs(router, n + delta + 3)
        eng = BatchCacheEngine(net, list(range(4)), threshold=2)
        for _ in range(2):  # the second batch meets warmed trees
            eng.serve_batch(rng.integers(0, 4, size=LANES), src, rng=rng)
        assert len(oracle_writer) >= 2


@pytest.mark.parametrize("n", [64, 1024])
def test_ft_simple_with_failures(oracle_writer, n):
    """A fail-stop plan ends walks mid-path: the ``lens=`` form."""
    net = ft_net(n)
    rng = np.random.default_rng(n + 19)
    plan = random_failstop(net.points, 0.75, np.random.default_rng(n))
    res = FTBatchEngine(net).batch_simple_lookup(
        rng.integers(0, n, size=LANES), rng.random(LANES),
        choices=rng.random((LANES, 32)), plan=plan, keep_paths=True)
    assert not res.success.all() and len(oracle_writer) == 1


@pytest.mark.parametrize("n", [2, 3, 64, 1024])
def test_baseline_router(oracle_writer, n):
    """Chord's ``_PathRecorder``: lane-major after a stable sort."""
    rng = np.random.default_rng(n + 23)
    router = ChordNetwork(n, np.random.default_rng(n)).batch_router()
    router.route_batch(rng.integers(0, n, size=LANES), rng.random(LANES),
                       rng=rng)
    assert len(oracle_writer) == 1


# ------------------------------------------------------------------ bytes
@pytest.mark.parametrize("full_lens", [False, True], ids=["no-lens", "lens"])
def test_repeat_free_buffer_costs_one_byte_per_entry(full_lens):
    """The compare mask is the only O(entries) temporary; the buffer
    itself comes back as ``path_servers`` (the dense writer's ``kept``
    index alone was eight bytes per entry)."""
    lanes = 1000
    buf = np.arange(1_000_000, dtype=np.int32)
    starts = np.arange(0, buf.size, buf.size // lanes)
    lens = np.diff(np.append(starts, buf.size)) if full_lens else None
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        servers, offsets = ragged_to_csr(buf, starts, lens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert servers is buf and offsets.size == lanes + 1
    assert peak <= buf.size + 64 * lanes + 4096, peak
