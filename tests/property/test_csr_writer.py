"""The sparse, in-place CSR writer against the dense one it replaced.

``dense_ragged_to_csr`` (:mod:`oracles.walk`) is an earlier
``ragged_to_csr`` *verbatim*: a bool mask over every slot, a shifted
compare, an ``arange`` / ``repeat`` slot index for the ``lens=`` form
and an ``int64`` ``kept`` index of every surviving entry.  The writer now finds
the rare repeated server with one compare, does O(lanes + dropped)
work after it and compacts the buffer it consumes in place, handing it
through when nothing merges.  Both must agree in dtype and bits on both
CSR arrays — on generated ragged buffers aimed at the corners (repeats
across a lane boundary, runs inside a lane, garbage tails equal to
their neighbours) and on the real buffers every engine emits.  The
in-place move itself is checked against ``np.delete`` with blocks a few
entries wide.  The byte pins hold what the rewrites are *for*: a
repeat-free buffer costs the writer at most one byte per entry, and one
with drops at most that plus one block.
"""

import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.inputs import populated
from oracles.walk import dense_ragged_to_csr

import repro.baselines.base as baselines_base
import repro.core.batch_cache as batch_cache
import repro.core.walk as walk
import repro.faults.batch_ft as batch_ft
from repro.baselines import ChordNetwork
from repro.core import BatchCacheEngine, BatchRouter
from repro.core.walk import ragged_to_csr
from repro.faults import FTBatchEngine, OverlappingDHNetwork, random_failstop
from repro.peer import CostMap


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
        # the writer consumes its buffer: each call gets its own
        assert_same(check(buf.copy(), starts, lens), check(buf, starts))

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
    net = populated(n, 100 * n + delta, delta)
    return net, BatchRouter(net, cost_map=CostMap.synthetic(
        n_isps=4, rng=np.random.default_rng(n)))


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
            assert_same(res.owner_idx, router.cover_index.cover(res.targets))
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
        router.batch_dh_lookup(src, tgt, rng=rng, policy=policy,
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
        net.points_array[rng.integers(0, n, size=LANES)], rng.random(LANES),
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


@pytest.mark.parametrize("every", [997, 26], ids=["sparse", "dense"])
def test_buffer_with_drops_costs_one_byte_per_entry_plus_one_block(every):
    """The surviving entries move left in place: past the compare mask
    and the drop indices, the writer holds at most one block's mask and
    its kept entries (``np.delete`` made a mask and a copy of the whole
    buffer: five bytes an entry).  ``every = 26`` drops about as often
    as a dh walk does."""
    lanes = 1000
    buf = np.arange(1_000_000, dtype=np.int32)
    buf[every::every] = buf[every - 1:-1:every]  # a repeat every `every`
    starts = np.arange(0, buf.size, buf.size // lanes)
    want = dense_ragged_to_csr(buf.copy(), starts)
    drops = buf.size - want[0].size
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = ragged_to_csr(buf, starts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 5 * (1 << 16)  # one block's bool mask and int32 survivors
    assert peak <= buf.size + block + 16 * drops + 64 * lanes + 4096, peak
    assert_same(got, want)
    assert got[0].base is buf


@lru_cache(maxsize=None)
def soak_router():
    """The soak's n = 16384 network under a cost-aware router."""
    return BatchRouter(
        populated(16384, 1),
        cost_map=CostMap.synthetic(n_isps=8, rng=np.random.default_rng(1)))


def lane_peak(route, lanes: int) -> float:
    """Traced peak of ``route(src, tgt)`` per lane, after a warm-up."""
    router = soak_router()
    rng = np.random.default_rng(1)
    src = router.points[rng.integers(0, router.points.size, size=lanes)]
    tgt = rng.random(src.size)
    route(src[:16], tgt[:16])  # lazy tables are not the batch's
    tracemalloc.start()
    try:
        route(src, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / lanes


def test_fast_lookup_chunk_peak():
    """The soak's lookup chunk: 65,536 fast lookups with CSR paths at
    n = 16384.  With ``np.delete``'s mask and copy the batch read ~244 B
    a lane traced, compacting in place ~202; with ``int32`` lane columns
    and a descent that holds no whole-batch copy it does not need ~154
    (the bound is that plus 10 %)."""
    per_lane = lane_peak(
        lambda s, t: soak_router().lookup_batch(s, t, keep_paths="csr"),
        65_536)
    assert per_lane <= 170, per_lane


def test_dh_chunk_peak():
    """65,536 dh lookups with CSR paths at n = 16384.  Phase I kept
    ``(slot, lanes, servers)`` and ``(lanes, image)`` records, all
    ``intp``, a step: ~905 B a lane traced; ``int32`` lane-free records
    read ~292, and ``int32`` lane columns ~284 (the bound is that plus
    10 %)."""
    rng = np.random.default_rng(2)
    per_lane = lane_peak(
        lambda s, t: soak_router().batch_dh_lookup(s, t, rng=rng,
                                                   keep_paths="csr"),
        65_536)
    assert per_lane <= 312, per_lane


def test_cost_dh_peak():
    """route_dh_cost's 4,096-lane greedy batch at n = 16384: ~1,066 B a
    lane with the wide records and a full-width ``int64`` ``tau`` row a
    step (stacked, then transposed); ~363 with narrow rows of the
    walking lanes written once into an ``int64`` ``tau_used``, ~355 with
    ``tau_used`` one byte a digit and ``int32`` lane columns (the bound
    is that plus 10 %)."""
    per_lane = lane_peak(
        lambda s, t: soak_router().batch_dh_lookup(
            s, t, policy="greedy", keep_paths="csr"),
        4096)
    assert per_lane <= 391, per_lane


def test_pathless_dh_chunk_peak():
    """The walk ``serve_batch`` runs: 65,536 path-less dh lookups on a
    ``uint8`` tau.  ``int64`` phase-I counters read ~231 B a lane,
    ``uint8`` ones ~202."""
    tau = np.random.default_rng(3).integers(0, 2, (65_536, 64)).astype(
        np.uint8)
    per_lane = lane_peak(
        lambda s, t: soak_router().batch_dh_lookup(s, t, tau=tau[:s.size]),
        65_536)
    assert per_lane <= 220, per_lane


#: ``(_BLOCK, _SPARSE)``: blocks of a few entries, each moved by
#: stretches, or by stretches or a mask as its drops fall
BLOCKINGS = [(4, 16), (8, 2)]
#: drop sets over 200 slots: sparse, dense, and runs as ``lens`` tails make
DROPS = st.one_of(
    st.sets(st.integers(0, 199), max_size=12),
    st.sets(st.integers(0, 199), min_size=60),
    st.lists(st.tuples(st.integers(0, 199), st.integers(1, 30)),
             max_size=6).map(
        lambda runs: {a + k for a, n in runs for k in range(n) if a + k < 200}),
)


@pytest.mark.parametrize("blocking", BLOCKINGS, ids=str)
class TestCompactInPlace:
    @given(DROPS, st.integers(1, 200))
    @settings(max_examples=100, deadline=None)
    def test_equals_np_delete(self, blocking, drops, size):
        buf = np.random.default_rng(size).integers(0, 1 << 30, size,
                                                   dtype=np.int32)
        drop = np.array(sorted(d for d in drops if d < size), dtype=np.int64)
        want = np.delete(buf, drop)
        if not drop.size:
            return
        with mock.patch.multiple(walk, _BLOCK=blocking[0],
                                 _SPARSE=blocking[1]):
            kept = walk._compact(buf, drop)
        assert_same(buf[:kept], want)

    @given(st.lists(LANE, min_size=1, max_size=12), DTYPES)
    @settings(max_examples=100, deadline=None)
    def test_writer_across_blocks(self, blocking, lanes, starts_dtype):
        with mock.patch.multiple(walk, _BLOCK=blocking[0],
                                 _SPARSE=blocking[1]):
            check(*build(lanes, np.int32, starts_dtype))
