"""The shared walk kernels and the CSR read contract, once, over every engine.

:mod:`repro.core.walk` is the one home of the entry checks, the forward
search, the level point, the descent, the CSR writer and the
:class:`~repro.core.walk.PathResult` base; this module checks the
contract on each of the five result producers — fast, dh / cost-dh,
fault-tolerant simple (under a fail-stop plan that kills walks
mid-path), cache serve, and the seven Table 1 baseline routers — and
pins their outputs to sha256 digests recorded on the commit before the
port (the engines still had their private copies then).
``levels_to_csr`` (:mod:`oracles.walk`), deleted from ``src/`` by the
port, is the oracle for the writer.
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.walk import levels_to_csr
from oracles.inputs import populated

from repro.baselines import (
    CanNetwork,
    ChordNetwork,
    DistanceHalvingAdapter,
    KleinbergRing,
    KoordeNetwork,
    TapestryNetwork,
    ViceroyNetwork,
)
from repro.baselines.base import BaselineBatchResult
from repro.core import (
    BatchCacheEngine,
    BatchCacheResult,
    BatchCongestion,
    BatchLookupResult,
    BatchRouter,
)
from repro.core.walk import (
    PathResult,
    forward_levels,
    level_points,
    per_lane_matrix,
    ragged_to_csr,
)
from repro.faults import (
    FTBatchEngine,
    FTBatchResult,
    OverlappingDHNetwork,
    canonical_path,
    random_failstop,
)
from repro.peer import CostMap

BASELINES = {
    "chord": lambda n, rng: ChordNetwork(n, rng),
    "tapestry": lambda n, rng: TapestryNetwork(n, rng, base=2),
    "can": lambda n, rng: CanNetwork(n, rng, d=2),
    "small-world": lambda n, rng: KleinbergRing(n, rng),
    "viceroy": lambda n, rng: ViceroyNetwork(n, rng),
    "koorde": lambda n, rng: KoordeNetwork(n, rng),
    "dh": lambda n, rng: DistanceHalvingAdapter(n, rng, delta=2, mode="dh"),
}

# ------------------------------------------------------------------ producers
NET = populated(128, 3)
ROUTER = BatchRouter(
    NET, build_adjacency=True,
    cost_map=CostMap.synthetic(n_isps=4, rng=np.random.default_rng(7)))
FT_NET = OverlappingDHNetwork(256, np.random.default_rng(5))
FT_PLAN = random_failstop(FT_NET.points, 0.75, np.random.default_rng(11))
BASELINE_ROUTERS = {
    name: build(128, np.random.default_rng(13)).batch_router()
    for name, build in BASELINES.items()
}


def _pairs(size):
    rng = np.random.default_rng(size + 17)
    pts = NET.segments.as_array()
    return pts[rng.integers(0, pts.size, size=size)], rng.random(size), rng


def route_fast(size, keep_paths):
    src, tgt, _ = _pairs(size)
    res = ROUTER.batch_fast_lookup(src, tgt, keep_paths=keep_paths)
    return res, res.source_idx


def route_dh(size, keep_paths):
    src, tgt, rng = _pairs(size)
    res = ROUTER.batch_dh_lookup(src, tgt, tau=rng.integers(0, 2, (size, 64)),
                                 keep_paths=keep_paths)
    return res, res.source_idx


def route_cost_dh(size, keep_paths):
    src, tgt, rng = _pairs(size)
    res = ROUTER.batch_dh_lookup(
        src, tgt, choices=rng.random((size, 64)), policy="weighted",
        keep_paths=keep_paths)
    return res, res.source_idx


def route_ft_simple(size, keep_paths):
    rng = np.random.default_rng(size + 19)
    res = FTBatchEngine(FT_NET).batch_simple_lookup(
        FT_NET.points_array[rng.integers(0, FT_NET.n, size=size)],
        rng.random(size),
        choices=rng.random((size, 32)), plan=FT_PLAN, keep_paths=keep_paths)
    return res, res.source_idx


def serve_cache(size, keep_paths):
    src, _, rng = _pairs(size)
    eng = BatchCacheEngine(NET, list(range(8)), threshold=3)
    res = eng.serve_batch(rng.integers(0, 8, size=size), src,
                          tau=rng.integers(0, 2, (size, 64)))
    return res, NET.segments.cover_array(src)


def route_baseline(name):
    def route(size, keep_paths):
        rng = np.random.default_rng(size + 23)
        res = BASELINE_ROUTERS[name].route_batch(
            rng.integers(0, 128, size=size), rng.random(size), rng=rng)
        return res, res.source_idx
    return route


#: producers whose entry point takes ``keep_paths`` (the cache and the
#: baselines always keep their paths)
OPTIONAL = {"fast": route_fast, "dh": route_dh, "cost-dh": route_cost_dh,
            "ft-simple": route_ft_simple}
PRODUCERS = {**OPTIONAL, "cache": serve_cache,
             **{f"baseline-{name}": route_baseline(name)
                for name in BASELINES}}

every_producer = pytest.mark.parametrize("name", sorted(PRODUCERS))
optional_paths = pytest.mark.parametrize("name", sorted(OPTIONAL))


# ------------------------------------------------------------------- contract
class TestContract:
    @every_producer
    def test_csr_layout(self, name):
        res, source_idx = PRODUCERS[name](200, "csr")
        servers, offsets = res.to_csr()
        assert res.size == 200
        assert servers is res.path_servers and offsets is res.path_offsets
        assert servers.dtype == np.int32 and offsets.dtype == np.int64
        assert offsets.shape == (201,) and offsets[0] == 0
        assert offsets[-1] == servers.size
        assert (np.diff(offsets) >= 1).all()
        assert np.array_equal(servers[offsets[:-1]], source_idx)
        assert np.array_equal(res.hops, np.diff(offsets) - 1)
        for i in (0, 57, 199):
            row = servers[offsets[i]:offsets[i + 1]]
            assert (row[1:] != row[:-1]).all()  # compressed
            assert np.array_equal(res.path_points(i), res.points[row])
            assert res.server_path(i) == res.points[row].tolist()

    def test_ft_hops_are_messages_failed_walks_included(self):
        res, _ = route_ft_simple(200, "csr")
        assert ((res.parallel_time < res.t) & ~res.success).sum() > 10
        assert np.array_equal(res.messages, np.diff(res.path_offsets) - 1)

    @optional_paths
    def test_true_means_csr(self, name):
        as_true, _ = PRODUCERS[name](150, True)
        as_csr, _ = PRODUCERS[name](150, "csr")
        assert_same(as_true.to_csr(), as_csr.to_csr())
        for res in (as_true, as_csr):  # no level matrix left behind
            assert [k for k, v in vars(res).items()
                    if getattr(v, "ndim", 0) > 1 and k != "tau_used"] == []

    @optional_paths
    def test_keep_paths_false(self, name):
        res, _ = PRODUCERS[name](50, False)
        assert res.path_servers is None and res.path_offsets is None
        for read in (res.to_csr, lambda: res.path_points(0),
                     lambda: res.server_path(0)):
            with pytest.raises(ValueError, match="keep_paths=False"):
                read()
        with pytest.raises(ValueError, match="keep_paths=False"):
            BatchCongestion().record_batch(res)

    @optional_paths
    def test_keep_paths_rejects_other_values(self, name):
        with pytest.raises(ValueError, match="keep_paths must be"):
            PRODUCERS[name](5, "dense")

    @every_producer
    def test_empty_batch(self, name):
        res, _ = PRODUCERS[name](0, "csr")
        servers, offsets = res.to_csr()
        assert res.size == 0 and res.hops.size == 0
        assert servers.dtype == np.int32 and servers.size == 0
        assert offsets.dtype == np.int64 and offsets.tolist() == [0]
        cong = BatchCongestion()
        cong.record_batch(res)
        assert cong.lookups == 0 and cong.mean_load(1) == 0

    @every_producer
    def test_congestion_books_every_entry(self, name):
        res, _ = PRODUCERS[name](200, "csr")
        cong = BatchCongestion()
        cong.record_batch(res)
        assert cong.lookups == 200
        assert cong.mean_load(1) == res.path_servers.size
        assert cong.total_messages == int(res.hops.sum())

    @pytest.mark.parametrize("cls", [BatchLookupResult, FTBatchResult,
                                     BatchCacheResult, BaselineBatchResult])
    def test_one_definition_of_the_read_api(self, cls):
        assert issubclass(cls, PathResult)
        for method in ("to_csr", "path_points", "server_path"):
            assert method not in vars(cls), f"{cls.__name__}.{method}"
            assert getattr(cls, method) is getattr(PathResult, method)


# -------------------------------------------------------------------- digests
def sha256(*arrays):
    """One digest over the dtypes and bytes of ``arrays``, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def wide(*columns):
    """``columns`` as ``int64``, the width the digests were recorded at
    (one array for one column)."""
    out = [np.asarray(c, dtype=np.int64) for c in columns]
    return out[0] if len(out) == 1 else out


def ft_workload(n, lanes, seed, p_fail):
    rng = np.random.default_rng(seed)
    net = OverlappingDHNetwork(n, rng)
    plan = random_failstop(net.points, p_fail, rng)
    return (net, plan, net.points_array[rng.integers(0, n, size=lanes)],
            rng.random(lanes), rng.random((lanes, 32)))


class TestPinnedDigests:
    """Recorded on the parent commit (each engine's private walk copy).

    The lane columns were ``int64`` then; they are hashed widened
    (:func:`wide`), so a digest pins their values under the lane
    contract's ``int32``.
    """

    def test_ft_simple_1024_with_failures(self):
        net, plan, src, tgt, u = ft_workload(1024, 2000, 19, 0.75)
        res = FTBatchEngine(net).batch_simple_lookup(
            src, tgt, choices=u, plan=plan, keep_paths="csr")
        assert (res.parallel_time < res.t).sum() > 100  # died mid-path
        assert sha256(res.path_servers, res.path_offsets, wide(res.t),
                      res.success, *wide(res.messages, res.parallel_time,
                                         res.holder_idx)) == (
            "2cb461f187d2b7aa7be8c9ee1b0b2215"
            "5da3f7d6ff2152feda6014d5e0fbebc5")

    def test_ft_resistant_1024(self):
        net, plan, src, tgt, _ = ft_workload(1024, 2000, 29, 0.3)
        plan.liars = set(net.points[::5]) - plan.failed
        res = FTBatchEngine(net).batch_resistant_lookup(src, tgt, plan=plan)
        assert 0 < res.success.sum() < res.size
        assert sha256(wide(res.t), res.success,
                      *wide(res.messages, res.parallel_time)) == (
            "93c16eda1bace274c6cac6ef272a9a6d"
            "de91c1b2ca484d797c97514c10e592b0")

    def test_cache_epoch_of_three_batches(self):
        rng = np.random.default_rng(31)
        net = populated(1024, rng)
        eng = BatchCacheEngine(net, list(range(16)), threshold=4)
        pts = net.segments.as_array()
        parts = []
        for batch in range(3):
            items = np.minimum(rng.zipf(1.5, size=1500) - 1, 15)
            src = pts[rng.integers(0, net.n, size=1500)]
            res = eng.serve_batch(items, src,
                                  tau=rng.integers(0, 2, (1500, 64)))
            parts += [res.path_servers, res.path_offsets,
                      res.serving_server_idx, wide(res.hops)]
            if batch == 1:
                parts.append(np.asarray(eng.advance_epoch()))
        assert eng.total_copies() > 0
        assert sha256(*parts, eng.server_messages()) == (
            "d6101bb2d53192a8d9383172ef8a8224"
            "d1acd7bc24b809a354dbc930b29e6499")

    @pytest.mark.parametrize("name, digest", [
        ("chord", "f9d23021ff125661f7e036caa9793aaa"
                  "5ebd920688356f06fa9645ee452f9740"),
        ("tapestry", "39077b1172a9e771a9afd0a3e5c1a727"
                     "ac2de4dd98b75327f66c9393249b0524"),
        ("can", "69a7e5df5678a4c8fdaef216e72573ac"
                "0cffe337f5fd76c847da7f51735abb8b"),
        ("small-world", "9ef7ad44e5e7ddf7aca789dd9e2ea6ec"
                        "adffb221cc045397b457c2871febbc2c"),
        ("viceroy", "7eb9f4f3cc7ceb9c4f5e6e126de1b951"
                    "16c02a8939f6739c5bb0a4e40942f9fd"),
        ("koorde", "b9d972ca2a14b8281381073ee7d2c5b8"
                   "cb6ffea7fae61f77faa85358e79b6bb1"),
        # dh reads one key: re-recorded with the keyed draw, and equal to
        # the parent's walk on those digits from a pure-Python SplitMix64
        ("dh", "1683ffcbea1a5313a4108143bc8560ed"
               "03ec990cfe71d1554b2ecb47e29bfbc2"),
    ])
    def test_baseline_route_batch(self, name, digest):
        dht = BASELINES[name](256, np.random.default_rng(37))
        rng = np.random.default_rng(41)
        res = dht.batch_router().route_batch(
            rng.integers(0, 256, size=500), rng.random(500), rng=rng)
        assert sha256(res.path_servers, res.path_offsets,
                      wide(res.owner_idx)) == digest


# ---------------------------------------------------------------------- units
class TestPerLaneMatrix:
    def test_one_row_per_lane_passes_through(self):
        mat = per_lane_matrix([[1, 0], [0, 1], [1, 1]], 3, np.int64, "tau")
        assert mat.dtype == np.int64 and mat.shape == (3, 2)

    def test_1d_row_broadcasts_to_every_lane(self):
        mat = per_lane_matrix([0.25, 0.5], 4, np.float64, "choices")
        assert mat.dtype == np.float64 and mat.shape == (4, 2)
        assert (mat == [0.25, 0.5]).all()

    def test_empty_batch(self):
        assert per_lane_matrix(np.zeros((0, 8)), 0, np.int64, "tau").shape \
            == (0, 8)

    @pytest.mark.parametrize("what", ["tau", "choices"])
    def test_wrong_row_count_names_the_input(self, what):
        with pytest.raises(ValueError, match=f"^{what} must have one row"):
            per_lane_matrix(np.zeros((3, 4)), 5, np.float64, what)

    @pytest.mark.parametrize("call", [
        lambda src, tgt: ROUTER.batch_dh_lookup(
            src, tgt, tau=np.zeros((5, 64), np.int64)),
        lambda src, tgt: ROUTER.batch_dh_lookup(
            src, tgt, choices=np.zeros((5, 64)), policy="weighted"),
        lambda src, tgt: FTBatchEngine(FT_NET).batch_simple_lookup(
            np.full(6, FT_NET.points_array[0]), tgt,
            choices=np.zeros((5, 32))),
        lambda src, tgt: BatchCacheEngine(NET, ["a"]).serve_batch(
            np.zeros(6, np.int64), src, tau=np.zeros((5, 64), np.int64)),
    ], ids=["dh", "cost-dh", "ft-simple", "cache"])
    def test_engines_raise_it(self, call):
        """Five rows for six lanes: every engine fails the one shape check."""
        src, tgt, _ = _pairs(6)
        with pytest.raises(ValueError, match="must have one row per lookup"):
            call(src, tgt)

    @pytest.mark.parametrize("shape", [(), (5, 64, 2), (1, 5, 64)],
                             ids=["0-d", "3-d", "3-d-leading-1"])
    @pytest.mark.parametrize("dtype, what", [(np.int64, "tau"),
                                             (np.float64, "choices")])
    def test_other_ranks_are_refused(self, shape, dtype, what):
        with pytest.raises(ValueError, match=f"^{what} must be one row "
                           r"\(1-d\) or one row per lookup \(2-d\); got a "
                           f"{len(shape)}-d array"):
            per_lane_matrix(np.zeros(shape), 5, dtype, what)

    @pytest.mark.parametrize("shape", [(), (5, 64, 2)], ids=["0-d", "3-d"])
    def test_dh_refuses_them_at_entry(self, shape):
        """The parent failed deep in the walk: an IndexError for 0-d, a
        broadcast error for 3-d."""
        src, tgt, _ = _pairs(5)
        with pytest.raises(ValueError, match="^tau must be one row"):
            ROUTER.batch_dh_lookup(src, tgt, tau=np.zeros(shape, np.int64))

    @pytest.mark.parametrize("bad", [1.5, 1.0, -0.5, np.nan, np.inf])
    def test_uniforms_outside_the_unit_interval_name_their_lane(self, bad):
        u = np.full((4, 8), 0.5)
        u[2, 5] = bad
        with pytest.raises(ValueError,
                           match=rf"^choices: lane 2 holds {bad!r}; uniforms "
                           r"must be finite and in \[0, 1\)$"):
            per_lane_matrix(u, 4, np.float64, "choices")
        row = np.full(8, 0.5)
        row[3] = bad
        with pytest.raises(ValueError, match="^choices: lane 0 holds"):
            per_lane_matrix(row, 4, np.float64, "choices")

    def test_unit_interval_edges_pass(self):
        u = np.array([0.0, np.nextafter(1.0, 0.0), -0.0])
        assert (per_lane_matrix(u, 2, np.float64, "choices") == u).all()

    @pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
    @pytest.mark.parametrize("call", [
        lambda src, tgt, u: ROUTER.batch_dh_lookup(
            src, tgt, choices=u, policy="weighted"),
        lambda src, tgt, u: ROUTER.batch_dh_lookup(
            src, tgt, choices=u, policy="uniform"),
        lambda src, tgt, u: FTBatchEngine(FT_NET).batch_simple_lookup(
            np.full(6, FT_NET.points_array[0]), tgt, choices=u[:, :32]),
    ], ids=["cost-weighted", "cost-uniform", "ft-simple"])
    def test_engines_refuse_bad_uniforms(self, call, bad):
        """The parent picked a candidate for each of these; NaN only
        warned "invalid value encountered in cast"."""
        src, tgt, _ = _pairs(6)
        u = np.full((6, 64), 0.25)
        u[3, 0] = bad
        with pytest.raises(ValueError, match="^choices: lane 3 holds"):
            call(src, tgt, u)

    @pytest.mark.parametrize("bad", [1.5, -0.5, np.nan, np.inf])
    def test_scalar_twins_refuse_them_too(self, bad):
        from repro.faults import simple_lookup
        from repro.peer.policy import select_index

        for policy in ("uniform", "greedy", "weighted"):
            with pytest.raises(ValueError, match=r"u must be a real in \[0, 1\), "
                               f"got {re.escape(repr(bad))}"):
                select_index(np.array([1.0, 2.0]), bad, policy)
        choices = np.full(32, 0.25)
        choices[1] = bad
        with pytest.raises(ValueError, match="^choices: lane 0 holds"):
            simple_lookup(FT_NET, FT_NET.points[0], "k", choices=choices,
                          target=0.3)


def descend_tail(buf, starts):
    """The parent's tail of ``BatchRouter._descend``, the hole-free oracle."""
    first = np.zeros(buf.size, dtype=bool)
    first[starts] = True
    keep = first.copy()
    keep[1:] |= buf[1:] != buf[:-1]
    kept = np.flatnonzero(keep)
    return buf[kept], np.append(np.flatnonzero(first[kept]), kept.size)


#: per lane: the written servers (≥ 1, small alphabet so repeats occur)
#: and how many unwritten slots follow them
ragged_lanes = st.lists(
    st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=6),
              st.integers(0, 3)),
    min_size=1, max_size=12)


class TestRaggedToCsr:
    @given(ragged_lanes)
    @settings(max_examples=200, deadline=None)
    def test_hole_free_equals_descend_tail_and_dense_oracle(self, lanes):
        rows = [written for written, _ in lanes]
        lens = np.array([len(r) for r in rows])
        buf = np.concatenate(rows).astype(np.int32)
        starts = np.cumsum(lens) - lens
        got = ragged_to_csr(buf.copy(), starts)  # the writer consumes it
        dense = np.full((lens.max(), len(rows)), -1, dtype=np.int64)
        for i, r in enumerate(rows):
            dense[:len(r), i] = r
        for want in (descend_tail(buf, starts),
                     levels_to_csr(len(rows), [dense])):
            assert_same(got, want)

    @given(ragged_lanes, st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_lens_trims_the_unwritten_tail(self, lanes, garbage):
        """Whatever sits in a lane's unwritten slots never reaches the CSR."""
        lens = np.array([len(written) for written, _ in lanes])
        alloc = lens + np.array([spare for _, spare in lanes])
        starts = np.cumsum(alloc) - alloc
        buf = np.full(alloc.sum(), garbage, dtype=np.int32)
        dense = np.full((alloc.max(), len(lanes)), -1, dtype=np.int64)
        for i, (written, _) in enumerate(lanes):
            buf[starts[i]:starts[i] + len(written)] = written
            dense[:len(written), i] = written
        got = ragged_to_csr(buf, starts, lens)
        assert_same(got, levels_to_csr(len(lanes), [dense]))

    def test_casts_servers_to_int32(self):
        servers, offsets = ragged_to_csr(np.array([4, 4, 7], dtype=np.int64),
                                         np.array([0, 2]))
        assert servers.dtype == np.int32 and servers.tolist() == [4, 7]
        assert offsets.dtype == np.int64 and offsets.tolist() == [0, 1, 2]


class TestForwardLevels:
    @staticmethod
    def _search(level_cap):
        """The §6.2 closed cyclic test over a 256-server overlapping net."""
        rng = np.random.default_rng(43)
        idx, tgt = rng.integers(0, FT_NET.n, size=300), rng.random(300)
        start = FT_NET.points_array[idx]
        seg_len = FT_NET.seg_len_array[idx]
        calls = []

        def closed_segment(lanes):
            calls.append(lanes.size)
            a, length = start[lanes], seg_len[lanes]
            return lambda p: np.mod(p - a, 1.0) <= length

        out = forward_levels(tgt, FT_NET.mid_array[idx], 2, closed_segment,
                             level_cap)
        return idx, tgt, out, calls

    def test_order_is_depth_descending_permutation(self):
        _, _, (t, s_final, order), calls = self._search(512)
        assert np.array_equal(np.sort(order), np.arange(300))
        assert (np.diff(t[order]) <= 0).all()
        assert (s_final[t == 0] == 0).all()
        # the carried lanes were compacted on the way, not masked
        assert calls[0] == 300 and len(calls) > 1
        assert (np.diff(calls) < 0).all()

    def test_closed_segment_search_matches_scalar_canonical_path(self):
        idx, tgt, (t, s_final, _), _ = self._search(512)
        for b in range(300):
            path = canonical_path(FT_NET, FT_NET.points[int(idx[b])],
                                  float(tgt[b]))
            assert len(path) - 1 == t[b]
            assert path[0] == level_points(tgt[b:b + 1], s_final[b:b + 1],
                                           2.0 ** int(t[b]), 2)[0]

    def test_raises_past_the_level_cap(self):
        with pytest.raises(RuntimeError, match="failed to converge"):
            self._search(1)
