"""The lane contract of :class:`~repro.core.walk.PathResult`, executable.

Every engine's result keeps its server indices and per-lane counts at
:data:`~repro.core.walk.LANE_INT` (``int32``), its CSR offsets and §3
node keys at ``int64``, and a digit matrix at the narrowest unsigned
type that holds Δ − 1.  One small batch per engine — fast, dh, the
three cost policies, the §3 serve, the §6.3 Simple and resistant
lookups, the seven Table 1 baselines and the sharded fast path — at
sizes 0, 1 and 40, checks each column against that table, and that no
integer column escapes it.

The second half guards the offsets: every prefix sum over an ``int32``
count widens before it sums, so the starts each CSR writer is handed
are ``int64`` — a dtype check, which needs no 2^31-entry batch.
"""

import dataclasses
import functools

import numpy as np
import pytest
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
from repro.core import BatchCacheEngine, BatchRouter, walk
from repro.core.walk import LANE_INT
from repro.faults import FTBatchEngine, OverlappingDHNetwork, random_failstop
from repro.peer import CostMap

#: The contract table: column → dtype (``tau_used`` is Δ's, below).
CONTRACT = {
    **dict.fromkeys(("source_idx", "owner_idx", "holder_idx",
                     "serving_server_idx", "trees", "path_servers"),
                    LANE_INT),
    **dict.fromkeys(("t", "hops", "phase1_hops", "serving_depth",
                     "lookup_hops", "messages", "parallel_time"), LANE_INT),
    **dict.fromkeys(("path_offsets", "serving_node_key"), np.int64),
}
#: Integer columns outside the contract: the caller's item indices,
#: echoed as given (like ``targets`` and ``sources``).
ECHOED = ("items",)

BASELINES = {
    "chord": lambda n, rng: ChordNetwork(n, rng),
    "tapestry": lambda n, rng: TapestryNetwork(n, rng, base=2),
    "can": lambda n, rng: CanNetwork(n, rng, d=2),
    "small-world": lambda n, rng: KleinbergRing(n, rng),
    "viceroy": lambda n, rng: ViceroyNetwork(n, rng),
    "koorde": lambda n, rng: KoordeNetwork(n, rng),
    "dh": lambda n, rng: DistanceHalvingAdapter(n, rng, delta=2, mode="dh"),
}


@functools.lru_cache(maxsize=None)
def network(delta: int):
    return populated(128, 40 + delta, delta)


@functools.lru_cache(maxsize=None)
def router(delta: int) -> BatchRouter:
    return BatchRouter(
        network(delta), build_adjacency=True,
        cost_map=CostMap.synthetic(n_isps=4,
                                   rng=np.random.default_rng(delta)))


@functools.lru_cache(maxsize=None)
def ft_net() -> OverlappingDHNetwork:
    return OverlappingDHNetwork(256, np.random.default_rng(5))


def pairs(points, size):
    rng = np.random.default_rng(size + 3)
    return points[rng.integers(0, points.size, size)], rng.random(size), rng


def route(engine: str, size: int, delta: int = 2):
    """One batch of ``size`` lanes through ``engine``; ``(result,
    required columns)``."""
    lookup = ("source_idx", "owner_idx", "t", "hops", "path_servers",
              "path_offsets")
    ft = ("source_idx", "t", "messages", "parallel_time")
    r = router(delta)
    src, tgt, rng = pairs(r.points, size)
    if engine == "fast":
        return r.batch_fast_lookup(src, tgt, keep_paths="csr"), lookup
    if engine == "sharded":
        try:
            res = r.lookup_batch(src, tgt, workers=2, keep_paths="csr")
        finally:
            r.close_executor()
        return res, lookup
    if engine == "dh":
        return (r.batch_dh_lookup(src, tgt, rng=rng, keep_paths="csr"),
                lookup + ("phase1_hops",))
    if engine.startswith("cost-"):
        return (r.batch_dh_lookup(src, tgt, rng=rng, keep_paths="csr",
                                  policy=engine[5:]),
                lookup + ("phase1_hops", "tau_used"))
    if engine == "serve":
        eng = BatchCacheEngine(network(delta), list(range(4)), threshold=2)
        return (eng.serve_batch(rng.integers(0, 4, size), src, rng=rng),
                ("trees", "t", "serving_depth", "serving_node_key",
                 "serving_server_idx", "hops", "lookup_hops",
                 "path_servers", "path_offsets"))
    net = ft_net()
    src, tgt, rng = pairs(np.arange(net.n), size)
    plan = random_failstop(net.points, 0.3, np.random.default_rng(11))
    if engine == "ft-simple":
        return (FTBatchEngine(net).batch_simple_lookup(
            net.points_array[src], tgt, key=7, plan=plan, keep_paths="csr"),
            ft + ("holder_idx", "path_servers", "path_offsets"))
    if engine == "ft-resistant":
        return FTBatchEngine(net).batch_resistant_lookup(
            net.points_array[src], tgt, plan=plan), ft
    dht = BASELINES[engine[9:]](128, np.random.default_rng(13))
    return (dht.batch_router().route_batch(src % dht.n, tgt, rng=rng),
            ("source_idx", "owner_idx", "hops", "path_servers",
             "path_offsets"))


ENGINES = ["fast", "dh", "cost-greedy", "cost-weighted",
           "serve", "ft-simple", "ft-resistant",
           *(f"baseline-{name}" for name in BASELINES)]


def columns(res) -> dict:
    """Every integer array of ``res`` — its fields and its ``hops``."""
    found = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    if getattr(res, "algorithm", None) != "resistant":
        found["hops"] = res.hops
    return {name: col for name, col in found.items()
            if isinstance(col, np.ndarray) and col.dtype.kind in "iu"}


def check(res, required, size, delta):
    cols = columns(res)
    assert set(required) <= set(cols), set(required) - set(cols)
    for name, col in cols.items():
        if name in ECHOED:
            continue
        want = (np.min_scalar_type(delta - 1) if name == "tau_used"
                else CONTRACT[name])
        assert col.dtype == want, (name, col.dtype, want)
        if name not in ("path_servers", "path_offsets"):
            assert col.shape[0] == size, name


@pytest.mark.parametrize("size", [0, 1, 40])
@pytest.mark.parametrize("engine", ENGINES)
def test_every_column_keeps_the_contract(engine, size):
    res, required = route(engine, size)
    check(res, required, size, 2)


@pytest.mark.parametrize("engine", ["fast", "dh", "cost-weighted", "serve"])
def test_the_contract_holds_at_delta_3(engine):
    res, required = route(engine, 40, delta=3)
    check(res, required, 40, 3)


def test_the_sharded_fast_path_merges_narrow():
    res, required = route("sharded", 40)
    check(res, required, 40, 2)


# ------------------------------------------------------------ 64-bit offsets
def spy_writer(monkeypatch, module) -> list:
    """Record the dtype of the starts ``module`` hands its CSR writer."""
    seen, real = [], module.ragged_to_csr

    def writer(buf, starts, lens=None):
        seen.append(np.asarray(starts).dtype)
        return real(buf, starts, lens)

    monkeypatch.setattr(module, "ragged_to_csr", writer)
    return seen


class TestOffsetsStayWide:
    """``replay``'s ``2·t + 2`` and its in-place prefix sum,
    ``_head_buffer``, the serve's raw lengths and the Simple Lookup's
    path lengths all sum ``int32`` counts into ``int64`` offsets."""

    def test_head_buffer(self):
        depth = np.array([3, 0, 2], dtype=LANE_INT)
        head = (1, np.arange(3), 0, np.array([5, 6, 7], dtype=np.int32))
        buf, starts, ends = walk._head_buffer(depth, head)
        assert starts.dtype == ends.dtype == np.int64
        assert ends.tolist() == [4, 5, 8] and buf[starts].tolist() == [5, 6, 7]

    def test_replay(self, monkeypatch):
        seen = spy_writer(monkeypatch, walk)
        t = np.array([2, 0, 1], dtype=LANE_INT)
        steps = [(np.array([1, 2], np.int32), np.array([3, 4], np.int32)),
                 (np.array([5], np.int32), np.array([6], np.int32))]
        servers, offsets = walk.replay(
            t, np.array([10, 11, 12], np.int32), np.full(3, -1, np.int32),
            np.array([9, 8, 7], np.int32), steps)
        assert seen == [np.int64] and offsets.dtype == np.int64
        assert offsets.tolist() == [0, 6, 8, 12]
        assert servers.tolist() == [10, 1, 5, 6, 3, 9, 11, 8, 12, 2, 4, 7]

    def test_serve(self, monkeypatch):
        import repro.core.batch_cache as module

        seen = spy_writer(monkeypatch, module)
        res, _ = route("serve", 40)
        assert res.t.dtype == LANE_INT and res.t.max() > 0
        assert seen == [np.int64] and res.path_offsets.dtype == np.int64

    def test_ft_simple(self, monkeypatch):
        import repro.faults.batch_ft as module

        seen = spy_writer(monkeypatch, module)
        res, _ = route("ft-simple", 40)
        assert res.t.dtype == LANE_INT and res.t.max() > 0
        assert seen == [np.int64] and res.path_offsets.dtype == np.int64
