"""Bit-parity suite for the baseline batch routers.

Every Table 1 scheme's compiled :class:`BaselineBatchRouter` must replay
its scalar ``lookup_path`` exactly: same compressed server path for
every lookup, same owner, and a :class:`BatchCongestion` summary equal
to the scalar :class:`CongestionCounter`'s.  Chunked routing must equal
single-shot routing, and the CAN incremental neighbor maintenance must
match the brute-force recomputation at every dimension.
"""

import numpy as np
import pytest
from oracles.baselines import measure_scheme

from repro.baselines import (
    CanNetwork,
    ChordNetwork,
    DistanceHalvingAdapter,
    KleinbergRing,
    KoordeNetwork,
    TapestryNetwork,
    ViceroyNetwork,
)
from repro.baselines.can import _face_adjacent
from repro.core.routing_stats import BatchCongestion, CongestionCounter
from repro.experiments.table1 import SCHEME_BUILDERS, baseline_parity

BUILDERS = {
    "chord": lambda n, rng: ChordNetwork(n, rng),
    "tapestry": lambda n, rng: TapestryNetwork(n, rng, base=2),
    "tapestry-b4": lambda n, rng: TapestryNetwork(n, rng, base=4),
    "can-d1": lambda n, rng: CanNetwork(n, rng, d=1),
    "can-d2": lambda n, rng: CanNetwork(n, rng, d=2),
    "can-d3": lambda n, rng: CanNetwork(n, rng, d=3),
    "small-world": lambda n, rng: KleinbergRing(n, rng),
    "viceroy": lambda n, rng: ViceroyNetwork(n, rng),
    "koorde": lambda n, rng: KoordeNetwork(n, rng),
    "dh-fast": lambda n, rng: DistanceHalvingAdapter(n, rng, delta=2,
                                                     mode="fast"),
}


def _workload(n, lookups, seed):
    probe = np.random.default_rng(seed + 5000)
    return probe.integers(0, n, size=lookups), probe.random(lookups), probe


def _scalar_paths(dht, src, tgt, rng):
    ids = list(dht.node_ids())
    return [
        [float(x) for x in dht.lookup_path(ids[int(s)], float(t), rng)]
        for s, t in zip(src, tgt)
    ]


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("n", [16, 128])
def test_batch_replays_scalar_paths(name, n):
    """server_path(i) == scalar lookup_path for every lookup."""
    dht = BUILDERS[name](n, np.random.default_rng(7))
    src, tgt, probe = _workload(n, 80, n)
    router = dht.batch_router()
    res = router.route_batch(src, tgt, rng=probe)
    scalar = _scalar_paths(dht, src, tgt, probe)
    for i in range(len(src)):
        assert res.server_path(i) == scalar[i], (name, n, i)
        assert float(res.points[res.owner_idx[i]]) == scalar[i][-1]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_congestion_summary_parity(name):
    """BatchCongestion over a batch == CongestionCounter over the loop."""
    n = 128
    dht = BUILDERS[name](n, np.random.default_rng(11))
    src, tgt, probe = _workload(n, 200, 17)
    res = dht.batch_router().route_batch(src, tgt, rng=probe)
    batch = BatchCongestion()
    batch.record_batch(res)
    counter = CongestionCounter()
    for path in _scalar_paths(dht, src, tgt, probe):
        counter.record_path(path)
    assert counter.summary(n) == batch.summary(n), name


@pytest.mark.parametrize("name", ["chord", "can-d2", "viceroy", "dh-fast"])
def test_chunked_equals_single_shot(name, monkeypatch):
    n = 128
    dht = BUILDERS[name](n, np.random.default_rng(23))
    src, tgt, probe = _workload(n, 300, 29)
    router = dht.batch_router()
    one = router.route_batch(src, tgt, rng=probe)
    cong = BatchCongestion()
    monkeypatch.setattr("repro.baselines.base.ROUTE_CHUNK", 64)
    hops, owners = router.route_chunked(src, tgt, cong, rng=probe)
    assert (hops == one.hops).all()
    assert (owners == one.owner_idx).all()
    whole = BatchCongestion()
    whole.record_batch(one)
    assert whole.summary(n) == cong.summary(n)


@pytest.mark.parametrize(
    "name", ["chord", "can-d1", "can-d2", "can-d3", "small-world", "dh-fast"]
)
def test_zero_hop_lookup(name):
    """A target owned by the source itself routes in place.

    Only the greedy stop-at-owner schemes: Koorde always walks its
    imaginary-node spine, Tapestry routes via the target's surrogate
    chain, and Viceroy climbs to level 1 first — their source==owner
    paths legitimately leave the node (scalar and batch alike, which
    the replay tests above already pin).
    """
    n = 64
    dht = BUILDERS[name](n, np.random.default_rng(31))
    router = dht.batch_router()
    ids = list(dht.node_ids())
    # probe each node with a point it owns (scalar owner() is the oracle)
    probe = np.random.default_rng(37)
    tgt = probe.random(200)
    own = [ids.index(dht.owner(float(t))) for t in tgt]
    res = router.route_batch(np.asarray(own), tgt, rng=probe)
    assert (res.hops == 0).all()
    assert (res.owner_idx == np.asarray(own)).all()
    for i in range(tgt.size):
        assert res.server_path(i) == [float(res.points[own[i]])]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 7, 33, 128])
def test_can_incremental_neighbors_match_brute_force(d, n):
    net = CanNetwork(n, np.random.default_rng(41 + d), d=d)
    # the quadratic definition: every pair of face-adjacent boxes
    brute = [sorted(j for j, b in enumerate(net.boxes)
                    if j != i and _face_adjacent(a, b, d))
             for i, a in enumerate(net.boxes)]
    assert net.neighbors == brute


def test_measure_scheme_batch_matches_row_shape():
    from repro.baselines import measure_scheme_batch

    dht = ChordNetwork(64, np.random.default_rng(47))
    scalar = measure_scheme(dht, np.random.default_rng(53), lookups=400)
    batch = measure_scheme_batch(dht, np.random.default_rng(53), lookups=400)
    # same experiment definition, independent uniform workloads → the
    # topology-determined columns are identical and the measured ones land
    # in the same band
    assert batch.scheme == scalar.scheme
    assert batch.mean_degree == scalar.mean_degree
    assert batch.max_degree == scalar.max_degree
    assert batch.n == scalar.n == 64
    assert batch.mean_path == pytest.approx(scalar.mean_path, rel=0.35)
    assert batch.lookups == 400


#: schemes whose routing never consults ``owner`` (Chord and Viceroy
#: route towards it), so a wrong ``owner`` shows only in E1's parity check
ROUTE_BLIND = ["can", "dh-fast", "koorde", "small-world", "tapestry"]


@pytest.mark.parametrize("scheme", sorted(SCHEME_BUILDERS))
def test_bench_replay_ends_at_each_owner(scheme):
    assert baseline_parity(64, 40, 0)[scheme]


@pytest.mark.parametrize("scheme", ROUTE_BLIND)
def test_bench_parity_fails_when_the_owner_disagrees(monkeypatch, scheme):
    """E1's parity replay checks where paths end, not only that the batch
    and scalar engines agree on them."""
    cls = type(SCHEME_BUILDERS[scheme](64, np.random.default_rng(0)))
    monkeypatch.setattr(cls, "owner", lambda self, target: -1.0)
    assert not baseline_parity(64, 40, 0)[scheme]
