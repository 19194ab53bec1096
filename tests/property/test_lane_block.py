"""The lane block: two engines walk their lanes one block at a time, alike.

``BatchCacheEngine.serve_batch`` runs its dh walk and emits its
cache-shortened paths, and ``FTBatchEngine.batch_simple_lookup`` runs its
hop loop, one :data:`~repro.core.walk.LANE_BLOCK` of lanes at a time;
the serving descent and the replication fixpoint stay whole-batch.
Pinned here against the parents frozen verbatim
(``WholeChunkServeEngine`` in :mod:`oracles.cache`,
``WholeChunkFTEngine`` in :mod:`oracles.overlap`), with the block set to
small odd sizes: batches below one block, exactly one, one lane more and
several blocks agree on every result field in dtype and bits, on the
engine state and on the generator state.  A keyed call reaches the
parents as the pinned digits or uniforms its key gives
(:func:`oracles.inputs.keyed_tau`, :func:`oracles.inputs.keyed_choices`).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.cache import RESULT_FIELDS, STATE_FIELDS, WholeChunkServeEngine
from oracles.compare import assert_same
from oracles.inputs import keyed_choices, keyed_tau, populated
from oracles.overlap import WholeChunkFTEngine

from repro.core import BatchCacheEngine
from repro.core import walk
from repro.core.walk import draw_key
from repro.faults import FaultPlan, FTBatchEngine, OverlappingDHNetwork
from repro.peer import CostMap, CostOracle

#: the small odd block sizes the lanes are cut into
BLOCKS = st.sampled_from([1, 3, 7, 33])

_FT_NET = OverlappingDHNetwork(128, np.random.default_rng(54))
_FT_MAP = CostMap.synthetic(n_isps=4, rng=np.random.default_rng(5))
FT_RESULT_FIELDS = ("targets", "source_idx", "t", "success", "messages",
                    "parallel_time", "holder_idx", "path_servers",
                    "path_offsets")


def sizes(block: int) -> tuple:
    """Batch sizes below one block, exactly one, one more, and several."""
    return tuple(s for s in (block - 1, block, block + 1, 3 * block + 2)
                 if s > 0)


def same_state(rng_a, rng_b) -> bool:
    return rng_a.bit_generator.state == rng_b.bit_generator.state


@settings(max_examples=12, deadline=None)
@given(block=BLOCKS, delta=st.sampled_from([2, 3]),
       salts=st.sampled_from([1, 3]), seed=st.integers(0, 2**16),
       drawn=st.booleans())
def test_serve_batch_equals_the_whole_chunk_parent(block, delta, salts,
                                                   seed, drawn):
    """Threshold 1 makes the fixpoint replicate and the paths deepen;
    digits drawn inside, or a caller's ``uint8`` matrix."""
    net = populated(128, 54 + delta, delta)
    items = [f"hot-{i}" for i in range(4)]
    eng = BatchCacheEngine(net, items, threshold=1, salts=salts)
    ref = WholeChunkServeEngine(net, items, threshold=1, salts=salts)
    inputs = np.random.default_rng(seed)
    mine, theirs = (np.random.default_rng(seed + 1) for _ in range(2))
    pts = net.segments.as_array()
    with mock.patch.object(walk, "LANE_BLOCK", block):
        for size in sizes(block):
            idx = inputs.integers(0, len(items), size)
            src = pts[inputs.integers(0, pts.size, size)]
            tau = (None if drawn else
                   inputs.integers(0, delta, (size, 64)).astype(np.uint8))
            got = eng.serve_batch(idx, src, tau=tau, rng=mine)
            want = ref.serve_batch(idx, src, rng=theirs, tau=(
                keyed_tau(draw_key(theirs), size, delta) if drawn else tau))
            assert_same(got, want, RESULT_FIELDS)
            assert_same(eng, ref, STATE_FIELDS)
            assert same_state(mine, theirs)
    eng.check_well_formed()


@settings(max_examples=12, deadline=None)
@given(block=BLOCKS, seed=st.integers(0, 2**16),
       p_fail=st.sampled_from([0.0, 0.3, 0.7]),
       policy=st.sampled_from(["uniform", "greedy", "weighted"]),
       keep_paths=st.sampled_from([False, "csr"]), drawn=st.booleans())
def test_simple_lookup_equals_the_whole_chunk_parent(block, seed, p_fail,
                                                     policy, keep_paths,
                                                     drawn):
    """Fail-stop plans kill walks mid-block; the uniforms come from a key
    or from a caller's matrix."""
    eng = FTBatchEngine(_FT_NET, cost_map=_FT_MAP)
    ref = WholeChunkFTEngine(_FT_NET)
    oracle = CostOracle(_FT_NET.points_array, _FT_MAP)
    inputs = np.random.default_rng(seed)
    dead = _FT_NET.points_array[inputs.random(_FT_NET.n) < p_fail]
    plan = FaultPlan(failed={float(x) for x in dead})
    with mock.patch.object(walk, "LANE_BLOCK", block):
        for size in sizes(block):
            src = _FT_NET.points_array[inputs.integers(0, _FT_NET.n, size)]
            tgt = inputs.random(size)
            key = draw_key(inputs)
            choices = None if drawn else inputs.random((size, 40))
            kwargs = dict(plan=plan, keep_paths=keep_paths, policy=policy)
            got = eng.batch_simple_lookup(src, tgt, key=key, choices=choices,
                                          **kwargs)
            want = ref.batch_simple_lookup(src, tgt, choices=(
                keyed_choices(key, size, 40) if drawn else choices),
                oracle=oracle, **kwargs)
            assert_same(got, want, FT_RESULT_FIELDS)
            assert (got.algorithm, got.policy) == (want.algorithm,
                                                   want.policy)


def test_blocks_tile_the_batch():
    """Consecutive, disjoint, each at most one block: the lanes once each."""
    with mock.patch.object(walk, "LANE_BLOCK", 7):
        assert list(walk.lane_blocks(0)) == []
        assert list(walk.lane_blocks(7)) == [(0, 7)]
        assert list(walk.lane_blocks(16)) == [(0, 7), (7, 14), (14, 16)]
    assert walk.LANE_BLOCK == 1 << 14
