"""The ragged ``serve_batch`` against the dense one it replaced.

``DenseServeOracle`` (:mod:`oracles.cache`) carries the dense
``serve_batch`` and ``_replication_fixpoint`` *verbatim*: dense
``(size, tmax+1)`` prefix matrices ``P`` / ``OFF`` / ``CK``, one
``searchsorted`` over all of them, a flat ``(lane, level)`` path
expansion, and a ``lexsort`` of every lane in every fixpoint round.
The engine now descends the prefixes while they stay active, emits
paths level by level and regroups only the lanes a round moved; both
are driven over the same multi-batch streams and must agree on every
result field and every state array in dtype and bits — no tolerance,
the float ops are the same in the same order.  Two more tests pin what
the rewrite is *for*: peak traced memory of one batch at most half the
oracle's, and a fixpoint that sorts ``size + moves`` lanes, not
``size × rounds``.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.cache import RESULT_FIELDS, STATE_FIELDS, DenseServeOracle
from oracles.compare import assert_same
from oracles.inputs import populated

from repro.core import BatchCacheEngine
from repro.sim.workload import DH_TAU_DIGITS


@functools.lru_cache(maxsize=None)
def get_net(n, delta=2):
    return populated(n, 4000 + 10 * n + delta, delta)


def zipf_items(n_items, count, rng, exponent=1.2):
    w = np.arange(1, n_items + 1, dtype=np.float64) ** -exponent
    return rng.choice(n_items, size=count, p=w / w.sum())


def drive(net, n_items, batches, **engine_kw):
    """Serve ``batches`` on both engines, comparing after every step.

    A batch is ``(item_idx, sources, tau)``; ``None`` ends the epoch.
    Returns the engine's results.
    """
    items = [f"item{i}" for i in range(n_items)]
    eng = BatchCacheEngine(net, items, **engine_kw)
    ref = DenseServeOracle(net, items, **engine_kw)
    out = []
    for batch in batches:
        if batch is None:
            assert eng.advance_epoch() == ref.advance_epoch()
        else:
            idx, sources, tau = batch
            out.append(eng.serve_batch(idx, sources, tau=tau))
            assert_same(out[-1], ref.serve_batch(idx, sources, tau=tau),
                        RESULT_FIELDS)
        assert_same(eng, ref, STATE_FIELDS + ("requests_served",))
        eng.check_well_formed()
    return out


def random_batch(net, n_items, count, rng, shared_tau=False):
    pts = net.segments.as_array()
    shape = (DH_TAU_DIGITS,) if shared_tau else (count, DH_TAU_DIGITS)
    return (zipf_items(n_items, count, rng),
            pts[rng.integers(0, pts.size, size=count)],
            rng.integers(0, net.delta, size=shape))


class TestStreams:
    @pytest.mark.parametrize("threshold", [1, None], ids=["c1", "cdefault"])
    @pytest.mark.parametrize("salts", [1, 3])
    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_epochs_of_zipf_batches(self, delta, salts, threshold):
        net = get_net(64, delta)
        rng = np.random.default_rng(100 * delta + 10 * salts)
        # two batches share an epoch (the second enters warmed trees on
        # carried counters), the collapse runs, and a third follows it
        batches = [random_batch(net, 5, 400, rng),
                   random_batch(net, 5, 300, rng), None,
                   random_batch(net, 5, 400, rng), None]
        drive(net, 5, batches, threshold=threshold, salts=salts)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    def test_network_sizes(self, n):
        net = get_net(n)
        rng = np.random.default_rng(n)
        batches = [random_batch(net, 4, 500, rng), None,
                   random_batch(net, 4, 500, rng)]
        drive(net, 4, batches, threshold=2)

    def test_one_hot_item(self):
        """Every request on one tree: the deepest fixpoint, and every
        round but the last moves lanes."""
        net = get_net(1024)
        rng = np.random.default_rng(8)
        idx, sources, tau = random_batch(net, 1, 4000, rng)
        (res,) = drive(net, 1, [(idx, sources, tau)], threshold=1)
        assert int(res.serving_depth.max()) >= 8

    def test_shared_tau_row(self):
        net = get_net(64)
        rng = np.random.default_rng(9)
        batches = [random_batch(net, 3, 300, rng, shared_tau=True), None,
                   random_batch(net, 3, 300, rng, shared_tau=True)]
        drive(net, 3, batches, threshold=1)

    def test_empty_and_single_lane_batches(self):
        net = get_net(64)
        rng = np.random.default_rng(10)
        one = random_batch(net, 3, 1, rng)
        none = (np.zeros(0, np.int64), np.zeros(0), np.zeros((0, 64), np.int64))
        big = random_batch(net, 3, 200, rng)
        results = drive(net, 3, [none, one, big, one, none, None, one],
                        threshold=1)
        assert results[0].size == 0 and results[1].size == 1

    def test_lanes_entering_at_their_last_digit(self):
        """A lane whose whole digit string is active enters at
        ``depth == t`` and can never be rerouted deeper."""
        net = get_net(64)
        rng = np.random.default_rng(11)
        warm = random_batch(net, 1, 600, rng)
        hot = random_batch(net, 1, 600, rng)
        results = drive(net, 1, [warm, hot], threshold=1)
        res = results[1]
        assert ((res.serving_depth == res.t) & (res.t > 0)).any()


LANES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
              st.integers(min_value=0, max_value=2**63 - 1)),
    min_size=1, max_size=60)


class TestArbitraryLanes:
    @settings(max_examples=40, deadline=None)
    @given(lanes=LANES, cut=st.integers(min_value=0, max_value=60),
           threshold=st.integers(min_value=1, max_value=3),
           salts=st.sampled_from([1, 2]))
    def test_items_sources_tau(self, lanes, cut, threshold, salts):
        """Any sources (not only server points), any digit strings (the
        bits of the drawn integer), split into two batches anywhere."""
        idx = np.array([lane[0] for lane in lanes])
        sources = np.array([lane[1] for lane in lanes])
        tau = np.array([[lane[2] >> k & 1 for k in range(DH_TAU_DIGITS)]
                        for lane in lanes])
        batches = [(idx[:cut], sources[:cut], tau[:cut]),
                   (idx[cut:], sources[cut:], tau[cut:]), None,
                   (idx, sources, tau)]
        drive(get_net(64), 3, batches, threshold=threshold, salts=salts)


def flash_inputs(n, lanes, n_items, seed):
    net = get_net(n)
    rng = np.random.default_rng(seed)
    idx, sources, tau = random_batch(net, n_items, lanes, rng)
    items = [f"hot-{i}" for i in range(n_items)]
    return net, items, idx, sources, tau


class TestWhatTheRewriteIsFor:
    def test_peak_memory_at_most_half_the_dense_engine(self):
        """Self-calibrating: both engines serve the same 16,384 Zipf
        lanes at n=4096; explicit ``tau`` keeps the shared ``(B, 64)``
        draw out of both readings."""
        net, items, idx, sources, tau = flash_inputs(4096, 16_384, 64, 12)
        peaks = {}
        for cls in (BatchCacheEngine, DenseServeOracle):
            eng = cls(net, items)
            tracemalloc.start()
            try:
                eng.serve_batch(idx, sources, tau=tau)
                peaks[cls] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[BatchCacheEngine] <= 0.5 * peaks[DenseServeOracle], peaks

    def test_fixpoint_sorts_each_lane_once_plus_once_per_move(self, monkeypatch):
        net, items, idx, sources, tau = flash_inputs(1024, 8192, 4, 13)
        entry = DenseServeOracle(net, items, threshold=1)
        entry._replication_fixpoint = lambda *args: None
        entered = entry.serve_batch(idx, sources, tau=tau).serving_depth

        eng = BatchCacheEngine(net, items, threshold=1)
        fixpoint = eng._replication_fixpoint
        sorted_sizes = []

        def sizing(sort, length):
            def wrapped(keys, **kw):
                sorted_sizes.append(length(keys))
                return sort(keys, **kw)
            return wrapped

        def counted(*args):
            with monkeypatch.context() as m:
                m.setattr(np, "argsort", sizing(np.argsort, len))
                m.setattr(np, "lexsort",
                          sizing(np.lexsort, lambda keys: len(keys[0])))
                return fixpoint(*args)

        eng._replication_fixpoint = counted
        res = eng.serve_batch(idx, sources, tau=tau)
        moves = int((res.serving_depth - entered).sum())
        rounds = int((res.serving_depth - entered).max()) + 1
        assert rounds >= 8 and moves > 3 * res.size  # a deep fixpoint
        # every lane once, then once per move (the dense engine sorted
        # ``size × rounds`` plus the child keys of every round)
        assert sum(sorted_sizes) <= res.size + moves
