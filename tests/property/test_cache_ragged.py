"""The ragged ``serve_batch`` against the dense one it replaced.

:class:`DenseServeOracle` carries PR 22's ``serve_batch`` and
``_replication_fixpoint`` *verbatim*: dense ``(size, tmax+1)`` prefix
matrices ``P`` / ``OFF`` / ``CK``, one ``searchsorted`` over all of
them, a flat ``(lane, level)`` path expansion, and a ``lexsort`` of
every lane in every fixpoint round.  The engine now descends the
prefixes while they stay active, emits paths level by level and
regroups only the lanes a round moved; both are driven over the same
multi-batch streams and must agree on every result field and every
state array with ``array_equal`` — no tolerance, the float ops are the
same in the same order.  Two more tests pin what the rewrite is *for*:
peak traced memory of one batch at most half the oracle's, and a
fixpoint that sorts ``size + moves`` lanes, not ``size × rounds``.
"""

import tracemalloc
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchCacheEngine, DistanceHalvingNetwork
from repro.core.batch_cache import (_TAU_DIGITS, BatchCacheResult,
                                    _isin_sorted)
from repro.core.caching import salt_indices
from repro.core.segments import fold_unit
from repro.core.walk import normalize_points, per_lane_matrix, ragged_to_csr

RESULT_FIELDS = ("items", "trees", "t", "serving_depth", "serving_node_key",
                 "serving_server_idx", "hops", "lookup_hops", "path_servers",
                 "path_offsets")
STATE_FIELDS = ("_keys", "_counts", "_pos", "_depths", "_prev_keys",
                "_prev_counts", "_hits", "_msgs", "_tree_replications",
                "_touched")


class DenseServeOracle(BatchCacheEngine):
    """The parent commit's dense batch server, kept as the reference."""

    def serve_batch(
        self,
        item_idx,
        sources,
        tau: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> BatchCacheResult:
        """Serve one batch of requests, in array order (= arrival order).

        Routes every request with the vectorized two-phase Distance
        Halving lookup toward its (salted) root, resolves serving nodes
        against the active trees, applies step-1 replication with the
        exact sequential semantics, and books hit/message counters.

        ``tau`` fixes the per-request digit strings (shape ``(B, L)`` or
        ``(L,)``; required for bit-parity against a scalar replay);
        without it fresh digits are drawn from ``rng``.
        """
        items = np.asarray(item_idx, dtype=np.int64).ravel()
        src = normalize_points(sources, what="sources")
        if items.size != src.size:
            raise ValueError("item_idx and sources must have the same length")
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise IndexError("item index out of range for the engine's universe")
        size = int(items.size)
        delta = self.delta
        points = self._router.points
        if size == 0:
            empty_i = np.zeros(0, np.int64)
            return BatchCacheResult(
                points=points, items=empty_i, trees=empty_i, t=empty_i,
                serving_depth=empty_i, serving_node_key=empty_i,
                serving_server_idx=empty_i.astype(np.int32), hops=empty_i,
                lookup_hops=empty_i,
                path_servers=np.zeros(0, np.int32),
                path_offsets=np.zeros(1, np.int64), delta=delta)

        if self.salts > 1:
            trees = items * self.salts + salt_indices(src, self.salts)
        else:
            trees = items.copy()
        targets = self._roots[trees]

        if tau is None:
            if rng is None:
                raise ValueError("serve_batch needs an rng or explicit tau")
            tau = rng.integers(0, delta, size=(size, _TAU_DIGITS))
        tau_arr = per_lane_matrix(tau, size, np.int64, "tau")

        res = self._router.batch_dh_lookup(src, targets, tau=tau_arr,
                                           keep_paths=False)
        t = res.t
        tmax = int(t.max())
        if tmax + 1 > self._depth_cap:
            raise RuntimeError(
                f"walk of {tmax} digits exceeds the engine's depth cap "
                f"{self._depth_cap}; fewer trees or larger delta needed")

        # prefix keys (composite) and exact walk offsets per depth
        scales = self._scales
        P = np.empty((size, tmax + 1), dtype=np.int64)
        OFF = np.empty((size, tmax + 1), dtype=np.float64)
        P[:, 0] = 0
        OFF[:, 0] = 0.0
        for j in range(1, tmax + 1):
            d = tau_arr[:, j - 1]
            P[:, j] = P[:, j - 1] * delta + d + 1
            OFF[:, j] = OFF[:, j - 1] + d * scales[j - 1]
        CK = trees[:, None] * self._K + P

        # serving depth: active prefixes are depth-contiguous from the root
        memb = _isin_sorted(CK.ravel(), self._keys).reshape(size, tmax + 1)
        memb &= np.arange(tmax + 1)[None, :] <= t[:, None]
        depth = memb.sum(axis=1).astype(np.int64) - 1
        lanes = np.arange(size)
        node = CK[lanes, depth]

        self._replication_fixpoint(node, depth, t, CK, OFF, trees, lanes)

        # commit epoch counters and per-server hits
        idx = np.searchsorted(self._keys, node)
        np.add.at(self._counts, idx, 1)
        cover = self._router.cover_index.cover
        serving_idx = cover(self._pos[idx]).astype(np.int32)
        np.add.at(self._hits, serving_idx, 1)
        self._touched[np.unique(trees)] = True
        self.requests_served += size

        # cache-shortened paths: phase-I walk covers j = 0..t, then
        # phase-II covers j = t..serving depth — the exact closed-form
        # trajectory the scalar engine books (not the dh route, so not
        # the shared descent; OFF already holds each level's offset, so
        # not ``level_points`` either).  Built ragged (a flat (lane,
        # level) expansion sized by the true path lengths) and
        # compressed by the shared CSR writer.
        raw_len = 2 * t - depth + 2          # (t+1) phase-I + (t-m+1) phase-II
        starts = np.concatenate(([0], np.cumsum(raw_len)))
        total = int(starts[-1])
        lane = np.repeat(lanes, raw_len)
        k = np.arange(total) - np.repeat(starts[:-1], raw_len)
        tl = t[lane]
        is_p1 = k <= tl
        j = np.where(is_p1, k, 2 * tl + 1 - k)
        val = (np.where(is_p1, src[lane], targets[lane]) + OFF[lane, j])
        val /= scales[j]
        servers, offsets = ragged_to_csr(
            cover(fold_unit(val)).astype(np.int32), starts[:-1])
        np.add.at(self._msgs, servers, 1)

        return BatchCacheResult(
            points=points, items=items, trees=trees, t=t,
            serving_depth=depth, serving_node_key=node - trees * self._K,
            serving_server_idx=serving_idx, hops=np.diff(offsets) - 1,
            lookup_hops=res.hops, path_servers=servers, path_offsets=offsets,
            delta=delta)

    def _replication_fixpoint(self, node, depth, t, CK, OFF, trees, lanes):
        """Step-1 replication with sequential semantics, vectorized.

        Requests are grouped by their current node in batch order.  A
        group at a *leaf* whose carried count ``b`` plus arrivals crosses
        the threshold fires at arrival ``c+1-b``: that request is served
        where it entered, strictly later arrivals that entered deeper
        reroute to the next child on their digit string, and all Δ
        children activate.  Groups at blocked (non-leaf) nodes never
        fire; rerouted requests keep their batch order, so a child group
        fires exactly when the scalar per-request loop would make it.
        Terminates because every round strictly deepens some requests.
        """
        size = lanes.size
        delta = self.delta
        c = self.c
        cover = self._router.cover_index.cover
        while True:
            order = np.lexsort((lanes, node))
            sk = node[order]
            new_grp = np.ones(size, dtype=bool)
            new_grp[1:] = sk[1:] != sk[:-1]
            grp_start = np.flatnonzero(new_grp)
            grp_id = np.cumsum(new_grp) - 1
            u_keys = sk[grp_start]
            gsize = np.diff(np.append(grp_start, size))
            pos = np.arange(size) - grp_start[grp_id] + 1

            local = u_keys % self._K
            child_lo = u_keys + local * (delta - 1) + 1
            has_child = (np.searchsorted(self._keys, child_lo + delta)
                         > np.searchsorted(self._keys, child_lo))
            base = self._counts[np.searchsorted(self._keys, u_keys)]
            tpos = c + 1 - base
            fires = ~has_child & (gsize >= tpos)
            if not fires.any():
                return

            # reroute strictly-later deep entries of fired groups
            req_fire = fires[grp_id]
            move_sorted = req_fire & (pos > tpos[grp_id])
            moved = order[move_sorted]
            moved = moved[t[moved] > depth[moved]]
            node[moved] = CK[moved, depth[moved] + 1]
            depth[moved] += 1

            # activate all Δ children of every fired node
            f = np.flatnonzero(fires)
            rep = order[grp_start[f]]          # first group member, in order
            f_depth = depth[rep]
            f_tree = trees[rep]
            off_u = OFF[rep, f_depth]
            pow_d = self._scales[f_depth]
            ds = np.arange(delta, dtype=np.float64)
            child_off = off_u[:, None] + ds[None, :] * pow_d[:, None]
            child_pos = ((self._roots[f_tree][:, None] + child_off)
                         / self._scales[f_depth + 1][:, None]).ravel()
            child_pos[child_pos == 1.0] = 0.0
            child_keys = (node[rep][:, None] * delta + 1
                          + np.arange(delta, dtype=np.int64)[None, :]
                          - (f_tree * self._K * (delta - 1))[:, None]).ravel()
            csort = np.argsort(child_keys, kind="stable")
            child_keys = child_keys[csort]
            child_pos = child_pos[csort]
            child_depth = np.repeat(f_depth + 1, delta)[csort]
            ins = np.searchsorted(self._keys, child_keys)
            self._keys = np.insert(self._keys, ins, child_keys)
            self._counts = np.insert(self._counts, ins, 0)
            self._pos = np.insert(self._pos, ins, child_pos)
            self._depths = np.insert(self._depths, ins, child_depth)
            np.add.at(self._tree_replications, f_tree, delta)
            np.add.at(self._msgs, cover(child_pos), 1)


NETS = {}


def get_net(n, delta=2):
    if (n, delta) not in NETS:
        net = DistanceHalvingNetwork(
            delta=delta, rng=np.random.default_rng(4000 + 10 * n + delta))
        net.populate(n)
        NETS[n, delta] = net
    return NETS[n, delta]


def zipf_items(n_items, count, rng, exponent=1.2):
    w = np.arange(1, n_items + 1, dtype=np.float64) ** -exponent
    return rng.choice(n_items, size=count, p=w / w.sum())


def assert_same_state(eng, ref):
    for name in STATE_FIELDS:
        got, want = getattr(eng, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert eng.requests_served == ref.requests_served
    eng.check_well_formed()


def assert_same_result(res, want):
    for name in RESULT_FIELDS:
        a, b = getattr(res, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


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
            assert_same_result(out[-1], ref.serve_batch(idx, sources, tau=tau))
        assert_same_state(eng, ref)
    return out


def random_batch(net, n_items, count, rng, shared_tau=False):
    pts = net.segments.as_array()
    shape = (_TAU_DIGITS,) if shared_tau else (count, _TAU_DIGITS)
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
        tau = np.array([[lane[2] >> k & 1 for k in range(_TAU_DIGITS)]
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
