"""Lane-keyed randomness: a request's digits and uniforms are a function of
(key, lane index), never of the batch it rides in.

Pinned here: the helper of :mod:`repro.core.walk` against the
pure-Python SplitMix64 of :mod:`oracles.walk` (lane seeds, the bit-slice
and ``Δ^per ≤ 2^32`` digit constructions, the 53-bit uniforms) and its
digit counts against a fixed χ² bound; then the metamorphic property the key exists for — a
``batch_simple_lookup`` stream cut anywhere, the first ``m`` lanes of a
``batch_dh_lookup``, ``batch_fast_lookup`` or ``serve_batch`` call, and
a soak at three chunk sizes all route every request as one whole call
would.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.inputs import keyed_tau, populated
from oracles.walk import GAMMA, M64, keyed_digit, keyed_word, splitmix

from repro.core import BatchCacheEngine, BatchRouter, walk
from repro.core.segments import normalize_array
from repro.core.walk import KeyedLanes, draw_key, exact_digits, lane_key
from repro.faults import FaultPlan, FTBatchEngine, OverlappingDHNetwork
from repro.peer import CostMap
from repro.sim.scenario import ScenarioEngine

DELTAS = (2, 3, 4, 5, 7)


# ------------------------------------------------------------------ the helper
class TestHelper:
    KEYS = (0, 1, 2**63 + 5, M64)

    @pytest.mark.parametrize("key", KEYS)
    def test_seeds_are_the_keys_splitmix64_outputs(self, key):
        assert KeyedLanes(key, 5, 1).seeds.tolist() == [
            splitmix((key + (i + 1) * GAMMA) & M64) for i in range(5)]

    @pytest.mark.parametrize("key", KEYS)
    def test_lane_key_offsets_the_stream(self, key):
        whole = KeyedLanes(key, 300, 1).seeds
        for start in (0, 1, 7, 299):
            assert np.array_equal(
                KeyedLanes(lane_key(key, start), 300 - start, 1).seeds,
                whole[start:])

    @pytest.mark.parametrize("delta", DELTAS + (8, 16, 256))
    def test_digits_follow_the_construction(self, delta):
        """Bit slices for a power-of-two Δ; otherwise ``per`` digits a word
        with ``Δ^per ≤ 2^32`` — Δ = 3 reads 20 a word, 5 13, 7 11 — so
        steps past ``per`` cross into the next word."""
        key, lanes = 2**40 + 3, 6
        keyed = KeyedLanes(key, lanes, 70, delta)
        for step in range(70):
            got = keyed[:, step]
            assert got.dtype == np.int64
            assert got.tolist() == [keyed_digit(key, i, step, delta)
                                    for i in range(lanes)], step

    @pytest.mark.parametrize("delta", (2, 3, None))
    def test_one_step_per_lane_reads_what_a_shared_step_reads(self, delta):
        keyed = KeyedLanes(9, 400, 45, delta)
        steps = np.arange(400) % 45
        got = keyed[:, steps]
        for s in range(45):
            at = steps == s
            assert np.array_equal(got[at], keyed[at, s])

    @pytest.mark.parametrize("delta", (2, 3, 300))
    def test_a_lane_slice_is_its_narrow_digit_matrix(self, delta):
        keyed = KeyedLanes(11, 20, 33, delta)
        block = keyed[4:9]
        assert block.shape == (5, 33)
        assert block.dtype == np.min_scalar_type(delta - 1)
        assert np.array_equal(block, np.stack(
            [keyed[4:9, j] for j in range(33)], axis=1))

    @pytest.mark.parametrize("delta", (2, 3, 4, 5, 8, 16))
    def test_every_read_of_the_held_words_is_the_scalar_digit(self, delta):
        """At a dh walk's width (one word a lane at Δ = 2, 4, 8, 16; two at
        Δ = 3, 5): a lane slice, a shared step over lanes, and one step
        per lane — over a lane array, a lane slice and all lanes — read
        :func:`oracles.walk.keyed_digit`."""
        key, size = 2**61 + 17, 40
        width = exact_digits(delta) + 1
        keyed = KeyedLanes(key, size, width, delta)
        want = np.array([[keyed_digit(key, i, j, delta) for j in range(width)]
                         for i in range(size)])
        block = keyed[7:31]
        assert block.dtype == np.min_scalar_type(delta - 1)
        assert np.array_equal(block, want[7:31])
        lanes = np.array([3, 0, 39, 3, 22])
        for j in range(width):
            got = keyed[lanes, j]
            assert got.dtype == np.int64
            assert np.array_equal(got, want[lanes, j]), j
        steps = np.random.default_rng(delta).integers(0, width, size)
        every = np.arange(size)
        for at, got in ((every, keyed[:, steps]),
                        (every[7:31], keyed[7:31, steps[7:31]]),
                        (lanes, keyed[lanes, steps[lanes]])):
            assert got.dtype == np.int64 and got.shape == at.shape
            assert np.array_equal(got, want[at, steps[at]])

    def test_binary_digits_hold_eight_bytes_a_lane(self):
        """At Δ = 2 the words replace the seeds: one ``uint64`` a lane."""
        keyed = KeyedLanes(5, 1000, exact_digits(2) + 1, 2)
        held = [v for v in vars(keyed).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in held) == 8 * 1000

    def test_uniforms_are_the_top_53_bits(self):
        key = 12345
        keyed = KeyedLanes(key, 8, 64)
        for step in (0, 1, 63):
            assert keyed[:, step].tolist() == [
                (keyed_word(key, i, step) >> 11) * 2.0**-53 for i in range(8)]
        # the largest word gives the largest double below one
        assert (M64 >> 11) * 2.0**-53 == np.nextafter(1.0, 0.0)
        u = KeyedLanes(7, 1 << 16, 4)[:, 3]
        assert u.min() >= 0.0 and u.max() < 1.0 and abs(u.mean() - 0.5) < 0.01

    @pytest.mark.parametrize("delta", DELTAS)
    def test_digit_counts_pass_a_fixed_chi_square_bound(self, delta):
        """2^16 lanes × 40 steps: the per-step digit counts of one key sit
        within mean + 6 sd of the χ² law with 40·(Δ − 1) degrees of
        freedom."""
        lanes, steps = 1 << 16, 40
        keyed = KeyedLanes(0xC0FFEE, lanes, steps, delta)
        counts = np.stack([np.bincount(keyed[:, s], minlength=delta)
                           for s in range(steps)])
        assert counts.shape == (steps, delta) and counts.sum() == lanes * steps
        expect = lanes / delta
        chi2 = float(((counts - expect) ** 2 / expect).sum())
        dof = steps * (delta - 1)
        assert chi2 <= dof + 6 * math.sqrt(2 * dof), chi2

    def test_draw_key_reads_one_uint64(self):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert draw_key(rng) == int(ref.integers(0, 1 << 64, dtype=np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


# -------------------------------------------------------- the metamorphic gate
_FT_NET = OverlappingDHNetwork(128, np.random.default_rng(57))
_FT_MAP = CostMap.synthetic(n_isps=4, rng=np.random.default_rng(5))
FT_FIELDS = ("t", "success", "messages", "parallel_time", "holder_idx")


def per_lane_paths(res) -> list:
    servers, offsets = res.to_csr()
    return [servers[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]


def same_lanes(got, want, fields, lanes=slice(None)):
    """``got``'s lanes equal ``want``'s ``lanes``, field by field and path
    by path, dtype included."""
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)[lanes]
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert per_lane_paths(got) == per_lane_paths(want)[lanes]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16),
       cuts=st.lists(st.integers(0, 300), max_size=4),
       policy=st.sampled_from(["uniform", "weighted"]),
       p_fail=st.sampled_from([0.0, 0.4]))
def test_simple_lookup_stream_cut_anywhere(seed, cuts, policy, p_fail):
    """Each piece routed with ``lane_key(key, start)`` equals the one-call
    stream lane for lane, failed walks and paths included."""
    engine = FTBatchEngine(_FT_NET, cost_map=_FT_MAP)
    inputs = np.random.default_rng(seed)
    dead = _FT_NET.points_array[inputs.random(_FT_NET.n) < p_fail]
    plan = FaultPlan(failed={float(x) for x in dead})
    src = _FT_NET.points_array[inputs.integers(0, _FT_NET.n, 300)]
    tgt = inputs.random(300)
    key = draw_key(inputs)
    kw = dict(plan=plan, keep_paths="csr", policy=policy)
    whole = engine.batch_simple_lookup(src, tgt, key=key, **kw)
    bounds = [0, *sorted(set(cuts)), 300]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        piece = engine.batch_simple_lookup(src[lo:hi], tgt[lo:hi],
                                           key=lane_key(key, lo), **kw)
        same_lanes(piece, whole, FT_FIELDS, slice(lo, hi))


def test_simple_lookup_refuses_a_key_outside_64_bits():
    engine = FTBatchEngine(_FT_NET)
    for bad in (-1, 1 << 64, True, 2.0):
        with pytest.raises(ValueError, match="key must be an int"):
            engine.batch_simple_lookup(_FT_NET.points_array[:2], [0.1, 0.2],
                                       key=bad)
    assert engine.batch_simple_lookup(_FT_NET.points_array[:2], [0.1, 0.2],
                                      key=M64).size == 2


@functools.lru_cache(maxsize=None)
def cost_router(delta: int) -> BatchRouter:
    return BatchRouter(populated(512, 30 + delta, delta),
                       cost_map=CostMap.synthetic(
                           4, np.random.default_rng(delta)))


DH_FIELDS = ("source_idx", "owner_idx", "t", "hops", "phase1_hops")


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("policy", ["uniform", "greedy", "weighted"])
def test_dh_lookup_prefix_routes_as_its_own_call(delta, policy):
    """The first ``m`` lanes of a call equal a call on those ``m`` lanes
    from the same generator seed, and each reads exactly one key."""
    router = cost_router(delta)
    inputs = np.random.default_rng(delta)
    src = router.points[inputs.integers(0, router.n, 700)]
    tgt = inputs.random(700)
    whole = router.batch_dh_lookup(src, tgt, rng=np.random.default_rng(8),
                                   policy=policy, keep_paths="csr")
    for m in (0, 1, 13, 699):
        rng = np.random.default_rng(8)
        part = router.batch_dh_lookup(src[:m], tgt[:m], rng=rng,
                                      policy=policy, keep_paths="csr")
        same_lanes(part, whole, DH_FIELDS, slice(0, m))
        if policy != "uniform":
            width = part.tau_used.shape[1]
            assert np.array_equal(part.tau_used, whole.tau_used[:m, :width])
        ref = np.random.default_rng(8)
        draw_key(ref)
        assert rng.bit_generator.state == ref.bit_generator.state


FAST_FIELDS = ("source_idx", "owner_idx", "t", "hops")


@pytest.mark.parametrize("delta", [2, 3])
def test_fast_lookup_prefix_routes_as_its_own_call(delta):
    """The fast lookup reads no randomness: the first ``m`` lanes of a
    call equal a call on those ``m`` lanes, in values and dtypes."""
    router = cost_router(delta)
    inputs = np.random.default_rng(delta)
    src = router.points[inputs.integers(0, router.n, 700)]
    tgt = inputs.random(700)
    whole = router.batch_fast_lookup(src, tgt, keep_paths="csr")
    for m in (0, 1, 13, 699):
        part = router.batch_fast_lookup(src[:m], tgt[:m], keep_paths="csr")
        same_lanes(part, whole, FAST_FIELDS, slice(0, m))


def unfolded(rng, points: np.ndarray) -> np.ndarray:
    """``points`` as a caller may give them: ``v + k`` for a small
    integer ``k``, and some lanes ``−0.0`` or ``1.0``."""
    raw = points + rng.integers(-3, 4, points.size)
    raw[rng.random(points.size) < 0.1] = -0.0
    raw[rng.random(points.size) < 0.1] = 1.0
    return raw


ENGINE_FIELDS = {
    "fast": ("targets", "sources", "source_idx", "owner_idx", "t", "hops",
             "path_servers", "path_offsets"),
    "dh": ("targets", "sources", "source_idx", "owner_idx", "t", "hops",
           "phase1_hops", "path_servers", "path_offsets"),
    "ft": ("targets", "source_idx", "t", "success", "messages",
           "parallel_time", "holder_idx", "path_servers", "path_offsets"),
}


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), delta=st.sampled_from([2, 3]),
       engine=st.sampled_from(sorted(ENGINE_FIELDS)))
def test_an_unfolded_batch_routes_as_its_folded_batch(seed, delta, engine):
    """Targets (and sources) off ``[0, 1)`` route bit for bit as the same
    batch folded first: the entry fold sends ``v + k`` where the ring
    does, ``−0.0`` and ``1.0`` to ``+0.0``, and nothing else moves.  A §6
    source must stay an id point, so there ``v + k`` is taken only where
    it folds back onto its id."""
    inputs = np.random.default_rng(seed)
    tgt = unfolded(inputs, inputs.random(300))
    if engine == "ft":
        ids = _FT_NET.points_array[inputs.integers(0, _FT_NET.n, 300)]
        src = ids + inputs.integers(-3, 4, 300)
        src = np.where(normalize_array(src) == ids, src, ids)
        ft = FTBatchEngine(_FT_NET)

        def route(s, t):
            return ft.batch_simple_lookup(s, t, key=seed, keep_paths="csr")
    else:
        router = cost_router(delta)
        src = unfolded(inputs, router.points[inputs.integers(0, router.n,
                                                              300)])
        tau = keyed_tau(seed, 300, delta)

        def route(s, t):
            if engine == "fast":
                return router.batch_fast_lookup(s, t, keep_paths="csr")
            return router.batch_dh_lookup(s, t, tau=tau, keep_paths="csr")
    assert (tgt < 0.0).any() and (tgt >= 1.0).any()
    got = route(src, tgt)
    assert_same(got, route(normalize_array(src), normalize_array(tgt)),
                fields=ENGINE_FIELDS[engine])
    assert not np.signbit(got.targets).any()


SERVE_FIELDS = ("t", "serving_depth", "serving_node_key",
                "serving_server_idx", "hops", "lookup_hops")


@pytest.mark.parametrize("delta", [2, 3])
def test_serve_batch_prefix_and_lane_block(delta):
    """The first ``m`` requests of a batch are served as a batch of those
    ``m`` on a fresh engine (arrival order is the protocol's), with the
    lane block at 1, 7 or 4096 alike."""
    net = populated(256, 70 + delta, delta)
    items = [f"hot-{i}" for i in range(3)]
    inputs = np.random.default_rng(delta)
    idx = inputs.integers(0, len(items), 600)
    src = net.segments.as_array()[inputs.integers(0, net.n, 600)]
    whole = BatchCacheEngine(net, items, threshold=1).serve_batch(
        idx, src, rng=np.random.default_rng(4))
    for block in (1, 7, 4096):
        with mock.patch.object(walk, "LANE_BLOCK", block):
            for m in {1: (1, 37), 7: (5, 600), 4096: (0, 600)}[block]:
                rng = np.random.default_rng(4)
                part = BatchCacheEngine(net, items, threshold=1).serve_batch(
                    idx[:m], src[:m], rng=rng)
                same_lanes(part, whole, SERVE_FIELDS, slice(0, m))
                if m:
                    ref = np.random.default_rng(4)
                    draw_key(ref)
                    assert rng.bit_generator.state == ref.bit_generator.state
    assert whole.serving_depth.max() > 0  # the replication ran


def test_soak_chunk_changes_no_phase_but_the_flash_crowd():
    """n = 1024: the lookups, churn, fail-stop and Byzantine phase rows
    and their SoakStats (less the chunk counter) are byte-equal at chunk
    1024, 4096 and 16384.  The flash crowd replicates per batch, so its
    chunk is its semantics."""
    seen = {}
    for chunk in (1024, 4096, 16384):
        engine = ScenarioEngine(n=1024, lookups=10_000, chunk=chunk, seed=3)
        rows = engine.run()["rows"]
        kept = []
        for row, (name, snap) in zip(rows, engine.phase_snapshots):
            if name.endswith(":flash"):
                continue
            snap.chunks = 0
            kept.append((repr(row), snap))
        seen[chunk] = kept
    first = seen[1024]
    assert sum(":failstop" in r or ":byzantine" in r for r, _ in first) == 2
    for chunk in (4096, 16384):
        assert [r for r, _ in seen[chunk]] == [r for r, _ in first]
        for (_, a), (_, b) in zip(seen[chunk], first):
            assert a.equals(b)
