"""Property tests for the fault-tolerant batch engine (§6.3).

Two invariants, driven by hypothesis:

* on **fault-free** networks the cheap Simple Lookup and the flooding
  resistant lookup agree — both succeed and traverse the same canonical
  walk (they emulate the same Claim 2.4 path);
* under arbitrary random fail-stop + Byzantine plans the batch engine
  is **bit-identical** to the scalar per-hop walks when driven by the
  same choice uniforms.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.compare import assert_same
from oracles.overlap import axis_coverage_counts, axis_resistant_lookup

from repro.core.lookup import compress_path
from repro.faults import (
    FTBatchEngine,
    FaultPlan,
    OverlappingDHNetwork,
    resistant_lookup,
    simple_lookup,
)

seeds = st.integers(min_value=0, max_value=2**31)
MED = settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
               deadline=None)

_NET = OverlappingDHNetwork(128, np.random.default_rng(1234))
_ENGINE = FTBatchEngine(_NET)


class TestFaultFreeAgreement:
    @MED
    @given(seed=seeds,
           target=st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                            allow_nan=False))
    def test_simple_and_resistant_agree(self, seed, target):
        """Fault-free: both lookups succeed along the same canonical walk."""
        rng = np.random.default_rng(seed)
        src = _NET.points[int(rng.integers(_NET.n))]
        simple = simple_lookup(_NET, src, "k", rng, target=target)
        resist = resistant_lookup(_NET, src, "k", target=target)
        assert simple.success and resist.success
        assert simple.path_points == resist.path_points
        assert simple.parallel_time == resist.parallel_time

    @MED
    @given(seed=seeds)
    def test_batch_engines_agree_fault_free(self, seed):
        rng = np.random.default_rng(seed)
        src = _NET.points_array[rng.integers(0, _NET.n, size=20)]
        tgt = rng.random(20)
        simple = _ENGINE.batch_simple_lookup(src, tgt, key=seed)
        resist = _ENGINE.batch_resistant_lookup(src, tgt)
        assert simple.success.all() and resist.success.all()
        assert (simple.t == resist.t).all()


def plan_from_masks(servers, failed, liars) -> FaultPlan:
    """A plan failing / corrupting the servers the boolean masks pick."""
    return FaultPlan(failed={float(x) for x in servers[failed]},
                     liars={float(x) for x in servers[liars]})


class TestBatchScalarParity:
    @MED
    @given(seed=seeds,
           p_fail=st.floats(min_value=0.0, max_value=0.8),
           p_liar=st.floats(min_value=0.0, max_value=0.5))
    def test_simple_bitwise_parity(self, seed, p_fail, p_liar):
        rng = np.random.default_rng(seed)
        plan = plan_from_masks(_NET.points_array,
                               rng.random(_NET.n) < p_fail,
                               rng.random(_NET.n) < p_liar)
        src = _NET.points_array[rng.integers(0, _NET.n, size=15)]
        tgt = rng.random(15)
        u = rng.random((15, 32))
        batch = _ENGINE.batch_simple_lookup(src, tgt, choices=u, plan=plan,
                                            keep_paths="csr")
        for i in range(15):
            ref = simple_lookup(_NET, float(src[i]), "k", plan=plan,
                                target=float(tgt[i]), choices=list(u[i]))
            assert bool(ref.success) == bool(batch.success[i])
            assert ref.messages == int(batch.messages[i])
            assert ref.parallel_time == int(batch.parallel_time[i])
            assert compress_path(ref.servers) == batch.server_path(i)

    @MED
    @given(seed=seeds,
           p_fail=st.floats(min_value=0.0, max_value=0.8),
           p_liar=st.floats(min_value=0.0, max_value=0.5))
    def test_resistant_accounting_parity(self, seed, p_fail, p_liar):
        rng = np.random.default_rng(seed)
        plan = plan_from_masks(_NET.points_array,
                               rng.random(_NET.n) < p_fail,
                               rng.random(_NET.n) < p_liar)
        src = _NET.points_array[rng.integers(0, _NET.n, size=10)]
        tgt = rng.random(10)
        batch = _ENGINE.batch_resistant_lookup(src, tgt, plan=plan)
        for i in range(10):
            ref = resistant_lookup(_NET, float(src[i]), "k", plan,
                                   target=float(tgt[i]))
            assert bool(ref.success) == bool(batch.success[i])
            assert ref.messages == int(batch.messages[i])
            assert ref.parallel_time == int(batch.parallel_time[i])


RESISTANT_FIELDS = ("source_idx", "t", "success", "messages", "parallel_time")


class TestRowPassParity:
    """The resistant lookup's per-level counts and first-alive picks, and
    the cover counts, taken in row passes over the ``(W, B)`` cover
    table equal the axis-0 reductions they replaced
    (:mod:`oracles.overlap`), bit for bit and dtype for dtype — on the
    128-server network (W = 14) and the soak's 1024-server one
    (W = 23)."""

    @MED
    @given(seed=seeds,
           p_fail=st.floats(min_value=0.0, max_value=0.8),
           p_liar=st.floats(min_value=0.0, max_value=0.5),
           big=st.booleans())
    def test_resistant_equals_the_axis_body(self, seed, p_fail, p_liar, big):
        engine = _soak_engine() if big else _ENGINE
        rng = np.random.default_rng(seed)
        plan = plan_from_masks(engine.points, rng.random(engine.n) < p_fail,
                               rng.random(engine.n) < p_liar)
        src = engine.points[rng.integers(0, engine.n, size=300)]
        tgt = rng.random(300)
        got = engine.batch_resistant_lookup(src, tgt, plan=plan)
        want = axis_resistant_lookup(engine, src, tgt, plan=plan)
        assert_same(got, want, RESISTANT_FIELDS)
        assert got.messages.dtype == want.messages.dtype

    @pytest.mark.parametrize("big", [False, True])
    def test_coverage_counts_equal_the_axis_body(self, big):
        net = _soak_engine().net if big else _NET
        probes = np.random.default_rng(5).random(5000)
        got = net.coverage_counts(probes)
        want = axis_coverage_counts(net, probes)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def _soak_engine() -> FTBatchEngine:
    return FTBatchEngine(OverlappingDHNetwork(1024, np.random.default_rng(1)))


def _soak_substrate():
    """The 1024-server §6 substrate of an n = 16384 soak day, warmed."""
    engine = FTBatchEngine(OverlappingDHNetwork(1024,
                                                np.random.default_rng(1)))
    rng = np.random.default_rng(1)
    src = engine.points[rng.integers(0, engine.n, size=32_768)]
    tgt = rng.random(src.size)
    engine.batch_simple_lookup(src[:16], tgt[:16], key=1)  # lazy tables
    return engine, src, tgt


def _peak_per_lane(call, lanes: int) -> float:
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / lanes


def test_simple_lookup_peak_at_the_soak_chunk():
    """The soak's fail-stop stream: 32,768 lanes of the Simple Lookup.
    The uniform pick's per-hop running count over the (W, B) cover table
    is one byte a cell; the ``int64`` count read ~772 B a lane traced,
    one byte ~667.  ``int32`` cover candidates and a CSR writer that
    compacts in place took it to ~479; the hop loop one lane block
    (16,384 lanes) at a time, ~308; each hop's uniforms read from the
    walking lanes' keys instead of a whole-batch ``(B, tmax)`` draw, ~232
    (the bound is that plus 10 %)."""
    engine, src, tgt = _soak_substrate()
    per_lane = _peak_per_lane(
        lambda: engine.batch_simple_lookup(src, tgt, key=2), src.size)
    assert per_lane <= 255, per_lane


def test_resistant_lookup_peak_at_the_soak_chunk():
    """The soak's byzantine stream: 16,384 lanes of the resistant lookup.
    ``int64`` cover candidates read ~614 B a lane traced, ``int32`` ones
    ~427 (the bound is ~423 plus 10 %)."""
    engine, src, tgt = _soak_substrate()
    src, tgt = src[:16_384], tgt[:16_384]
    per_lane = _peak_per_lane(
        lambda: engine.batch_resistant_lookup(src, tgt), src.size)
    assert per_lane <= 465, per_lane
