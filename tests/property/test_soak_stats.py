"""Property tests: streaming accumulation is split-invariant.

The soak's contract is the `BatchCongestion` discipline extended to
every statistic: splitting a request stream at *arbitrary* chunk
boundaries and merging the per-chunk `SoakStats` (or raw
`BatchCongestion`) snapshots must be **bit-identical** to one-shot
accumulation — including when a router refresh (churn) lands between
chunks, so the chunks route on different membership snapshots.
Hypothesis drives the boundary choice; the comparisons are exact array
equality, never approximate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.inputs import populated

from repro.core.routing_stats import BatchCongestion
from repro.sim.scenario import SoakStats

N = 128
STREAM = 400


NET = populated(N, 77)
ROUTER = NET.router(auto_refresh=True)
_rng = np.random.default_rng(5)
_pts = NET.segments.as_array()
SOURCES = _pts[_rng.integers(0, _pts.size, size=STREAM)]
TARGETS = _rng.random(STREAM)


def _cuts_to_bounds(cuts):
    bounds = sorted({0, STREAM, *cuts})
    return list(zip(bounds[:-1], bounds[1:]))


def _route(lo, hi):
    return ROUTER.batch_fast_lookup(SOURCES[lo:hi], TARGETS[lo:hi],
                                    keep_paths="csr")


def _congestion_state(acc):
    return (acc.lookups, acc.total_messages,
            acc._points.tobytes(), acc._counts.tobytes())


cut_lists = st.lists(st.integers(min_value=0, max_value=STREAM),
                     max_size=8)


class TestBatchCongestionSplitInvariance:
    @settings(max_examples=60, deadline=None)
    @given(cuts=cut_lists)
    def test_chunked_merge_equals_one_shot(self, cuts):
        one_shot = BatchCongestion()
        one_shot.record_batch(_route(0, STREAM))
        merged = BatchCongestion()
        for lo, hi in _cuts_to_bounds(cuts):
            part = BatchCongestion()
            part.record_batch(_route(lo, hi))
            merged.merge(part)
        assert _congestion_state(merged) == _congestion_state(one_shot)
        assert merged.summary(N) == one_shot.summary(N)

    @settings(max_examples=60, deadline=None)
    @given(cuts=cut_lists)
    def test_recording_into_one_accumulator_equals_merging(self, cuts):
        direct = BatchCongestion()
        merged = BatchCongestion()
        for lo, hi in _cuts_to_bounds(cuts):
            res = _route(lo, hi)
            direct.record_batch(res)
            part = BatchCongestion()
            part.record_batch(res)
            merged.merge(part)
        assert _congestion_state(merged) == _congestion_state(direct)


class TestSoakStatsSplitInvariance:
    def _soak_state(self, s):
        return (_congestion_state(s.route), _congestion_state(s.cache),
                s.hop_hist.tobytes(), s.hop_hist.size, s.cache_requests,
                s.ft_pairs, s.ft_successes, s.ft_messages, s.churn_ops,
                s.n_min, s.n_max, s.smoothness_max)

    @settings(max_examples=60, deadline=None)
    @given(cuts=cut_lists)
    def test_chunked_soak_stats_equal_one_shot(self, cuts):
        one_shot = SoakStats()
        one_shot.record_route(_route(0, STREAM))
        merged = SoakStats()
        for lo, hi in _cuts_to_bounds(cuts):
            part = SoakStats()
            part.record_route(_route(lo, hi))
            merged.merge(part)
        # `chunks` intentionally differs (it counts the split); all
        # stream-derived state must match exactly.
        assert self._soak_state(merged) == self._soak_state(one_shot)
        assert merged.equals(one_shot) or merged.chunks != one_shot.chunks
        assert merged.mean_hops() == one_shot.mean_hops()

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=0, max_value=STREAM),
                         min_size=1, max_size=4),
           churn_seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_split_invariance_across_router_refresh(self, cuts, churn_seed):
        """Chunks routed on different membership snapshots still merge
        exactly: each boundary applies a join + incremental refresh, and
        the one-shot reference re-routes the same chunks on the same
        snapshots (routing differs across snapshots, accounting must
        not)."""
        rng = np.random.default_rng(churn_seed)
        net = populated(N, churn_seed % 1000)
        router = net.router(auto_refresh=True)
        pts = net.segments.as_array()
        sources = pts[rng.integers(0, pts.size, size=STREAM)]
        targets = rng.random(STREAM)

        bounds = _cuts_to_bounds(cuts)
        results = []
        for lo, hi in bounds:
            results.append(router.batch_fast_lookup(
                sources[lo:hi], targets[lo:hi], keep_paths="csr"))
            net.join(point=float(rng.random()))  # churn between chunks
            router.refresh()

        direct = SoakStats()
        merged = SoakStats()
        for res in results:
            direct.record_route(res)
            part = SoakStats()
            part.record_route(res)
            merged.merge(part)
        assert self._soak_state(merged) == self._soak_state(direct)
        assert merged.equals(direct)
        total = sum(hi - lo for lo, hi in bounds)
        assert direct.route.lookups == total
