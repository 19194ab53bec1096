"""Tests for the asyncio runtime: asynchrony must not change routing.

Paper footnote 4: the analysis carries no synchrony assumption; here we
check the asyncio-routed paths coincide with the deterministic reference
when the random digit strings are pinned.
"""

import asyncio

import numpy as np
import pytest
from oracles.inputs import populated

from repro.core import dh_lookup
from repro.sim.asyncnet import AsyncDHNetwork, run_async_lookups


@pytest.fixture(scope="module")
def net():
    return populated(64, 99)


class TestAsyncLookups:
    def test_paths_end_at_owner(self, net):
        rng = np.random.default_rng(1)
        pts = list(net.points())
        queries = [(pts[int(rng.integers(64))], float(rng.random())) for _ in range(20)]
        paths = run_async_lookups(net, queries, rng)
        for (src, tgt), path in zip(queries, paths):
            assert path[-1] == net.segments.cover_point(tgt)

    def test_matches_deterministic_reference(self, net):
        """Same τ ⇒ same server path as repro.core.lookup.dh_lookup."""
        rng = np.random.default_rng(2)
        pts = list(net.points())
        queries = []
        taus = []
        expected = []
        for _ in range(15):
            src = pts[int(rng.integers(64))]
            tgt = float(rng.random())
            tau = [int(d) for d in rng.integers(0, 2, size=64)]
            res = dh_lookup(net, src, tgt, rng, tau=tau)
            queries.append((src, tgt))
            taus.append(tau)
            expected.append(res.server_path)
        paths = run_async_lookups(net, queries, np.random.default_rng(3), taus=taus)
        assert paths == expected

    def test_concurrent_lookups_all_complete(self, net):
        rng = np.random.default_rng(4)
        pts = list(net.points())
        queries = [(pts[int(rng.integers(64))], float(rng.random())) for _ in range(100)]
        paths = run_async_lookups(net, queries, rng)
        assert len(paths) == 100
        assert all(len(p) >= 1 for p in paths)

    def test_local_knowledge_only(self, net):
        """Async servers never consult the global map during routing."""
        from repro.core.lookup import LocalView
        from repro.sim.asyncnet import AsyncServer

        srv = AsyncServer(list(net.points())[0], net)
        view = srv.view
        assert type(view) is LocalView and view.point == srv.point
        # the server's world is its segment plus its neighbours' segments
        assert view.cover(float(view.segment.midpoint)) == srv.point
        for q, seg in view.neighbor_segments.items():
            assert view.cover(float(seg.midpoint)) == q
        far = (srv.point + 0.431) % 1.0
        assert all(far not in s for s in view.neighbor_segments.values())
        assert far not in view.segment and view.cover(far) is None


BOUND = 20.0  # seconds; each of these takes milliseconds when the fabric is sound


class TestFailuresStayLocal:
    """An error while routing fails that lookup; the fabric serves on.

    The server task used to die with the exception, leaving the
    lookup's future unresolved: ``gather`` waited forever.
    """

    @staticmethod
    def _queries(net, count, seed):
        rng = np.random.default_rng(seed)
        pts = list(net.points())
        return [(pts[int(rng.integers(64))], float(rng.random()))
                for _ in range(count)]

    def test_bad_digit_raises_instead_of_hanging(self, net):
        """``taus=[[5] * 30]`` at Δ=2: ``child`` rejects the digit."""
        (src, tgt), = self._queries(net, 1, 5)
        assert dh_lookup(net, src, tgt, None, tau=[1] * 64).t > 0

        async def main():
            fabric = AsyncDHNetwork(net, np.random.default_rng(0))
            await fabric.start()
            try:
                with pytest.raises(ValueError,
                                   match=r"digit must be an int in \[0, 2\), got 5"):
                    await asyncio.wait_for(
                        fabric.lookup(src, tgt, tau=[5] * 30), BOUND)
            finally:
                await asyncio.wait_for(fabric.stop(), BOUND)
            assert all(t.done() and t.exception() is None
                       for t in fabric._tasks)

        asyncio.run(main())
        with pytest.raises(ValueError,
                           match=r"digit must be an int in \[0, 2\), got 5"):
            run_async_lookups(net, [(src, tgt)], np.random.default_rng(0),
                              taus=[[5] * 30])

    def test_good_lookups_complete_beside_a_bad_one(self, net):
        good = self._queries(net, 20, 6)
        (src, tgt), = self._queries(net, 1, 5)

        async def main():
            fabric = AsyncDHNetwork(net, np.random.default_rng(1))
            await fabric.start()
            try:
                results = await asyncio.wait_for(asyncio.gather(
                    fabric.lookup(src, tgt, tau=[5] * 30),
                    *(fabric.lookup(s, t) for s, t in good),
                    return_exceptions=True), BOUND)
                # and the fabric is still whole afterwards
                again = await asyncio.wait_for(fabric.lookup(src, tgt), BOUND)
            finally:
                await asyncio.wait_for(fabric.stop(), BOUND)
            return results, again

        results, again = asyncio.run(main())
        assert isinstance(results[0], ValueError)
        for (s, t), path in zip(good, results[1:]):
            assert path[-1] == net.segments.cover_point(t)
        assert again[-1] == net.segments.cover_point(tgt)

    def test_a_cancelled_lookup_does_not_kill_its_servers(self, net):
        """The caller gives up mid-route; the message is dropped, not fatal."""
        cover = net.segments.cover_point
        queries = [(s, t) for s, t in self._queries(net, 12, 7)
                   if cover(s) != cover(t)]  # ≥ 1 hop: two sends > timeout
        assert len(queries) >= 10

        async def main():
            fabric = AsyncDHNetwork(net, np.random.default_rng(2), latency=0.01)
            await fabric.start()
            try:
                for s, t in queries:
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(fabric.lookup(s, t), 0.015)
                fabric.latency = 0.0
                return await asyncio.wait_for(asyncio.gather(
                    *(fabric.lookup(s, t) for s, t in queries)), BOUND)
            finally:
                await asyncio.wait_for(fabric.stop(), BOUND)

        for (s, t), path in zip(queries, asyncio.run(main())):
            assert path[-1] == net.segments.cover_point(t)
