"""Bytes per lane: the traced peak of one batch, per engine.

Usage, from the repository root (~5 s at n = 16384)::

    PYTHONPATH=src python tools/lane_bytes.py

It builds the soak's substrates (``ScenarioEngine``: the n-server
network and its router, the n/16-server §6 fault substrate), routes one
warm-up batch per engine, then one batch at the size the soak or the
spine runs it under ``tracemalloc`` and prints the traced peak divided
by the lanes:

* ``fast``, ``dh`` and ``cache-serve`` at the soak's chunk (the route
  stream and the flash crowd), and ``dh (no paths)``: the path-less
  walk on a ``uint8`` tau that ``serve_batch`` runs inside the flash
  crowd;
* ``cost-dh`` (greedy) at route_dh_cost's 4,096 lanes;
* ``ft-simple`` / ``ft-resistant`` at half / a quarter of the chunk, as
  the soak's fail-stop and byzantine phases stream them.

The last engine row is the congestion booking of the fast batch
(``BatchCongestion.record_batch``): its traced peak per CSR path entry.
NumPy reports its array buffers to ``tracemalloc``, so the peak counts
every temporary a batch makes and the result it returns; inputs are
drawn before tracing starts.  Each row draws its inputs and digits from
its own generator, seeded from ``SEED`` and the row's name, so adding
or reordering a row leaves every other row's reading alone.

A second table runs one soak day as the spine's ``soak_day`` runs it
(``DEFAULT_PHASES``, 500,000 lookups) and prints each phase's traced
peak above what was held when the phase began: the phase that sets the
day's high-water is the one to narrow next.  The audit between phases
is not part of any phase.
"""

from __future__ import annotations

import functools
import tracemalloc
import zlib

import numpy as np

from repro.core.batch import BatchRouter
from repro.core.batch_cache import BatchCacheEngine
from repro.core.routing_stats import BatchCongestion
from repro.faults.models import FaultPlan
from repro.peer import CostMap
from repro.sim.scenario import DEFAULT_CHUNK, DEFAULT_PHASES, ScenarioEngine
from repro.sim.workload import demand_stream, zipf_demands

#: The soak's and the spine's network size.
N = 16384
#: route_dh_cost's batch size.
COST_LANES = 4096
#: The soak's seed and the batches' stream.
SEED = 1
#: The lookups of the spine's soak day.
SOAK_LOOKUPS = 500_000


def traced_peak(call) -> tuple:
    """``(result, traced peak in bytes)`` of one call."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def stream(name: str) -> np.random.Generator:
    """The generator of one row (or the cost map), from ``SEED`` and
    ``name``: no row's draws move another's."""
    return np.random.default_rng([SEED, zlib.crc32(name.encode())])


def rows(n: int, chunk: int):
    """Yield ``(engine, lanes, peak bytes)`` per engine, then the booking's
    ``("booking", path entries, peak bytes)``."""
    soak = ScenarioEngine(n=n, lookups=0, chunk=chunk, seed=SEED)
    router, pts = soak.router, soak.router.points
    cost = BatchRouter(soak.net,
                       cost_map=CostMap.synthetic(8, stream("cost map")))
    n_items = max(8, min(64, n // 64))
    cache = BatchCacheEngine(soak.net, [f"hot-{i}" for i in range(n_items)])
    ft, ft_pts = soak.ft_engine, soak.ft_engine.points
    plan = FaultPlan()

    def pairs(points, rng, b):
        return points[rng.integers(0, points.size, size=b)], rng.random(b)

    def with_tau(rng, b):  # serve_batch's digits: 64 a request, one byte each
        src, tgt = pairs(pts, rng, b)
        return src, tgt, rng.integers(0, router.delta, (b, 64)).astype(
            np.min_scalar_type(router.delta - 1))

    def flash(rng, b):
        idx = demand_stream(zipf_demands(n_items, b, rng), rng)
        return idx, pts[rng.integers(0, pts.size, size=idx.size)]

    on_net = functools.partial(pairs, pts)
    on_ft = functools.partial(pairs, ft_pts)
    # (name, lanes, draw(rng, lanes), route(rng, *drawn))
    engines = [
        ("fast", chunk, on_net,
         lambda rng, s, t: router.lookup_batch(s, t, keep_paths="csr")),
        ("dh", chunk, on_net,
         lambda rng, s, t: router.batch_dh_lookup(s, t, rng=rng,
                                                  keep_paths="csr")),
        ("dh (no paths)", chunk, with_tau,
         lambda rng, s, t, tau: router.batch_dh_lookup(s, t, tau=tau)),
        ("cost-dh", COST_LANES, on_net,
         lambda rng, s, t: cost.batch_dh_lookup(s, t, policy="greedy",
                                                keep_paths="csr")),
        ("cache-serve", chunk, flash,
         lambda rng, i, s: cache.serve_batch(i, s, rng=rng)),
        ("ft-simple", max(1, chunk // 2), on_ft,
         lambda rng, s, t: ft.batch_simple_lookup(s, t, rng=rng, plan=plan)),
        ("ft-resistant", max(1, chunk // 4), on_ft,
         lambda rng, s, t: ft.batch_resistant_lookup(s, t, plan=plan)),
    ]
    fast = None
    for name, lanes, draw, route in engines:
        rng = stream(name)
        route(rng, *draw(rng, 16))  # warm: lazy tables are not the batch's
        args = draw(rng, lanes)
        res, peak = traced_peak(lambda: route(rng, *args))
        if name == "fast":
            fast = res
        yield name, lanes, peak
    _, peak = traced_peak(lambda: BatchCongestion().record_batch(fast))
    yield "booking", int(fast.path_servers.size), peak


class _PhasePeaks(ScenarioEngine):
    """A soak whose audit between phases reads each phase's traced peak."""

    def run(self, phases=DEFAULT_PHASES):
        self.peaks = []
        tracemalloc.start()
        try:
            self._held = tracemalloc.get_traced_memory()[0]
            return super().run(phases)
        finally:
            tracemalloc.stop()

    def check_invariants(self, phase):
        self.peaks.append((phase, tracemalloc.get_traced_memory()[1]
                           - self._held))
        rows = super().check_invariants(phase)
        tracemalloc.reset_peak()
        self._held = tracemalloc.get_traced_memory()[0]
        return rows


def phase_rows(n: int, chunk: int, lookups: int) -> list:
    """``[(phase, peak bytes above the phase's start)]`` of one soak day."""
    soak = _PhasePeaks(n=n, lookups=lookups, chunk=chunk, seed=SEED)
    soak.run()
    return soak.peaks


def table(n: int, chunk: int, lookups: int = SOAK_LOOKUPS) -> list:
    """The printed tables' lines: a header, then one line per row."""
    lines = [f"n={n} chunk={chunk} seed={SEED}",
             f"{'engine':<14}{'lanes':>10}{'peak MB':>10}{'B/lane':>10}"]
    for name, lanes, peak in rows(n, chunk):
        unit = "B/entry" if name == "booking" else ""
        lines.append(f"{name:<14}{lanes:>10}{peak / 2**20:>10.2f}"
                     f"{peak / lanes:>10.1f} {unit}".rstrip())
    lines += [f"soak day: lookups={lookups}",
              f"{'phase':<14}{'peak MB':>10}"]
    for phase, peak in phase_rows(n, chunk, lookups):
        lines.append(f"{phase:<14}{peak / 2**20:>10.2f}")
    return lines


def main() -> int:
    print("\n".join(table(N, DEFAULT_CHUNK)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
