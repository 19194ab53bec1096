"""Multicore shard shoot-out: sharded executor vs the in-process engine.

The sharded backend (:class:`~repro.core.shard.ShardedExecutor`) slices a
batch across worker processes that route over shared-memory views of the
router's frozen snapshot columns and merges the per-shard results through
the same associative accumulator semantics the single-process engine
uses.  Because the per-lane routing math is elementwise, slicing +
merging must be **bit-identical** to routing the batch in-process — this
module measures both backends on the same chunked random-pair workload
and verifies exactly that: the merged :class:`BatchCongestion` summary
and the hop histogram must match bit-for-bit, always, on any machine.

The *gain* gate is separate: ``shard_gain`` (single-process seconds over
sharded seconds) is only meaningful when the machine actually has at
least ``workers`` CPUs, so the measurement reports
``speedup_gate_engaged`` and the CLI/CI only enforce ``--min-speedup``
when it is set.  On a 1-CPU container the parity gate still runs at full
strength while the gain number is recorded as informational.

Run by the ``bench-shard`` CLI subcommand.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict

import numpy as np

from ..core import BatchCongestion
from ..sim.rng import spawn_many
from ..sim.workload import balanced_network, random_pairs

__all__ = ["measure_shard", "format_shard_report"]


def _grow_hist(hist: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Accumulate a chunk's hop counts into a growable histogram."""
    counts = np.bincount(np.asarray(hops, dtype=np.int64))
    if counts.size > hist.size:
        counts[: hist.size] += hist
        return counts
    hist[: counts.size] += counts
    return hist


def _drive(lookup, sources: np.ndarray, targets: np.ndarray,
           chunk: int) -> tuple:
    """Route the workload chunk-by-chunk through one backend.

    Returns ``(seconds, BatchCongestion, hop_histogram)``.  Chunking is
    part of the measured protocol (it is how the soak engine and real
    workloads arrive), and both backends get the *same* chunk boundaries
    so their merged accumulators see identical batch splits.
    """
    cong = BatchCongestion()
    hist = np.zeros(1, dtype=np.int64)
    t0 = time.perf_counter()
    for lo in range(0, sources.size, chunk):
        res = lookup(sources[lo:lo + chunk], targets[lo:lo + chunk],
                     keep_paths="csr")
        cong.record_batch(res)
        hist = _grow_hist(hist, res.hops)
    secs = time.perf_counter() - t0
    return secs, cong, hist


def measure_shard(
    n: int = 1 << 18,
    lookups: int = 1_000_000,
    workers: int = 4,
    seed: int = 0,
    chunk: int = 1 << 17,
) -> Dict:
    """Route the same chunked workload single-process and sharded.

    Builds an ``n``-server Multiple-Choice-balanced network,
    compiles one router, and drives ``lookups`` random (server, point)
    pairs through ``router.batch_fast_lookup`` in-process and through
    ``router.lookup_batch(..., workers=workers)`` — the shared-memory
    sharded backend — with identical chunk boundaries.  ``parity_ok``
    requires the merged congestion summaries *and* hop histograms to be
    bit-identical; ``shard_gain`` is the wall-clock ratio, enforced
    upstream only when ``speedup_gate_engaged`` (machine has >=
    ``workers`` CPUs) is true.
    """
    if workers < 2:
        raise ValueError("measure_shard needs workers >= 2")
    if n < 8:
        raise ValueError("measure_shard needs n >= 8")
    build_rng, route = spawn_many(seed * 43 + n, 2)
    net = balanced_network(n, build_rng)

    t0 = time.perf_counter()
    router = net.router(auto_refresh=True)
    compile_secs = time.perf_counter() - t0

    sources, targets = random_pairs(net.segments.as_array(), route, lookups)

    # spin up the pool + shared-memory export before any timing, and
    # warm both backends so neither pays cold-process page faults inside
    # its measured window
    executor = router.sharded_executor(workers)
    warm = min(2000, lookups)
    router.batch_fast_lookup(sources[:warm], targets[:warm],
                             keep_paths="csr")
    executor.batch_fast_lookup(sources[:warm], targets[:warm],
                               keep_paths="csr")

    try:
        single_secs, single_cong, single_hist = _drive(
            router.batch_fast_lookup, sources, targets, chunk)
        shard_secs, shard_cong, shard_hist = _drive(
            executor.batch_fast_lookup, sources, targets, chunk)
    finally:
        router.close_executor()

    summary_single = single_cong.summary(net.n)
    summary_shard = shard_cong.summary(net.n)
    parity = (summary_single == summary_shard
              and np.array_equal(single_hist, shard_hist))

    single_rate = lookups / single_secs if single_secs > 0 else math.inf
    shard_rate = lookups / shard_secs if shard_secs > 0 else math.inf
    cpu_count = os.cpu_count() or 1
    return {
        "n": net.n,
        "rho": float(net.smoothness()),
        "lookups": lookups,
        "workers": workers,
        "cpu_count": cpu_count,
        "chunk": chunk,
        "compile_secs": compile_secs,
        "single_secs": single_secs,
        "sharded_secs": shard_secs,
        "single_rate": single_rate,
        "sharded_rate": shard_rate,
        # deliberately NOT named "*speedup*" / "*_rate"-gated: on boxes
        # with fewer CPUs than workers this is informational, and
        # bench-compare must not fail a build over it
        "shard_gain": single_secs / shard_secs if shard_secs > 0
        else math.inf,
        "speedup_gate_engaged": cpu_count >= workers,
        "parity_ok": bool(parity),
        "hop_hist": single_hist.tolist(),
        "max_load": summary_single["max_load"],
        "max_congestion": summary_single["max_congestion"],
        "total_messages": summary_single["total_messages"],
    }


def format_shard_report(result: Dict) -> str:
    """Human-readable multi-line summary of one measurement dict."""
    lines = [
        f"network: n={result['n']}  rho={result['rho']:.2f}  "
        f"(router compiled in {result['compile_secs']:.3f}s)",
        f"single : {result['lookups']:>8} lookups in "
        f"{result['single_secs']:.3f}s  = {result['single_rate']:>12,.0f} "
        f"lookups/sec  (chunk={result['chunk']})",
        f"sharded: {result['lookups']:>8} lookups in "
        f"{result['sharded_secs']:.3f}s  = "
        f"{result['sharded_rate']:>12,.0f} lookups/sec  "
        f"({result['workers']} workers on {result['cpu_count']} CPU(s))",
        f"gain: {result['shard_gain']:.2f}x   max_load: "
        f"{result['max_load']:.0f}   hop histogram: "
        f"{result['hop_hist']}",
        f"merged congestion summary + hop histogram bit-identical: "
        f"{'PASS' if result['parity_ok'] else 'FAIL'}",
    ]
    return "\n".join(lines)
