"""Baseline batch-router shoot-out: per-topology speedup + parity.

The measurement helper :func:`measure_baselines` drives every Table 1
competitor through its compiled
:class:`~repro.baselines.base.BaselineBatchRouter` — the same workload
shape as the E1 harness (uniform sources, uniform targets, CSR
congestion accounting) — and times the scalar per-hop ``lookup_path``
loop on a subsample of the identical pairs.  Each scheme's subsample is
additionally *replayed*: batch server paths must equal the scalar paths
element-for-element and the scalar :class:`CongestionCounter` summary
must equal the :class:`BatchCongestion` summary bit-for-bit, so the
reported speedup is for provably identical work.

Run by the ``bench-baselines`` CLI subcommand (the CI smoke +
regression-gate artifact).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

from ..baselines import (
    CanNetwork,
    ChordNetwork,
    DistanceHalvingAdapter,
    KleinbergRing,
    KoordeNetwork,
    TapestryNetwork,
    ViceroyNetwork,
)
from ..core.routing_stats import BatchCongestion, CongestionCounter
from ..sim.rng import spawn_many
from ..sim.workload import rate_fields

__all__ = [
    "SCHEME_BUILDERS",
    "format_baselines_report",
    "measure_baselines",
]

#: Scheme name → builder.  All lookup paths here are deterministic given
#: the built topology, so every scheme is replayable for the parity
#: check (the DH row uses the greedy §2.2.1 mode for exactly that
#: reason; the randomized §2.2.2 mode is parity-tested via fixed tau in
#: bench-throughput).
SCHEME_BUILDERS = {
    "chord": lambda n, rng: ChordNetwork(n, rng),
    "tapestry": lambda n, rng: TapestryNetwork(n, rng, base=2),
    "can": lambda n, rng: CanNetwork(n, rng, d=2),
    "small-world": lambda n, rng: KleinbergRing(n, rng),
    "viceroy": lambda n, rng: ViceroyNetwork(n, rng),
    "koorde": lambda n, rng: KoordeNetwork(n, rng),
    "dh-fast": lambda n, rng: DistanceHalvingAdapter(n, rng, delta=2,
                                                     mode="fast"),
}


def measure_baselines(
    n: int = 16384,
    lookups: int = 100_000,
    seed: int = 0,
    scalar_sample: int = 400,
    schemes: Optional[Sequence[str]] = None,
    chunk: int = 8192,
) -> Dict:
    """Time batch vs scalar routing per scheme on identical workloads.

    For every scheme: build the overlay, compile its batch router, route
    ``lookups`` uniform pairs chunked through :class:`BatchCongestion`
    (the timed batch leg), route the first ``scalar_sample`` of the same
    pairs through the scalar ``lookup_path`` + ``CongestionCounter``
    loop (the timed scalar leg), and verify the batch replay of that
    subsample hop-for-hop and summary-for-summary.
    """
    names = list(schemes) if schemes is not None else list(SCHEME_BUILDERS)
    unknown = [s for s in names if s not in SCHEME_BUILDERS]
    if unknown:
        raise ValueError(
            f"unknown scheme(s) {unknown}; have {sorted(SCHEME_BUILDERS)}"
        )
    per_scheme: Dict[str, Dict] = {}
    for i, name in enumerate(names):
        build_rng, probe = spawn_many(seed * 59 + 7 * i + n, 2)
        t0 = time.perf_counter()
        dht = SCHEME_BUILDERS[name](n, build_rng)
        build_secs = time.perf_counter() - t0
        t0 = time.perf_counter()
        router = dht.batch_router()
        compile_secs = time.perf_counter() - t0

        src = probe.integers(0, n, size=lookups)
        tgt = probe.random(lookups)
        m = min(scalar_sample, lookups)

        cong = BatchCongestion()
        t0 = time.perf_counter()
        hops, _owners = router.route_chunked(
            src, tgt, congestion=cong, chunk=chunk, rng=probe
        )
        batch_secs = time.perf_counter() - t0

        ids = list(dht.node_ids())
        counter = CongestionCounter()
        scalar_paths: List[List[float]] = []
        t0 = time.perf_counter()
        for k in range(m):
            path = [
                float(x)
                for x in dht.lookup_path(ids[int(src[k])], float(tgt[k]), probe)
            ]
            counter.record_path(path)
            scalar_paths.append(path)
        scalar_secs = time.perf_counter() - t0

        # replay the scalar subsample through the batch spine: paths and
        # congestion summaries must agree exactly
        replay = router.route_batch(src[:m], tgt[:m], rng=probe)
        replay_cong = BatchCongestion()
        replay_cong.record_batch(replay)
        parity = all(
            scalar_paths[k] == replay.server_path(k) for k in range(m)
        ) and counter.summary(n) == replay_cong.summary(n)

        per_scheme[name] = {
            "scheme": dht.name,
            "build_secs": build_secs,
            "compile_secs": compile_secs,
            **rate_fields(lookups, batch_secs, m, scalar_secs),
            "parity_ok": bool(parity),
            "mean_path": float(hops.mean()) if lookups else 0.0,
            "max_congestion": cong.max_congestion(),
            "mean_degree": float(dht.mean_degree()),
        }
    speedups = [row["speedup"] for row in per_scheme.values()]
    return {
        "n": n,
        "lookups": lookups,
        "scalar_sample": min(scalar_sample, lookups),
        "schemes": per_scheme,
        "all_parity_ok": all(row["parity_ok"] for row in per_scheme.values()),
        "min_speedup_measured": min(speedups) if speedups else math.inf,
    }


def format_baselines_report(result: Dict) -> str:
    """Human-readable per-scheme table of one measurement dict."""
    head = (
        f"{'scheme':<12} {'build(s)':>8} {'batch/s':>12} {'scalar/s':>10} "
        f"{'speedup':>8} {'mean_path':>9} {'parity':>7}"
    )
    lines = [
        f"baseline shoot-out: n={result['n']}  lookups={result['lookups']}  "
        f"scalar sample={result['scalar_sample']} per scheme",
        head,
        "-" * len(head),
    ]
    for name, row in result["schemes"].items():
        lines.append(
            f"{name:<12} {row['build_secs']:>8.2f} {row['batch_rate']:>12,.0f} "
            f"{row['scalar_rate']:>10,.0f} {row['speedup']:>7.1f}x "
            f"{row['mean_path']:>9.2f} "
            f"{'ok' if row['parity_ok'] else 'MISMATCH':>7}"
        )
    lines.append(
        f"min speedup: {result['min_speedup_measured']:.1f}x   "
        f"parity: {'PASS' if result['all_parity_ok'] else 'FAIL'}"
    )
    return "\n".join(lines)
