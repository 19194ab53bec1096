"""X3 — batch-lookup throughput (vectorized engine vs scalar loop).

Not a paper artefact: an extension experiment for the roadmap's scaling
goal.  The continuous-discrete scheme routes a batch of lookups with one
closed-form walk evaluation plus one cover-index read per routing
level (:mod:`repro.core.batch`), so lookups/sec should exceed the scalar
per-hop Python loop by an order of magnitude while remaining
*bit-identical* — X3 times the scalar engine on a subsample of the same
workload and parity-checks owners, walk parameters and hop counts on it.
"""

from __future__ import annotations

import time
from typing import Dict

from ..core import lookup_many
from ..sim.rng import spawn_many
from ..sim.workload import balanced_network, random_pairs
from .common import ExperimentResult, register


@register("X3")
def run(seed: int = 16, quick: bool = False) -> ExperimentResult:
    sizes = [256, 1024] if quick else [256, 1024, 4096]
    lookups = 20_000 if quick else 100_000
    sample = 300 if quick else 1000
    rows = []
    checks: Dict[str, bool] = {}
    parity_ok = True
    speedups = []
    for n in sizes:
        build_rng, route = spawn_many(seed * 17 + n, 2)
        net = balanced_network(n, build_rng)
        router = net.compile_router()
        sources, targets = random_pairs(net.segments.as_array(), route,
                                        lookups)
        t0 = time.perf_counter()
        batch = router.lookup_batch(sources, targets)
        batch_secs = time.perf_counter() - t0
        t0 = time.perf_counter()
        scalar = lookup_many(net, sources[:sample], targets[:sample])
        scalar_secs = time.perf_counter() - t0
        parity = all(
            r.owner == batch.owner[i]
            and r.t == batch.t[i]
            and r.hops == batch.hops[i]
            for i, r in enumerate(scalar)
        )
        batch_rate = lookups / batch_secs
        scalar_rate = sample / scalar_secs
        parity_ok &= parity
        speedups.append(batch_rate / scalar_rate)
        rows.append(
            {
                "n": n,
                "lookups": lookups,
                "batch_rate": round(batch_rate),
                "scalar_rate": round(scalar_rate),
                "speedup": round(speedups[-1], 1),
                "mean_hops": round(float(batch.hops.mean()), 2),
                "parity": "ok" if parity else "MISMATCH",
            }
        )
    checks["batch/scalar parity (owner, t, hops) at every size"] = parity_ok
    floor = 2.0 if quick else 5.0
    # the measured speedup lives in the rows, so the check set is the
    # same on every run
    checks[f"vectorized speedup ≥ {floor:g}x at n={sizes[-1]}"] = (
        speedups[-1] >= floor)
    return ExperimentResult(
        experiment="X3",
        title="Batch-lookup throughput (vectorized engine)",
        paper_claim="extension: bulk routing, one O(1) cover read per level; "
        "bit-identical to the scalar §2.2 algorithms",
        rows=rows,
        checks=checks,
    )
