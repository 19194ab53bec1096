"""X3 — batch-lookup throughput (vectorized engine vs scalar loop).

Not a paper artefact: an extension experiment for the roadmap's scaling
goal.  The continuous-discrete scheme routes a batch of lookups with one
closed-form walk evaluation plus one cover-index read per routing
level (:mod:`repro.core.batch`), so lookups/sec should exceed the scalar
per-hop Python loop by an order of magnitude while remaining
*bit-identical* — owners, walk parameters and hop counts are
parity-checked on a scalar subsample in the same run.

The measurement helper :func:`measure_throughput` is shared by this
experiment and the ``bench-throughput`` CLI subcommand.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


from ..core import lookup_many
from ..sim.rng import spawn_many
from ..sim.workload import balanced_network, random_pairs, rate_fields
from .common import ExperimentResult, register

__all__ = ["measure_throughput", "format_throughput_report"]


def measure_throughput(
    n: int = 4096,
    lookups: int = 100_000,
    seed: int = 0,
    scalar_sample: int = 2000,
    algorithm: str = "fast",
    delta: int = 2,
    workers: int = 1,
) -> Dict:
    """Route ``lookups`` random pairs in bulk and a scalar subsample.

    Builds an ``n``-server Multiple-Choice-balanced network,
    compiles its :class:`~repro.core.batch.BatchRouter`, times the batch
    engine on the whole workload and the scalar engine on the first
    ``scalar_sample`` pairs, and cross-checks owner / walk parameter /
    hop count on that subsample.  For ``algorithm='dh'`` both engines
    are driven by the same explicit digit strings so the comparison is
    bit-for-bit.  Returns a dict of rates, the speedup, and the parity
    verdict.

    ``workers > 1`` routes the bulk workload through the shared-memory
    sharded backend (:class:`~repro.core.shard.ShardedExecutor`); the
    pool spin-up and snapshot export happen *before* the timed window,
    and the results (and thus the scalar parity check) are bit-identical
    to the in-process engine by construction.
    """
    if algorithm not in ("fast", "dh"):
        raise ValueError(f"unknown algorithm {algorithm!r}; use 'fast' or 'dh'")
    build_rng, route = spawn_many(seed * 17 + n, 2)
    net = balanced_network(n, build_rng, delta=delta)

    t0 = time.perf_counter()
    router = net.compile_router(with_adjacency=(algorithm == "dh"))
    compile_secs = time.perf_counter() - t0

    sources, targets = random_pairs(net.segments.as_array(), route, lookups)
    m = min(scalar_sample, lookups)
    taus: Optional[List[List[int]]] = None
    tau_arr = None
    if algorithm == "dh":
        # fixed digit strings make batch and scalar bit-comparable; 64
        # digits is far beyond the Theorem 2.8 walk length at any tested n
        tau_arr = route.integers(0, net.delta, size=(lookups, 64))
        taus = [list(tau_arr[i]) for i in range(m)]

    # pool spin-up + shared-memory export stay outside the timed window
    executor = router.sharded_executor(workers) if workers > 1 else None
    try:
        t0 = time.perf_counter()
        if algorithm == "fast":
            batch = router.lookup_batch(sources, targets, workers=workers)
        elif executor is not None:
            batch = executor.batch_dh_lookup(sources, targets, tau_arr)
        else:
            batch = router.batch_dh_lookup(sources, targets, tau=tau_arr)
        batch_secs = time.perf_counter() - t0
    finally:
        if executor is not None:
            router.close_executor()

    t0 = time.perf_counter()
    scalar = lookup_many(
        net, sources[:m], targets[:m], algorithm=algorithm, taus=taus
    )
    scalar_secs = time.perf_counter() - t0

    parity = all(
        r.owner == batch.owner[i]
        and r.t == batch.t[i]
        and r.hops == batch.hops[i]
        for i, r in enumerate(scalar)
    )
    return {
        "algorithm": algorithm,
        "n": n,
        "rho": float(net.smoothness()),
        "lookups": lookups,
        "workers": workers,
        "scalar_sample": m,
        "compile_secs": compile_secs,
        **rate_fields(lookups, batch_secs, m, scalar_secs),
        "parity_ok": parity,
        "mean_hops": float(batch.hops.mean()),
        "max_t": int(batch.t.max()) if lookups else 0,
    }


def format_throughput_report(result: Dict) -> str:
    """Human-readable multi-line summary of one measurement dict."""
    lines = [
        f"network: n={result['n']}  rho={result['rho']:.2f}  "
        f"algorithm={result['algorithm']}  "
        f"(router compiled in {result['compile_secs']:.3f}s)",
        f"batch : {result['lookups']:>8} lookups in {result['batch_secs']:.3f}s"
        f"  = {result['batch_rate']:>12,.0f} lookups/sec",
        f"scalar: {result['scalar_sample']:>8} lookups in "
        f"{result['scalar_secs']:.3f}s  = {result['scalar_rate']:>12,.0f} "
        f"lookups/sec",
        f"speedup: {result['speedup']:.1f}x   mean hops: "
        f"{result['mean_hops']:.2f}   max walk t: {result['max_t']}",
        f"parity (owner/t/hops on scalar sample): "
        f"{'PASS' if result['parity_ok'] else 'FAIL'}",
    ]
    return "\n".join(lines)


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
        res = measure_throughput(
            n=n, lookups=lookups, seed=seed, scalar_sample=sample
        )
        parity_ok &= res["parity_ok"]
        speedups.append(res["speedup"])
        rows.append(
            {
                "n": n,
                "lookups": lookups,
                "batch_rate": round(res["batch_rate"]),
                "scalar_rate": round(res["scalar_rate"]),
                "speedup": round(res["speedup"], 1),
                "mean_hops": round(res["mean_hops"], 2),
                "parity": "ok" if res["parity_ok"] else "MISMATCH",
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
