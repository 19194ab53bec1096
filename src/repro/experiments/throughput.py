"""X3 — batch-lookup throughput (vectorized engine vs scalar loop).

Not a paper artefact: an extension experiment for the roadmap's scaling
goal.  The continuous-discrete scheme routes a batch of lookups with one
closed-form walk evaluation plus one cover-index read per routing
level (:mod:`repro.core.batch`), so lookups/sec should exceed the scalar
per-hop Python loop by an order of magnitude while remaining
*bit-identical* — X3 times the scalar engine on a subsample of the same
workload and parity-checks owners, walk parameters and hop counts on it.

The batch leg, :func:`measure_throughput`, is shared by this experiment
and the ``bench-throughput`` CLI subcommand.
"""

from __future__ import annotations

import time
from typing import Dict

from ..core import lookup_many
from ..sim.rng import spawn_many
from ..sim.workload import DH_TAU_DIGITS, balanced_network, random_pairs
from .common import ExperimentResult, register

__all__ = ["measure_throughput", "format_throughput_report"]


def _route(n: int, lookups: int, seed: int, algorithm: str, delta: int):
    """Build the network, compile its router and route the workload once.

    Returns ``(net, sources, targets, batch, compile_secs, batch_secs)``.
    For ``algorithm='dh'`` the walks follow explicit digit strings.
    """
    if algorithm not in ("fast", "dh"):
        raise ValueError(f"unknown algorithm {algorithm!r}; use 'fast' or 'dh'")
    build_rng, route = spawn_many(seed * 17 + n, 2)
    net = balanced_network(n, build_rng, delta=delta)

    t0 = time.perf_counter()
    router = net.compile_router(with_adjacency=(algorithm == "dh"))
    compile_secs = time.perf_counter() - t0

    sources, targets = random_pairs(net.segments.as_array(), route, lookups)
    tau = None
    if algorithm == "dh":
        tau = route.integers(0, net.delta, size=(lookups, DH_TAU_DIGITS))

    t0 = time.perf_counter()
    if algorithm == "fast":
        batch = router.lookup_batch(sources, targets)
    else:
        batch = router.batch_dh_lookup(sources, targets, tau=tau)
    batch_secs = time.perf_counter() - t0
    return net, sources, targets, batch, compile_secs, batch_secs


def measure_throughput(
    n: int = 4096,
    lookups: int = 100_000,
    seed: int = 0,
    algorithm: str = "fast",
    delta: int = 2,
) -> Dict:
    """Route ``lookups`` random pairs in bulk and time it.

    Builds an ``n``-server Multiple-Choice-balanced network, compiles
    its :class:`~repro.core.batch.BatchRouter` and times the batch
    engine on the whole workload.  Returns a dict of the timings, the
    rate, the mean hop count and the longest walk.
    """
    net, _, _, batch, compile_secs, batch_secs = _route(
        n, lookups, seed, algorithm, delta)
    return {
        "algorithm": algorithm,
        "n": n,
        "rho": float(net.smoothness()),
        "lookups": lookups,
        "compile_secs": compile_secs,
        "batch_secs": batch_secs,
        "batch_rate": lookups / batch_secs,
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
        f"mean hops: {result['mean_hops']:.2f}   max walk t: {result['max_t']}",
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
        net, sources, targets, batch, _, batch_secs = _route(
            n, lookups, seed, "fast", 2)
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
