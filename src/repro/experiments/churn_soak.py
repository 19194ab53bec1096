"""X4 — churn soak: bulk routing throughput while the membership churns.

Not a paper artefact: the dynamic counterpart of X3.  The paper's §2.1
claim is that joins and leaves are *local* (O(log n) state touched per
op); the extension claim tested here is that the vectorized batch engine
inherits that locality — an ``auto_refresh`` router re-syncs after every
membership change with an O(affected-region) incremental patch instead
of an O(n log n) recompile, so lookups/sec stay high while `run_churn`
traces (including a §4.1-style 50% mass departure) interleave with
100k-lookup batches.

The measurement helper :func:`measure_churn_soak` is shared by this
experiment and the ``bench-churn`` CLI subcommand.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

import numpy as np

from ..balance import MultipleChoice
from ..core import DistanceHalvingNetwork
from ..sim.churn import ChurnTrace, run_churn
from ..sim.rng import spawn_many
from ..sim.workload import random_pairs
from .common import ExperimentResult, register

__all__ = ["measure_churn_soak", "format_churn_report", "MAX_REFRESH_US"]

#: X4's ceiling on the incremental refresh cost per membership op (and
#: the default of ``bench-churn --max-refresh-us``): an absolute bound,
#: so a faster full compile cannot read as a slower refresh.
MAX_REFRESH_US = 250.0


def _time_full_compile(net: DistanceHalvingNetwork, reps: int = 3) -> float:
    """Median wall time of a from-scratch ``compile_router()``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        net.compile_router()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _route_batch(router, net, route_rng, lookups: int) -> Dict:
    """One bulk fast-lookup batch + owner cross-check against the oracle."""
    sources, targets = random_pairs(net.segments.as_array(), route_rng,
                                    lookups)
    t0 = time.perf_counter()
    res = router.batch_fast_lookup(sources, targets)
    secs = time.perf_counter() - t0
    owners_ok = bool(
        np.array_equal(res.owner_idx, net.segments.cover_array(targets))
    )
    return {
        "rate": lookups / secs if secs > 0 else math.inf,
        "owners_ok": owners_ok,
        "mean_hops": float(res.hops.mean()),
    }


def measure_churn_soak(
    n: int = 4096,
    lookups: int = 100_000,
    phases: int = 2,
    churn_ops: int = 256,
    leave_prob: float = 0.3,
    mass_fraction: float = 0.5,
    mass_n: Optional[int] = None,
    seed: int = 0,
    sample_every: int = 32,
    churn_budget: Optional[int] = None,
) -> Dict:
    """Interleave churn traces with bulk lookup batches on one network.

    Builds an ``n``-server Multiple-Choice-balanced network and an
    ``auto_refresh`` router, then alternates ``phases`` rounds of
    ``churn_ops``-step `run_churn` traces (router re-synced after every
    single op via the ``on_op`` hook) with ``lookups``-sized
    ``batch_fast_lookup`` batches, and finishes with a mass-departure
    trace (``mass_n`` joins then ``mass_fraction`` of them leaving,
    §4.1) plus a final batch.  Every batch's owners are cross-checked
    against the live segment map, so a stale router cannot go unnoticed.

    Returns a dict with per-phase rows, the per-op incremental refresh
    cost (``refresh_secs_per_op``, and its inverse ``refresh_ops_rate``),
    and for scale the full-compile time with the ratio
    ``refresh_vs_compile = full_compile_secs / refresh_secs_per_op``.
    """
    build_rng, churn_rng, route_rng = spawn_many(seed * 23 + n, 3)
    net = DistanceHalvingNetwork(rng=build_rng)
    selector = MultipleChoice(t=4)
    net.populate(n, selector=selector)

    full_compile_secs = _time_full_compile(net)
    router = net.router(auto_refresh=True, churn_budget=churn_budget)

    def on_op(step, op):
        router.refresh()

    rows = []
    base = _route_batch(router, net, route_rng, lookups)
    rows.append({
        "phase": "baseline",
        "n": net.n,
        "rho": round(float(net.smoothness()), 2),
        "klookups_per_sec": round(base["rate"] / 1e3, 1),
        "refresh_us_per_op": 0.0,
        "mean_touched": 0.0,
        "owners": "ok" if base["owners_ok"] else "STALE",
    })
    owners_ok = base["owners_ok"]

    for phase in range(phases):
        trace = ChurnTrace.generate(churn_rng, steps=churn_ops,
                                    leave_prob=leave_prob, warmup=0)
        stats0 = (router.refresh_stats.ops_synced(),
                  router.refresh_stats.seconds)
        report = run_churn(net, trace, churn_rng, selector=selector,
                           sample_every=sample_every, on_op=on_op)
        ops = router.refresh_stats.ops_synced() - stats0[0]
        secs = router.refresh_stats.seconds - stats0[1]
        batch = _route_batch(router, net, route_rng, lookups)
        owners_ok &= batch["owners_ok"]
        rows.append({
            "phase": f"churn{phase + 1}",
            "n": net.n,
            "rho": round(float(net.smoothness()), 2),
            "klookups_per_sec": round(batch["rate"] / 1e3, 1),
            "refresh_us_per_op": round(1e6 * secs / max(1, ops), 1),
            "mean_touched": round(report.mean_touched(), 1),
            "owners": "ok" if batch["owners_ok"] else "STALE",
        })

    # §4.1 stress: a cohort joins, then mass_fraction of the network leaves
    m = mass_n if mass_n is not None else min(net.n, 16384)
    trace = ChurnTrace.mass_departure(churn_rng, n=m, fraction=mass_fraction)
    stats0 = (router.refresh_stats.ops_synced(), router.refresh_stats.seconds)
    report = run_churn(net, trace, churn_rng, selector=selector,
                       sample_every=sample_every, on_op=on_op)
    ops = router.refresh_stats.ops_synced() - stats0[0]
    secs = router.refresh_stats.seconds - stats0[1]
    final = _route_batch(router, net, route_rng, lookups)
    owners_ok &= final["owners_ok"]
    rows.append({
        "phase": f"mass-{int(mass_fraction * 100)}%",
        "n": net.n,
        "rho": round(float(net.smoothness()), 2),
        "klookups_per_sec": round(final["rate"] / 1e3, 1),
        "refresh_us_per_op": round(1e6 * secs / max(1, ops), 1),
        "mean_touched": round(report.mean_touched(), 1),
        "owners": "ok" if final["owners_ok"] else "STALE",
    })

    stats = router.refresh_stats
    per_op = stats.seconds_per_op()
    return {
        "n": n,
        "lookups": lookups,
        "rows": rows,
        "owners_ok": owners_ok,
        "final_n": net.n,
        "final_smoothness": float(net.smoothness()) if net.n >= 2 else math.inf,
        "baseline_rate": base["rate"],
        "final_rate": final["rate"],
        "full_compile_secs": full_compile_secs,
        "refresh_secs_per_op": per_op,
        "refresh_ops_rate": 1.0 / per_op if per_op > 0 else math.inf,
        "refresh_vs_compile": (full_compile_secs / per_op) if per_op > 0
        else math.inf,
        "refreshes": stats.refreshes,
        "incremental_refreshes": stats.incremental,
        "full_rebuilds": stats.full_rebuilds,
        "ops_replayed": stats.ops_replayed,
        "ops_absorbed": stats.ops_absorbed,
        "mean_touched": report.mean_touched(),
    }


def format_churn_report(result: Dict) -> str:
    """Human-readable multi-line summary of one churn-soak run."""
    from .common import format_rows

    lines = [
        f"churn soak: start n={result['n']}  final n={result['final_n']}  "
        f"{result['lookups']} lookups per batch",
        format_rows(result["rows"]),
        f"refresh: {result['ops_replayed']} membership ops replayed "
        f"incrementally + {result['ops_absorbed']} absorbed by rebuilds "
        f"({result['incremental_refreshes']} incremental refreshes, "
        f"{result['full_rebuilds']} full rebuilds)  "
        f"{1e6 * result['refresh_secs_per_op']:.1f}us/op",
        f"full compile_router(): {1e3 * result['full_compile_secs']:.2f}ms  "
        f"= {result['refresh_vs_compile']:.1f} incremental refreshes",
        f"owners cross-check: {'PASS' if result['owners_ok'] else 'FAIL'}",
    ]
    return "\n".join(lines)


@register("X4")
def run(seed: int = 23, quick: bool = False) -> ExperimentResult:
    sizes = [1024] if quick else [4096, 16384]
    lookups = 20_000 if quick else 100_000
    churn_ops = 96 if quick else 256
    rows = []
    checks: Dict[str, bool] = {}
    owners_ok = True
    smooth_ok = True
    retained = []
    for n in sizes:
        res = measure_churn_soak(
            n=n, lookups=lookups, phases=2, churn_ops=churn_ops,
            seed=seed, mass_n=min(n, 8192),
        )
        owners_ok &= res["owners_ok"]
        refresh_us = 1e6 * res["refresh_secs_per_op"]  # the last size gates
        smooth_ok &= math.isfinite(res["final_smoothness"])
        retained.append(res["final_rate"] / res["baseline_rate"])
        for row in res["rows"]:
            rows.append({"n_start": n, **row})
    checks["every batch's owners match the live segment map"] = owners_ok
    checks["smoothness stays finite through mass departure"] = smooth_ok
    checks[
        f"incremental refresh ≤ {MAX_REFRESH_US:g}us per membership op "
        f"at n={sizes[-1]}"
    ] = refresh_us <= MAX_REFRESH_US
    checks["post-soak throughput ≥ 0.2x baseline"] = min(retained) >= 0.2
    return ExperimentResult(
        experiment="X4",
        title="Churn soak (incremental router under membership change)",
        paper_claim="extension of §2.1 locality: joins/leaves patch the "
        "batch router in O(affected region); lookups stay correct and "
        "fast through churn incl. 50% mass departure (§4.1)",
        rows=rows,
        checks=checks,
        notes=f"gated: refresh ≤ {MAX_REFRESH_US:g}us per membership op, "
        "post-soak throughput ≥ 0.2x baseline; the measured values are "
        "the rows' refresh_us_per_op and klookups_per_sec",
    )
