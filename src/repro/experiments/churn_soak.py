"""X4 — churn soak: bulk routing throughput while the membership churns.

Not a paper artefact: the dynamic counterpart of X3.  The paper's §2.1
claim is that joins and leaves are *local* (O(log n) state touched per
op); the extension claim tested here is that the vectorized batch engine
inherits that locality — an ``auto_refresh`` router re-syncs after every
membership change with an O(affected-region) incremental patch instead
of an O(n log n) recompile, so lookups/sec stay high while `run_churn`
traces (including a §4.1-style 50% mass departure) interleave with
100k-lookup batches.

One soak at one size is :func:`measure_churn_soak`.
"""

from __future__ import annotations

import math
import time
from typing import Dict

import numpy as np

from .. import checks
from ..balance import MultipleChoice
from ..core import DistanceHalvingNetwork
from ..sim.churn import ChurnTrace, run_churn
from ..sim.rng import spawn_many
from ..sim.workload import random_pairs
from .common import ExperimentResult, register

__all__ = ["measure_churn_soak", "MAX_REFRESH_US"]

#: X4's ceiling on the incremental refresh cost per membership op: an
#: absolute bound, so a faster full compile cannot read as a slower refresh.
MAX_REFRESH_US = 250.0

#: Churn phases before the mass departure, and their leave fraction.
PHASES = 2
LEAVE_PROB = 0.3

#: Share of the network the §4.1 mass departure removes.
MASS_FRACTION = 0.5


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
    }


def measure_churn_soak(n: int, lookups: int, churn_ops: int, mass_n: int,
                       seed: int) -> Dict:
    """Interleave churn traces with bulk lookup batches on one network.

    Builds an ``n``-server Multiple-Choice-balanced network and an
    ``auto_refresh`` router, then alternates :data:`PHASES` rounds of
    ``churn_ops``-step `run_churn` traces (router re-synced after every
    single op via the ``on_op`` hook) with ``lookups``-sized
    ``batch_fast_lookup`` batches, and finishes with a mass-departure
    trace (``mass_n`` joins, then
    :data:`MASS_FRACTION` of them leaving, §4.1) plus a final batch.
    Every batch's owners are cross-checked against the live segment map,
    so a stale router cannot go unnoticed.

    Returns per-phase rows (with the membership ops each phase synced
    and its refresh cost per op), the owners verdict, the final
    smoothness, the baseline and final lookup rates, and the per-op
    incremental refresh cost ``refresh_secs_per_op``.
    """
    build_rng, churn_rng, route_rng = spawn_many(
        checks.count(seed, "seed") * 23 + n, 3)
    net = DistanceHalvingNetwork(rng=build_rng)
    selector = MultipleChoice(t=4)
    net.populate(n, selector=selector)
    router = net.router(auto_refresh=True)

    def on_op(step, op):
        router.refresh()

    def row(phase: str, batch: Dict, ops: int, secs: float,
            touched: float) -> Dict:
        return {
            "phase": phase,
            "n": net.n,
            "rho": round(float(net.smoothness()), 2),
            "klookups_per_sec": round(batch["rate"] / 1e3, 1),
            "ops": ops,
            "refresh_us_per_op": round(1e6 * secs / max(1, ops), 1),
            "mean_touched": round(touched, 1),
            "owners": "ok" if batch["owners_ok"] else "STALE",
        }

    def soak(phase: str, trace) -> Dict:
        """Run one trace, then one batch; the phase's row."""
        ops0 = router.refresh_stats.ops_synced()
        secs0 = router.refresh_stats.seconds
        report = run_churn(net, trace, selector=selector, sample_every=32,
                           on_op=on_op)
        batches.append(_route_batch(router, net, route_rng, lookups))
        return row(phase, batches[-1],
                   router.refresh_stats.ops_synced() - ops0,
                   router.refresh_stats.seconds - secs0,
                   report.mean_touched())

    batches = [_route_batch(router, net, route_rng, lookups)]
    rows = [row("baseline", batches[0], 0, 0.0, 0.0)]
    for k in range(PHASES):
        rows.append(soak(f"churn{k + 1}", ChurnTrace.generate(
            churn_rng, steps=churn_ops, leave_prob=LEAVE_PROB)))
    # §4.1 stress: a cohort joins, then MASS_FRACTION of the network leaves
    rows.append(soak(f"mass-{int(MASS_FRACTION * 100)}%",
                     ChurnTrace.mass_departure(churn_rng, n=mass_n,
                                               fraction=MASS_FRACTION)))

    return {
        "rows": rows,
        "owners_ok": all(b["owners_ok"] for b in batches),
        "final_smoothness": float(net.smoothness()) if net.n >= 2 else math.inf,
        "baseline_rate": batches[0]["rate"],
        "final_rate": batches[-1]["rate"],
        "refresh_secs_per_op": router.refresh_stats.seconds_per_op(),
    }


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
        res = measure_churn_soak(n=n, lookups=lookups, churn_ops=churn_ops,
                                 seed=seed, mass_n=min(n, 8192))
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
