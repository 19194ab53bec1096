"""E13 + E14 — fault tolerance of the overlapping DHT, at scale (§6).

E13 (Theorems 6.3, 6.4): a **fault sweep** over failure probability
p ∈ {0.05 … 0.5} and network size n ∈ {4096, 16384}.  Each cell draws a
fresh random fail-stop plan, samples ≥100k (surviving source, target)
pairs and routes them through the vectorized fault-tolerant batch
engine (:class:`~repro.faults.batch_ft.FTBatchEngine`): per-hop
survival is one boolean reduction per level over the array-backed cover
tables.  The Theorem 6.4 all-surviving-pairs reachability claim is
verified on the whole sample for small p, the breakdown knee is visible
at large p, and at the smallest size a sub-workload is replayed through
the scalar :func:`~repro.faults.lookup_ft.simple_lookup` with shared
choice uniforms — success flags, hop/message counts, traversed levels
and server walks must be **bit-identical**.

E14 (Theorem 6.6): the false-message-resistant lookup under Byzantine
payload corruption, batched: majority votes become counts over cover
sets (see :meth:`~repro.faults.batch_ft.FTBatchEngine
.batch_resistant_lookup`), with the cheap Simple Lookup as the contrast
column and the same scalar bit-parity cross-check at the smallest size.

The measurement helper :func:`measure_faults` is shared by this
experiment and the ``bench-faults`` CLI subcommand.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from ..core.lookup import compress_path
from ..faults import (
    FTBatchEngine,
    OverlappingDHNetwork,
    random_byzantine,
    random_failstop,
    resistant_lookup,
    simple_lookup,
)
from ..sim.rng import spawn_many
from ..sim.workload import random_pairs, rate_fields, survivor_pairs
from .common import ExperimentResult, register

__all__ = ["measure_faults", "format_faults_report", "FT_CHOICE_DIGITS",
           "scalar_simple_replay"]

#: Per-hop uniforms supplied per lookup for explicit-choice batches —
#: far beyond the Theorem 6.3 walk length (log n + O(1)) at any tested
#: size (the engine raises "choices exhausted" if a walk outruns it).
FT_CHOICE_DIGITS = 32


def scalar_simple_replay(net, batch, sources, targets, choices, **how) -> bool:
    """Replay a sub-workload through the scalar walk (``how``: the
    ``simple_lookup`` keywords it was routed under); True iff bit-equal."""
    for i in range(targets.size):
        res = simple_lookup(net, float(sources[i]), "probe",
                            target=float(targets[i]),
                            choices=list(choices[i]), **how)
        if not (bool(res.success) == bool(batch.success[i])
                and res.messages == int(batch.messages[i])
                and res.parallel_time == int(batch.parallel_time[i])
                and compress_path(res.servers) == batch.server_path(i)):
            return False
    return True


def measure_faults(
    n: int = 16384,
    pairs: int = 100_000,
    p_fail: float = 0.2,
    seed: int = 0,
    scalar_sample: int = 200,
    net: Optional[OverlappingDHNetwork] = None,
    engine: Optional[FTBatchEngine] = None,
) -> Dict:
    """Route one fault-sweep cell, batch vs scalar.

    Builds (or reuses) an ``n``-server overlapping network, draws a
    random fail-stop plan at probability ``p_fail``, samples ``pairs``
    (surviving source, uniform target) pairs and routes them as **one**
    batch Simple Lookup with CSR path emission.  The first
    ``scalar_sample`` pairs are replayed through the scalar per-hop walk
    driven by the same choice uniforms and must match bit-for-bit
    (success / messages / traversed levels / server walks); pass
    ``scalar_sample=0`` to skip the replay (big sweep cells).  Returns
    rates, the speedup, the reachability digest and the parity verdict.
    """
    if net is None and engine is not None:
        net = engine.net  # a lone engine pins the network it snapshots
    if net is not None:
        n = net.n
    build_rng, plan_rng, route = spawn_many(seed * 41 + n, 3)
    if net is None:
        net = OverlappingDHNetwork(n, build_rng)
    if engine is None:
        engine = FTBatchEngine(net)

    plan = random_failstop(net.points, p_fail, plan_rng)
    alive = plan.alive_mask(net.points_array)
    sources, targets = survivor_pairs(net.points_array, alive, route, pairs)
    choices = route.random((pairs, FT_CHOICE_DIGITS))

    # untimed warmup: first-touch page faults say nothing about steady state
    warm = min(2000, pairs)
    engine.batch_simple_lookup(sources[:warm], targets[:warm],
                               choices=choices[:warm], plan=plan)

    t0 = time.perf_counter()
    batch = engine.batch_simple_lookup(sources, targets, choices=choices,
                                       plan=plan, keep_paths="csr")
    batch_secs = time.perf_counter() - t0

    m = min(scalar_sample, pairs)
    parity = True
    scalar_secs = 0.0
    if m:
        t0 = time.perf_counter()
        parity = scalar_simple_replay(net, batch, sources[:m], targets[:m],
                                      choices[:m], plan=plan)
        scalar_secs = time.perf_counter() - t0

    return {
        "n": n,
        "p_fail": float(p_fail),
        "pairs": pairs,
        "scalar_sample": m,
        "alive_servers": int(alive.sum()),
        **rate_fields(pairs, batch_secs, m, scalar_secs),
        "parity_ok": bool(parity),
        "success_rate": batch.success_rate(),
        "failures": int(batch.size - batch.success.sum()),
        "all_reachable": bool(batch.success.all()),
        "mean_messages": float(batch.messages.mean()),
        "max_parallel_time": int(batch.parallel_time.max()),
        "logn_bound": math.log2(n) + 3,
    }


def format_faults_report(result: Dict) -> str:
    """Human-readable multi-line summary of one measurement dict."""
    lines = [
        f"network: n={result['n']}  p_fail={result['p_fail']:g}  "
        f"alive={result['alive_servers']}",
        f"batch : {result['pairs']:>8} FT lookups routed in "
        f"{result['batch_secs']:.3f}s  = {result['batch_rate']:>12,.0f} "
        f"lookups/sec",
        f"scalar: {result['scalar_sample']:>8} FT lookups replayed in "
        f"{result['scalar_secs']:.3f}s  = {result['scalar_rate']:>12,.0f} "
        f"lookups/sec",
        f"speedup: {result['speedup']:.1f}x   success: "
        f"{result['success_rate']:.5f} ({result['failures']} failures)   "
        f"max parallel time: {result['max_parallel_time']} "
        f"(≤ {result['logn_bound']:.1f})",
        f"parity (success/messages/levels/paths on scalar replay): "
        f"{'PASS' if result['parity_ok'] else 'FAIL'}",
    ]
    return "\n".join(lines)


@register("E13")
def run_failstop(seed: int = 13, quick: bool = False) -> ExperimentResult:
    sizes = [256] if quick else [4096, 16384]
    ps = (0.05, 0.1, 0.2, 0.3, 0.5)
    pairs = 2000 if quick else 100_000
    sample = 60 if quick else 200
    rows: List[Dict] = []
    parity_ok = True
    time_ok = True
    reach_small_p: List[float] = []
    rate_at: Dict[tuple, float] = {}
    for n in sizes:
        build_rng, _ = spawn_many(seed * 67 + n, 2)
        net = OverlappingDHNetwork(n, build_rng)
        engine = FTBatchEngine(net)
        for p in ps:
            res = measure_faults(
                n=n, pairs=pairs, p_fail=p, seed=seed,
                scalar_sample=sample if n == sizes[0] else 0,
                net=net, engine=engine)
            parity_ok &= res["parity_ok"]
            time_ok &= res["max_parallel_time"] <= res["logn_bound"]
            rate_at[(n, p)] = res["success_rate"]
            if p <= 0.1:
                reach_small_p.append(res["success_rate"])
            rows.append({
                "n": n, "p_fail": p, "pairs": pairs,
                "alive": res["alive_servers"],
                "success_rate": round(res["success_rate"], 5),
                "failures": res["failures"],
                "max_time": res["max_parallel_time"],
                "log2n+O(1)": round(res["logn_bound"], 1),
            })
    checks = {
        "Thm 6.3: parallel time ≤ log n + O(1) in every cell": time_ok,
        "Thm 6.4: every sampled surviving pair reaches its item at "
        "p ≤ 0.1": min(reach_small_p) == 1.0,
        "graceful degradation: ≥ 99.9% of pairs still reach at p = 0.2":
            min(rate_at[(n, 0.2)] for n in sizes) >= 0.999,
        "degradation stays graceful even at p = 0.5 (≥ 60% reach)": min(
            rate_at[(n, 0.5)] for n in sizes) >= 0.6,
        f"batch bit-identical to scalar replay (n={sizes[0]}, all p)":
            parity_ok,
    }
    return ExperimentResult(
        experiment="E13",
        title="Random fail-stop sweep at scale (Thm 6.3 / 6.4)",
        paper_claim="for small p, w.h.p. every surviving server finds "
        "every item",
        rows=rows,
        checks=checks,
        notes=f"{pairs} sampled pairs per cell, batch-routed with CSR "
        "paths; scalar bit-parity cross-check at the smallest size",
    )


@register("E14")
def run_byzantine(seed: int = 14, quick: bool = False) -> ExperimentResult:
    sizes = [256] if quick else [1024, 4096]
    ps = (0.0, 0.05, 0.1, 0.2)
    pairs = 400 if quick else 20_000
    sample = 40 if quick else 100
    rows: List[Dict] = []
    parity_ok = True
    msgs_ok = True
    floods = True
    resist_small_p: List[float] = []
    resist_rate: Dict[tuple, float] = {}
    simple_rate: Dict[tuple, float] = {}
    for n in sizes:
        build_rng, plan_rng, route = spawn_many(seed * 71 + n, 3)
        net = OverlappingDHNetwork(n, build_rng)
        engine = FTBatchEngine(net)
        logn = math.log2(n)
        for p in ps:
            plan = random_byzantine(net.points, p, plan_rng)
            sources, targets = random_pairs(net.points_array, route, pairs)
            choices = route.random((pairs, FT_CHOICE_DIGITS))
            resist = engine.batch_resistant_lookup(sources, targets,
                                                   plan=plan)
            simple = engine.batch_simple_lookup(sources, targets,
                                                choices=choices, plan=plan,
                                                keep_paths="csr")
            if n == sizes[0]:
                m = min(sample, pairs)
                parity_ok &= scalar_simple_replay(
                    net, simple, sources[:m], targets[:m],
                    choices[:m], plan=plan)
                for i in range(m):
                    ref = resistant_lookup(net, float(sources[i]), "probe",
                                           plan, target=float(targets[i]))
                    parity_ok &= (
                        bool(ref.success) == bool(resist.success[i])
                        and ref.messages == int(resist.messages[i])
                        and ref.parallel_time == int(resist.parallel_time[i]))
            msgs_ok &= int(resist.messages.max()) <= 8 * logn**3
            floods &= float(resist.messages.mean()) >= logn**2 / 4
            resist_rate[(n, p)] = resist.success_rate()
            simple_rate[(n, p)] = simple.success_rate()
            if p <= 0.1:
                resist_small_p.append(resist.success_rate())
            rows.append({
                "n": n, "p_byzantine": p,
                "resistant_success": round(resist.success_rate(), 4),
                "simple_success": round(simple.success_rate(), 4),
                "mean_msgs": round(float(resist.messages.mean()), 0),
                "8log³n": round(8 * logn**3, 0),
            })
    checks = {
        "Thm 6.6: resistant lookup ≥ 99% correct at p ≤ 0.1": min(
            resist_small_p) >= 0.99,
        "message complexity O(log³ n)": msgs_ok,
        "messages are Ω(log² n) on average (it actually floods)": floods,
        # at p = 0.1 every point keeps an honest-majority cover whp —
        # the Thm 6.6 precondition — so the resistant lookup is near
        # perfect while the cheap lookup keeps trusting lone liars
        "simple lookup *does* fail under liars (contrast at p = 0.1)": max(
            simple_rate[(n, 0.1)] for n in sizes
        ) < min(resist_rate[(n, 0.1)] for n in sizes),
        f"batch bit-identical to scalar replay (n={sizes[0]}, all p)":
            parity_ok,
    }
    return ExperimentResult(
        experiment="E14",
        title="False-message-resistant lookup at scale (Thm 6.6)",
        paper_claim="log n parallel time, O(log³ n) messages, majority "
        "survives",
        rows=rows,
        checks=checks,
        notes=f"{pairs} pairs per cell, batched majority votes as counts "
        "over cover sets; scalar cross-check at the smallest size",
    )
