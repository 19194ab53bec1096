"""X6 — cost-aware covering-edge routing (P4P/ALTO-style selection).

Observation 2.3 makes the phase-I digit of the two-phase lookup a
**free** choice: the distance to the target's image halves every step
whatever digit is taken, so the router may pick among the Δ covering
edges (or, on the §6 overlapping DHT, among the Θ(log n) alive covers
of the next canonical point) by *network cost* without touching the
O(log n) hop bound.  This experiment measures that trade on a synthetic
ISP topology (:class:`~repro.peer.costmap.CostMap`): every server gets
a hashed ISP label and coordinates, intra-ISP edges are cheap, inter-ISP
edges cost 1–10.

Three policies route the *same* workload with the *same* per-hop
uniforms (:mod:`repro.peer.policy`):

* ``uniform`` — the paper's rule, cost-blind (the control column);
* ``greedy`` — always the cheapest alive cover;
* ``weighted`` — softmin over costs at a temperature (the tunable
  middle ground).

Measured per policy: mean cross-ISP hops per lookup, mean path cost,
mean hops (the stretch guard) and max server load.  A scalar-replay
sub-sample (:func:`~repro.faults.lookup_ft.simple_lookup` with the same
oracle/uniforms) must be bit-identical to the batch, and a core-engine
cell replays :meth:`~repro.core.batch.BatchRouter.batch_cost_dh_lookup`
digits through the plain ``tau=`` hook — the recorded ``tau_used`` must
reproduce the routed paths bit-for-bit.

The measurement helper :func:`measure_cost_routing` is shared by this
experiment and the ``bench-cost`` CLI subcommand.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from ..core import DistanceHalvingNetwork
from ..faults import FTBatchEngine, OverlappingDHNetwork
from ..peer import (
    CostAwareBatchRouter,
    CostMap,
    CostOracle,
    cross_isp_counts,
    path_cost_totals,
)
from ..sim.rng import spawn_many
from ..sim.workload import DH_TAU_DIGITS, random_pairs, rate_fields
from .common import ExperimentResult, register
from .faults_exp import FT_CHOICE_DIGITS, scalar_simple_replay

__all__ = ["measure_cost_routing", "format_cost_report"]


def _core_cell(cost_map: CostMap, core_n: int, core_pairs: int, seed: int,
               workers: int) -> Dict:
    """Route the core-engine cell: cost-dh vs uniform + tau replay."""
    build_rng, route = spawn_many(seed * 59 + core_n, 2)
    dnet = DistanceHalvingNetwork(rng=build_rng)
    dnet.populate(core_n)
    router = CostAwareBatchRouter(dnet, cost_map, auto_refresh=True)
    src, tgt = random_pairs(dnet.segments.as_array(), route, core_pairs)
    u = route.random((core_pairs, DH_TAU_DIGITS))

    greedy = router.batch_cost_dh_lookup(src, tgt, policy="greedy",
                                         keep_paths="csr")
    unif = router.batch_cost_dh_lookup(src, tgt, choices=u,
                                       policy="uniform", keep_paths="csr")
    # the recorded digits through the plain replay hook must reproduce
    # the routed batch bit-for-bit (Observation 2.3: any digit string
    # converges — these are just the ones the cost policy took)
    replay = router.batch_dh_lookup(src, tgt, tau=greedy.tau_used,
                                    keep_paths="csr")
    replay_ok = (np.array_equal(greedy.owner_idx, replay.owner_idx)
                 and np.array_equal(greedy.hops, replay.hops)
                 and np.array_equal(greedy.path_servers, replay.path_servers)
                 and np.array_equal(greedy.path_offsets, replay.path_offsets))

    shard_ok = True
    if workers > 1:
        try:
            sharded = router.sharded_executor(workers).batch_cost_dh_lookup(
                src, tgt, None, policy="greedy", keep_paths="csr")
            shard_ok = (
                np.array_equal(greedy.owner_idx, sharded.owner_idx)
                and np.array_equal(greedy.hops, sharded.hops)
                and np.array_equal(greedy.tau_used, sharded.tau_used)
                and np.array_equal(greedy.path_servers, sharded.path_servers))
        finally:
            router.close_executor()

    rows = {}
    for name, res in (("uniform", unif), ("greedy", greedy)):
        srv, off = res.path_servers, res.path_offsets
        rows[name] = {
            "cross_isp": float(cross_isp_counts(router.cost_isp, srv,
                                                off).mean()),
            "hops": float(res.hops.mean()),
        }
    cross_u = rows["uniform"]["cross_isp"]
    cross_g = rows["greedy"]["cross_isp"]
    return {
        "core_n": dnet.n,
        "core_pairs": core_pairs,
        "core_rows": rows,
        "core_replay_ok": bool(replay_ok),
        "core_shard_parity_ok": bool(shard_ok),
        "core_xisp_reduction": (1.0 - cross_g / cross_u) if cross_u > 0
        else 0.0,
        "core_stretch": (rows["greedy"]["hops"] / rows["uniform"]["hops"]
                         if rows["uniform"]["hops"] > 0 else 1.0),
    }


def measure_cost_routing(
    n: int = 16384,
    pairs: int = 100_000,
    seed: int = 0,
    isps: int = 8,
    temperature: float = 1.0,
    scalar_sample: int = 200,
    core_n: int = 4096,
    core_pairs: int = 50_000,
    workers: int = 1,
) -> Dict:
    """Route one workload under all three covering-edge policies.

    Builds an ``n``-server overlapping network plus a
    ``isps``-ISP synthetic :class:`CostMap`, samples ``pairs``
    (source, target) pairs with shared per-hop uniforms, and routes the
    same batch under ``uniform`` / ``greedy`` / ``weighted`` selection
    with CSR path emission.  The first ``scalar_sample`` pairs of the
    greedy and weighted batches are replayed through the scalar
    cost-aware walk and must match bit-for-bit.  A separate core-engine
    cell (``core_n`` servers, ``core_pairs`` pairs) runs
    ``batch_cost_dh_lookup`` and verifies the recorded ``tau_used``
    digits replay bit-identically through the plain ``tau=`` hook —
    sharded too, when ``workers > 1``.  Returns per-policy traffic
    metrics, the greedy cross-ISP reduction and hop stretch vs uniform,
    throughput rates and every parity verdict.
    """
    build_rng, cost_rng, route = spawn_many(seed * 53 + n, 3)
    net = OverlappingDHNetwork(n, build_rng)
    engine = FTBatchEngine(net)
    cost_map = CostMap.synthetic(n_isps=isps, rng=cost_rng)
    oracle = CostOracle(net.points_array, cost_map)

    sources, targets = random_pairs(net.points_array, route, pairs)
    choices = route.random((pairs, FT_CHOICE_DIGITS))

    # untimed warmup: first-touch page faults say nothing about steady state
    warm = min(2000, pairs)
    engine.batch_simple_lookup(sources[:warm], targets[:warm],
                               choices=choices[:warm], oracle=oracle,
                               policy="weighted", temperature=temperature)

    per_policy: Dict[str, Dict] = {}
    batches: Dict[str, object] = {}
    for policy in ("uniform", "greedy", "weighted"):
        t0 = time.perf_counter()
        batch = engine.batch_simple_lookup(
            sources, targets, choices=choices, keep_paths="csr",
            oracle=None if policy == "uniform" else oracle,
            policy=policy, temperature=temperature)
        secs = time.perf_counter() - t0
        srv, off = batch.path_servers, batch.path_offsets
        per_policy[policy] = {
            "cross_isp": float(cross_isp_counts(oracle.isp, srv, off).mean()),
            "path_cost": float(path_cost_totals(oracle, srv, off).mean()),
            "hops": float(batch.hops.mean()),
            "max_load": int(np.bincount(srv, minlength=n).max()),
            "secs": secs,
        }
        batches[policy] = batch

    cross_u = per_policy["uniform"]["cross_isp"]
    cross_g = per_policy["greedy"]["cross_isp"]
    cross_w = per_policy["weighted"]["cross_isp"]
    hops_u = per_policy["uniform"]["hops"]
    hops_g = per_policy["greedy"]["hops"]

    m = min(scalar_sample, pairs)
    parity = True
    scalar_secs = 0.0
    if m:
        t0 = time.perf_counter()
        for policy in ("greedy", "weighted"):
            parity &= scalar_simple_replay(
                net, batches[policy], sources[:m], targets[:m], choices[:m],
                oracle=oracle, policy=policy, temperature=temperature)
        scalar_secs = time.perf_counter() - t0

    out = {
        "n": n,
        "pairs": pairs,
        "isps": isps,
        "temperature": float(temperature),
        "scalar_sample": m,
        "policies": per_policy,
        "xisp_reduction": (1.0 - cross_g / cross_u) if cross_u > 0 else 0.0,
        "stretch": hops_g / hops_u if hops_u > 0 else 1.0,
        "weighted_between": bool(cross_g <= cross_w + 1e-12
                                 and cross_w <= cross_u + 1e-12),
        "parity_ok": bool(parity),
        # batch leg: the weighted pass; scalar leg: both replayed policies
        **rate_fields(pairs, per_policy["weighted"]["secs"], 2 * m,
                      scalar_secs),
        "workers": workers,
    }
    out.update(_core_cell(cost_map, core_n, core_pairs, seed, workers))
    return out


def format_cost_report(result: Dict) -> str:
    """Human-readable multi-line summary of one measurement dict."""
    lines = [
        f"network: n={result['n']}  isps={result['isps']}  "
        f"pairs={result['pairs']}  temperature={result['temperature']:g}",
    ]
    for policy, row in result["policies"].items():
        lines.append(
            f"{policy:>8}: cross-ISP/lookup {row['cross_isp']:.3f}   "
            f"path cost {row['path_cost']:.3f}   hops {row['hops']:.2f}   "
            f"max load {row['max_load']}   ({row['secs']:.3f}s)")
    lines += [
        f"greedy vs uniform: cross-ISP reduction "
        f"{result['xisp_reduction']:.1%}  at hop stretch "
        f"{result['stretch']:.3f}x",
        f"batch : {result['pairs']:>8} lookups = "
        f"{result['batch_rate']:>12,.0f} lookups/sec (weighted policy)",
        f"scalar: {2 * result['scalar_sample']:>8} replays = "
        f"{result['scalar_rate']:>12,.0f} lookups/sec   speedup "
        f"{result['speedup']:.1f}x",
        f"core cell: n={result['core_n']}  "
        f"cross-ISP reduction {result['core_xisp_reduction']:.1%}  "
        f"stretch {result['core_stretch']:.3f}x",
        f"scalar replay bit-identical (greedy + weighted): "
        f"{'PASS' if result['parity_ok'] else 'FAIL'}",
        f"core tau_used replay bit-identical: "
        f"{'PASS' if result['core_replay_ok'] else 'FAIL'}",
    ]
    if result["workers"] > 1:
        lines.append(
            f"sharded ({result['workers']} workers) bit-identical: "
            f"{'PASS' if result['core_shard_parity_ok'] else 'FAIL'}")
    return "\n".join(lines)


@register("X6")
def run_cost_routing(seed: int = 6, quick: bool = False) -> ExperimentResult:
    """Cost-aware covering-edge routing vs the paper's uniform rule."""
    n = 256 if quick else 16384
    pairs = 2000 if quick else 100_000
    sample = 40 if quick else 200
    core_n = 64 if quick else 4096
    core_pairs = 500 if quick else 50_000
    res = measure_cost_routing(
        n=n, pairs=pairs, seed=seed, scalar_sample=sample,
        core_n=core_n, core_pairs=core_pairs)
    rows: List[Dict] = []
    for policy, row in res["policies"].items():
        rows.append({
            "engine": "overlap", "policy": policy,
            "cross_isp": round(row["cross_isp"], 3),
            "path_cost": round(row["path_cost"], 3),
            "hops": round(row["hops"], 2),
            "max_load": row["max_load"],
        })
    for policy, row in res["core_rows"].items():
        rows.append({
            "engine": "core", "policy": policy,
            "cross_isp": round(row["cross_isp"], 3),
            "path_cost": "", "hops": round(row["hops"], 2),
            "max_load": "",
        })
    checks = {
        "greedy cuts mean cross-ISP traffic ≥ 30% vs uniform":
            res["xisp_reduction"] >= 0.30,
        "greedy hop stretch ≤ 1.5x (Obs 2.3: digit choice is free)":
            res["stretch"] <= 1.5,
        "weighted sits between greedy and uniform":
            res["weighted_between"],
        "batch bit-identical to scalar cost-aware replay":
            res["parity_ok"],
        "core engine: recorded tau_used replays bit-identically":
            res["core_replay_ok"],
        "core engine greedy also reduces cross-ISP traffic":
            res["core_xisp_reduction"] > 0.0,
    }
    return ExperimentResult(
        experiment="X6",
        title="Cost-aware covering-edge routing (P4P/ALTO-style)",
        paper_claim="Observation 2.3: the covering-edge choice is free — "
        "cost-weighted selection keeps O(log n) hops",
        rows=rows,
        checks=checks,
        notes=f"{pairs} pairs per policy over a synthetic "
        f"{res['isps']}-ISP cost map; shared per-hop uniforms across "
        "policies; scalar + tau-replay bit-parity cross-checks",
    )
