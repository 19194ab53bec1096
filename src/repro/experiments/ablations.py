"""A1–A4 — ablations of the design choices the paper calls out (see
docs/ARCHITECTURE.md "Paper-section → module crosswalk").

* **A1 ring edges** — §2.1 adds ring edges "such that G_x contains a
  ring": without them, connectivity survives only while the
  discretization is smooth; with clustered ids the graph can shatter.
* **A2 caching threshold c** — §3.1 says c = Θ(log n) "may be updated
  over time": sweep c to expose the cache-size/server-load trade-off
  (small c: huge trees; large c: hot owner).
* **A3 smoothness ρ** — every §2 bound degrades linearly with ρ: compare
  uniform vs Multiple-Choice ids on one network size.
* **A4 one-phase vs two-phase routing** — Valiant-style randomisation
  (§2.2.2/§2.2.3) only pays off under adversarial permutations.
"""

from __future__ import annotations

import math
from typing import Dict, List

import networkx as nx
import numpy as np

from ..balance import MultipleChoice
from ..core import BatchCongestion, CacheSystem, DistanceHalvingNetwork
from ..sim.workload import (balanced_network, bit_reversal_permutation,
                            random_pairs)
from ..sim.rng import spawn_many
from .common import ExperimentResult, register
from .congestion import routed_tally, scalar_congestion


def _scalar_fast_summary(net, sources, targets) -> Dict:
    """The reference accounting of a Fast Lookup workload (scalar loop)."""
    return scalar_congestion(net, sources, targets, "fast", None).summary(net.n)


@register("A1")
def ring_ablation(seed: int = 201, quick: bool = False) -> ExperimentResult:
    n = 256
    rows: List[Dict] = []
    results: Dict[str, Dict[str, bool]] = {}
    for ids in ("balanced", "clustered"):
        for ring in (True, False):
            rng = spawn_many(seed + ring + 2 * (ids == "clustered"), 1)[0]
            net = DistanceHalvingNetwork(with_ring=ring, rng=rng)
            if ids == "balanced":
                net.populate(n, selector=MultipleChoice(t=4))
            else:
                for i in range(n // 2):
                    net.join(0.25 + i * 1e-8)
                net.populate(n // 2)
            g = net.to_networkx(include_ring=ring)
            connected = nx.is_connected(g)
            results.setdefault(ids, {})[f"ring={ring}"] = connected
            rows.append({"ids": ids, "ring_edges": ring,
                         "connected": connected,
                         "avg_degree": round(net.average_degree(), 2)})
    checks = {
        "ring edges keep clustered ids connected": results["clustered"]["ring=True"],
        "smooth ids connected even without ring": results["balanced"]["ring=False"],
    }
    return ExperimentResult("A1", "Ablation: ring edges",
                            "§2.1 adds ring edges for unconditional connectivity",
                            rows, checks)


@register("A2")
def threshold_ablation(seed: int = 202, quick: bool = False) -> ExperimentResult:
    n = 256 if quick else 512
    rng, route = spawn_many(seed, 2)
    rows: List[Dict] = []
    sizes, loads = [], []
    for c in (1, 2, int(math.log2(n)), 4 * int(math.log2(n)), n):
        net = balanced_network(n, np.random.default_rng(7))
        cache = CacheSystem(net, threshold=c)
        pts = list(net.points())
        for i in range(n):
            cache.request("hot", pts[i % n], route)
        tree = cache.tree_for("hot")
        max_hits = max(cache.cache_hits.values(), default=0)
        sizes.append(tree.size())
        loads.append(max_hits)
        rows.append({"c": c, "tree_size": tree.size(),
                     "4q/c": round(4 * n / c, 0),
                     "max_cache_hits": max_hits,
                     "copies": tree.size() - 1})
    checks = {
        "small c ⇒ big trees (storage cost)": sizes[0] > sizes[2] > sizes[-1],
        "huge c ⇒ hot owner (load cost)": loads[-1] >= loads[2],
        "c = Θ(log n) balances both": sizes[2] <= 4 * n / math.log2(n)
        and loads[2] <= 8 * math.log2(n) ** 2,
    }
    return ExperimentResult("A2", "Ablation: caching threshold c",
                            "§3.1: c = Θ(log n) is the sweet spot",
                            rows, checks)


@register("A3")
def smoothness_ablation(seed: int = 203, quick: bool = False) -> ExperimentResult:
    n = 512
    lookups = 800 if quick else 2000
    rows: List[Dict] = []
    metrics = {}
    for ids, selector in (("uniform", None), ("multiple-choice", MultipleChoice(t=4))):
        rng, route = spawn_many(seed + (selector is None), 2)
        net = DistanceHalvingNetwork(rng=rng)
        net.populate(n, selector=selector)
        rho = net.smoothness()
        sources, targets = random_pairs(net.segments.as_array(), route, lookups)
        res = net.router(auto_refresh=True).batch_fast_lookup(
            sources, targets, keep_paths="csr")
        counter = BatchCongestion()
        counter.record_batch(res)
        if selector is None:
            # scalar cross-check: same pairs, bit-identical accounting
            parity_ok = counter.summary(n) == _scalar_fast_summary(
                net, sources, targets)
        metrics[ids] = {
            "rho": rho,
            "deg": net.max_out_degree(),
            "path": float(res.t.mean()),
            "cong": counter.max_congestion(),
        }
        rows.append({"ids": ids, "rho": round(rho, 1),
                     "max_out_deg": net.max_out_degree(),
                     "mean_path": round(float(res.t.mean()), 2),
                     "max_congestion": round(counter.max_congestion(), 4)})
    checks = {
        "smaller ρ ⇒ smaller max degree": metrics["multiple-choice"]["deg"]
        <= metrics["uniform"]["deg"],
        "smaller ρ ⇒ lower max congestion": metrics["multiple-choice"]["cong"]
        <= metrics["uniform"]["cong"],
        f"batch CSR accounting bit-identical to scalar counters (n={n}, "
        "uniform ids)": parity_ok,
    }
    return ExperimentResult("A3", "Ablation: smoothness ρ",
                            "every §2 bound carries a ρ factor",
                            rows, checks)


@register("A4")
def phase_ablation(seed: int = 204, quick: bool = False) -> ExperimentResult:
    """The textbook separation: on the exact De Bruijn configuration
    (equally spaced ids) the *deterministic* Fast Lookup routes the
    bit-reversal permutation with Θ(√n) max load — the classical lower
    bound for deterministic oblivious routing — while the Valiant-style
    two-phase lookup stays at O(log n) (Theorem 2.10)."""

    from ..sim.metrics import loglog_slope

    sizes = [256, 1024] if quick else [256, 1024, 4096]
    rng, route = spawn_many(seed, 2)
    rows: List[Dict] = []
    fast_loads, dh_loads = [], []
    for n in sizes:
        net = DistanceHalvingNetwork()
        for i in range(n):  # i/n is dyadic: exact in float64
            net.join(i / n)
        sources, targets = bit_reversal_permutation(net.segments.as_array())
        router = net.router(auto_refresh=True, with_adjacency=True)
        cf = routed_tally(router, "fast", sources, targets, None)
        cd = BatchCongestion()
        cd.record_batch(router.batch_dh_lookup(sources, targets, rng=route,
                                               keep_paths="csr"))
        if n == sizes[0]:
            # scalar cross-check: same pairs, bit-identical accounting
            parity_ok = cf.summary(n) == _scalar_fast_summary(
                net, sources, targets)
        fast_loads.append(cf.max_load())
        dh_loads.append(cd.max_load())
        rows.append({"n": n,
                     "fast(one-phase)_max": cf.max_load(),
                     "dh(two-phase)_max": cd.max_load(),
                     "sqrt(n)": round(math.sqrt(n), 0),
                     "log2n": round(math.log2(n), 1)})
    slope_fast = loglog_slope(sizes, fast_loads)
    slope_dh = loglog_slope(sizes, dh_loads)
    big = len(sizes) - 1
    checks = {
        f"one-phase load scales ~√n (slope {slope_fast:.2f})": slope_fast >= 0.35,
        f"two-phase load grows strictly slower (slope {slope_dh:.2f})": slope_dh
        <= slope_fast - 0.15,
        "two-phase max load ≤ 4·log n at every size": all(
            load <= 4 * math.log2(n) for load, n in zip(dh_loads, sizes)
        ),
        f"batch CSR accounting bit-identical to scalar counters "
        f"(n={sizes[0]}, one-phase)": parity_ok,
    }
    if sizes[big] >= 4096:  # the absolute gap needs √n ≫ log n
        checks["at n≥4096 one-phase pays ≥ 1.4×"] = (
            fast_loads[big] >= 1.4 * dh_loads[big]
        )
    return ExperimentResult("A4", "Ablation: one- vs two-phase routing",
                            "§2.2.3: Valiant randomisation defeats adversarial perms "
                            "(bit-reversal on the exact De Bruijn ids)",
                            rows, checks)
