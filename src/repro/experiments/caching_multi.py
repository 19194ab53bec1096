"""E8 — multiple hot spots at scale (Theorem 3.8, arbitrary demand).

Per the §3.4 model each epoch carries an arbitrary demand over ``n``
items summing to ``n`` (one request per server on average); the full
cells sustain that demand for as many epochs as it takes to push ≥ 10⁶
requests through each network — Zipf(1.2) skew redrawn every epoch, and
an adversarial fixed demand hammering 8 items — all through the
vectorized :class:`~repro.core.batch_cache.BatchCacheEngine` with an
``advance_epoch`` collapse at every boundary.  Measured:

* ≤ ``O(log n)`` distinct items cached per server (Theorem 3.8 (i)),
  measured at the final epoch's peak;
* every server supplies ``O(log² n)`` requests **per epoch**
  (Theorem 3.8 (ii)) — cumulative hits checked against
  ``8 · epochs · log² n``;
* the hottest item's demand is spread: no server supplies more than the
  hottest item demanded in total;
* a scalar bit-parity cell at n = 128 (salted, multi-item, two epochs):
  the engine must replay exactly on the scalar
  :class:`~repro.core.caching.CacheSystem` (PR 4/5 recipe).
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..core import BatchCacheEngine
from ..sim.rng import spawn_many
from ..sim.workload import (DH_TAU_DIGITS, balanced_network, demand_stream,
                            zipf_demands)
from .caching_bench import trace_parity
from .common import ExperimentResult, register


@register("E8")
def run(seed: int = 8, quick: bool = False) -> ExperimentResult:
    sizes = [128, 512] if quick else [1024, 4096, 16384]
    workloads = ["zipf", "adversarial"]
    rows: List[Dict] = []
    checks: Dict[str, bool] = {}
    items_ok = supply_ok = spread_ok = True
    for n in sizes:
        for workload in workloads:
            rng, route, drng = spawn_many(
                seed * 37 + n + (workload == "zipf"), 3)
            net = balanced_network(n, rng)
            c = max(2, int(math.ceil(math.log2(n))))
            epochs = 4 if quick else max(1, math.ceil(1_000_000 / n))
            labels = [f"item{j}" for j in range(n)]
            engine = BatchCacheEngine(net, labels, threshold=c)
            pts = net.segments.as_array()
            total_demand = np.zeros(n, dtype=np.int64)
            max_items = 0
            for e in range(epochs):
                if workload == "zipf":
                    demands = zipf_demands(n, n, drng, exponent=1.2)
                else:
                    demands = [n // 8 if j < 8 else 0 for j in range(n)]
                stream = demand_stream(demands, drng)
                src = pts[route.integers(0, n, size=stream.size)]
                engine.serve_batch(stream, src, rng=route)
                total_demand += np.asarray(demands, dtype=np.int64)
                # Thm 3.8 (i) is a statement about the live epoch:
                # measure at the peak, before the collapse
                if e == epochs - 1:
                    max_items = engine.max_items_cached()
                engine.advance_epoch()
            total_q = int(total_demand.sum())
            max_supply = int(engine.server_cache_hits().max())
            hottest_q = int(total_demand.max())
            logn = math.log2(n)
            items_ok &= max_items <= 4 * logn
            supply_ok &= max_supply <= 8 * epochs * logn**2
            spread_ok &= max_supply < hottest_q or hottest_q <= logn**2
            rows.append(
                {
                    "n": n,
                    "workload": workload,
                    "epochs": epochs,
                    "q_total": total_q,
                    "c": c,
                    "max_items": max_items,
                    "4·logn": round(4 * logn, 0),
                    "max_supply": max_supply,
                    "8e·log²n": round(8 * epochs * logn**2, 0),
                    "hottest_q": hottest_q,
                    "copies": engine.total_copies(),
                }
            )
    # scalar bit-parity cell: multi-item Zipf, salted, two epochs
    pn, pq = 128, 360
    prng, proute, pdrng = spawn_many(seed * 37 + pn + 7, 3)
    pnet = balanced_network(pn, prng)
    p_items = [f"item{j}" for j in range(16)]
    w = np.arange(1, 17, dtype=np.float64) ** -1.2
    p_idx = pdrng.choice(16, size=pq, p=w / w.sum())
    p_src = pnet.segments.as_array()[proute.integers(0, pn, size=pq)]
    p_tau = proute.integers(0, 2, size=(pq, DH_TAU_DIGITS))
    parity_ok = trace_parity(pnet, p_items, p_idx, p_src, p_tau,
                             threshold=5, salts=2, epochs=2)

    checks["Thm 3.8(i): ≤ 4·log n items cached per server"] = items_ok
    checks["Thm 3.8(ii): supply ≤ 8·epochs·log² n per server"] = supply_ok
    checks["hot demand spread below the hottest item's total"] = spread_ok
    checks["batch/scalar bit parity at n=128 (salted, 2 epochs)"] = bool(
        parity_ok)
    return ExperimentResult(
        experiment="E8",
        title="Multiple hot spots under sustained demand (Thm 3.8)",
        paper_claim="O(log n) items/server, O(log² n) supplied requests per epoch",
        rows=rows,
        checks=checks,
    )
