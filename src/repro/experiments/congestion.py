"""E4 — congestion of random lookups (Theorems 2.7, 2.9).

Definition 3: congestion of a server = probability it participates in a
lookup between a random server and a random point; the theorems put the
network maximum at ``Θ(log n / n)`` for smooth ids, for both lookup
algorithms.  We estimate with many random lookups and track
``max_congestion · n / log n`` across sizes — it must stay bounded (and
not vanish: the owner itself always participates).

Routing and accounting run on the vectorized CSR path spine: whole
workloads go through ``net.router(auto_refresh=True)`` with
``keep_paths="csr"`` and are booked into a
:class:`~repro.core.routing_stats.BatchCongestion` with one
``np.bincount`` per batch, which scales the headline size from the old
scalar-loop ceiling of 1024 to 16384 servers.  At n = 1024 (a size of
both runs) the first lookups of the same workload are replayed through
the scalar engine + :class:`~repro.core.routing_stats.CongestionCounter`
for both algorithms, and the two summaries must agree **bit-for-bit**
(same ``max_load`` / ``mean_load`` / ``max_congestion`` /
``total_messages``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..core import BatchCongestion, CongestionCounter, lookup_many
from ..sim.rng import spawn_many
from ..sim.workload import DH_TAU_DIGITS, balanced_network, random_pairs
from .common import ExperimentResult, register

__all__ = ["scalar_congestion"]

#: The network size of the scalar cross-check, a size of both runs.
PARITY_N = 1024


def scalar_congestion(net, sources, targets, algorithm: str,
                      tau: Optional[np.ndarray]) -> CongestionCounter:
    """The reference per-lookup loop: scalar engine + Counter accounting."""
    taus = None
    if algorithm == "dh":
        taus = [list(row) for row in tau]
    counter = CongestionCounter()
    for r in lookup_many(net, sources, targets, algorithm=algorithm,
                         taus=taus):
        counter.record(r)
    return counter


def routed_tally(router, algorithm: str, sources, targets,
                 tau: np.ndarray) -> BatchCongestion:
    """One CSR-routed batch of ``algorithm`` (``"dh"`` on the digit
    strings ``tau``), booked into a fresh tally."""
    if algorithm == "fast":
        res = router.batch_fast_lookup(sources, targets, keep_paths="csr")
    else:
        res = router.batch_dh_lookup(sources, targets, tau=tau,
                                     keep_paths="csr")
    cong = BatchCongestion()
    cong.record_batch(res)
    return cong


@register("E4")
def run(seed: int = 4, quick: bool = False) -> ExperimentResult:
    sizes = [256, 1024] if quick else [1024, 4096, 16384]
    lookups = 4000 if quick else 60_000
    cross_check = 400 if quick else 500
    rows: List[Dict] = []
    norms = {"fast": [], "dh": []}
    parity_ok = True
    for n in sizes:
        rng, route = spawn_many(seed * 17 + n, 2)
        net = balanced_network(n, rng)
        router = net.router(auto_refresh=True, with_adjacency=True)
        sources, targets = random_pairs(net.segments.as_array(), route,
                                        lookups)
        tau = route.integers(0, net.delta, size=(lookups, DH_TAU_DIGITS))
        counters = {name: routed_tally(router, name, sources, targets, tau)
                    for name in ("fast", "dh")}
        if n == PARITY_N:
            # scalar cross-check: identical sub-workload, identical stats
            m = min(lookups, cross_check)
            for name, _cong in counters.items():
                scal = scalar_congestion(net, sources[:m], targets[:m],
                                          name, tau[:m])
                sub = routed_tally(router, name, sources[:m], targets[:m],
                                   tau[:m])
                parity_ok &= sub.summary(n) == scal.summary(n)
        row: Dict = {"n": n, "rho": round(net.smoothness(), 2),
                     "lookups": lookups}
        for name, c in counters.items():
            cong = c.max_congestion()
            norm = cong * n / math.log2(n)
            norms[name].append(norm)
            row[f"{name}_maxcong"] = round(cong, 5)
            row[f"{name}_cong*n/logn"] = round(norm, 2)
        rows.append(row)
    checks = {
        "Thm 2.7: fast congestion·n/log n bounded": max(norms["fast"]) <= 12,
        "Thm 2.9: DH congestion·n/log n bounded": max(norms["dh"]) <= 12,
        "congestion really is Θ(log n/n), not o(·): norm ≥ 0.3": min(
            norms["fast"] + norms["dh"]
        )
        >= 0.3,
        "normalised congestion flat across sizes (±4x)": max(
            max(v) / min(v) for v in norms.values()
        )
        <= 4.0,
        f"batch CSR accounting bit-identical to scalar counters "
        f"(n={PARITY_N})": parity_ok,
    }
    return ExperimentResult(
        experiment="E4",
        title="Congestion of random lookups (Thm 2.7 / 2.9)",
        paper_claim="max congestion Θ(log n / n) for smooth ids",
        rows=rows,
        checks=checks,
        notes="batch-routed with CSR path accounting "
        f"(BatchCongestion); scalar cross-check of {cross_check} lookups "
        f"at n={PARITY_N}",
    )
