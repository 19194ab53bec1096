"""E2 — structural theorems of the discrete DH graph (§2.1, Thm 2.1, 2.2).

Measured at several sizes and id distributions (uniform, balanced,
adversarially clustered):

* Theorem 2.1: distinct edges without ring edges ≤ 3n − 1 (and therefore
  average degree ≤ 6);
* Theorem 2.2: max out-degree ≤ ρ + 4, max in-degree ≤ ⌈2ρ⌉ + 1.

Plus §2.1's isomorphism claim, edge set for edge set: on the equally
spaced ids ``x_i = i/Δ^r`` the graph without ring edges is the
``r``-dimensional De Bruijn graph (:func:`distance_halving_is_debruijn`).
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..core import DistanceHalvingNetwork
from ..core.debruijn import distance_halving_is_debruijn
from ..sim.rng import spawn_many
from ..sim.workload import balanced_network
from .common import ExperimentResult, register

#: ``(Δ, r)`` instances of the §2.1 isomorphism check (~0.1 s together).
DEBRUIJN_CASES = ((2, 4), (2, 6), (2, 8), (3, 4))


def _build(kind: str, n: int, rng) -> DistanceHalvingNetwork:
    if kind == "balanced":
        return balanced_network(n, rng)
    net = DistanceHalvingNetwork(rng=rng)
    if kind == "uniform":
        net.populate(n)
    else:  # clustered adversary: half the ids inside a tiny arc
        for i in range(n // 2):
            net.join(0.3 + i * 1e-7)
        net.populate(n - n // 2)
    return net


@register("E2")
def run(seed: int = 2, quick: bool = False) -> ExperimentResult:
    sizes = [64, 256] if quick else [64, 256, 1024, 4096]
    kinds = ["uniform", "balanced", "clustered"]
    rows: List[Dict] = []
    checks: Dict[str, bool] = {}
    edge_ok = out_ok = in_ok = avg_ok = True
    for n in sizes:
        for k, kind in enumerate(kinds):
            rng = spawn_many(seed * 31 + n + k, 1)[0]
            net = _build(kind, n, rng)
            rho = net.smoothness()
            edges = net.edge_count()
            mo, mi = net.max_out_degree(), net.max_in_degree()
            avg = net.average_degree()
            edge_ok &= edges <= 3 * n - 1
            out_ok &= mo <= rho + 4
            in_ok &= mi <= math.ceil(2 * rho) + 1
            avg_ok &= avg <= 8.0  # ≤6 continuous + 2 ring
            rows.append(
                {
                    "n": n,
                    "ids": kind,
                    "rho": round(rho, 1),
                    "edges": edges,
                    "3n-1": 3 * n - 1,
                    "max_out": mo,
                    "rho+4": round(rho + 4, 1),
                    "max_in": mi,
                    "2rho+1": math.ceil(2 * rho) + 1,
                    "avg_deg": round(avg, 2),
                }
            )
    checks["Thm 2.1: edges ≤ 3n−1 (all sizes, all id distributions)"] = edge_ok
    checks["Thm 2.1 corollary: average degree ≤ 6 (+2 ring)"] = avg_ok
    checks["Thm 2.2: max out-degree ≤ ρ+4"] = out_ok
    checks["Thm 2.2: max in-degree ≤ ⌈2ρ⌉+1"] = in_ok
    cases = ", ".join(f"({delta},{r})" for delta, r in DEBRUIJN_CASES)
    checks["§2.1: G_x at x_i = i/Δ^r ≅ the r-dim De Bruijn graph, "
           f"(Δ, r) ∈ {{{cases}}}"] = all(
        distance_halving_is_debruijn(r, delta) for delta, r in DEBRUIJN_CASES)
    return ExperimentResult(
        experiment="E2",
        title="Structural bounds of G_x (§2.1, Theorems 2.1, 2.2)",
        paper_claim="≤3n−1 edges; out-deg ≤ ρ+4; in-deg ≤ ⌈2ρ⌉+1; "
                    "G_x ≅ De Bruijn at x_i = i/Δ^r",
        rows=rows,
        checks=checks,
    )
