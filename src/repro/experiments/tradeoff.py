"""E6 — degree / path-length trade-off (Theorem 2.13, Table 1 last row).

Sweeping the alphabet size Δ at fixed n: a smooth degree-Δ
discretization must show degree Θ(Δ) and path length Θ(log_Δ n) — the
Moore-bound-optimal trade-off the paper claims as a headline advantage
("degree d guarantees a path length of O(log_d n)").  Congestion should
*fall* as Δ grows (§2.3's closing remark).

The sweep routes through the vectorized batch engine
(``batch_fast_lookup`` over ``net.compile_router()``) so the full run measures
10^5 lookups per Δ at n = 2^14, and a cross-topology frontier section
places the same-size Chord / small-world / Viceroy rows (measured on
*their* batch routers) against the DH sweep: constant-degree DH must
undercut the small-world path at comparable linkage, and stay within a
constant factor of Chord's path on a fraction of its links.
"""

from __future__ import annotations

import math
from typing import Dict, List


from ..baselines import (
    ChordNetwork,
    KleinbergRing,
    ViceroyNetwork,
    measure_scheme_batch,
)
from ..core import BatchCongestion
from ..sim.rng import spawn_many
from ..sim.workload import balanced_network, random_pairs
from .common import ExperimentResult, register


@register("E6")
def run(seed: int = 6, quick: bool = False) -> ExperimentResult:
    n = 512 if quick else 16384
    lookups = 600 if quick else 100_000
    deltas = [2, 4, 8, 16] if quick else [2, 4, 8, 16, 32]
    rows: List[Dict] = []
    ratios: List[float] = []
    congs: List[float] = []
    degs: List[float] = []
    paths: List[float] = []
    for delta in deltas:
        rng, route = spawn_many(seed * 23 + delta, 2)
        net = balanced_network(n, rng, delta=delta)
        res = net.compile_router().batch_fast_lookup(
            *random_pairs(net.segments.as_array(), route, lookups),
            keep_paths="csr")
        cong = BatchCongestion()
        cong.record_batch(res)
        mean_t = float(res.t.mean())
        expected = math.log(n, delta)
        ratios.append(mean_t / expected)
        congs.append(cong.max_congestion())
        deg = net.average_degree()
        degs.append(deg)
        paths.append(mean_t)
        rows.append(
            {
                "scheme": f"dh(Δ={delta})",
                "mean_path": round(mean_t, 2),
                "log_delta_n": round(expected, 2),
                "path/log_delta_n": round(mean_t / expected, 2),
                "avg_degree": round(deg, 1),
                "deg/delta": round(deg / delta, 2),
                "max_congestion": round(cong.max_congestion(), 5),
            }
        )
    # cross-topology frontier at the same n: where do the Table 1
    # competitors sit relative to the DH sweep?
    frontier: Dict[str, Dict] = {}
    rngs = spawn_many(seed * 41 + n, 4)
    for i, net in enumerate(
        [
            ChordNetwork(n, rngs[0]),
            KleinbergRing(n, rngs[1]),
            ViceroyNetwork(n, rngs[2]),
        ]
    ):
        m = measure_scheme_batch(
            net, spawn_many(seed * 57 + n + i, 1)[0], lookups=lookups
        )
        frontier[m.scheme] = m.as_dict()
        rows.append(
            {
                "scheme": m.scheme,
                "mean_path": round(m.mean_path, 2),
                "log_delta_n": "",
                "path/log_delta_n": "",
                "avg_degree": round(m.mean_degree, 1),
                "deg/delta": "",
                "max_congestion": round(m.max_congestion, 5),
            }
        )
    checks = {
        "Thm 2.13: path = Θ(log_Δ n) — ratio within [0.5, 2.5] for all Δ": all(
            0.5 <= r <= 2.5 for r in ratios
        ),
        "degree = Θ(Δ): avg degree / Δ within [0.5, 8]": all(
            0.5 <= d / dl <= 8 for d, dl in zip(degs, deltas)
        ),
        # max-congestion saturates at the segment-length skew for very
        # large Δ (the owner is visited once per lookup regardless), so
        # compare Δ=2 against the mid-range Δ where path length still
        # dominates the maximum.
        "congestion decreases with Δ (§2.3, Δ=2 → Δ=8)": congs[2] < congs[0],
        "path decreases with Δ": paths[-1] < paths[0],
        # frontier: constant-degree DH(Δ=2) undercuts the other
        # constant-degree navigable design's log² n path …
        "frontier: DH(Δ=2) path below small-world's": (
            paths[0] < frontier["small-world"]["mean_path"]
        ),
        # … and trades ≤ 3x Chord's path for strictly fewer links
        "frontier: DH(Δ=2) within 3x Chord path on fewer links": (
            degs[0] < frontier["chord"]["mean_degree"]
            and paths[0] <= 3 * frontier["chord"]["mean_path"]
        ),
    }
    return ExperimentResult(
        experiment="E6",
        title="Degree / path-length optimality (Thm 2.13)",
        paper_claim="degree Θ(Δ) ⇒ path Θ(log_Δ n); congestion Θ(log_Δ n / n)",
        rows=rows,
        checks=checks,
        notes=(
            f"n = {n}, {lookups} batch fast lookups per Δ; frontier rows "
            "measured on each competitor's own batch router"
        ),
    )
