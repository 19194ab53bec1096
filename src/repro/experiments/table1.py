"""E1 — empirical regeneration of the paper's Table 1, at scale.

For every lookup scheme in the table we measure, at several network
sizes, the three columns the paper compares: expected path length,
(max) congestion, and linkage.  All schemes route through their
compiled :class:`~repro.baselines.base.BaselineBatchRouter` (the same
vectorized spine the DH engine uses), which is what lets the full run
execute 10^5-lookup cells at n = 2^16 — the scalar per-hop drivers
previously capped the shoot-out at toy sizes.

Because the paper reports *asymptotic classes*, we additionally fit
growth exponents across sizes:

* logarithmic schemes (Chord, Tapestry, Viceroy, Koorde, DH) must show
  mean path growing like ``c·log₂ n`` (bounded c, near-zero power-law
  exponent);
* CAN with d = 2 must show a power-law exponent ≈ 1/2, and at n = 2^16
  its absolute path length must dominate every log-scheme — the
  qualitative Table 1 ordering;
* small worlds must be super-logarithmic but ≪ any polynomial
  (``log² n``: the log-slope itself grows);
* congestion·n/log n must stay bounded for the log-schemes;
* linkage: constant for small-world/Viceroy/Koorde/DH(Δ=2), log n for
  Chord/Tapestry — so DH(Δ=2) must undercut Chord's degree.

A scalar replay at the smallest size cross-checks that the batch spine
reproduces per-hop routing bit-for-bit before any large cell is trusted.
"""

from __future__ import annotations

import math
from typing import Dict, List


from ..baselines import (
    CanNetwork,
    ChordNetwork,
    DistanceHalvingAdapter,
    KleinbergRing,
    KoordeNetwork,
    TapestryNetwork,
    ViceroyNetwork,
    measure_scheme_batch,
)
from ..sim.metrics import loglog_slope
from ..sim.rng import spawn_many
from .baseline_bench import measure_baselines
from .common import ExperimentResult, register

PAPER_TABLE1 = {
    "chord": ("log n", "(log n)/n", "log n"),
    "tapestry": ("log n", "(log n)/n", "log n"),
    "can(d=2)": ("d n^{1/d}", "d n^{1/d-1}", "d"),
    "small-world": ("log² n", "(log² n)/n", "O(1)"),
    "viceroy": ("log n", "(log n)/n", "O(1)"),
    "koorde": ("log n", "(log n)/n", "O(1)"),
    "distance-halving(d=2,dh)": ("log_d n", "(log_d n)/n", "O(d)"),
    "distance-halving(d=8,dh)": ("log_d n", "(log_d n)/n", "O(d)"),
}

#: Schemes whose ``lookup_path`` is deterministic, so the batch spine can
#: be replayed against it hop-for-hop by ``measure_baselines`` (the DH
#: rows route with the randomized §2.2.2 algorithm and are parity-tested
#: elsewhere via tau).
_PARITY_SCHEMES = ("chord", "tapestry", "can", "small-world", "viceroy", "koorde")

#: Log-path schemes for the absolute ordering checks.  Koorde is in the
#: same asymptotic class (its exponent check covers it) but pays ≈ 2
#: hops per target bit, so its *constant* rivals CAN's n^{1/2} until far
#: beyond 2^16 — the class fit, not the absolute ordering, is its check.
ORDER_LOG_SCHEMES = ("chord", "tapestry", "viceroy",
                     "distance-halving(d=2,dh)", "distance-halving(d=8,dh)")


def _schemes(n: int, rng_list) -> List:
    return [
        ChordNetwork(n, rng_list[0]),
        TapestryNetwork(n, rng_list[1], base=2),
        CanNetwork(n, rng_list[2], d=2),
        KleinbergRing(n, rng_list[3]),
        ViceroyNetwork(n, rng_list[4]),
        KoordeNetwork(n, rng_list[5]),
        DistanceHalvingAdapter(n, rng_list[6], delta=2, mode="dh"),
        DistanceHalvingAdapter(n, rng_list[7], delta=8, mode="dh"),
    ]


@register("E1")
def run(seed: int = 1, quick: bool = False) -> ExperimentResult:
    sizes = [128, 256, 512] if quick else [4096, 16384, 65536]
    lookups = 400 if quick else 100_000
    rows: List[Dict] = []
    by_scheme: Dict[str, Dict[int, Dict]] = {}
    for n in sizes:
        rngs = spawn_many(seed * 1000 + n, 10)
        for i, dht in enumerate(_schemes(n, rngs)):
            m = measure_scheme_batch(
                dht, spawn_many(seed * 77 + n + i, 1)[0], lookups=lookups
            )
            by_scheme.setdefault(m.scheme, {})[n] = m.as_dict()
    checks: Dict[str, bool] = {}
    for scheme, per_n in by_scheme.items():
        ns = sorted(per_n)
        paths = [per_n[n]["mean_path"] for n in ns]
        congs = [per_n[n]["max_congestion"] for n in ns]
        degs = [per_n[n]["mean_degree"] for n in ns]
        exp_fit = loglog_slope(ns, paths)
        log_coef = paths[-1] / math.log2(ns[-1])
        cong_norm = congs[-1] * ns[-1] / math.log2(ns[-1])
        rows.append(
            {
                "scheme": scheme,
                "paper(path,cong,link)": "/".join(
                    PAPER_TABLE1.get(scheme, ("?", "?", "?"))
                ),
                "path@maxn": paths[-1],
                "path_exponent": round(exp_fit, 3),
                "path/log2n": round(log_coef, 2),
                "cong*n/logn": round(cong_norm, 2),
                "deg@maxn": degs[-1],
            }
        )
    # class checks -------------------------------------------------
    def fit(scheme):
        ns = sorted(by_scheme[scheme])
        return loglog_slope(ns, [by_scheme[scheme][n]["mean_path"] for n in ns])

    big = max(by_scheme["chord"])

    def path(scheme, n=None):
        return by_scheme[scheme][big if n is None else n]["mean_path"]

    checks["log-schemes have near-zero path exponent"] = all(
        fit(s) < 0.35
        for s in by_scheme
        if s not in ("can(d=2)", "small-world")
    )
    checks["CAN(d=2) path exponent ≈ 1/2"] = 0.3 <= fit("can(d=2)") <= 0.7
    checks["small-world between log and poly"] = (
        fit("small-world") < 0.45 and path("small-world") > path("chord")
    )
    checks["constant linkage: viceroy/koorde/small-world"] = all(
        by_scheme[s][big]["mean_degree"] <= 9
        for s in ("viceroy", "koorde", "small-world")
    )
    checks["log linkage: chord/tapestry"] = all(
        by_scheme[s][big]["mean_degree"] >= math.log2(big) / 2
        for s in ("chord", "tapestry")
    )
    checks["DH(Δ=8) beats DH(Δ=2) on path, pays degree"] = (
        path("distance-halving(d=8,dh)") < path("distance-halving(d=2,dh)")
        and by_scheme["distance-halving(d=8,dh)"][big]["mean_degree"]
        > by_scheme["distance-halving(d=2,dh)"][big]["mean_degree"]
    )
    checks["congestion·n/log n bounded for log-schemes"] = all(
        by_scheme[s][big]["max_congestion"] * big / math.log2(big) <= 30
        for s in ("chord", "tapestry", "koorde",
                  "distance-halving(d=2,dh)", "viceroy")
    )
    # Table 1 ordering at the largest size: CAN's polynomial path
    # dominates every logarithmic scheme, and constant-linkage DH
    # undercuts Chord's log-linkage.  Absolute orderings only
    # separate once n is large, so they gate the full run (n = 2^16);
    # the quick run keeps the class fits and the parity replay.
    if not quick:
        checks["ordering: CAN path dominates log-schemes at max n"] = all(
            path("can(d=2)") > 2 * path(s) for s in ORDER_LOG_SCHEMES
        )
        checks["ordering: small-world path above every log-scheme"] = all(
            path("small-world") > path(s) for s in ORDER_LOG_SCHEMES
        )
    checks["ordering: DH(Δ=2) linkage below Chord's"] = (
        by_scheme["distance-halving(d=2,dh)"][big]["mean_degree"]
        < by_scheme["chord"][big]["mean_degree"]
    )
    checks["batch spine replays scalar paths"] = measure_baselines(
        n=sizes[0] if quick else 128, lookups=120, seed=seed,
        scalar_sample=120, schemes=_PARITY_SCHEMES)["all_parity_ok"]
    return ExperimentResult(
        experiment="E1",
        title="Table 1 — comparison of lookup schemes",
        paper_claim="path/congestion/linkage classes per scheme (Table 1)",
        rows=rows,
        checks=checks,
        notes=(
            f"sizes {sizes}, {lookups} batch lookups per cell; "
            "exponents fitted log-log; scalar parity replayed at the "
            "smallest size"
        ),
    )
