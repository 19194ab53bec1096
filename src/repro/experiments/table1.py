"""E1 — empirical regeneration of the paper's Table 1, at scale.

For every lookup scheme in the table we measure, at several network
sizes, the three columns the paper compares: expected path length,
(max) congestion, and linkage.  All schemes route through their
compiled :class:`~repro.baselines.base.BaselineBatchRouter` (the same
vectorized spine the DH engine uses), which is what lets the full run
execute 10^5-lookup cells at n = 2^16.

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

A scalar replay (:func:`baseline_parity`) cross-checks that every
scheme's batch spine reproduces its per-hop routing bit-for-bit before
any large cell is trusted.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .. import checks
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
from ..core.routing_stats import BatchCongestion, CongestionCounter
from ..sim.metrics import loglog_slope
from ..sim.rng import spawn_many
from .common import ExperimentResult, register

__all__ = ["SCHEME_BUILDERS", "baseline_parity"]

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

#: Scheme name → builder of the parity replay.  Every lookup path here
#: is deterministic given the built topology, so each scheme replays
#: hop-for-hop (the DH row takes the greedy §2.2.1 mode for exactly that
#: reason; the randomized §2.2.2 mode replays through explicit tau in
#: E4 and ``tests/property/test_batch_parity.py``).
SCHEME_BUILDERS = {
    "chord": lambda n, rng: ChordNetwork(n, rng),
    "tapestry": lambda n, rng: TapestryNetwork(n, rng, base=2),
    "can": lambda n, rng: CanNetwork(n, rng, d=2),
    "small-world": lambda n, rng: KleinbergRing(n, rng),
    "viceroy": lambda n, rng: ViceroyNetwork(n, rng),
    "koorde": lambda n, rng: KoordeNetwork(n, rng),
    "dh-fast": lambda n, rng: DistanceHalvingAdapter(n, rng, delta=2,
                                                     mode="fast"),
}

#: Size and scalar sample of the parity replay, in both runs.
PARITY_N, PARITY_SAMPLE = 1024, 200

#: Log-path schemes for the absolute ordering checks.  Koorde is in the
#: same asymptotic class (its exponent check covers it) but pays ≈ 2
#: hops per target bit, so its *constant* rivals CAN's n^{1/2} until far
#: beyond 2^16 — the class fit, not the absolute ordering, is its check.
ORDER_LOG_SCHEMES = ("chord", "tapestry", "viceroy",
                     "distance-halving(d=2,dh)", "distance-halving(d=8,dh)")


def baseline_parity(n: int, sample: int, seed: int) -> Dict[str, bool]:
    """Per scheme: does the batch spine replay the scalar routing exactly?

    For every scheme of :data:`SCHEME_BUILDERS`: build the ``n``-server overlay, route ``sample`` uniform (source,
    target) pairs through the scalar per-hop ``lookup_path`` loop into a
    :class:`CongestionCounter`, and through the compiled batch router
    into a :class:`BatchCongestion`.  A scheme passes when every batch
    path equals its scalar path element-for-element and ends at the node
    the scheme's ``owner`` makes responsible for the target, and the two
    congestion summaries are equal.
    """
    sample, seed = checks.count(sample, "sample"), checks.count(seed, "seed")
    parity: Dict[str, bool] = {}
    for i, (name, build) in enumerate(SCHEME_BUILDERS.items()):
        build_rng, probe = spawn_many(seed * 59 + 7 * i + n, 2)
        dht = build(n, build_rng)
        src = probe.integers(0, n, size=sample)
        tgt = probe.random(sample)
        ids = list(dht.node_ids())
        counter = CongestionCounter()
        scalar_paths: List[List[float]] = []
        for k in range(sample):
            path = [float(x) for x in
                    dht.lookup_path(ids[int(src[k])], float(tgt[k]), probe)]
            counter.record_path(path)
            scalar_paths.append(path)
        replay = dht.batch_router().route_batch(src, tgt, rng=probe)
        replay_cong = BatchCongestion()
        replay_cong.record_batch(replay)
        parity[name] = all(
            scalar_paths[k] == replay.server_path(k)
            and scalar_paths[k][-1] == float(dht.owner(float(tgt[k])))
            for k in range(sample)
        ) and counter.summary(n) == replay_cong.summary(n)
    return parity


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
    parity = baseline_parity(PARITY_N, PARITY_SAMPLE, seed)
    checks[f"batch spine replays scalar paths ({len(parity)} schemes, "
           f"n={PARITY_N})"] = all(parity.values())
    return ExperimentResult(
        experiment="E1",
        title="Table 1 — comparison of lookup schemes",
        paper_claim="path/congestion/linkage classes per scheme (Table 1)",
        rows=rows,
        checks=checks,
        notes=(
            f"sizes {sizes}, {lookups} batch lookups per cell; "
            f"exponents fitted log-log; scalar parity replayed on "
            f"{PARITY_SAMPLE} lookups per scheme at n={PARITY_N}"
        ),
    )
