"""E3 — lookup path lengths (Corollary 2.5, Theorem 2.8).

Fast Lookup: walk parameter ``t ≤ log n + log ρ + 1``.
Distance Halving Lookup: hops ≤ ``2 log n + 2 log ρ`` (+O(1) junction).
The log-slope of the means across sizes must be ≈ 1 (fast) and ≈ 2
(two-phase).

Both algorithms run as whole batches on the vectorized routing spine
(``net.router(auto_refresh=True)``), whose per-lookup ``t``/``hops``
arrays feed the bound checks directly — no per-lookup Python loop —
which scales the sweep to n = 2^16 with 10^5 lookups per size.  Chord
and Koorde ride along at every size on *their* batch routers as the
log-class yardsticks: the §1.1 comparison is that the
continuous-discrete De Bruijn emulation routes in the same Θ(log n)
class as Chord and beats the direct De Bruijn emulation's hop constant.
At the smallest size a scalar replay of the same sub-workload (same dh
digit strings) must match the batch arrays element-for-element.
"""

from __future__ import annotations

import math
from typing import Dict, List


from ..baselines import ChordNetwork, KoordeNetwork, measure_scheme_batch
from ..core import lookup_many
from ..sim.metrics import log_slope, summarize
from ..sim.rng import spawn_many
from ..sim.workload import DH_TAU_DIGITS, balanced_network, random_pairs
from .common import ExperimentResult, register


@register("E3")
def run(seed: int = 3, quick: bool = False) -> ExperimentResult:
    sizes = [64, 256, 1024] if quick else [1024, 4096, 16384, 65536]
    lookups = 600 if quick else 100_000
    rows: List[Dict] = []
    checks: Dict[str, bool] = {}
    fast_ok = dh_ok = parity_ok = True
    fast_means, dh_means = [], []
    chord_means, koorde_means = [], []
    for n in sizes:
        rng, route = spawn_many(seed * 13 + n, 2)
        net = balanced_network(n, rng)
        rho = net.smoothness()
        router = net.router(auto_refresh=True, with_adjacency=True)
        sources, targets = random_pairs(net.segments.as_array(), route,
                                        lookups)
        tau = route.integers(0, net.delta, size=(lookups, DH_TAU_DIGITS))
        fast = router.batch_fast_lookup(sources, targets)
        dh = router.batch_dh_lookup(sources, targets, tau=tau)
        fast_ok &= bool(
            (fast.t <= math.log2(n) + math.log2(rho) + 1 + 1e-9).all()
        )
        dh_ok &= bool(
            (dh.hops
             <= 2 * math.log2(n) + 2 * math.log2(max(rho, 1.0)) + 2).all()
        )
        if n == sizes[0]:
            # element-for-element scalar cross-check on a sub-workload
            m = min(lookups, 150)
            for i, r in enumerate(lookup_many(net, sources[:m],
                                              targets[:m])):
                parity_ok &= (r.t == fast.t[i] and r.hops == fast.hops[i])
            scal_dh = lookup_many(net, sources[:m], targets[:m],
                                  algorithm="dh",
                                  taus=[list(row) for row in tau[:m]])
            for i, r in enumerate(scal_dh):
                parity_ok &= (r.t == dh.t[i] and r.hops == dh.hops[i])
        # same-size log-class yardsticks on their own batch routers
        crng, krng = spawn_many(seed * 29 + n, 2)
        chord = measure_scheme_batch(
            ChordNetwork(n, crng), spawn_many(seed * 37 + n, 1)[0],
            lookups=lookups,
        )
        koorde = measure_scheme_batch(
            KoordeNetwork(n, krng), spawn_many(seed * 43 + n, 1)[0],
            lookups=lookups,
        )
        chord_means.append(chord.mean_path)
        koorde_means.append(koorde.mean_path)
        fs, ds = summarize(fast.t.tolist()), summarize(dh.hops.tolist())
        fast_means.append(fs.mean)
        dh_means.append(ds.mean)
        rows.append(
            {
                "n": n,
                "rho": round(rho, 2),
                "fast_mean_t": round(fs.mean, 2),
                "fast_max_t": fs.max,
                "bound_fast": round(math.log2(n) + math.log2(rho) + 1, 1),
                "dh_mean_hops": round(ds.mean, 2),
                "dh_max_hops": ds.max,
                "bound_dh": round(2 * math.log2(n) + 2 * math.log2(max(rho, 1)), 1),
                "chord_hops": round(chord.mean_path, 2),
                "koorde_hops": round(koorde.mean_path, 2),
            }
        )
    checks["Cor 2.5: fast t ≤ log n + log ρ + 1 (every lookup)"] = fast_ok
    checks["Thm 2.8: DH hops ≤ 2log n + 2log ρ (+2)"] = dh_ok
    checks[
        f"batch t/hops bit-identical to scalar engine (n={sizes[0]})"
    ] = parity_ok
    sf = log_slope(sizes, fast_means)
    sd = log_slope(sizes, dh_means)
    checks[f"fast log-slope ≈ 1 (got {sf:.2f})"] = 0.6 <= sf <= 1.4
    checks[f"DH log-slope ≈ 2 (got {sd:.2f})"] = 1.4 <= sd <= 2.6
    sc = log_slope(sizes, chord_means)
    sk = log_slope(sizes, koorde_means)
    # chord ≈ ½ hop per target bit; koorde ≈ 2 De Bruijn + 2
    # successor-realign hops per bit — both linear in log n
    checks[
        f"yardsticks in the log class (chord {sc:.2f}, koorde {sk:.2f})"
    ] = 0.3 <= sc <= 1.4 and 2.0 <= sk <= 6.0
    checks["§1.1: CD two-phase beats direct De Bruijn (Koorde) hops"] = (
        dh_means[-1] < koorde_means[-1]
    )
    return ExperimentResult(
        experiment="E3",
        title="Lookup path lengths (Cor 2.5, Thm 2.8)",
        paper_claim="fast ≤ log n + log ρ + 1; two-phase ≤ 2log n + 2log ρ",
        rows=rows,
        checks=checks,
        notes="batch-routed sweeps (vectorized engine); chord/koorde "
        "yardsticks on their batch routers; scalar cross-check at the "
        "smallest size",
    )
