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
scalar-loop ceiling of 1024 to 16384 servers.  At the smallest size the
same sub-workload is replayed through the scalar engine +
:class:`~repro.core.routing_stats.CongestionCounter` and the two
summaries must agree **bit-for-bit** (same ``max_load`` / ``mean_load``
/ ``max_congestion`` / ``total_messages``).

The measurement helper :func:`measure_congestion` is shared by this
experiment and the ``bench-congestion`` CLI subcommand.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

import numpy as np

from ..core import BatchCongestion, CongestionCounter, lookup_many
from ..sim.rng import spawn_many
from ..sim.workload import (DH_TAU_DIGITS, balanced_network, random_pairs,
                            route_pairs)
from .common import ExperimentResult, register

__all__ = ["measure_congestion", "format_congestion_report",
           "scalar_congestion"]


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


def measure_congestion(
    n: int = 16384,
    lookups: int = 100_000,
    seed: int = 0,
    scalar_sample: int = 1000,
    algorithm: str = "fast",
    delta: int = 2,
) -> Dict:
    """Route-and-account ``lookups`` random pairs, with a scalar replay.

    Builds an ``n``-server Multiple-Choice-balanced network,
    routes the whole workload through an auto-refresh router with CSR
    paths into a :class:`BatchCongestion` (timed), and replays the first
    ``scalar_sample`` pairs through the scalar engine + Counter loop.
    The subsample is also routed as its own batch so the two accounting
    backends can be compared bit-for-bit (``summary()`` equality).  For
    ``algorithm='dh'`` both engines are driven by the same explicit
    digit strings.  Returns the batch rate, the congestion stats, and
    the parity verdict.
    """
    if algorithm not in ("fast", "dh"):
        raise ValueError(f"unknown algorithm {algorithm!r}; use 'fast' or 'dh'")
    if n < 2:
        raise ValueError("measure_congestion needs n >= 2 (cong_norm "
                         "divides by log2 n)")
    build_rng, route = spawn_many(seed * 29 + n, 2)
    net = balanced_network(n, build_rng, delta=delta)

    t0 = time.perf_counter()
    router = net.router(auto_refresh=True,
                        with_adjacency=(algorithm == "dh"))
    compile_secs = time.perf_counter() - t0

    sources, targets = random_pairs(net.segments.as_array(), route, lookups)
    m = min(scalar_sample, lookups)
    tau = None
    if algorithm == "dh":
        tau = route.integers(0, net.delta, size=(lookups, DH_TAU_DIGITS))

    # untimed warmup: the first big batch of a cold process pays page
    # faults and allocator growth that say nothing about steady state
    warm = min(2000, lookups)
    route_pairs(router, (sources[:warm], targets[:warm]),
                algorithm=algorithm,
                tau=tau[:warm] if tau is not None else None)

    t0 = time.perf_counter()
    batch_cong = BatchCongestion()
    route_pairs(router, (sources, targets), algorithm=algorithm, tau=tau,
                congestion=batch_cong)
    batch_secs = time.perf_counter() - t0

    # bit-identical cross-check on the shared subsample
    scalar_cong = scalar_congestion(
        net, sources[:m], targets[:m], algorithm,
        tau[:m] if tau is not None else None)
    sub = BatchCongestion()
    route_pairs(router, (sources[:m], targets[:m]), algorithm=algorithm,
                tau=tau[:m] if tau is not None else None, congestion=sub)
    parity = sub.summary(net.n) == scalar_cong.summary(net.n)

    summary = batch_cong.summary(net.n)
    return {
        "algorithm": algorithm,
        "n": net.n,
        "rho": float(net.smoothness()),
        "lookups": lookups,
        "scalar_sample": m,
        "compile_secs": compile_secs,
        "batch_secs": batch_secs,
        "batch_rate": lookups / batch_secs,
        "parity_ok": bool(parity),
        "max_load": summary["max_load"],
        "mean_load": summary["mean_load"],
        "max_congestion": summary["max_congestion"],
        "cong_norm": summary["max_congestion"] * net.n / math.log2(net.n),
        "total_messages": summary["total_messages"],
    }


def format_congestion_report(result: Dict) -> str:
    """Human-readable multi-line summary of one measurement dict."""
    lines = [
        f"network: n={result['n']}  rho={result['rho']:.2f}  "
        f"algorithm={result['algorithm']}  "
        f"(router compiled in {result['compile_secs']:.3f}s)",
        f"batch : {result['lookups']:>8} lookups routed+accounted in "
        f"{result['batch_secs']:.3f}s  = {result['batch_rate']:>12,.0f} "
        f"lookups/sec",
        f"max_load: {result['max_load']:.0f}   max_congestion: "
        f"{result['max_congestion']:.5f}  "
        f"(·n/log n = {result['cong_norm']:.2f})",
        f"accounting parity (summary() on {result['scalar_sample']} "
        f"scalar-replayed lookups): "
        f"{'PASS' if result['parity_ok'] else 'FAIL'}",
    ]
    return "\n".join(lines)


@register("E4")
def run(seed: int = 4, quick: bool = False) -> ExperimentResult:
    sizes = [256, 1024] if quick else [1024, 4096, 16384]
    lookups = 4000 if quick else 60_000
    cross_check = 300 if quick else 500
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
        counters: Dict[str, BatchCongestion] = {}
        for name in ("fast", "dh"):
            cong = BatchCongestion()
            route_pairs(router, (sources, targets), algorithm=name,
                        tau=tau if name == "dh" else None,
                        congestion=cong)
            counters[name] = cong
        if n == sizes[0]:
            # scalar cross-check: identical sub-workload, identical stats
            m = min(lookups, cross_check)
            for name, _cong in counters.items():
                scal = scalar_congestion(net, sources[:m], targets[:m],
                                          name, tau[:m])
                sub = BatchCongestion()
                route_pairs(router, (sources[:m], targets[:m]),
                            algorithm=name,
                            tau=tau[:m] if name == "dh" else None,
                            congestion=sub)
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
        f"(n={sizes[0]})": parity_ok,
    }
    return ExperimentResult(
        experiment="E4",
        title="Congestion of random lookups (Thm 2.7 / 2.9)",
        paper_claim="max congestion Θ(log n / n) for smooth ids",
        rows=rows,
        checks=checks,
        notes="batch-routed with CSR path accounting "
        "(BatchCongestion); scalar cross-check at the smallest size",
    )
