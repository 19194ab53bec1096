"""E5 — permutation routing (Theorems 2.10, 2.11).

All ``n`` servers route simultaneously: Theorem 2.10 bounds the max
per-server load by ``O(log n)`` w.h.p. for *every* permutation (the
Valiant-style randomisation defeats adversarial patterns — we include
bit-reversal, the classic killer of deterministic oblivious routing, and
a cyclic shift); Theorem 2.11 extends this to hashed distinct items
under a ``log n``-wise independent hash.

As a contrast column we also route the same permutations with the
*deterministic* Fast Lookup, where adversarial patterns do hurt.

Every workload is routed as **one batch** through
``net.router(auto_refresh=True)`` with CSR path accounting (booked into
a :class:`~repro.core.routing_stats.BatchCongestion`), scaling the sweep
from the old 1024-server scalar-loop ceiling to 16384; at the smallest
size the bit-reversal workload is replayed through the scalar engine
(same dh digit strings) and the accountings must match bit-for-bit.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..hashing.kwise import KWiseHash
from ..sim.workload import (
    DH_TAU_DIGITS,
    balanced_network,
    bit_reversal_permutation,
    random_permutation,
    shift_permutation,
)
from ..sim.rng import spawn_many
from .common import ExperimentResult, register
from .congestion import routed_tally, scalar_congestion


@register("E5")
def run(seed: int = 5, quick: bool = False) -> ExperimentResult:
    sizes = [128, 512] if quick else [1024, 4096, 16384]
    rows: List[Dict] = []
    norm_dh: List[float] = []
    adversarial_gaps: List[float] = []
    parity_ok = True
    for n in sizes:
        rng, route, hrng = spawn_many(seed * 19 + n, 3)
        net = balanced_network(n, rng)
        router = net.router(auto_refresh=True, with_adjacency=True)
        pts = net.segments.as_array()
        h = KWiseHash(max(8, int(math.log2(n))), hrng)
        workloads = {
            "random-perm": random_permutation(pts, route),
            "bit-reversal": bit_reversal_permutation(pts),
            "shift-half": shift_permutation(pts, 0.5),
            "hashed-items": (pts, np.array([h(f"item-{i}")
                                            for i in range(n)])),
        }
        row: Dict = {"n": n, "log2n": round(math.log2(n), 1)}
        for name, (srcs, tgts) in workloads.items():
            tau = route.integers(0, net.delta, size=(n, DH_TAU_DIGITS))
            load_dh = routed_tally(router, "dh", srcs, tgts, tau).max_load()
            row[f"{name}_dh"] = load_dh
            norm_dh.append(load_dh / math.log2(n))
            if name == "bit-reversal":
                fast_tally = routed_tally(router, "fast", srcs, tgts, None)
                load_fast = fast_tally.max_load()
                row["bit-reversal_fast"] = load_fast
                adversarial_gaps.append(load_fast / max(1, load_dh))
                if n == sizes[0]:
                    # scalar cross-check: same pairs, same digit
                    # strings, bit-identical accounting
                    tau = route.integers(0, net.delta, size=(n, DH_TAU_DIGITS))
                    batch = routed_tally(router, "dh", srcs, tgts, tau)
                    for tally, algo in ((batch, "dh"), (fast_tally, "fast")):
                        scal = scalar_congestion(net, srcs, tgts, algo, tau)
                        parity_ok &= tally.summary(n) == scal.summary(n)
        rows.append(row)
    checks = {
        "Thm 2.10/2.11: DH max load ≤ c·log n on every workload": max(norm_dh)
        <= 8.0,
        "load is Ω(log n) too (averaging argument)": min(norm_dh) >= 0.5,
        "randomisation value: deterministic fast lookup worse on ≥1 "
        "adversarial size": max(adversarial_gaps) >= 1.2,
        f"batch CSR accounting bit-identical to scalar counters "
        f"(n={sizes[0]}, bit-reversal)": parity_ok,
    }
    return ExperimentResult(
        experiment="E5",
        title="Permutation routing load (Thm 2.10 / 2.11)",
        paper_claim="max per-server load O(log n) w.h.p. for every permutation",
        rows=rows,
        checks=checks,
        notes="columns: max messages handled by any server when all n "
        "route at once; workloads batch-routed with CSR accounting",
    )
