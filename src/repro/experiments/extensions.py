"""X1/X2 — extension experiments for remarks the paper leaves as asides.

X1 (§6.2 closing remark): storing items with an erasure code over the
replica clique instead of replication — same fault tolerance, a fraction
of the bytes (the Weatherspoon–Kubiatowicz comparison).

X2 (§1 footnote 1): iterative vs recursive lookup on the message level —
the combinatorial path is identical, but the transport cost is ≈2× and
the requester's visibility differs; measured on the discrete-event
protocol stack.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..faults import ErasureStore, OverlappingDHNetwork, random_failstop
from ..sim.protocol import build_protocol_network, run_protocol_lookup
from ..sim.rng import spawn_many
from ..sim.workload import balanced_network
from .common import ExperimentResult, register


@register("X1")
def erasure_vs_replication(seed: int = 301, quick: bool = False) -> ExperimentResult:
    n = 128 if quick else 512
    item_bytes = 4096
    trials = 20 if quick else 60
    rng = spawn_many(seed, 1)[0]
    net = OverlappingDHNetwork(n, rng)
    rows: List[Dict] = []
    avail: Dict[str, float] = {}
    storage: Dict[str, int] = {}
    for frac, label in ((0.5, "erasure k=n/2"), (1.0, "replication-equiv k=1")):
        if frac == 1.0:
            # plain replication: every cover stores the full item
            group = net.covers(net.item_hash("doc"))
            storage[label] = len(group) * item_bytes
            ok = 0
            for _ in range(trials):
                plan = random_failstop(net.points, 0.25, rng)
                ok += any(s not in plan.failed for s in group)
            avail[label] = ok / trials
            tol = len(group) - 1
        else:
            store = ErasureStore(net, data_fraction=frac)
            store.put("doc", b"x" * item_bytes)
            storage[label] = store.storage_bytes("doc")
            tol = store.tolerance("doc")
            ok = 0
            for _ in range(trials):
                plan = random_failstop(net.points, 0.25, rng)
                alive = set(net.points) - plan.failed
                try:
                    ok += store.get("doc", alive=alive) == b"x" * item_bytes
                except ValueError:
                    pass
            avail[label] = ok / trials
        rows.append({"scheme": label, "bytes_stored": storage[label],
                     "loss_tolerance": tol,
                     "availability@p=0.25": round(avail[label], 3)})
    checks = {
        "erasure stores ≈ half the bytes of replication": storage["erasure k=n/2"]
        <= 0.7 * storage["replication-equiv k=1"],
        # at p=0.25 the k=n/2 code's failure tail P(> n/2 of ~log n
        # shares lost) is ≈ 2%, so ≥ 0.9 demonstrates the trade cleanly
        "availability at p=0.25 ≥ 0.9 for both": min(avail.values()) >= 0.9,
    }
    return ExperimentResult("X1", "Erasure coding vs replication (§6.2 remark)",
                            "erasure codes beat replication in storage at equal "
                            "availability (Weatherspoon–Kubiatowicz)",
                            rows, checks,
                            notes=f"{item_bytes}-byte item, {trials} fail-stop draws at p=0.25")


@register("X2")
def iterative_vs_recursive(seed: int = 302, quick: bool = False) -> ExperimentResult:
    n = 64 if quick else 256
    lookups = 60 if quick else 200
    rng, route = spawn_many(seed, 2)
    net = balanced_network(n, rng)
    sim = build_protocol_network(net, latency=lambda a, b: 1.0)
    pts = list(net.points())
    rows: List[Dict] = []
    stats: Dict[str, Dict[str, float]] = {}
    for style in ("recursive", "iterative"):
        msgs, hops, ok = [], [], 0
        for k in range(lookups):
            src = pts[int(route.integers(n))]
            out = run_protocol_lookup(sim, net, src, float(route.random()),
                                      route, style=style, request_id=k)
            ok += out.done
            msgs.append(out.messages)
            hops.append(out.hops)
        stats[style] = {"msgs": float(np.mean(msgs)), "hops": float(np.mean(hops)),
                        "ok": ok / lookups}
        rows.append({"style": style, "success": ok / lookups,
                     "mean_msgs": round(float(np.mean(msgs)), 1),
                     "mean_hops": round(float(np.mean(hops)), 1)})
    checks = {
        "both styles always reach the owner": all(
            s["ok"] == 1.0 for s in stats.values()
        ),
        "iterative costs ≥1.5× the messages (fn. 1)": stats["iterative"]["msgs"]
        >= 1.5 * stats["recursive"]["msgs"],
        "combinatorial hops comparable (same algorithm)": abs(
            stats["iterative"]["hops"] - stats["recursive"]["hops"]
        )
        <= 0.35 * stats["recursive"]["hops"],
    }
    return ExperimentResult("X2", "Iterative vs recursive lookup (fn. 1)",
                            "transport style changes cost, not the algorithm",
                            rows, checks, notes=f"n={n}, {lookups} lookups, unit latency")
