"""E7 + E9 — single-hotspot flash crowd (Obs 3.1, Lem 3.3, Thm 3.6; update).

One item absorbs a flash crowd of ``q`` requests from uniformly random
servers — ``q = 10⁶`` per cell at the full sizes (n up to 16384), far
beyond what the scalar per-request loop could drive.  The stream runs
through the vectorized :class:`~repro.core.batch_cache.BatchCacheEngine`
in arrival-ordered chunks, and in parallel through a **salted** engine
(the same hot key spread over ``s = 4`` deterministic salt points) on
the identical sources and digit strings.  Measured against the paper,
with the load bounds scaled by ``q/n`` (the paper states them for the
one-request-per-server epoch ``q = n``):

* active tree ≤ ``4q/c`` nodes at epoch end (Observation 3.1);
* active depth ≤ ``log₂(q/c) + O(1)`` at the crowd's peak (Lemma 3.3);
* per-server cache hits and messages ``O((q/n)·log² n)`` (Theorem 3.6
  with c = Θ(log n));
* salting strictly lowers the hottest server's hit load on the same
  stream — the §3.4-style mitigation head-to-head;
* E9: a content update reaches every active copy in ≤ depth time and
  ≤ tree-size messages (both O(log n));
* a scalar bit-parity cell at n = 128: the engine's served nodes,
  replication counts and ``summary()`` must replay exactly on the
  scalar :class:`~repro.core.caching.CacheSystem` (PR 4/5 recipe).
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..core import BatchCacheEngine
from ..sim.rng import spawn_many
from ..sim.workload import DH_TAU_DIGITS, balanced_network
from .caching_bench import DEFAULT_CHUNK, trace_parity
from .common import ExperimentResult, register

#: Salt points for the mitigation column (spread factor s).
SALTS = 4


@register("E7")
def run(seed: int = 7, quick: bool = False) -> ExperimentResult:
    sizes = [128, 512] if quick else [1024, 4096, 16384]
    rows: List[Dict] = []
    checks: Dict[str, bool] = {}
    size_ok = depth_ok = hits_ok = msgs_ok = update_ok = True
    salted_ok = beats_ok = True
    for n in sizes:
        rng, route = spawn_many(seed * 29 + n, 2)
        net = balanced_network(n, rng)
        c = max(2, int(math.ceil(math.log2(n))))
        q = 4 * n if quick else 1_000_000
        engine = BatchCacheEngine(net, ["hot"], threshold=c)
        salted = BatchCacheEngine(net, ["hot"], threshold=c, salts=SALTS)
        pts = net.segments.as_array()
        # identical sources AND digit strings for both engines: the
        # salted column is a pure protocol comparison, not rng drift
        for lo in range(0, q, DEFAULT_CHUNK):
            size = min(q, lo + DEFAULT_CHUNK) - lo
            idx = np.zeros(size, dtype=np.int64)
            src = pts[route.integers(0, n, size=size)]
            tau = route.integers(0, net.delta, size=(size, DH_TAU_DIGITS))
            engine.serve_batch(idx, src, tau=tau)
            salted.serve_batch(idx, src, tau=tau)
        depth = engine.tree_depth(0)  # at the crowd's peak
        engine.advance_epoch()
        salted.advance_epoch()
        tree_size = engine.tree_size(0)
        max_hits = int(engine.server_cache_hits().max())
        max_msgs = int(engine.server_messages().max())
        salted_hits = int(salted.server_cache_hits().max())
        upd_msgs, upd_time = engine.content_update(0)
        logn = math.log2(n)
        scale = max(1.0, q / n)
        size_ok &= tree_size <= max(1, 4 * q / c) + 1
        depth_ok &= depth <= math.log2(q / c) + 3
        hits_ok &= max_hits <= 6 * scale * logn**2
        msgs_ok &= max_msgs <= 10 * scale * logn**2
        update_ok &= upd_time <= 2 * logn and upd_msgs <= 4 * q / c
        # Salting spreads one hot structure over s root positions:
        # strict relief is demanded at the headline cell, where the
        # crowd is concentrated enough (q/n ≈ 60) for the split to
        # dominate root-placement luck; the light cells only get a
        # no-blowup bound (at q = Θ(n) the unsalted tree already
        # equalises, so s fresh shallower trees can tie or lose a
        # little to extreme-value effects across their roots).
        salted_ok &= salted_hits <= 1.5 * max_hits
        if not quick and n == sizes[-1]:
            salted_ok &= salted_hits < max_hits
        # caching beats no-caching: the owner alone would take all q
        beats_ok &= q / max(1, max_hits) >= n / (6 * logn**2)
        rows.append(
            {
                "n": n,
                "q": q,
                "c": c,
                "tree_size": tree_size,
                "4q/c": round(4 * q / c, 0),
                "depth": depth,
                "log(q/c)": round(math.log2(q / c), 1),
                "max_hits": max_hits,
                "(q/n)log²n": round(scale * logn**2, 0),
                "max_msgs": max_msgs,
                "salted_hits": salted_hits,
                "upd_msgs": upd_msgs,
                "upd_time": upd_time,
            }
        )
    # scalar bit-parity cell (always run; scalar-affordable size)
    pn, pq = 128, 400
    prng, proute = spawn_many(seed * 29 + pn + 1, 2)
    pnet = balanced_network(pn, prng)
    p_pts = pnet.segments.as_array()
    p_idx = np.zeros(pq, dtype=np.int64)
    p_src = p_pts[proute.integers(0, pn, size=pq)]
    p_tau = proute.integers(0, 2, size=(pq, DH_TAU_DIGITS))
    parity_ok = trace_parity(pnet, ["hot"], p_idx, p_src, p_tau,
                             threshold=5, epochs=2)
    parity_ok &= trace_parity(pnet, ["hot"], p_idx, p_src, p_tau,
                              threshold=5, salts=SALTS, epochs=2)

    checks["Obs 3.1: tree ≤ 4q/c after epoch"] = size_ok
    checks["Lem 3.3: depth ≤ log(q/c)+O(1)"] = depth_ok
    checks["Thm 3.6: max cache hits O((q/n)·log² n)"] = hits_ok
    checks["Thm 3.6: max messages O((q/n)·log² n)"] = msgs_ok
    checks[f"salting (s={SALTS}) relieves the hottest server"] = salted_ok
    checks["E9: content update ≤ O(log n) time, ≤ 4q/c messages"] = update_ok
    checks["caching beats no-caching by ≥ n/log² n"] = beats_ok
    checks["batch/scalar bit parity at n=128 (plain + salted)"] = bool(parity_ok)
    return ExperimentResult(
        experiment="E7",
        title="Flash-crowd relief at scale (Obs 3.1, Lem 3.3, Thm 3.6) + E9 update",
        paper_claim="tree ≤ 4q/c, depth ≤ log(q/c)+O(1), hits/messages O(log² n)",
        rows=rows,
        checks=checks,
    )
