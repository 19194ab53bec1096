"""Batch caching measurement (§3 protocol at throughput scale).

The measurement helper :func:`measure_caching` drives a Zipf hot-key
request stream through the vectorized
:class:`~repro.core.batch_cache.BatchCacheEngine` and times it, with two
verdicts attached:

* ``parity_ok`` — on a ``PARITY_N``-server side network the batch engine
  and the scalar :class:`~repro.core.caching.CacheSystem` replay an
  identical tau-pinned trace and must agree bit-for-bit (served nodes,
  replication counts, active sets, ``summary()``);
* ``salted_ok`` — on a single-hotspot stream at the headline size, the
  salted mitigation mode must cut the hottest server's cache-hit load
  below the unsalted path-caching protocol's.

Run by the ``bench-caching`` CLI subcommand (and so by the CI
bench-artifact smoke step).
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

import numpy as np

from .. import checks
from ..core import BatchCacheEngine, CacheSystem
from ..sim.rng import spawn_many
from ..sim.workload import (balanced_network, demand_stream,
                            single_hotspot_demands, zipf_demands)

__all__ = ["measure_caching", "format_caching_report", "drive_chunked",
           "trace_parity"]

#: Requests per serve_batch call: big enough to amortise the fixpoint,
#: small enough to keep the per-chunk working set in cache-friendly range.
DEFAULT_CHUNK = 1 << 17

#: The scalar-bound trace replay: its side network's size and its
#: request count (at most the stream's).
PARITY_N = 512
PARITY_REQUESTS = 1200


def drive_chunked(engine, item_idx, sources, rng=None, tau=None,
                  chunk: int = DEFAULT_CHUNK):
    """Serve a long stream through ``engine`` in sequential chunks.

    Chunk boundaries are semantically invisible (`serve_batch` preserves
    arrival order inside and between calls); this just bounds memory.
    """
    total = len(item_idx)
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        engine.serve_batch(item_idx[lo:hi], sources[lo:hi], rng=rng,
                           tau=tau[lo:hi] if tau is not None else None)


def trace_parity(net, items, item_idx, sources, tau, threshold, salts=1,
                 epochs=None) -> bool:
    """Replay one tau-pinned trace on both engines; True iff bit-identical.

    Splits the trace into ``epochs`` segments (default 1) with an
    ``advance_epoch`` at each boundary, checking served nodes and hop
    counts per request, then per-tree active sets / counters /
    replication totals and the ``summary()`` digest after every epoch.
    """
    eng = BatchCacheEngine(net, items, threshold=threshold, salts=salts)
    scal = CacheSystem(net, threshold=threshold, salts=salts)
    dummy = np.random.default_rng(0)
    bounds = np.array_split(np.arange(len(item_idx)), epochs or 1)
    for segment in bounds:
        if segment.size == 0:
            continue
        lo, hi = int(segment[0]), int(segment[-1]) + 1
        res = eng.serve_batch(item_idx[lo:hi], sources[lo:hi], tau=tau[lo:hi])
        for k, i in enumerate(range(lo, hi)):
            r = scal.request(items[int(item_idx[i])], float(sources[i]),
                             dummy, tau=tuple(int(d) for d in tau[i]))
            if res.serving_node(k) != r.serving_node:
                return False
            if int(res.hops[k]) != r.hops:
                return False
        if eng.advance_epoch() != scal.advance_epoch():
            return False
        if eng.summary() != scal.summary():
            return False
    # active-set / replication parity over every materialised tree
    from ..core.caching import salted_key
    for k, item in enumerate(items):
        for j in range(salts):
            tree = eng.tree_index(k, j)
            key = item if salts == 1 else salted_key(item, j)
            st = scal.trees.get(key)
            active = set(st.active) if st is not None else {()}
            reps = st.replications if st is not None else 0
            if eng.active_set(tree) != active:
                return False
            if eng.tree_replications(tree) != reps:
                return False
    return True


def measure_caching(
    n: int = 16384,
    requests: int = 1_000_000,
    seed: int = 0,
    n_items: int = 64,
    salts: int = 4,
    exponent: float = 1.2,
    threshold: Optional[int] = None,
    hotspot_requests: Optional[int] = None,
    chunk: int = DEFAULT_CHUNK,
) -> Dict:
    """Serve ``requests`` Zipf(``exponent``) cache requests in batches.

    Builds an ``n``-server Multiple-Choice-balanced network,
    expands a Zipf demand over ``n_items`` items into a shuffled arrival
    stream, and times the chunked batch drive (including the end-of-epoch
    collapse).  Adds the tau-pinned scalar parity replay on a
    ``PARITY_N``-server network and the salted-vs-unsalted hotspot
    comparison at the headline size.  Returns the batch rate, cache
    statistics, and both verdicts.
    """
    checks.count(requests, "requests", 1)
    # the hotspot comparison draws from its own stream, so no other leg
    # moves its outcome by drawing more or fewer digits
    build_rng, route, hot_rng = spawn_many(seed * 29 + n, 3)
    net = balanced_network(n, build_rng)

    items = [f"item{i}" for i in range(n_items)]
    demands = zipf_demands(n_items, requests, route, exponent=exponent)
    stream = demand_stream(demands, route)
    pts = net.segments.as_array()
    sources = pts[route.integers(0, n, size=requests)]

    t0 = time.perf_counter()
    engine = BatchCacheEngine(net, items, threshold=threshold)
    compile_secs = time.perf_counter() - t0

    t0 = time.perf_counter()
    drive_chunked(engine, stream, sources, rng=route, chunk=chunk)
    engine.advance_epoch()
    batch_secs = time.perf_counter() - t0

    # bit-parity replay: full trace on a scalar-affordable side network
    prng, proute = spawn_many(seed * 31 + PARITY_N, 2)
    pnet = balanced_network(PARITY_N, prng)
    pq = min(PARITY_REQUESTS, requests)
    p_items = items[: min(n_items, 16)]
    p_idx = proute.integers(0, len(p_items), size=pq)
    p_src = pnet.segments.as_array()[proute.integers(0, PARITY_N, size=pq)]
    p_tau = proute.integers(0, 2, size=(pq, 64))
    parity_ok = trace_parity(pnet, p_items, p_idx, p_src, p_tau,
                             threshold=threshold, epochs=2)
    parity_ok &= trace_parity(pnet, p_items, p_idx, p_src, p_tau,
                              threshold=threshold, salts=max(2, salts // 2),
                              epochs=2)

    # hotspot mitigation: same stream, same digits, salted vs unsalted.
    # The crowd must be concentrated (q/n well above 1) for the s-way
    # split to dominate root-placement luck, so default to the full
    # request scale rather than a small sample.
    hq = hotspot_requests if hotspot_requests is not None else min(
        requests, 1_000_000)
    hot_stream = demand_stream(single_hotspot_demands(1, hq), hot_rng)
    hot_src = pts[hot_rng.integers(0, n, size=hq)]
    hot_tau = hot_rng.integers(0, net.delta, size=(hq, 64))
    plain = BatchCacheEngine(net, ["hot"], threshold=threshold)
    drive_chunked(plain, hot_stream, hot_src, tau=hot_tau, chunk=chunk)
    salted = BatchCacheEngine(net, ["hot"], threshold=threshold, salts=salts)
    drive_chunked(salted, hot_stream, hot_src, tau=hot_tau, chunk=chunk)
    plain_max = int(plain.server_cache_hits().max())
    salted_max = int(salted.server_cache_hits().max())
    salted_ok = salted_max < plain_max

    summary = engine.summary()
    return {
        "n": net.n,
        "rho": float(net.smoothness()),
        "requests": requests,
        "n_items": n_items,
        "threshold_c": int(engine.c),
        "zipf_exponent": exponent,
        "compile_secs": compile_secs,
        "batch_secs": batch_secs,
        "batch_rate": requests / batch_secs,
        "parity_n": PARITY_N,
        "parity_ok": bool(parity_ok),
        "salts": salts,
        "hotspot_requests": hq,
        "unsalted_max_hits": plain_max,
        "salted_max_hits": salted_max,
        "salted_reduction": plain_max / salted_max if salted_max else math.inf,
        "salted_ok": bool(salted_ok),
        "max_cache_hits": summary["max_cache_hits"],
        "max_messages": summary["max_messages"],
        "max_items_cached": summary["max_items_cached"],
        "total_copies": summary["total_copies"],
    }


def format_caching_report(result: Dict) -> str:
    """Human-readable multi-line summary of one measurement dict."""
    lines = [
        f"network: n={result['n']}  rho={result['rho']:.2f}  "
        f"c={result['threshold_c']}  items={result['n_items']}  "
        f"Zipf({result['zipf_exponent']})  "
        f"(engine compiled in {result['compile_secs']:.3f}s)",
        f"batch : {result['requests']:>8} requests cache-served in "
        f"{result['batch_secs']:.3f}s  = {result['batch_rate']:>12,.0f} "
        f"requests/sec",
        f"max_hits: "
        f"{result['max_cache_hits']:.0f}   copies: "
        f"{result['total_copies']:.0f}   items/server ≤ "
        f"{result['max_items_cached']:.0f}",
        f"salting: hotspot max hits {result['unsalted_max_hits']} -> "
        f"{result['salted_max_hits']} with s={result['salts']} "
        f"({result['salted_reduction']:.1f}x relief)  "
        f"{'PASS' if result['salted_ok'] else 'FAIL'}",
        f"trace parity (served nodes/replications/summary, "
        f"n={result['parity_n']}): "
        f"{'PASS' if result['parity_ok'] else 'FAIL'}",
    ]
    return "\n".join(lines)
