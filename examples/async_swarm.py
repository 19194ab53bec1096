#!/usr/bin/env python
"""Asynchronous message-passing swarm: the DHT under real concurrency.

The paper's analysis is hop-count-based with "no implied assumption of
synchrony" (§2.2 fn. 4).  This example runs every server as an asyncio
task with an inbox and routes a burst of concurrent lookups purely by
message passing — each node uses only its local segment and neighbour
table — then cross-checks the asynchronously-routed paths against the
deterministic reference implementation.

Run:  python examples/async_swarm.py
"""

import asyncio

import numpy as np

from repro.core import dh_lookup
from repro.sim.asyncnet import AsyncDHNetwork
from repro.sim.workload import balanced_network


async def swarm() -> None:
    rng = np.random.default_rng(3)
    net = balanced_network(128, rng)
    pts = list(net.points())

    fabric = AsyncDHNetwork(net, rng, latency=0.0)
    await fabric.start()
    try:
        print(f"== {net.n} asyncio server tasks started ==")
        queries = []
        taus = []
        for _ in range(200):
            src = pts[int(rng.integers(net.n))]
            tgt = float(rng.random())
            tau = [int(d) for d in rng.integers(0, 2, size=64)]
            queries.append((src, tgt))
            taus.append(tau)
        paths = await asyncio.gather(
            *(fabric.lookup(s, t, tau=tau) for (s, t), tau in zip(queries, taus))
        )
        print(f"routed {len(paths)} concurrent lookups")

        hops = [len(p) - 1 for p in paths]
        print(f"hops: mean {np.mean(hops):.2f}, max {max(hops)}")

        # verify against the deterministic reference, digit for digit
        mismatches = 0
        check_rng = np.random.default_rng(0)
        for (src, tgt), tau, path in zip(queries, taus, paths):
            ref = dh_lookup(net, src, tgt, check_rng, tau=tau)
            if ref.server_path != path:
                mismatches += 1
        print(f"asynchrony changed {mismatches}/200 paths "
              f"(0 expected: same τ ⇒ same route)")

        busiest = max(fabric.servers.values(), key=lambda s: s.handled)
        print(f"busiest server handled {busiest.handled} messages "
              f"(Θ(log n) per lookup spread over {net.n} servers)")
    finally:
        await fabric.stop()


if __name__ == "__main__":
    asyncio.run(swarm())
