#!/usr/bin/env python
"""Asynchronous message-passing swarm: many lookups in flight at once.

The paper's analysis is hop-count-based with "no implied assumption of
synchrony" (§2.2 fn. 4).  This example injects a burst of concurrent
lookups into the discrete-event protocol network, where every message
takes a random delay, so their messages interleave in arbitrary order;
each node routes with only its local segment and neighbour table.  It
then cross-checks every path against the reference implementation run
on the same digits.

Run:  python examples/async_swarm.py
"""

import numpy as np

from repro.core import dh_lookup
from repro.sim.protocol import build_protocol_network, run_protocol_lookups
from repro.sim.workload import balanced_network

rng = np.random.default_rng(3)
net = balanced_network(128, rng)
pts = list(net.points())
queries = [(pts[int(rng.integers(net.n))], float(rng.random()))
           for _ in range(200)]
seeds = rng.integers(2**32, size=200)

delay = np.random.default_rng(4)
sim = build_protocol_network(
    net, latency=lambda a, b: float(delay.exponential()))
outs = run_protocol_lookups(sim, net, queries,
                            [np.random.default_rng(s) for s in seeds])
print(f"routed {len(outs)} concurrent lookups over {net.n} servers, "
      "exponential per-message delays")

hops = [o.hops for o in outs]
print(f"hops: mean {np.mean(hops):.2f}, max {max(hops)}")
finished = sorted(range(200), key=lambda k: outs[k].completed_at)
print(f"{sum(k != f for k, f in enumerate(finished))}/200 lookups finished "
      "out of injection order")

# verify against the deterministic reference, digit for digit
mismatches = sum(
    o.path != dh_lookup(net, s, t, np.random.default_rng(seed)).server_path
    for (s, t), seed, o in zip(queries, seeds, outs))
print(f"asynchrony changed {mismatches}/200 paths "
      "(0 expected: same digits ⇒ same route)")

busiest = max(node.received for node in sim.nodes.values())
print(f"busiest server received {busiest} messages "
      f"(Θ(log n) per lookup spread over {net.n} servers)")
