#!/usr/bin/env python
"""Quickstart: build a Distance Halving DHT, store items, route lookups.

Demonstrates the §2 core in ~60 lines:
* servers join with the Multiple Choice id strategy (§4) so the
  decomposition stays smooth;
* data items are hashed into [0,1) and stored at their covering server;
* lookups are routed with both algorithms of §2.2 and verified.

Run:  python examples/quickstart.py
"""

import math

import numpy as np

from repro.balance import MultipleChoice
from repro.core import dh_lookup, fast_lookup
from repro.sim.workload import balanced_network


def main() -> None:
    rng = np.random.default_rng(42)

    print("== joining 256 servers (Multiple Choice ids) ==")
    net = balanced_network(256, rng)
    print(f"n = {net.n}, smoothness ρ = {net.smoothness():.2f}, "
          f"max degree = {max(net.degree(p) for p in net.points())}")
    print(f"edges = {net.edge_count()} (Theorem 2.1 bound: {3 * net.n - 1})")

    print("\n== storing 20 data items ==")
    for i in range(20):
        net.store_item(f"file-{i}.dat", f"contents of file {i}")
    owner = net.item_owner("file-7.dat")
    print(f"'file-7.dat' lives at server {owner.name}")

    print("\n== routing lookups ==")
    pts = list(net.points())
    hops_fast, hops_dh = [], []
    for k in range(200):
        src = pts[int(rng.integers(net.n))]
        key = f"file-{k % 20}.dat"
        target = net.item_hash(key)
        rf = fast_lookup(net, src, target)
        rd = dh_lookup(net, src, target, rng)
        assert rf.server_path[-1] == rd.server_path[-1] == net.item_owner(key).point
        hops_fast.append(rf.hops)
        hops_dh.append(rd.hops)
    print(f"fast lookup:  mean {np.mean(hops_fast):.2f} hops, max {max(hops_fast)} "
          f"(Cor 2.5 bound ≈ {math.log2(net.n) + math.log2(net.smoothness()) + 1:.1f})")
    print(f"DH lookup:    mean {np.mean(hops_dh):.2f} hops, max {max(hops_dh)} "
          f"(Thm 2.8 bound ≈ {2 * math.log2(net.n) + 2 * math.log2(net.smoothness()):.1f})")

    print("\n== churn: 64 leaves + 64 joins, items survive ==")
    for _ in range(64):
        victims = list(net.points())
        net.leave(victims[int(rng.integers(len(victims)))])
        net.join(selector=MultipleChoice(t=4))
    for i in range(20):
        assert net.get_item(f"file-{i}.dat") == f"contents of file {i}"
    print(f"all 20 items retrievable; ρ = {net.smoothness():.2f}")


if __name__ == "__main__":
    main()
