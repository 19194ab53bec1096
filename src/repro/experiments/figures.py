"""F1–F4 — regenerating the paper's figures.

The four figures are explanatory diagrams; each generator rebuilds the
depicted object from the implementation and asserts the property the
figure illustrates:

* **Figure 1** — edges of a point (top) and the two half-size images of
  an interval (bottom) in the continuous graph;
* **Figure 2** — the first two layers of the path tree rooted at
  ``h(i) = y`` with positions y/2, y/2+1/2, y/4, …;
* **Figure 3** — an active tree mapped onto server segments (bold tree
  edges, dashed server assignment): every active node is covered by
  exactly one server;
* **Figure 4** — a fault-tolerant lookup's message flooding through all
  covers of each canonical-path point.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..core import ContinuousGraph, DistanceHalvingNetwork
from ..core.caching import ActiveTree
from ..core.pathtree import PathTree
from ..faults import OverlappingDHNetwork, canonical_path
from ..sim.rng import spawn_many
from .common import ExperimentResult, register


@register("F1")
def figure1(seed: int = 101, quick: bool = False) -> ExperimentResult:
    g = ContinuousGraph(2)
    x = 0.3
    from ..core.interval import Arc

    arc = Arc(0.3, 0.5)
    l_img, r_img = g.image_arcs(arc)
    rows = [
        {"object": "point x", "value": x, "l(x)": g.left(x), "r(x)": g.right(x),
         "b(x)": g.backward(x)},
        {"object": "interval [0.3,0.5)", "value": 0.2,
         "l(x)": f"[{l_img.start},{l_img.end})",
         "r(x)": f"[{r_img.start},{r_img.end})", "b(x)": "-"},
    ]
    checks = {
        "l(x)=x/2, r(x)=x/2+1/2": g.left(x) == 0.15 and g.right(x) == 0.65,
        "interval maps to two images of half its size": (
            abs(float(l_img.length) - 0.1) < 1e-12
            and abs(float(r_img.length) - 0.1) < 1e-12
        ),
        "backward edge inverts both": (
            abs(g.backward(g.left(x)) - x) < 1e-12
            and abs(g.backward(g.right(x)) - x) < 1e-12
        ),
    }
    return ExperimentResult("F1", "Figure 1 — continuous edges & interval images",
                            "l,r halve intervals; b inverts", rows, checks)


@register("F2")
def figure2(seed: int = 102, quick: bool = False) -> ExperimentResult:
    y = 0.2  # the figure's h(i) = y
    tree = PathTree(y)
    rows = []
    for j in (0, 1, 2):
        for addr in tree.layer(j):
            rows.append({"depth": j, "address": "".join(map(str, addr)) or "root",
                         "position": round(float(tree.position(addr)), 4)})
    layer1 = sorted(float(tree.position(a)) for a in tree.layer(1))
    layer2 = sorted(float(tree.position(a)) for a in tree.layer(2))
    checks = {
        "layer 1 = {y/2, y/2+1/2}": np.allclose(layer1, [y / 2, y / 2 + 0.5]),
        "layer 2 = {y/4, y/4+1/4, y/4+1/2, y/4+3/4}": np.allclose(
            layer2, [y / 4, y / 4 + 0.25, y / 4 + 0.5, y / 4 + 0.75]
        ),
        "layer spacing ≥ 2^-j (Obs 3.2)": min(
            b - a for a, b in zip(layer2, layer2[1:])
        )
        >= 0.25 - 1e-12,
    }
    return ExperimentResult("F2", "Figure 2 — first layers of the path tree",
                            "children of z are l(z), r(z)", rows, checks)


@register("F3")
def figure3(seed: int = 103, quick: bool = False) -> ExperimentResult:
    # the figure: active tree rooted at h(i)=0.2 over a segmented ring
    rng = spawn_many(seed, 1)[0]
    net = DistanceHalvingNetwork(rng=rng)
    net.populate(16)
    tree = ActiveTree(PathTree(0.2, net.graph), threshold=1)
    # activate two layers like the figure's bold subtree
    tree.active |= {(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)}
    rows: List[Dict] = []
    for addr in sorted(tree.active, key=lambda a: (len(a), a)):
        pos = float(tree.tree.position(addr))
        server = net.segments.cover_point(pos)
        rows.append({"node": "".join(map(str, addr)) or "root",
                     "position": round(pos, 4),
                     "server_segment_start": round(float(server), 4)})
    # every active node maps to exactly one server; multiple nodes may
    # share a server (the figure's dashed many-to-one arrows)
    servers = {r["server_segment_start"] for r in rows}
    checks = {
        "every active node covered by exactly one server": len(rows)
        == tree.size(),
        "several tree nodes can share a server (Lemma 3.5's B_v)": len(servers)
        <= len(rows),
        "tree edges connect network neighbours": all(
            net.are_neighbors(
                net.segments.cover_point(float(tree.tree.position(a))),
                net.segments.cover_point(float(tree.tree.position(a[:-1]))),
            )
            for a in tree.active
            if a != ()
        ),
    }
    return ExperimentResult("F3", "Figure 3 — active tree mapped to servers",
                            "bold tree on I, dashed mapping to segments",
                            rows, checks)


@register("F4")
def figure4(seed: int = 104, quick: bool = False) -> ExperimentResult:
    rng = spawn_many(seed, 1)[0]
    net = OverlappingDHNetwork(128, rng)
    src = net.points[5]
    target = 0.77
    path = canonical_path(net, src, target)
    rows = []
    layer_sizes = []
    for k, point in enumerate(path):
        covers = net.covers(point)
        layer_sizes.append(len(covers))
        rows.append({"hop": k, "point": round(float(point), 4),
                     "covers": len(covers)})
    logn = math.log2(net.n)
    checks = {
        "message passes through Θ(log n) covers at every hop": min(layer_sizes)
        >= logn / 4
        and max(layer_sizes) <= 4 * logn,
        "path length ≤ log n + O(1)": len(path) - 1 <= logn + 3,
    }
    return ExperimentResult("F4", "Figure 4 — flooding through all covers",
                            "the message is sent through all servers covering the path",
                            rows, checks)
