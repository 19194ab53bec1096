"""repro — Continuous-Discrete P2P architectures (Naor & Wieder, SPAA 2003).

A full reproduction of the paper's systems:

* :mod:`repro.core` — the Distance Halving DHT, its lookup algorithms and
  the dynamic caching protocol (paper §2–§3);
* :mod:`repro.hashing` — k-wise independent hash families (§2.2.3, §3.4);
* :mod:`repro.balance` — id load-balancing algorithms (§4);
* :mod:`repro.expander` — the Gabber–Galil dynamic expander and 2D name
  space (§5);
* :mod:`repro.faults` — the fault-tolerant overlapping DHT (§6);
* :mod:`repro.emulation` — general graph emulation (§7);
* :mod:`repro.baselines` — Chord / Tapestry / CAN / small-world /
  Viceroy / Koorde comparators (Table 1);
* :mod:`repro.sim` — discrete-event simulation substrate;
* :mod:`repro.experiments` — the paper-vs-measured experiment harness.

Quickstart::

    import numpy as np
    from repro.core import DistanceHalvingNetwork, dh_lookup

    rng = np.random.default_rng(0)
    net = DistanceHalvingNetwork(rng=rng)
    net.populate(256)
    src = net.points()[0]
    res = dh_lookup(net, src, 0.73, rng)
    print(res.hops, res.owner)
"""

__version__ = "1.0.0"

from . import core  # re-export the primary API at package level
from .core import (
    CacheSystem,
    ContinuousGraph,
    DistanceHalvingNetwork,
    SegmentMap,
    dh_lookup,
    fast_lookup,
)

__all__ = [
    "CacheSystem",
    "ContinuousGraph",
    "DistanceHalvingNetwork",
    "SegmentMap",
    "core",
    "dh_lookup",
    "fast_lookup",
    "__version__",
]
