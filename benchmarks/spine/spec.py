"""``BENCHMARK.json``, read once.

The file at the repo root is the single definition of every metric's
name, unit, direction and bound and of the names and reasons of the
workloads the driver runs; the modules here attach behaviour to those
names.  The four workloads the driver does not run are named here.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["SPEC", "NAMES", "UNGATED", "END_TO_END", "BESIDE", "PER_LAYER"]

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: The workloads the driver runs and gates on.
NAMES = tuple(w["name"] for w in SPEC["workloads"])
#: Workloads ``run.py`` runs and ``compare.py`` reports beside them, but
#: the driver does not.  Its 3420 s hold 22 runs of each workload, and a
#: run has to last half a minute for ten of them to be steady on this
#: box (README, "Steadiness"): that is three or four workloads, not
#: seven.  The first three layers here — snapshot refresh, cache, faults
#: — are phases of ``soak_day``; and ROADMAP has sharding fixed *or
#: removed*, which a workload the driver gates on would forbid.
UNGATED = ("churn_mixed", "flash_cache", "faults_ft", "route_sharded")
#: ``{name, unit, better, bound}`` per end-to-end metric.
END_TO_END = SPEC["end_to_end"]
#: Two more untraced metrics, measured, printed, stored and compared
#: like the end-to-end ones but not in ``BENCHMARK.json``, so the driver
#: does not gate on them.  On the single-process workloads they are the
#: readings ``ops_per_s`` is made of, turned upside down — and a time
#: that is 1/rate crosses a 25% bound when the box runs 1.25x slower,
#: the rate only at 1.33x; two sets of one commit an hour apart read
#: 1.26x apart here.  They say something of their own on
#: ``route_sharded`` (CPU bought for wall clock), which is not gated.
BESIDE = [
    {"name": "batch_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "cpu_s_per_mop", "unit": "s/Mop", "better": "lower",
     "bound": 0.25},
]
#: ``{name, unit, better}`` per per-layer metric.
PER_LAYER = SPEC["per_layer"]
