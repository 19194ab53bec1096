"""Compare two sets of spine results: ``compare.py A_DIR B_DIR``.

Each directory holds the ``<workload>.seed<N>.json`` files one or more
``run.py --all --out DIR`` runs wrote (A is the base — the parent
commit, or the first of two A/A sets; B is the change).  Per workload
and untraced metric the report gives each side's median, its
quartiles and their distance as a share of the median (the spread),
the ratio B/A with its base, and a verdict against the metric's bound
(``BENCHMARK.json``; ``spec.BESIDE`` for the two it does not list):

``worse``
    B's median is worse than A's by more than the bound.
``unresolved``
    not worse, but a side's spread is wider than the bound — the
    metric cannot be called unchanged (unless every run of B reads
    better than every run of A).
``within``
    neither.

It also derives the sharding gain,
``route_sharded.ops_per_s / route_fast.ops_per_s``, for each side.
Exit code 1 on any ``worse``, any rise in ``failed_share``, and any
workload or seed that A has and B lacks: a run that crashed or refused
wrote no result file, and must not pass for want of one.  A workload
neither side has (``route_sharded`` on a 1-CPU box) is skipped.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from spec import BESIDE, END_TO_END, NAMES, UNGATED


def load(directory: str) -> Dict[str, List[dict]]:
    """Untraced result records of a directory, by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and record.get("traced") is False:
            runs[record["workload"]].append(record)
    if not runs:
        raise SystemExit(f"compare: no untraced spine results in {directory}")
    return runs


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``; the spread is (q3 − q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``worse`` / ``unresolved`` / ``within`` for one metric × workload."""
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "worse"
    if max(spread_a, spread_b) > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        if not all_better:
            return "unresolved"
    return "within"


def _values(runs: List[dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in runs]


def _seeds(runs: List[dict]) -> set:
    return {r["provenance"]["seed"] for r in runs}


def _failed_share(runs: List[dict]) -> float:
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def _cell(values: List[float]) -> str:
    med, q1, q3, spread = summary(values)
    return f"{med:.5g} [{q1:.5g}..{q3:.5g}] ±{100 * spread:.1f}%"


def compare(dir_a: str, dir_b: str) -> int:
    """Print the report; returns the exit code."""
    runs_a, runs_b = load(dir_a), load(dir_b)
    bad = 0
    for workload in NAMES + UNGATED:
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        gone = sorted(_seeds(a) - _seeds(b))
        if gone:
            bad += 1
            print(f"{workload}: MISSING in B, seeds {gone}")
        if not a or not b:
            if b:
                print(f"{workload}: no base in A, not compared")
            continue
        print(f"{workload}  (A: {len(a)} runs, B: {len(b)} runs)")
        for metric in END_TO_END + BESIDE:
            name, unit = metric["name"], metric["unit"]
            va, vb = _values(a, name), _values(b, name)
            word = verdict(va, vb, metric["better"], metric["bound"])
            bad += word == "worse"
            base = statistics.median(va)
            ratio = statistics.median(vb) / base
            print(f"  {name:<14} A {_cell(va)}  B {_cell(vb)}  "
                  f"B/A {ratio:.3f} (base {base:.5g} {unit})  "
                  f"bound {metric['bound']:.2f}  {word}")
        fa, fb = _failed_share(a), _failed_share(b)
        rose = fb > fa
        bad += rose
        print(f"  {'failed_share':<14} A {fa:.6g}  B {fb:.6g}  "
              f"{'ROSE' if rose else 'ok'}")
    for side, runs in (("A", runs_a), ("B", runs_b)):
        if runs.get("route_sharded") and runs.get("route_fast"):
            base = statistics.median(_values(runs["route_fast"], "ops_per_s"))
            gain = statistics.median(
                _values(runs["route_sharded"], "ops_per_s")) / base
            print(f"shard.gain {side} {gain:.3f} "
                  f"(base route_fast {base:.5g} ops/s)")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
