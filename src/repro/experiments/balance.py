"""E10 — id balancing schemes (Lemmas 4.1–4.3, Theorem 4.4).

Grows a decomposition to ``n`` with each §4 strategy and measures the
min/max segment lengths against the per-scheme predictions:

=================  =======================  =====================
scheme             longest segment          shortest segment
=================  =======================  =====================
single choice      Θ(log n / n)             Θ(1/n²)
improved single    O(log n / n)             Θ(1/(n log n))
multiple choice    O(1/n)                   ≥ 1/(4n) w.h.p.
=================  =======================  =====================

Theorem 4.4 (self-correction): from an adversarial initial configuration
of m points, n Multiple-Choice inserts bring the max segment to O(1/n).
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List

import numpy as np

from ..balance import ImprovedSingleChoice, MultipleChoice, SingleChoice
from ..core.segments import SegmentMap
from ..sim.rng import spawn_many
from .common import ExperimentResult, register


def _grow(strategy, n, rng) -> SegmentMap:
    sm = SegmentMap()
    for _ in range(n):
        sm.insert(strategy.select(sm, rng))
    return sm


@register("E10")
def run(seed: int = 10, quick: bool = False) -> ExperimentResult:
    n = 1024 if quick else 4096
    reps = 2 if quick else 3
    rows: List[Dict] = []
    stats: Dict[str, Dict[str, float]] = {}
    for name, strategy in [
        ("single", SingleChoice()),
        ("improved", ImprovedSingleChoice()),
        ("multiple(t=4)", MultipleChoice(t=4)),
    ]:
        mins, maxs, rhos = [], [], []
        for r in range(reps):
            # stable digest: builtin hash() is salted per process
            rng = spawn_many(seed * 41 + r + zlib.crc32(name.encode()) % 97,
                             1)[0]
            sm = _grow(strategy, n, rng)
            mins.append(sm.min_segment_length())
            maxs.append(sm.max_segment_length())
            rhos.append(sm.smoothness())
        stats[name] = {
            "min": float(np.mean(mins)),
            "max": float(np.mean(maxs)),
            "rho": float(np.mean(rhos)),
        }
        rows.append(
            {
                "scheme": name,
                "n": n,
                "min_seg*n": round(stats[name]["min"] * n, 4),
                "max_seg*n/log n": round(stats[name]["max"] * n / math.log(n), 2),
                "rho": round(stats[name]["rho"], 1),
            }
        )
    # Theorem 4.4 self-correction
    rng = spawn_many(seed * 43, 1)[0]
    sm = SegmentMap()
    for i in range(128):
        sm.insert(i * 1e-7)  # adversarial clump
    before = sm.max_segment_length()
    mc = MultipleChoice(t=8)
    for _ in range(n):
        sm.insert(mc.select(sm, rng))
    after = sm.max_segment_length()
    rows.append(
        {
            "scheme": "self-correct(Thm4.4)",
            "n": n,
            "min_seg*n": round(sm.min_segment_length() * n, 6),
            "max_seg*n/log n": round(after * n / math.log(n), 3),
            "rho": round(before / after, 1),
        }
    )
    logn = math.log(n)
    checks = {
        "Lem 4.1: single max ∈ Θ(log n/n)": 0.3 <= stats["single"]["max"] * n / logn <= 5,
        "Lem 4.1: single min ≪ 1/(4n) (n² scale)": stats["single"]["min"] < 1 / (4 * n),
        "Lem 4.2: improved min ∈ Ω(1/(n log n))": stats["improved"]["min"]
        >= 0.05 / (n * logn),
        "Lem 4.2: improved beats single on ρ": stats["improved"]["rho"]
        < stats["single"]["rho"],
        "Lem 4.3: multiple min ≥ 1/(4n)": stats["multiple(t=4)"]["min"] >= 1 / (4 * n),
        "multiple max = O(1/n)": stats["multiple(t=4)"]["max"] <= 8 / n,
        "Thm 4.4: adversarial start corrected to max ≤ 16/n": after <= 16 / n,
    }
    return ExperimentResult(
        experiment="E10",
        title="Id balancing (Lem 4.1–4.3, Thm 4.4)",
        paper_claim="per-scheme min/max segment scales; MC self-corrects",
        rows=rows,
        checks=checks,
        notes=f"n={n}, {reps} repetitions (means shown)",
    )
