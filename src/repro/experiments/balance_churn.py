"""E11 — smoothness under deletions: the bucket solution (§4.1).

The paper's motivating observation: delete each of 2n smooth points with
probability ½ and w.h.p. some Ω(log n) consecutive run disappears,
leaving a segment of length Ω(log n / n).  The bucket scheme
(Θ(log n)-server coordination groups) repairs this.  We measure the
post-deletion smoothness of

* the naive rule (predecessor absorbs, no rebalancing),
* Multiple-Choice ids with naive deletions,
* the bucket balancer,

plus the bucket scheme's amortised id-movement cost.
"""

from __future__ import annotations

import math
from typing import Dict, List


from ..balance import BucketBalancer, MultipleChoice
from ..core.segments import SegmentMap
from ..sim.rng import spawn_many
from .common import ExperimentResult, register


@register("E11")
def run(seed: int = 11, quick: bool = False) -> ExperimentResult:
    n = 512 if quick else 2048
    rows: List[Dict] = []
    rng1, rng2, rng3, rng4 = spawn_many(seed * 47, 4)

    # naive: uniform ids, delete half
    sm = SegmentMap()
    pts = []
    for _ in range(2 * n):
        p = float(rng1.random())
        if p not in sm:
            sm.insert(p)
            pts.append(p)
    rng1.shuffle(pts)
    for p in pts[:n]:
        sm.remove(p)
    naive_rho = sm.smoothness()
    naive_max = sm.max_segment_length()
    rows.append({"scheme": "naive(single ids)", "n_after": len(sm),
                 "rho": round(naive_rho, 1),
                 "max_seg*n/logn": round(naive_max * len(sm) / math.log(len(sm)), 2),
                 "id_moves/op": 0.0})

    # multiple choice ids, naive deletions
    sm2 = SegmentMap()
    mc = MultipleChoice(t=4)
    pts2 = []
    for _ in range(2 * n):
        p = mc.select(sm2, rng2)
        sm2.insert(p)
        pts2.append(p)
    rng2.shuffle(pts2)
    for p in pts2[:n]:
        sm2.remove(p)
    mc_rho = sm2.smoothness()
    rows.append({"scheme": "multiple-choice ids", "n_after": len(sm2),
                 "rho": round(mc_rho, 1),
                 "max_seg*n/logn": round(sm2.max_segment_length() * len(sm2) / math.log(len(sm2)), 2),
                 "id_moves/op": 0.0})

    # bucket balancer
    bb = BucketBalancer(rebalance_threshold=3.0)
    handles = [bb.join(rng3) for _ in range(2 * n)]
    rng3.shuffle(handles)
    for h in handles[:n]:
        bb.leave(h, rng3)
    bb.check_invariants()
    bucket_rho = bb.smoothness()
    moves_per_op = bb.total_id_changes / (3 * n)
    rows.append({"scheme": "bucket(§4.1)", "n_after": bb.n,
                 "rho": round(bucket_rho, 1),
                 "max_seg*n/logn": round(
                     bb.segments.max_segment_length() * bb.n / math.log(bb.n), 2),
                 "id_moves/op": round(moves_per_op, 2)})

    logn = math.log2(n)
    checks = {
        "naive deletions blow up ρ (≫ polylog)": naive_rho > logn**1.5,
        "MC ids alone do not survive deletions": mc_rho > 8,
        "bucket scheme keeps ρ polylog": bucket_rho <= 4 * logn**2,
        "bucket beats naive by ≥ 4x on ρ": naive_rho / bucket_rho >= 4,
        "amortised id moves per op modest (≤ 2 log² n)": moves_per_op
        <= 2 * logn**2,
    }
    return ExperimentResult(
        experiment="E11",
        title="Smoothness under deletions — bucket scheme (§4.1)",
        paper_claim="naive deletion leaves Ω(log n/n) gaps; buckets repair",
        rows=rows,
        checks=checks,
        notes=f"2n = {2*n} joins then n = {n} random deletions",
    )
