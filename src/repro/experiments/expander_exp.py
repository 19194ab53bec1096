"""E12 — the dynamic expander (Thm 5.1, Cor 5.2, Lem 5.3).

Three layers of verification:

1. **continuous** — Monte-Carlo boundary measure of several regions
   under the Gabber–Galil transforms vs the ``(2−√3)/2`` constant;
2. **discrete** — spectral gap and sampled vertex expansion of the
   discretized network across sizes (expansion must not degrade with n —
   the defining property of an expander family);
3. **smoothness** — the §5.3 2D Multiple Choice delivers the Definition 7
   smoothness that *certifies* the expansion (Lemma 5.3), with i.i.d.
   uniform ids as the failing control.
"""

from __future__ import annotations

from typing import Dict, List


from ..balance import TwoDimMultipleChoice, coarse_grid_side, fine_grid_side
from ..balance.two_dim import cell_of
from ..expander import (
    GG_EXPANSION_CONSTANT,
    GabberGalilNetwork,
    sampled_vertex_expansion,
    spectral_gap,
)
from ..sim.rng import spawn_many
from .common import ExperimentResult, register


@register("E12")
def run(seed: int = 12, quick: bool = False) -> ExperimentResult:
    rows: List[Dict] = []
    checks: Dict[str, bool] = {}
    rng = spawn_many(seed * 53, 1)[0]

    # 1. continuous Theorem 5.1
    regions = {
        "quarter-box": lambda p: (p[:, 0] < 0.5) & (p[:, 1] < 0.5),
        "strip-0.3": lambda p: p[:, 0] < 0.3,
        "disc-r0.3": lambda p: ((p[:, 0] - 0.5) ** 2 + (p[:, 1] - 0.5) ** 2) < 0.09,
    }
    cont_ok = True
    for name, region in regions.items():
        mu_a, mu_b = GabberGalilNetwork.continuous_boundary_measure(
            region, rng, samples=60_000 if quick else 200_000
        )
        ratio = mu_b / mu_a
        cont_ok &= ratio >= GG_EXPANSION_CONSTANT * 0.9
        rows.append({"layer": "continuous", "object": name, "n": "-",
                     "mu(A)": round(mu_a, 3), "value": round(ratio, 3),
                     "paper_bound": round(GG_EXPANSION_CONSTANT, 3)})
    checks["Thm 5.1: µ(δA)/µ(A) ≥ (2−√3)/2 on all regions"] = cont_ok

    # 2. discrete expander across sizes
    sizes = [64, 128] if quick else [64, 128, 256, 512]
    gaps, hs = [], []
    for n in sizes:
        nrng = spawn_many(seed * 59 + n, 1)[0]
        net = GabberGalilNetwork(n=n, rng=nrng,
                                 samples_per_cell=16 if quick else 24)
        g = net.to_networkx()
        lam = spectral_gap(g)
        h = sampled_vertex_expansion(g, nrng, trials=48,
                                     positions=net.voronoi.points)
        gaps.append(lam)
        hs.append(h)
        rows.append({"layer": "discrete", "object": "GG network", "n": n,
                     "mu(A)": "-", "value": round(lam, 3),
                     "paper_bound": f"h≥{h:.2f}"})
    checks["Cor 5.2: spectral gap bounded away from 0 at every n"] = min(gaps) > 0.05
    checks["expansion does not degrade with n (family property)"] = (
        min(gaps) >= max(gaps) * 0.3
    )
    checks["sampled vertex expansion ≥ GG-constant/2"] = min(hs) >= (
        GG_EXPANSION_CONSTANT / 2
    )

    # 3. smoothness via 2D multiple choice (Lemma 5.3) vs uniform
    n = 256 if quick else 512
    arng, urng = spawn_many(seed * 61, 2)
    algo = TwoDimMultipleChoice(n, t=4)
    algo.populate(rng=arng)
    fine = fine_grid_side(n)
    cells = [cell_of(p, fine) for p in algo.points]
    mc_collisions = len(cells) - len(set(cells))
    uni = [tuple(p) for p in urng.random((n, 2))]
    uni_cells = [cell_of(p, fine) for p in uni]
    uni_collisions = len(uni_cells) - len(set(uni_cells))
    coarse = coarse_grid_side(n)
    mc_cov = len({cell_of(p, coarse) for p in algo.points}) / coarse**2
    uni_cov = len({cell_of(p, coarse) for p in uni}) / coarse**2
    rows.append({"layer": "smoothness", "object": "2D-MC", "n": n,
                 "mu(A)": f"cov={mc_cov:.2f}", "value": mc_collisions,
                 "paper_bound": "0 collisions"})
    rows.append({"layer": "smoothness", "object": "uniform", "n": n,
                 "mu(A)": f"cov={uni_cov:.2f}", "value": uni_collisions,
                 "paper_bound": "(control)"})
    checks["Lem 5.3: 2D-MC has no fine-cell collisions"] = mc_collisions == 0
    checks["2D-MC coverage beats uniform control"] = mc_cov > uni_cov

    return ExperimentResult(
        experiment="E12",
        title="Dynamic expander (Thm 5.1, Cor 5.2, Lem 5.3)",
        paper_claim="GG expansion (2−√3)/2; smooth discretization expands Ω(1/ρ)",
        rows=rows,
        checks=checks,
    )
