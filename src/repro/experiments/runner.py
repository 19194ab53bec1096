"""Experiment runner: imports all experiment modules and executes them."""

from __future__ import annotations

import pathlib
import zlib
from typing import List, Optional

# importing the modules populates the registry
from . import (  # noqa: F401
    ablations,
    balance,
    balance_churn,
    caching_multi,
    caching_single,
    churn_soak,
    congestion,
    cost_routing,
    emulation_exp,
    expander_exp,
    extensions,
    faults_exp,
    figures,
    pathlen,
    permutation,
    soak,
    structure,
    table1,
    throughput,
    tradeoff,
)
from .common import ExperimentResult, all_experiments, get_experiment

__all__ = ["run_experiments", "EXPERIMENT_IDS"]

EXPERIMENT_IDS = list(all_experiments().keys())


def run_experiments(
    names: Optional[List[str]] = None,
    seed: int = 0,
    quick: bool = False,
    out_dir: Optional[str] = None,
    echo: bool = True,
) -> List[ExperimentResult]:
    """Run selected experiments (all when ``names`` is None/['all'])."""
    if not names or [n.lower() for n in names] == ["all"]:
        names = EXPERIMENT_IDS
    results: List[ExperimentResult] = []
    for name in names:
        key = name.upper()  # the registry's spelling, however it was typed
        fn = get_experiment(key)
        kwargs = {"quick": quick}
        if seed:
            # stable digest: builtin hash() is randomized per process,
            # which would break --seed reproducibility across runs
            kwargs["seed"] = seed + zlib.crc32(key.encode()) % 1000
        res = fn(**kwargs)
        results.append(res)
        if echo:
            print(res.render())
            print()
        if out_dir:
            out = pathlib.Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{res.experiment}.json").write_text(res.to_json())
    if echo:
        passed = sum(r.passed for r in results)
        print(f"=== {passed}/{len(results)} experiments passed all checks ===")
    return results
