"""X5 — day-in-the-life soak: every subsystem composed on one network.

Not a single paper artefact but the paper's *thesis*: §1 claims the
continuous-discrete approach stays correct and balanced under dynamism.
The :class:`~repro.sim.scenario.ScenarioEngine` exercises that claim
end-to-end — sustained chunked lookup streams, churn waves through the
op-journal router refresh, a Zipf flash crowd through the §3 batch
cache, §6 fail-stop/Byzantine waves with Reed-Solomon read-repair
healing, Multiple-Choice rebalancing, and a §4.1 mass departure — with
the cross-subsystem invariant checker running between phases.

The measurement helper :func:`measure_soak` is shared by this
experiment and the ``soak`` CLI subcommand.  Timing wraps *around* the
deterministic scenario result: the artifact stays byte-reproducible per
seed, wall-clock and memory live in three top-level keys that
:data:`repro.artifacts.VOLATILE_KEYS` strips from ``--json-out``.
"""

from __future__ import annotations

import resource
import time
from typing import Dict

from ..artifacts import strip_volatile
from ..sim.scenario import DEFAULT_CHUNK, DEFAULT_PHASES, ScenarioEngine
from .common import ExperimentResult, register

__all__ = ["measure_soak", "format_soak_report", "deterministic_payload"]


def measure_soak(
    n: int = 4096,
    lookups: int = 1_000_000,
    phases: str = DEFAULT_PHASES,
    chunk: int = DEFAULT_CHUNK,
    seed: int = 0,
    items: int = 24,
    invariants: bool = True,
    strict: bool = True,
    workers: int = 1,
) -> Dict:
    """Run one scripted soak; returns the scenario dict plus timing.

    Everything except ``wall_seconds``, ``krequests_per_sec`` and
    ``peak_rss_mb`` is a pure function of the arguments — including
    under ``workers > 1``, which streams the lookup phases through the
    shared-memory sharded backend with bit-identical results (the
    scenario dict does not record ``workers``, so the deterministic
    payload stays byte-identical across backend choices).
    """
    engine = ScenarioEngine(n=n, lookups=lookups, chunk=chunk, seed=seed,
                            items=items, invariants=invariants,
                            strict=strict, workers=workers)
    t0 = time.perf_counter()
    result = engine.run(phases)
    secs = time.perf_counter() - t0
    result["wall_seconds"] = secs
    result["krequests_per_sec"] = (result["total_requests"] / secs / 1e3
                                   if secs > 0 else 0.0)
    # the process's high-water mark (Linux reports KiB): what the run
    # needed to fit, whichever phase set it
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def deterministic_payload(result: Dict) -> Dict:
    """The artifact view: the result minus its wall-clock and memory keys.

    :func:`repro.artifacts.strip_volatile`, the rule ``--json-out`` applies
    to every bench: NumPy values serialize identically wherever the
    payload is dumped, and same-seed runs give the same bytes.
    """
    return strip_volatile(result)


def format_soak_report(result: Dict) -> str:
    """Human-readable multi-line summary of one soak run."""
    from .common import format_rows

    stats = result["stats"]
    checks = result["invariant_checks"]
    failed = [r for r in result["invariants"] if not r["ok"]]
    lines = [
        f"soak: n={result['n']} -> {result['final_n']}  "
        f"seed={result['seed']}  chunk={result['chunk']}  "
        f"{len(result['phases'])} phases",
        format_rows(result["rows"]),
        f"requests: {result['total_requests']} total  "
        f"({int(stats['route_lookups'])} routed + "
        f"{int(stats['cache_requests'])} cached + "
        f"{int(stats['ft_pairs'])} fault-tolerant)  "
        f"mean hops {stats['mean_hops']:.2f}",
        f"faults: ft success rate {stats['ft_success_rate']:.3f}  "
        f"alive fraction {result['ft_alive_fraction']:.2f}  "
        f"healing: {int(stats['repairs'])} items repaired, "
        f"{int(stats['shares_rebuilt'])} shares rebuilt, "
        f"{int(stats['items_lost'])} lost",
        f"churn: {int(stats['churn_ops'])} membership ops  "
        f"smoothness max {stats['smoothness_max']:.1f}",
        f"invariants: {checks - len(failed)}/{checks} checks passed"
        + ("" if not failed else "  FAILED: " + ", ".join(
            f"{r['phase']}/{r['check']}" for r in failed)),
    ]
    if "wall_seconds" in result:
        lines.append(
            f"wall: {result['wall_seconds']:.2f}s  "
            f"{result['krequests_per_sec']:.1f}k requests/sec  "
            f"peak RSS {result['peak_rss_mb']:.0f} MB")
    return "\n".join(lines)


@register("X5")
def run(seed: int = 29, quick: bool = False) -> ExperimentResult:
    n = 1024 if quick else 4096
    lookups = 20_000 if quick else 200_000
    chunk = 1 << 13 if quick else 1 << 15
    res = measure_soak(n=n, lookups=lookups, chunk=chunk, seed=seed,
                       strict=False)
    checks: Dict[str, bool] = {
        "between-phase invariants all pass (owners, merge identity, "
        "erasure recoverability, cache trees)": res["invariants_ok"],
        "self-healing keeps every item decodable (0 lost)":
            res["healing_ok"],
        "scenario covers >= 6 phase kinds":
            len(set(res["phases"])) >= 6,
        "fault-tolerant success rate >= 0.9":
            res["stats"]["ft_success_rate"] >= 0.9,
        "accumulator memory stays O(chunk): requests >> chunk":
            res["total_requests"] >= 3 * chunk,
    }
    return ExperimentResult(
        experiment="X5",
        title="Day-in-the-life soak (all subsystems, one live network)",
        paper_claim="§1: the continuous-discrete approach stays correct "
        "and balanced under dynamism — churn, faults, flash crowds and "
        "rebalancing composed, with §6.2 erasure shares self-healing",
        rows=res["rows"],
        checks=checks,
    )
