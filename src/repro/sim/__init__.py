"""Simulation substrate: event engine, workloads, churn, soak scenarios.

The asyncio runtime lives in :mod:`repro.sim.asyncnet` and is imported
from there, so importing this package never loads ``asyncio``.
"""

from .churn import ChurnOp, ChurnReport, ChurnTrace, run_churn
from .engine import Event, EventLoop, Message, SimNetwork, SimNode
from .protocol import (
    DHProtocolNode,
    LookupOutcome,
    build_protocol_network,
    run_protocol_lookup,
)
from .metrics import Summary, log_slope, loglog_slope, summarize
from .rng import spawn_many
from .scenario import (
    DEFAULT_PHASES,
    Phase,
    ScenarioEngine,
    SoakStats,
    parse_phases,
)
from .workload import (
    bit_reversal_permutation,
    random_pairs,
    random_permutation,
    shift_permutation,
    single_hotspot_demands,
    zipf_demands,
)

__all__ = [
    "ChurnOp",
    "DEFAULT_PHASES",
    "Phase",
    "ScenarioEngine",
    "SoakStats",
    "parse_phases",
    "ChurnReport",
    "ChurnTrace",
    "DHProtocolNode",
    "LookupOutcome",
    "build_protocol_network",
    "run_protocol_lookup",
    "Event",
    "EventLoop",
    "Message",
    "SimNetwork",
    "SimNode",
    "Summary",
    "bit_reversal_permutation",
    "log_slope",
    "loglog_slope",
    "random_pairs",
    "random_permutation",
    "run_churn",
    "shift_permutation",
    "single_hotspot_demands",
    "spawn_many",
    "summarize",
    "zipf_demands",
]
