"""Per-layer metrics of the spine benchmark: how each one is derived.

``BENCHMARK.json`` names the per-layer metrics with their units; this
module holds, by the same names, how each is read off the traced pass:
``derive(view)`` sees span durations by span name (layers are named
after the modules the benchmark calls into), the pass's exact counts,
and the probe counts.  A layer a workload never calls reads 0 — which
makes the "predicted no change" column of the README checkable: the
layer was idle.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from spans import self_times
from spec import PER_LAYER

__all__ = ["DERIVE", "layer_metrics"]


class View:
    """Read access to one traced pass for the derivations below."""

    def __init__(self, view: Dict) -> None:
        self.tracer = view["tracer"]
        self.counts = view["counts"]
        self.wall_traced = view["wall_traced"]
        self.wall_untraced = view["wall_untraced"]
        self.child_cpu_s = view["child_cpu_s"]
        self.span_cost_s = view["span_cost_s"]

    def s(self, span: str) -> float:
        """Summed seconds of every span with this name."""
        return self.tracer.total(span)

    def ms(self, span: str, q: float) -> float:
        """Percentile ``q`` of the span's durations, in milliseconds."""
        durations = self.tracer.durations(span)
        return 1e3 * float(np.percentile(durations, q)) if durations else 0.0

    def n(self, count: str) -> float:
        """An exact count of the pass, or a probe count (0 if absent)."""
        if count in self.counts:
            return float(self.counts[count])
        return float(self.tracer.counts.get(count, 0))

    def per(self, seconds: float, count: float, scale: float) -> float:
        """``scale * seconds / count`` (0 when the layer did no work)."""
        return scale * seconds / count if count else 0.0

    def first_units(self, span: str, units: int) -> float:
        """Seconds of ``span`` inside the first ``units`` timed units."""
        return float(sum(
            s["end"] - s["start"] for s in self.tracer.spans
            if s["name"] == span and not s["probe"]
            and s["unit"] is not None and s["unit"] < units))

    # -- derived quantities that need more than one lookup --------------
    def csr_emit_s(self) -> float:
        """CSR emission: fast+CSR minus the path-less walk, same inputs."""
        walk = self.s("batch.walk")
        probed = len(self.tracer.durations("batch.walk"))
        if not probed:
            return 0.0
        return self.first_units("batch.fast_csr", probed) - walk

    def shard_gain(self) -> float:
        """Single-process seconds over sharded seconds, same batches."""
        probed = len(self.tracer.durations("shard.single"))
        sharded = self.first_units("bench.unit", probed)
        return self.s("shard.single") / sharded if probed and sharded else 0.0

    def overhead_share(self) -> float:
        """(traced pass wall − untraced pass wall) / untraced."""
        return (self.wall_traced - self.wall_untraced) / self.wall_untraced

    def span_cost_share(self) -> float:
        """Recorded pass spans × the calibrated cost of one, over the wall.

        The differenced ``overhead_share`` carries the box's run-to-run
        noise; this is the same overhead counted instead of differenced.
        """
        recorded = sum(1 for s in self.tracer.spans
                       if s["unit"] is not None or s["layer"] == "bench")
        return recorded * self.span_cost_s / self.wall_traced

    def coverage_share(self) -> float:
        """Share of the traced pass wall spent inside layer spans.

        The timed segments are the ``bench`` roots; their self time is
        benchmark glue, everything else was handed to a layer.
        """
        spans = self.tracer.spans
        glue = sum(t for s, t in zip(spans, self_times(spans))
                   if s["layer"] == "bench" and not s["probe"])
        return 1.0 - glue / self.wall_traced

    def ft_lookups(self) -> float:
        return (self.n("batch_ft.simple_lookups")
                + self.n("batch_ft.resistant_lookups"))

    def refresh_adj_ms_per_op(self) -> float:
        return self.per(self.s("snapshot.refresh_adj"),
                        self.n("snapshot.adj.ops_replayed"), 1e3)

    def incremental_share(self) -> float:
        done = self.n("snapshot.refreshes") + self.n("snapshot.adj.refreshes")
        inc = self.n("snapshot.incremental") + self.n("snapshot.adj.incremental")
        return inc / done if done else 0.0


def _s(span: str) -> Callable[[View], float]:
    return lambda v: v.s(span)


def _n(count: str) -> Callable[[View], float]:
    return lambda v: v.n(count)


def _us_per(spans, count: str) -> Callable[[View], float]:
    names = (spans,) if isinstance(spans, str) else spans
    return lambda v: v.per(sum(v.s(x) for x in names), v.n(count), 1e6)


_DH = ("batch.dh", "batch.cost_greedy", "batch.cost_weighted")
_SERVE = ("batch_cache.serve", "batch_cache.serve_hotspot")

DERIVE: Dict[str, Callable[[View], float]] = {
    # core/network — populate dominates setup_s; join/leave feed churn
    "network.populate_s": _s("network.populate"),
    "network.join_ms_p50": lambda v: v.ms("network.join", 50),
    "network.leave_ms_p50": lambda v: v.ms("network.leave", 50),
    "network.ops": _n("network.ops"),
    # core/snapshot — compile vs incremental refresh
    "snapshot.compile_s": _s("snapshot.compile"),
    "snapshot.compile_adj_s": _s("snapshot.compile_adj"),
    "snapshot.refresh_ms_p50": lambda v: v.ms("snapshot.refresh", 50),
    "snapshot.refresh_ms_p90": lambda v: v.ms("snapshot.refresh", 90),
    "snapshot.refresh_adj_ms_per_op": View.refresh_adj_ms_per_op,
    "snapshot.incremental_share": View.incremental_share,
    "snapshot.ops_replayed": lambda v: (
        v.n("snapshot.ops_replayed") + v.n("snapshot.adj.ops_replayed")),
    "snapshot.full_rebuilds": lambda v: (
        v.n("snapshot.full_rebuilds") + v.n("snapshot.adj.full_rebuilds")),
    # core/batch — the lookup walk and CSR emission
    "batch.fast_csr_s": _s("batch.fast_csr"),
    "batch.fast_us_per_lookup": lambda v: v.per(
        v.s("batch.fast_csr"),
        v.n("batch.lookups") - v.n("batch.dh_lookups"), 1e6),
    "batch.lookups": _n("batch.lookups"),
    "batch.hops_mean": lambda v: v.per(
        v.n("batch.hops"), v.n("batch.lookups"), 1.0),
    "batch.path_entries": _n("batch.path_entries"),
    "batch.walk_s": _s("batch.walk"),
    "batch.csr_emit_s": View.csr_emit_s,
    "batch.cover_s": _s("batch.cover"),
    "batch.bulk_us_per_lookup": _us_per("batch.bulk", "batch.bulk_lookups"),
    "batch.dh_s": _s("batch.dh"),
    "batch.cost_greedy_s": _s("batch.cost_greedy"),
    "batch.cost_weighted_s": _s("batch.cost_weighted"),
    "batch.dh_us_per_lookup": _us_per(_DH, "batch.dh_lookups"),
    # core/routing_stats — <1% everywhere; listed so nobody claims it
    "routing_stats.record_s": _s("routing_stats.record"),
    "routing_stats.merge_s": _s("routing_stats.merge"),
    "routing_stats.entries": _n("routing_stats.entries"),
    # peer — cost columns and CSR traffic accounting
    "peer.cost_columns_s": _s("peer.cost_columns"),
    "peer.accounting_s": _s("peer.accounting"),
    "peer.cross_isp_per_lookup": lambda v: v.per(
        v.n("peer.cross_isp"), v.n("batch.dh_lookups"), 1.0),
    # core/batch_cache — §3 serving
    "batch_cache.build_s": _s("batch_cache.build"),
    "batch_cache.serve_s": lambda v: sum(v.s(x) for x in _SERVE),
    "batch_cache.serve_us_per_req": lambda v: v.per(
        v.s("batch_cache.serve"),
        v.n("batch_cache.requests") - v.n("batch_cache.hotspot_requests"),
        1e6),
    "batch_cache.hotspot_us_per_req": _us_per(
        "batch_cache.serve_hotspot", "batch_cache.hotspot_requests"),
    "batch_cache.advance_epoch_s": _s("batch_cache.advance_epoch"),
    "batch_cache.content_update_s": _s("batch_cache.content_update"),
    "batch_cache.requests": _n("batch_cache.requests"),
    "batch_cache.saved_hops_mean": lambda v: v.per(
        v.n("batch_cache.saved_hops"), v.n("batch_cache.requests"), 1.0),
    "batch_cache.copies_total": _n("batch_cache.copies_total"),
    # faults/overlap
    "overlap.build_s": _s("overlap.build"),
    "overlap.cover_table_s": _s("overlap.cover_table"),
    # faults/batch_ft
    "batch_ft.simple_s": _s("batch_ft.simple"),
    "batch_ft.simple_us_per_lookup": _us_per(
        "batch_ft.simple", "batch_ft.simple_lookups"),
    "batch_ft.resistant_s": _s("batch_ft.resistant"),
    "batch_ft.resistant_us_per_lookup": _us_per(
        "batch_ft.resistant", "batch_ft.resistant_lookups"),
    "batch_ft.success_share": lambda v: v.per(
        v.n("batch_ft.successes"), v.ft_lookups(), 1.0),
    "batch_ft.messages_mean": lambda v: v.per(
        v.n("batch_ft.messages"), v.ft_lookups(), 1.0),
    # faults/erasure
    "erasure.put_s": _s("erasure.put"),
    "erasure.heal_s": _s("erasure.heal"),
    "erasure.items_repaired": _n("erasure.items_repaired"),
    "erasure.shares_rebuilt": _n("erasure.shares_rebuilt"),
    "erasure.items_lost": _n("erasure.items_lost"),
    # core/shard — the one place parallel parts exist
    "shard.start_s": _s("shard.start"),
    "shard.dispatch_s": _s("shard.dispatch"),
    "shard.merge_s": _s("shard.merge"),
    "shard.sync_s": _s("shard.sync"),
    "shard.child_cpu_s": lambda v: v.child_cpu_s,
    "shard.gain": View.shard_gain,
    # sim/scenario — one span per phase kind of the scripted day
    "scenario.build_s": _s("scenario.build"),
    "scenario.lookups_s": _s("scenario.lookups"),
    "scenario.churn_s": _s("scenario.churn"),
    "scenario.flash_s": _s("scenario.flash"),
    "scenario.failstop_s": _s("scenario.failstop"),
    "scenario.byzantine_s": _s("scenario.byzantine"),
    "scenario.rebalance_s": _s("scenario.rebalance"),
    "scenario.mass_s": _s("scenario.mass"),
    "scenario.invariants_s": _s("scenario.invariants"),
    "scenario.requests": _n("scenario.requests"),
    # the benchmark itself
    "workload.generate_s": _s("workload.generate"),
    "trace.overhead_share": View.overhead_share,
    "trace.span_cost_share": View.span_cost_share,
    "trace.coverage_share": View.coverage_share,
}

if set(DERIVE) != {m["name"] for m in PER_LAYER}:
    raise RuntimeError(
        "BENCHMARK.json per_layer and layers.DERIVE name different metrics: "
        f"{sorted(set(DERIVE) ^ {m['name'] for m in PER_LAYER})}")


def layer_metrics(view: Dict) -> Dict[str, Dict]:
    """Every per-layer metric ``BENCHMARK.json`` names, from one traced pass."""
    v = View(view)
    return {m["name"]: {"value": float(DERIVE[m["name"]](v)),
                        "unit": m["unit"]}
            for m in PER_LAYER}
