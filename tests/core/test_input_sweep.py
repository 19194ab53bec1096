"""Generated sweep: every public numeric parameter refuses what it cannot mean.

The sweep walks every public callable: every name in the ``__all__`` of
each module and package under ``src/repro`` (the namespace package
``repro.hashing`` included) — functions,
constructors and the public methods a class defines itself (exception
classes aside) — and collects each parameter annotated ``int`` or
``float`` (``Optional`` included).  For every such parameter
it substitutes the probes ``True``, ``2.5``, ``nan``, ``-1`` and ``inf``
into a tiny valid call from :data:`FIXTURES`.  Each probe must raise
``ValueError`` whose message holds ``repr(probe)`` (the shape of
:mod:`repro.checks`: ``"{what} must be {rule}, got {value!r}"``), or be
listed in :data:`ACCEPTS` with the reason it is taken.

A parameter with neither a fixture nor an ``ACCEPTS`` row covering all
five probes fails the sweep, so no new numeric parameter lands
unchecked.  An ``ACCEPTS`` row whose probe the call now refuses fails
too, so the table cannot rot.  The CLI's flags are swept separately, by
``tests/experiments/test_harness.py``.
"""

import importlib
import inspect
import math
import pathlib
import typing

import networkx as nx
import numpy as np
import pytest

from oracles.inputs import populated

import repro
from repro.balance import BucketBalancer, MultipleChoice, TwoDimMultipleChoice
from repro.balance.two_dim import coarse_grid_side, fine_grid_side, is_smooth_2d
from repro.baselines import (CanNetwork, ChordNetwork, DistanceHalvingAdapter,
                             KleinbergRing, KoordeNetwork, TapestryNetwork,
                             ViceroyNetwork, measure_scheme_batch)
from repro.core import (ActiveTree, BatchCacheEngine, BatchRouter, CacheSystem,
                        ContinuousGraph, DistanceHalvingNetwork, PathTree,
                        SegmentMap, binary_digits, decode_node_key, dh_lookup,
                        distance_halving_is_debruijn,
                        equally_spaced_network, fast_lookup, salt_indices,
                        salted_key)
from repro.core.debruijn import debruijn_nodes, debruijn_successors
from repro.core.lookup import DhHeader
from repro.core.segments import cover_grid
from repro.core.shard import ShardedExecutor, slice_bounds
from repro.core.snapshot import ColumnarSnapshot, OpJournal
from repro.emulation import (DeBruijnFamily, GraphEmulator, RingFamily,
                             ShuffleExchangeFamily, TorusFamily)
from repro.experiments.churn_soak import measure_churn_soak
from repro.experiments.cost_routing import measure_cost_routing
from repro.experiments.faults_exp import measure_faults
from repro.experiments.runner import run_experiments
from repro.experiments.soak import measure_soak
from repro.experiments.table1 import baseline_parity
from repro.expander import (GabberGalilNetwork, TorusVoronoi, cheeger_bounds,
                            sampled_vertex_expansion)
from repro.faults import (GF256, ErasureStore, FTBatchEngine,
                          OverlappingDHNetwork, ReedSolomonCode,
                          canonical_path, random_byzantine, random_failstop,
                          resistant_lookup, simple_lookup)
from repro.hashing.kwise import KWiseHash, PointHasher
from repro.peer import CostMap, select_index
from repro.sim import (ChurnTrace, EventLoop, ScenarioEngine, SimNetwork,
                       SoakStats, build_protocol_network, random_pairs,
                       run_churn, run_protocol_lookup, shift_permutation,
                       single_hotspot_demands, spawn_many, zipf_demands)
from repro.sim.workload import balanced_network, survivor_pairs

#: The probes, each an input no numeric parameter of the paper means.
PROBES = (True, 2.5, math.nan, -1, math.inf)
ALL = " ".join(map(repr, PROBES))

def _numeric(annotation) -> bool:
    """``int`` or ``float``, alone or in an ``Optional`` / ``Union``."""
    if annotation in (int, float):
        return True
    if typing.get_origin(annotation) is not typing.Union:
        return False
    args = set(typing.get_args(annotation)) - {type(None)}
    return bool(args) and args <= {int, float}


def public_parameters() -> dict:
    """``{"module.Qualname": [numeric parameter, ...]}`` of the surface.

    Keys drop the ``repro.`` prefix of the defining module; a class
    stands for its constructor, ``Class.method`` for a public method the
    class itself defines.
    """
    found = {}
    root = pathlib.Path(repro.__file__).parent
    modules = [importlib.import_module(".".join(
        ("repro",) + f.relative_to(root).with_suffix("").parts
    ).removesuffix(".__init__")) for f in sorted(root.rglob("*.py"))]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            calls = [(obj.__qualname__, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                calls += [(f"{obj.__qualname__}.{k}", getattr(v, "__func__", v))
                          for k, v in vars(obj).items()
                          if not k.startswith("_")
                          and inspect.isfunction(getattr(v, "__func__", v))]
            for qualname, fn in calls:
                if not (inspect.isclass(fn) or inspect.isfunction(fn)):
                    continue
                if inspect.isclass(fn) and issubclass(fn, BaseException):
                    continue
                key = f"{obj.__module__.removeprefix('repro.')}.{qualname}"
                hints = typing.get_type_hints(
                    fn.__init__ if inspect.isclass(fn) else fn)
                params = [p for p in inspect.signature(fn).parameters
                          if _numeric(hints.get(p))]
                if params:
                    found[key] = params
    return found


# ----------------------------------------------------------------- reasons
RING = ("a ring point: 2.5 and -1 fold into [0, 1) as every lookup folds "
        "its target")
SERVER = ("a server or node id: it is looked up among the ids, and a value "
          "that is none raises KeyError")
PLAN = ("a membership test: an id the plan does not hold is alive and "
        "honest, as is every server the plan never drew")
RECORD = ("a field of a result record: the engine that fills it measured "
          "it, so the record stores what it is given")
STUB = "a protocol or abstract stub: the implementations are swept"
KERNEL = ("a kernel's argument: the engine calling it passes its own Δ, lane "
          "count or level cap, checked when the engine was built or read off "
          "its arrays, and a kernel checks nothing per call")
KEYED = ("a keyed draw's argument: the engine passes a key it drew or "
         "checked (batch_simple_lookup refuses one outside [0, 2^64)) and "
         "lane counts, offsets, widths and Δ of its own, and the helper "
         "checks nothing per call")
DEGREE = "the family's degree bound does not depend on k, which is unread"

#: ``"key:parameter"`` (``*`` for every numeric parameter of the key) →
#: ``(probes taken, why)``.
ACCEPTS = {
    # ring points fold
    "core.caching.CacheSystem.route_key:source_point": ("2.5 -1", RING),
    "core.caching.CacheSystem.request:source_point": ("2.5 -1", RING),
    "core.lookup.dh_lookup:*": ("2.5 -1", RING),
    "core.lookup.fast_lookup:*": ("2.5 -1", RING),
    "baselines.base.BaselineDHT.owner:target": ("2.5 -1", RING),
    "baselines.base.BaselineDHT.lookup_path:target": ("2.5 -1", RING),
    "baselines.can.CanNetwork.point_to_coords:y": ("2.5 -1", RING),
    "faults.lookup_ft.canonical_path:*": ("2.5 -1", RING),
    "faults.lookup_ft.resistant_lookup:*": ("2.5 -1", RING),
    "faults.lookup_ft.simple_lookup:source": ("2.5 -1", RING),
    "faults.lookup_ft.simple_lookup:target": ("2.5 -1", RING),
    "faults.overlap.OverlappingDHNetwork.covers:y": ("2.5 -1", RING),
    "faults.overlap.OverlappingDHNetwork.covers_point:y": ("2.5 -1", RING),
    "sim.protocol.run_protocol_lookup:source": ("2.5 -1", RING),
    "sim.protocol.run_protocol_lookup:target": ("2.5 -1", RING),
    "core.lookup.DhHeader.start:*": ("2.5 -1", RING),
    "sim.workload.shift_permutation:shift": (
        "2.5 -1", "a ring offset: it folds as a ring point does"),
    # list indexing
    "core.segments.SegmentMap.point_at:i": (
        "-1", "indexes as a list does: -1 is the last id, the predecessor "
              "join reads at index 0"),
    "core.segments.SegmentMap.segment:i": (
        "-1", "indexes as point_at does: -1 is the last segment"),
    # reals where 2.5 (and inf, where it is named) is a valid value
    "balance.buckets.BucketBalancer:rebalance_threshold": (
        "2.5", "a smoothness bound, any real >= 1"),
    "balance.two_dim.is_smooth_2d:rho": ("2.5", "a smoothness, any real >= 1"),
    "emulation.emulator.GraphEmulator.level_list:rho_bound": (
        "2.5", "a smoothness bound, any real >= 1"),
    "emulation.emulator.GraphEmulator.multi_level_hosts:rho_bound": (
        "2.5", "as level_list"),
    "peer.costmap.CostMap:dist_scale": ("2.5", "a distance weight, any real >= 0"),
    "peer.costmap.CostMap.synthetic:dist_scale": ("2.5", "as CostMap"),
    "faults.overlap.OverlappingDHNetwork:coverage_factor": (
        "2.5", "a segment-length multiplier, any finite real > 0"),
    "sim.engine.EventLoop.schedule:delay": ("2.5", "a delay, any finite real >= 0"),
    "sim.engine.EventLoop.run:until": (
        "2.5 inf", "a time, any real >= 0; inf runs the queue dry, as "
                   "until=None does"),
    "sim.engine.SimNetwork.run:until": ("2.5 inf", "as EventLoop.run"),
    "sim.workload.zipf_demands:exponent": ("2.5", "a Zipf exponent, any real >= 0"),
    "sim.scenario.SoakStats.observe_network:smoothness": (
        "2.5 inf", "a smoothness, any real >= 1; a zero-length segment "
                   "makes it inf, which the extrema skip"),
    # server and node ids
    "balance.buckets.BucketBalancer.leave:handle": (ALL, SERVER),
    "baselines.chord.ChordNetwork.degree:node": (ALL, SERVER),
    "baselines.dh_adapter.DistanceHalvingAdapter.degree:node": (ALL, SERVER),
    "baselines.koorde.KoordeNetwork.degree:node": (ALL, SERVER),
    "baselines.viceroy.ViceroyNetwork.degree:node": (ALL, SERVER),
    "emulation.emulator.GraphEmulator.guests_of:server_point": (ALL, SERVER),
    "emulation.emulator.GraphEmulator.host_degree:server_point": (ALL, SERVER),
    "emulation.emulator.GraphEmulator.level_list:server_point": (ALL, SERVER),
    "emulation.emulator.GraphEmulator.multi_level_hosts:server_point": (
        ALL, SERVER),
    "faults.models.FaultPlan.is_alive:server": (ALL, PLAN),
    "faults.models.FaultPlan.answer_of:server": (ALL, PLAN),
    "faults.overlap.OverlappingDHNetwork.segment_of:x": (ALL, SERVER),
    "faults.overlap.OverlappingDHNetwork.covers_point:x": (ALL, SERVER),
    "sim.protocol.DHProtocolNode:point": (ALL, SERVER),
    "core.lookup.LocalView:point": (ALL, SERVER),
    # records, stubs and the rest
    "baselines.base.MeasuredRow:*": (ALL, RECORD),
    "core.batch_cache.BatchCacheResult:delta": (ALL, RECORD),
    "core.caching.CachedLookup:*": (ALL, RECORD),
    "core.lookup.LookupResult:*": (ALL, RECORD),
    "core.node.Server:point": (
        ALL, "a server object the network builds around an id its segment "
             "map has already checked"),
    "core.routing_stats.BatchCongestion:*": (ALL, RECORD),
    "core.lookup.DhHeader:*": (ALL, RECORD),
    "core.snapshot.SnapshotRefreshStats:*": (ALL, RECORD),
    "core.routing_stats.CongestionCounter:*": (ALL, RECORD),
    "experiments.common.ExperimentResult:seconds": (ALL, RECORD),
    "faults.erasure.RepairReport:*": (ALL, RECORD),
    "faults.lookup_ft.FTLookupResult:*": (ALL, RECORD),
    "sim.churn.ChurnOp:victim": (ALL, RECORD),
    "sim.churn.ChurnReport:final_n": (ALL, RECORD),
    "sim.engine.Event:*": (ALL, RECORD),
    "sim.engine.Message:hops": (ALL, RECORD),
    "sim.metrics.Summary:*": (ALL, RECORD),
    "sim.protocol.LookupOutcome:*": (ALL, RECORD),
    "sim.scenario.Phase:arg": (
        ALL, "a parsed phase: parse_phases checks the argument per kind"),
    "sim.scenario.SoakStats:*": (ALL, RECORD),
    "emulation.families.GraphFamily.degree_bound:k": (ALL, STUB),
    "emulation.families.GraphFamily.neighbors:*": (ALL, STUB),
    "emulation.families.RingFamily.degree_bound:k": (ALL, DEGREE),
    "emulation.families.TorusFamily.degree_bound:k": (ALL, DEGREE),
    "emulation.families.DeBruijnFamily.degree_bound:k": (ALL, DEGREE),
    "emulation.families.ShuffleExchangeFamily.degree_bound:k": (ALL, DEGREE),
    "checks.count:lo": (
        ALL, "the rule's own bound, written where the check is made, never "
             "a caller's value"),
    # kernels under an engine that checked its inputs once
    "core.walk.descend:delta": (ALL, KERNEL),
    "core.walk.forward_levels:*": (ALL, KERNEL),
    "core.walk.level_points:delta": (ALL, KERNEL),
    "core.walk.lane_blocks:size": (ALL, KERNEL),
    "core.walk.KeyedLanes:*": (ALL, KEYED),
    "core.walk.lane_key:*": (ALL, KEYED),
    "core.walk.normalize_points:size": (ALL, KERNEL),
    "core.walk.per_lane_matrix:size": (ALL, KERNEL),
    "core.lookup.approach_walk:*": (
        ALL, "the scalar walk's kernel: fast_lookup and canonical_path check "
             "and fold both points first"),
    "core.lookup.LocalView.cover:y": (
        ALL, "a server's per-hop cover test: DhHeader.start checked the "
             "message's points, and a point no known segment holds answers "
             "None"),
    "balance.two_dim.cell_of:side": (
        ALL, "a grid side from fine_grid_side / coarse_grid_side, which check "
             "n; read once per probed point"),
}


def accepted(key: str, param: str) -> set:
    """The probe reprs ``ACCEPTS`` lets ``key``'s ``param`` take."""
    out = set()
    for entry in (f"{key}:{param}", f"{key}:*"):
        if entry in ACCEPTS:
            out |= set(ACCEPTS[entry][0].split())
    return out


# ----------------------------------------------------------------- fixtures
def _net(n: int = 8, delta: int = 2) -> DistanceHalvingNetwork:
    return populated(n, 1, delta)


def _ft() -> OverlappingDHNetwork:
    return OverlappingDHNetwork(8, np.random.default_rng(2))


def _rng() -> np.random.Generator:
    return np.random.default_rng(3)


def _first(net) -> float:
    return net.point_at(0) if isinstance(net, SegmentMap) else net.points()[0]


def _scenario(**kw) -> dict:
    base = dict(n=16, lookups=0, chunk=1, seed=0, items=0, payload=0)
    return {**base, **kw}


def _layer(j):
    return list(PathTree(0.25).layer(j))


def _sharded(**kw):
    ShardedExecutor(**kw).close()


class _Frozen(ColumnarSnapshot):
    """The snapshot base with no columns, so its own arguments are swept."""

    def _rebuild(self):
        pass


def _routed():
    return _net().compile_router().batch_fast_lookup([0.1], [0.7],
                                                     keep_paths="csr")


#: key → a zero-argument builder of ``(callable, keyword arguments)``: one
#: tiny valid call, every swept parameter among the keywords or defaulted.
FIXTURES = {
    # core
    "core.caching.CacheSystem": lambda: (
        CacheSystem, dict(net=_net(), threshold=2, salts=1)),
    "core.caching.CacheSystem.route_key": lambda: (
        CacheSystem(_net(), salts=2).route_key, dict(item="a", source_point=0.3)),
    "core.caching.CacheSystem.request": lambda: (
        CacheSystem(_net()).request, dict(item="a", source_point=0.3, rng=_rng())),
    "core.continuous.ContinuousGraph": lambda: (ContinuousGraph, dict(delta=2)),
    "core.continuous.ContinuousGraph.child": lambda: (
        ContinuousGraph(3).child, dict(y=0.3, digit=1)),
    "core.continuous.ContinuousGraph.approach_digits": lambda: (
        ContinuousGraph(2).approach_digits, dict(target=0.3, t=3)),
    "core.network.DistanceHalvingNetwork": lambda: (
        DistanceHalvingNetwork, dict(delta=2)),
    "core.network.DistanceHalvingNetwork.populate": lambda: (
        DistanceHalvingNetwork(rng=_rng()).populate, dict(n=4)),
    "core.network.DistanceHalvingNetwork.router": lambda: (
        _net().router, dict(churn_budget=4)),
    "core.segments.SegmentMap.point_at": lambda: (
        SegmentMap([0.0, 0.5]).point_at, dict(i=1)),
    "core.segments.SegmentMap.segment": lambda: (
        SegmentMap([0.0, 0.5]).segment, dict(i=1)),
    "core.lookup.dh_lookup": lambda: (
        dh_lookup, dict(net=_net(), source_point=0.1, target=0.7, rng=_rng())),
    "core.lookup.fast_lookup": lambda: (
        fast_lookup, dict(net=_net(), source_point=0.1, target=0.7)),
    "core.caching.ActiveTree": lambda: (
        ActiveTree, dict(tree=PathTree(0.25), threshold=2)),
    "core.batch_cache.BatchCacheEngine": lambda: (
        BatchCacheEngine, dict(net=_net(), items=["a"], threshold=2, salts=1)),
    "core.batch_cache.BatchCacheEngine.tree_index": lambda: (
        BatchCacheEngine(_net(), ["a", "b"], salts=2).tree_index,
        dict(item_idx=1, salt=1)),
    "core.batch_cache.BatchCacheEngine.active_set": lambda: (
        BatchCacheEngine(_net(), ["a"]).active_set, dict(tree=0)),
    "core.batch_cache.BatchCacheEngine.tree_size": lambda: (
        BatchCacheEngine(_net(), ["a"]).tree_size, dict(tree=0)),
    "core.batch_cache.BatchCacheEngine.tree_depth": lambda: (
        BatchCacheEngine(_net(), ["a"]).tree_depth, dict(tree=0)),
    "core.batch_cache.BatchCacheEngine.tree_replications": lambda: (
        BatchCacheEngine(_net(), ["a"]).tree_replications, dict(tree=0)),
    "core.batch_cache.BatchCacheEngine.content_update": lambda: (
        BatchCacheEngine(_net(), ["a"]).content_update, dict(item_idx=0)),
    "core.batch_cache.BatchCacheResult.serving_node": lambda: (
        BatchCacheEngine(_net(), ["a"]).serve_batch(
            [0], [0.3], rng=_rng()).serving_node, dict(i=0)),
    "core.batch.BatchRouter": lambda: (
        BatchRouter, dict(net=_net(), auto_refresh=True, churn_budget=4)),
    "core.batch.BatchRouter.sharded_executor": lambda: (
        _net().compile_router().sharded_executor, dict(workers=2)),
    "core.batch.BatchRouter.lookup_batch": lambda: (
        _net().compile_router().lookup_batch,
        dict(sources=[0.1], targets=[0.2], workers=1)),
    "core.pathtree.PathTree.layer": lambda: (_layer, dict(j=2)),
    "core.debruijn.debruijn_nodes": lambda: (
        lambda **kw: list(debruijn_nodes(**kw)), dict(r=2, delta=2)),
    "core.debruijn.debruijn_successors": lambda: (
        debruijn_successors, dict(node=(0, 1), delta=2)),
    "core.segments.cover_grid": lambda: (
        cover_grid, dict(points=np.array([0.1, 0.6]), size=4)),
    "core.shard.slice_bounds": lambda: (slice_bounds, dict(size=5, workers=2)),
    "core.shard.ShardedExecutor": lambda: (
        _sharded, dict(router=_net().compile_router(), workers=2)),
    "core.snapshot.OpJournal": lambda: (OpJournal, dict(cap=4)),
    "core.snapshot.OpJournal.ops_since": lambda: (
        OpJournal().ops_since, dict(version=0)),
    "core.snapshot.ColumnarSnapshot": lambda: (
        _Frozen, dict(journal=OpJournal(), budget=4)),
    "core.walk.PathResult.path_points": lambda: (
        _routed().path_points, dict(i=0)),
    "core.walk.PathResult.server_path": lambda: (
        _routed().server_path, dict(i=0)),
    "core.lookup.DhHeader.start": lambda: (
        DhHeader.start, dict(source_point=0.1, target=0.7)),
    "core.continuous.binary_digits": lambda: (
        binary_digits, dict(y=0.3, t=3, delta=2)),
    "core.batch_cache.decode_node_key": lambda: (
        decode_node_key, dict(key=5, delta=2)),
    "core.debruijn.distance_halving_is_debruijn": lambda: (
        distance_halving_is_debruijn, dict(r=2, delta=2)),
    "core.debruijn.equally_spaced_network": lambda: (
        equally_spaced_network, dict(r=2, delta=2)),
    "core.caching.salt_indices": lambda: (
        salt_indices, dict(points=np.array([0.1, 0.6]), salts=2)),
    "core.caching.salted_key": lambda: (salted_key, dict(item="a", salt=1)),
    # balance
    "balance.buckets.BucketBalancer": lambda: (
        BucketBalancer, dict(rebalance_threshold=4.0)),
    "balance.strategies.MultipleChoice": lambda: (MultipleChoice, dict(t=2)),
    "balance.two_dim.TwoDimMultipleChoice": lambda: (
        TwoDimMultipleChoice, dict(n_target=8, t=2)),
    "balance.two_dim.TwoDimMultipleChoice.populate": lambda: (
        TwoDimMultipleChoice(8).populate, dict(count=2, rng=_rng())),
    "balance.two_dim.coarse_grid_side": lambda: (coarse_grid_side, dict(n=8)),
    "balance.two_dim.fine_grid_side": lambda: (fine_grid_side, dict(n=8)),
    "balance.two_dim.is_smooth_2d": lambda: (
        is_smooth_2d, dict(points=[(0.1, 0.1), (0.6, 0.6)], rho=4.0)),
    # baselines
    "baselines.base.BaselineDHT.owner": lambda: (
        ChordNetwork(8, _rng()).owner, dict(target=0.3)),
    "baselines.base.BaselineDHT.lookup_path": lambda: (
        (c := ChordNetwork(8, _rng())).lookup_path,
        dict(source=c.points[0], target=0.3, rng=_rng())),
    "baselines.base.measure_scheme_batch": lambda: (
        measure_scheme_batch,
        dict(dht=ChordNetwork(8, _rng()), rng=_rng(), lookups=4)),
    "baselines.can.CanNetwork": lambda: (CanNetwork, dict(n=8, rng=_rng(), d=2)),
    "baselines.can.CanNetwork.point_to_coords": lambda: (
        CanNetwork(8, _rng()).point_to_coords, dict(y=0.3)),
    "baselines.can.CanNetwork.degree": lambda: (
        CanNetwork(8, _rng()).degree, dict(node=3)),
    "baselines.chord.ChordNetwork": lambda: (ChordNetwork, dict(n=8, rng=_rng())),
    "baselines.dh_adapter.DistanceHalvingAdapter": lambda: (
        DistanceHalvingAdapter, dict(n=8, rng=_rng(), delta=2)),
    "baselines.kleinberg.KleinbergRing": lambda: (
        KleinbergRing, dict(n=8, rng=_rng())),
    "baselines.kleinberg.KleinbergRing.degree": lambda: (
        KleinbergRing(8, _rng()).degree, dict(node=3)),
    "baselines.koorde.KoordeNetwork": lambda: (KoordeNetwork, dict(n=8, rng=_rng())),
    "baselines.tapestry.TapestryNetwork": lambda: (
        TapestryNetwork, dict(n=8, rng=_rng(), base=2)),
    "baselines.tapestry.TapestryNetwork.degree": lambda: (
        TapestryNetwork(8, _rng()).degree, dict(node=3)),
    "baselines.viceroy.ViceroyNetwork": lambda: (
        ViceroyNetwork, dict(n=8, rng=_rng())),
    # experiments
    "experiments.churn_soak.measure_churn_soak": lambda: (
        measure_churn_soak,
        dict(n=16, lookups=4, churn_ops=2, mass_n=2, seed=0)),
    "experiments.cost_routing.measure_cost_routing": lambda: (
        measure_cost_routing, dict(n=16, pairs=4, seed=0, scalar_sample=2,
                                   core_n=16, core_pairs=4)),
    "experiments.faults_exp.measure_faults": lambda: (
        measure_faults,
        dict(engine=FTBatchEngine(OverlappingDHNetwork(16, _rng())), pairs=4,
             p_fail=0.2, seed=0, scalar_sample=2)),
    "experiments.soak.measure_soak": lambda: (
        measure_soak, dict(n=16, lookups=0, chunk=1, seed=0, items=0,
                           phases="lookups:0")),
    "experiments.table1.baseline_parity": lambda: (
        baseline_parity, dict(n=8, sample=2, seed=0)),
    "experiments.runner.run_experiments": lambda: (
        run_experiments, dict(names=["F1"], seed=0, echo=False)),
    # emulation
    **{f"emulation.families.{fam.__name__}.neighbors": (
        lambda fam=fam: (fam().neighbors, dict(k=3, u=5)))
       for fam in (RingFamily, TorusFamily, DeBruijnFamily,
                   ShuffleExchangeFamily)},
    "emulation.emulator.GraphEmulator": lambda: (
        GraphEmulator, dict(segments=_net().segments, family=RingFamily(), k=3)),
    "emulation.emulator.GraphEmulator.host_of": lambda: (
        GraphEmulator(_net().segments, RingFamily()).host_of, dict(guest=2, k=3)),
    "emulation.emulator.GraphEmulator.guests_of": lambda: (
        (e := GraphEmulator(_net().segments, RingFamily())).guests_of,
        dict(server_point=_first(e.segments), k=3)),
    "emulation.emulator.GraphEmulator.level_list": lambda: (
        (e := GraphEmulator(_net().segments, RingFamily())).level_list,
        dict(server_point=_first(e.segments), rho_bound=4.0)),
    "emulation.emulator.GraphEmulator.multi_level_hosts": lambda: (
        (e := GraphEmulator(_net().segments, RingFamily())).multi_level_hosts,
        dict(server_point=_first(e.segments), rho_bound=4.0)),
    # expander
    "expander.gabber_galil.GabberGalilNetwork": lambda: (
        GabberGalilNetwork, dict(n=8, rng=_rng(), samples_per_cell=2)),
    "expander.gabber_galil.GabberGalilNetwork.continuous_boundary_measure":
        lambda: (GabberGalilNetwork.continuous_boundary_measure,
                 dict(region=lambda p: p[:, 0] < 0.5, rng=_rng(), samples=64)),
    "expander.voronoi.TorusVoronoi.delaunay_neighbors": lambda: (
        TorusVoronoi([(0.1, 0.2), (0.6, 0.3), (0.4, 0.8)]).delaunay_neighbors,
        dict(i=1)),
    "expander.expansion.cheeger_bounds": lambda: (cheeger_bounds, dict(lambda2=0.5)),
    "expander.expansion.sampled_vertex_expansion": lambda: (
        sampled_vertex_expansion,
        dict(graph=nx.cycle_graph(8), rng=_rng(), trials=4)),
    # faults
    "faults.erasure.ErasureStore": lambda: (
        ErasureStore, dict(net=_ft(), data_fraction=0.5)),
    "faults.batch_ft.FTBatchEngine.batch_simple_lookup": lambda: (
        (e := FTBatchEngine(_ft())).batch_simple_lookup,
        dict(sources=e.points[:1], targets=[0.7], key=2**64 - 1)),
    "faults.erasure.ReedSolomonCode": lambda: (ReedSolomonCode, dict(k=2, n=4)),
    "faults.erasure.GF256.mul": lambda: (GF256.mul, dict(a=3, b=7)),
    "faults.erasure.GF256.inv": lambda: (GF256.inv, dict(a=3)),
    "faults.erasure.GF256.pow": lambda: (GF256.pow, dict(a=3, e=2)),
    "faults.overlap.OverlappingDHNetwork": lambda: (
        OverlappingDHNetwork, dict(n=8, rng=_rng(), coverage_factor=1.0)),
    "faults.overlap.OverlappingDHNetwork.covers_point": lambda: (
        (f := _ft()).covers_point, dict(x=f.points[0], y=0.3)),
    "faults.overlap.OverlappingDHNetwork.covers": lambda: (
        _ft().covers, dict(y=0.3)),
    "faults.lookup_ft.canonical_path": lambda: (
        canonical_path, dict(net=(f := _ft()), source=f.points[0], target=0.7)),
    "faults.models.random_byzantine": lambda: (
        random_byzantine, dict(servers=[0.1, 0.5], p=0.5, rng=_rng())),
    "faults.models.random_failstop": lambda: (
        random_failstop, dict(servers=[0.1, 0.5], p=0.5, rng=_rng())),
    "faults.lookup_ft.resistant_lookup": lambda: (
        resistant_lookup,
        dict(net=(f := _ft()), source=f.points[0], key="a", target=0.7)),
    "faults.lookup_ft.simple_lookup": lambda: (
        simple_lookup, dict(net=(f := _ft()), source=f.points[0], key="a",
                            rng=_rng(), target=0.7)),
    # peer
    "peer.costmap.CostMap": lambda: (
        CostMap, dict(isp_cost=np.zeros((1, 1)), dist_scale=0.25)),
    "peer.costmap.CostMap.synthetic": lambda: (
        CostMap.synthetic, dict(n_isps=2, rng=_rng(), dist_scale=0.25)),
    "peer.policy.select_index": lambda: (
        select_index, dict(costs=np.array([1.0, 2.0]), u=0.5,
                           policy="weighted")),
    # sim
    "sim.scenario.ScenarioEngine": lambda: (ScenarioEngine, _scenario()),
    "sim.scenario.SoakStats.record_churn": lambda: (
        SoakStats().record_churn, dict(ops=2)),
    "sim.scenario.SoakStats.observe_network": lambda: (
        SoakStats().observe_network, dict(n=8, smoothness=2.0)),
    "sim.scenario.SoakStats.summary": lambda: (SoakStats().summary, dict(n_servers=8)),
    "sim.churn.ChurnTrace.generate": lambda: (
        ChurnTrace.generate, dict(rng=_rng(), steps=4, leave_prob=0.3)),
    "sim.churn.ChurnTrace.mass_departure": lambda: (
        ChurnTrace.mass_departure, dict(rng=_rng(), n=4, fraction=0.5)),
    "sim.churn.run_churn": lambda: (
        run_churn, dict(net=_net(), trace=ChurnTrace.generate(_rng(), 2),
                        sample_every=2)),
    "sim.protocol.run_protocol_lookup": lambda: (
        run_protocol_lookup,
        dict(sim=build_protocol_network(n := _net()), net=n, source=_first(n),
             target=0.7, rng=_rng())),
    "sim.engine.EventLoop.schedule": lambda: (
        EventLoop().schedule, dict(delay=1.0, action=lambda: None)),
    "sim.engine.EventLoop.run": lambda: (
        EventLoop().run, dict(until=1.0, max_events=4)),
    "sim.engine.SimNetwork.run": lambda: (SimNetwork().run, dict(until=1.0)),
    "sim.workload.balanced_network": lambda: (
        balanced_network, dict(n=4, rng=_rng(), delta=2)),
    "sim.workload.survivor_pairs": lambda: (
        survivor_pairs, dict(points=[0.1, 0.5], alive_mask=[True, False],
                             rng=_rng(), count=2)),
    "sim.workload.random_pairs": lambda: (
        random_pairs, dict(points=[0.1, 0.5], rng=_rng(), count=2)),
    "sim.workload.shift_permutation": lambda: (
        shift_permutation, dict(points=[0.1, 0.5], shift=0.5)),
    "sim.workload.single_hotspot_demands": lambda: (
        single_hotspot_demands, dict(n_items=4, total=8, hot_index=1)),
    "sim.rng.spawn_many": lambda: (spawn_many, dict(seed=1, count=2)),
    "sim.workload.zipf_demands": lambda: (
        zipf_demands, dict(n_items=4, total=8, rng=_rng(), exponent=1.2)),
    # hashing
    "hashing.kwise.KWiseHash": lambda: (KWiseHash, dict(k=2, rng=_rng())),
    "hashing.kwise.PointHasher": lambda: (PointHasher, dict(rng=_rng(), k=2)),
}

SURFACE = public_parameters()
ENTRIES = sorted(f"{key}:{param}" for key, params in SURFACE.items()
                 for param in params)


def test_surface_is_walked():
    """The walk finds the surface, and every table row names a part of it."""
    # a floor, not a pin: 145 callables and 235 parameters when written,
    # 141 and 228 once the test-only names and the request id went, 171
    # and 290 once every module's __all__ was walked (not only the
    # packages'), less the options folded into constants
    assert len(SURFACE) >= 165 and len(ENTRIES) >= 280
    stale = [key for key in FIXTURES if key not in SURFACE]
    stale += [entry for entry in ACCEPTS
              if entry.partition(":")[0] not in SURFACE
              or entry.partition(":")[2] not in SURFACE[
                  entry.partition(":")[0]] + ["*"]]
    assert not stale, f"FIXTURES / ACCEPTS rows naming no swept parameter: {stale}"


@pytest.mark.parametrize("key", sorted(FIXTURES))
def test_fixture_is_valid(key):
    """Each fixture's own call runs, so a refusal below is the probe's."""
    fn, kwargs = FIXTURES[key]()
    fn(**kwargs)


@pytest.mark.parametrize("entry", ENTRIES)
def test_probe_is_refused_or_accepted(entry):
    """``True``, ``2.5``, ``nan``, ``-1`` and ``inf``: refused by name or accepted."""
    key, _, param = entry.partition(":")
    taken = accepted(key, param)
    if key not in FIXTURES:
        assert taken == set(ALL.split()), (
            f"{entry} has no fixture, and ACCEPTS does not take "
            f"{sorted(set(ALL.split()) - taken)}")
        return
    failures = []
    for probe in PROBES:
        fn, kwargs = FIXTURES[key]()
        kwargs[param] = probe
        try:
            fn(**kwargs)
        except ValueError as err:
            if repr(probe) in str(err):
                if repr(probe) in taken:
                    failures.append(f"{probe!r} is refused, yet ACCEPTS takes it")
                continue
            outcome = f"ValueError not naming it: {err}"
        except Exception as err:  # any other outcome is a finding
            outcome = f"{type(err).__name__}: {err}"
        else:
            outcome = "accepted"
        if repr(probe) not in taken:
            failures.append(f"{probe!r}: {outcome}")
    assert not failures, f"{entry}: " + "; ".join(failures)
