"""The seven workloads of the spine benchmark.

Every workload is a class with the same five hooks the harness drives:

``setup(seed, tracer)``
    build everything from the seed — network, routers, engines, fault
    plans, stores, executor, and every input array — and return it as
    one state object.  Called once per run, timed as a whole
    (``setup_s``).  ``mutable`` names the fields of the state a pass
    changes; the harness puts them back before every pass.
``warm(state)``
    one untimed batch per engine, so lazy set-up and cold caches are
    paid before the pass (stateful engines are warmed on a throwaway).
``run_pass(state, meter)``
    the measured script: timed segments with the untimed correctness
    checks between them.  Returns the *counts* of the pass — values
    that are a pure function of the seed, compared exactly across
    passes and across the traced/untraced pair.
``probes(state, tracer)``
    traced runs only: extra calls that decompose a layer (marked
    ``probe`` so they are excluded from wall totals).
``teardown(state)``
    stop what ``setup`` started.

The program under test receives arrays only; ``--seed`` is the only
source of randomness.  Unit counts below are sized so that one pass is
about a sixth of ``--seconds`` on the reference box — 3 s or more at the
``--seconds 20`` of ``BENCHMARK.json`` (README, "Sizing").
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from repro.balance import MultipleChoice
from repro.core import DistanceHalvingNetwork
from repro.core.batch_cache import BatchCacheEngine
from repro.core.routing_stats import BatchCongestion
from repro.core.shard import available_workers, merge_results, slice_bounds
from repro.experiments.soak import deterministic_payload
from repro.faults.batch_ft import FTBatchEngine
from repro.faults.erasure import ErasureStore
from repro.faults.models import random_byzantine, random_failstop
from repro.faults.overlap import OverlappingDHNetwork
from repro.peer.costmap import CostMap
from repro.peer.itracker import CostOracle, cross_isp_counts, path_cost_totals
from repro.peer.routing import CostAwareBatchRouter
from repro.sim.scenario import DEFAULT_PHASES, ScenarioEngine, parse_phases
from repro.sim.workload import (
    DH_TAU_DIGITS,
    demand_stream,
    single_hotspot_demands,
    survivor_pairs,
    zipf_demands,
)

__all__ = ["Sizing", "WORKLOADS", "REFERENCE_SECONDS"]

#: ``--seconds`` at which the base unit counts below were sized.
REFERENCE_SECONDS = 20


@dataclass(frozen=True)
class Sizing:
    """Problem size of a run.

    ``n`` is the server count — 16384 in every run of ``run.py``; the
    smoke test alone builds a smaller one.  ``scale`` multiplies the
    per-pass unit counts (``--seconds`` over :data:`REFERENCE_SECONDS`);
    ``shrink`` divides the batch sizes, again for the smoke test only.
    """

    n: int = 16384
    scale: float = 1.0
    shrink: int = 1

    def units(self, base: int) -> int:
        """Unit count of a pass: ``base`` scaled, never below 3."""
        return max(3, round(base * self.scale))

    def batch(self, base: int) -> int:
        """Lanes per batch: ``base`` at full size."""
        return max(16, base // self.shrink)


def _streams(seed: int, count: int) -> List[np.random.Generator]:
    """Independent generators derived from the one ``--seed``."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(count)]


def _build_net(n: int, rng: np.random.Generator, tr) -> DistanceHalvingNetwork:
    """A Δ=2 network of ``n`` Multiple-Choice (t=4) servers."""
    net = DistanceHalvingNetwork(rng=rng)
    with tr.span("network.populate"):
        net.populate(n, selector=MultipleChoice(t=4))
    return net


def _uniform_batches(points, rng, count: int, size: int) -> List[tuple]:
    """``count`` batches of uniform (source server, target point) pairs."""
    return [(points[rng.integers(0, points.size, size=size)], rng.random(size))
            for _ in range(count)]


def routed_failures(points: np.ndarray, res) -> int:
    """Lanes of a routed CSR batch whose result is wrong.

    The owner must equal an independent ``searchsorted`` cover of the
    target over ``points`` (greatest ``x_i <= y``, wrapping below
    ``x_0`` to the last server), and every CSR row must hold exactly
    ``hops + 1`` servers (which also makes the offsets strictly
    increasing).
    """
    expect = np.searchsorted(points, res.targets, side="right") - 1
    expect[expect < 0] = points.size - 1
    bad = expect != res.owner_idx
    bad |= np.diff(res.path_offsets) != res.hops + 1
    return int(bad.sum())


def healing_failures(store, alive, lost: int) -> int:
    """Items a heal sweep left wrong: given up wrongly, or not sound.

    A fault plan may legitimately exceed an item's code (fewer than
    ``k`` of its shares survive — about one fail-stop plan in twenty at
    p=0.2); such an item is still unrecoverable after the sweep and
    reporting it lost is right (it shows in ``erasure.items_lost``).
    Wrong is an item reported lost that its surviving shares could
    rebuild, and a recoverable item that fails the byte-level audit.
    """
    keys = store.keys()
    beyond_repair = sum(not store.is_recoverable(k, alive) for k in keys)
    unsound = sum(store.is_recoverable(k, alive) and not store.verify(k, alive)
                  for k in keys)
    return max(0, lost - beyond_repair) + unsound


def _tally_routed(counts: Counter, res) -> None:
    """Work counts of one routed batch (exact per seed)."""
    counts["batch.lookups"] += res.size
    counts["batch.hops"] += int(res.hops.sum())
    counts["batch.path_entries"] += int(res.path_servers.size)


def _check_booking(meter, cong: BatchCongestion, counts: Counter) -> None:
    """The accumulator must hold exactly the path entries it was fed."""
    if cong.mean_load(1) != counts["batch.path_entries"]:
        meter.fail_pass()


class _Workload:
    """Hooks a workload may leave empty."""

    name = ""
    #: fields of the state a pass changes (restored before every pass)
    mutable: tuple = ()
    #: Passes of an untraced run.  Five passes of 3 s and more and two
    #: set-ups make a run of 25-40 s: on this box a neighbour slows the
    #: core for a minute at a time, and of ten consecutive runs that
    #: long it covers two, which the quartiles of ten ignore, where it
    #: covered four or five of the 13 s runs three passes made.  Six
    #: passes were no steadier, and with the box at its slowest took the
    #: driver's runs to nine tenths of its time limit.
    passes = 5

    def __init__(self, sizing: Sizing) -> None:
        self.sizing = sizing

    def warm(self, st) -> None:
        """One untimed batch per engine."""

    def probes(self, st, tr) -> None:
        """Traced-only decomposition calls."""

    def teardown(self, st) -> None:
        """Stop what ``setup`` started."""


# --------------------------------------------------------------- route_fast
class RouteFast(_Workload):
    """Uniform lookups through the fast path, CSR paths, booked."""

    name = "route_fast"
    workers = 1
    lookup_span = "batch.fast_csr"

    def setup(self, seed, tr):
        build, gen = _streams(seed, 2)
        net = _build_net(self.sizing.n, build, tr)
        with tr.span("snapshot.compile"):
            router = net.router(auto_refresh=True)
        with tr.span("workload.generate"):
            batches = _uniform_batches(router.points, gen,
                                       self.sizing.units(36),
                                       self.sizing.batch(32768))
        return SimpleNamespace(net=net, router=router, batches=batches)

    def _route(self, st, src, tgt):
        return st.router.lookup_batch(src, tgt, workers=self.workers,
                                      keep_paths="csr")

    def warm(self, st):
        BatchCongestion().record_batch(self._route(st, *st.batches[0]))

    def _check_first(self, st, meter, res) -> None:
        """Per-pass parity hook (the sharded workload overrides it)."""

    def run_pass(self, st, m):
        cong = BatchCongestion()
        counts: Counter = Counter()
        for i, (src, tgt) in enumerate(st.batches):
            with m.timed():
                with m.span(self.lookup_span):
                    res = self._route(st, src, tgt)
                with m.span("routing_stats.record"):
                    cong.record_batch(res)
            m.ops(res.size, routed_failures(st.router.points, res))
            _tally_routed(counts, res)
            if i == 0:
                self._check_first(st, m, res)
        counts["routing_stats.entries"] = counts["batch.path_entries"]
        _check_booking(m, cong, counts)
        return dict(counts)

    def probes(self, st, tr):
        router = st.router
        for src, tgt in st.batches[:4]:
            with tr.span("batch.walk", probe=True):
                router.lookup_batch(src, tgt)
            with tr.span("batch.cover", probe=True):
                router.cover(tgt)
        # one call large enough for the working set to leave the caches
        take = max(1, 262144 // st.batches[0][0].size)
        src = np.concatenate([b[0] for b in st.batches[:take]])
        tgt = np.concatenate([b[1] for b in st.batches[:take]])
        with tr.span("batch.bulk", probe=True):
            router.lookup_batch(src, tgt, keep_paths="csr")
        tr.count("batch.bulk_lookups", src.size)
        halves = []
        for b_src, b_tgt in st.batches[:2]:
            acc = BatchCongestion()
            acc.record_batch(router.lookup_batch(b_src, b_tgt,
                                                 keep_paths="csr"))
            halves.append(acc)
        with tr.span("routing_stats.merge", probe=True):
            halves[0].merge(halves[1])


# ------------------------------------------------------------ route_sharded
class RouteSharded(RouteFast):
    """``route_fast`` with ``workers=2`` — the sharding gain, and its cost."""

    name = "route_sharded"
    workers = 2
    lookup_span = "shard.dispatch"

    def setup(self, seed, tr):
        if available_workers() < self.workers:
            raise SystemExit(
                f"route_sharded skipped: needs {self.workers} CPUs, "
                f"this box has {available_workers()}")
        st = super().setup(seed, tr)
        with tr.span("shard.start"):
            st.router.sharded_executor(self.workers)
        return st

    def teardown(self, st):
        st.router.close_executor()

    def _check_first(self, st, m, res):
        """First batch of the pass bit-identical to ``workers=1``."""
        src, tgt = st.batches[0]
        ref = st.router.lookup_batch(src, tgt, keep_paths="csr")
        same = all(np.array_equal(getattr(res, f), getattr(ref, f))
                   for f in ("owner_idx", "hops", "path_servers",
                             "path_offsets"))
        if not same:
            m.fail_pass()

    def probes(self, st, tr):
        router = st.router
        first = st.batches[:4]
        for src, tgt in first:
            with tr.span("shard.single", probe=True):
                BatchCongestion().record_batch(
                    router.lookup_batch(src, tgt, keep_paths="csr"))
        src, tgt = first[0]
        parts = [router.batch_fast_lookup(src[lo:hi], tgt[lo:hi],
                                          keep_paths="csr")
                 for lo, hi in slice_bounds(src.size, self.workers)]
        with tr.span("shard.merge", probe=True):
            merge_results(parts)
        # one membership change, then the re-export the next batch pays
        st.net.join(selector=MultipleChoice(t=4))
        executor = router.sharded_executor(self.workers)
        with tr.span("shard.sync", probe=True):
            executor.sync()


# ------------------------------------------------------------ route_dh_cost
class RouteDhCost(_Workload):
    """The two-phase lookup under three digit-selection rules."""

    name = "route_dh_cost"
    mutable = ("walk",)  # the digit stream batch_dh_lookup(rng=) draws from

    def setup(self, seed, tr):
        build, cost_rng, gen, walk = _streams(seed, 4)
        net = _build_net(self.sizing.n, build, tr)
        cost_map = CostMap.synthetic(8, cost_rng)
        with tr.span("snapshot.compile_adj"):
            router = CostAwareBatchRouter(net, cost_map, auto_refresh=True)
        oracle = CostOracle(router.points, cost_map)
        size = self.sizing.batch(4096)
        with tr.span("workload.generate"):
            script = []
            for _ in range(self.sizing.units(16)):
                for kind in ("dh", "cost_greedy", "cost_weighted"):
                    (src, tgt), = _uniform_batches(router.points, gen, 1, size)
                    choices = (gen.random((size, DH_TAU_DIGITS))
                               if kind == "cost_weighted" else None)
                    script.append((kind, src, tgt, choices))
        return SimpleNamespace(net=net, router=router, oracle=oracle,
                               cost_map=cost_map, script=script, walk=walk)

    @staticmethod
    def _route(st, kind, src, tgt, choices, walk=None):
        if kind == "dh":
            return st.router.batch_dh_lookup(
                src, tgt, rng=st.walk if walk is None else walk,
                keep_paths="csr")
        policy = kind.removeprefix("cost_")
        return st.router.batch_cost_dh_lookup(src, tgt, choices=choices,
                                              policy=policy, keep_paths="csr")

    def warm(self, st):
        # a throwaway digit stream, so the pass's own stream is untouched
        walk = np.random.default_rng(0)
        for kind, src, tgt, choices in st.script[:3]:
            BatchCongestion().record_batch(
                self._route(st, kind, src, tgt, choices, walk))

    def run_pass(self, st, m):
        cong = BatchCongestion()
        counts: Counter = Counter()
        router = st.router
        for kind, src, tgt, choices in st.script:
            with m.timed():
                with m.span(f"batch.{kind}"):
                    res = self._route(st, kind, src, tgt, choices)
                with m.span("routing_stats.record"):
                    cong.record_batch(res)
                with m.span("peer.accounting"):
                    cross = cross_isp_counts(router.cost_isp, res.path_servers,
                                             res.path_offsets)
                    path_cost_totals(st.oracle, res.path_servers,
                                     res.path_offsets)
            m.ops(res.size, routed_failures(router.points, res))
            _tally_routed(counts, res)
            counts["batch.dh_lookups"] += res.size
            counts["peer.cross_isp"] += int(cross.sum())
        counts["routing_stats.entries"] = counts["batch.path_entries"]
        _check_booking(m, cong, counts)
        return dict(counts)

    def probes(self, st, tr):
        with tr.span("peer.cost_columns", probe=True):
            st.cost_map.columns(st.router.points)


# -------------------------------------------------------------- churn_mixed
class ChurnMixed(_Workload):
    """Membership writes beside routed reads on two live routers."""

    name = "churn_mixed"
    mutable = ("net", "plain", "cost")

    OPS_PER_ROUND = 8

    def setup(self, seed, tr):
        build, cost_rng, gen = _streams(seed, 3)
        net = _build_net(self.sizing.n, build, tr)
        with tr.span("snapshot.compile"):
            plain = net.router(auto_refresh=True)
        with tr.span("snapshot.compile_adj"):
            cost = CostAwareBatchRouter(net, CostMap.synthetic(8, cost_rng),
                                        auto_refresh=True)
        fast_size = self.sizing.batch(8192)
        cost_size = self.sizing.batch(1024)
        with tr.span("workload.generate"):
            # sources are ring points, not server ids: a pre-drawn server
            # may have left by the time its batch is routed
            rounds = [
                SimpleNamespace(
                    leave=gen.random(self.OPS_PER_ROUND // 2),
                    fast=(gen.random(fast_size), gen.random(fast_size)),
                    cost=(gen.random(cost_size), gen.random(cost_size)))
                for _ in range(self.sizing.units(40))
            ]
        return SimpleNamespace(net=net, plain=plain, cost=cost, rounds=rounds)

    def warm(self, st):
        first = st.rounds[0]
        acc = BatchCongestion()
        acc.record_batch(st.plain.lookup_batch(*first.fast, keep_paths="csr"))
        acc.record_batch(st.cost.batch_cost_dh_lookup(
            *first.cost, policy="greedy", keep_paths="csr"))

    def run_pass(self, st, m):
        net, plain, cost = st.net, st.plain, st.cost
        selector = MultipleChoice(t=4)
        cong = BatchCongestion()
        counts: Counter = Counter()
        for rnd in st.rounds:
            with m.timed():
                for k in range(self.OPS_PER_ROUND):
                    if k % 2 == 0:
                        with m.span("network.join"):
                            net.join(selector=selector)
                    else:
                        at = int(rnd.leave[k // 2] * net.n)
                        victim = net.segments.point_at(at)
                        with m.span("network.leave"):
                            net.leave(victim)
                    with m.span("snapshot.refresh"):
                        plain.refresh()
                with m.span("snapshot.refresh_adj"):
                    cost.refresh()
                with m.span("batch.fast_csr"):
                    res_fast = plain.lookup_batch(*rnd.fast, keep_paths="csr")
                with m.span("routing_stats.record"):
                    cong.record_batch(res_fast)
                with m.span("batch.cost_greedy"):
                    res_cost = cost.batch_cost_dh_lookup(
                        *rnd.cost, policy="greedy", keep_paths="csr")
                with m.span("routing_stats.record"):
                    cong.record_batch(res_cost)
            # against the *live* membership: a stale snapshot fails the batch
            live = net.segments.as_array()
            m.ops(self.OPS_PER_ROUND,
                  0 if live.size == self.sizing.n else self.OPS_PER_ROUND)
            m.ops(res_fast.size, routed_failures(live, res_fast))
            m.ops(res_cost.size, routed_failures(live, res_cost))
            _tally_routed(counts, res_fast)
            _tally_routed(counts, res_cost)
            counts["batch.dh_lookups"] += res_cost.size
            counts["network.ops"] += self.OPS_PER_ROUND
        counts["routing_stats.entries"] = counts["batch.path_entries"]
        _check_booking(m, cong, counts)
        for key, router in (("snapshot", plain), ("snapshot.adj", cost)):
            stats = router.refresh_stats
            counts[f"{key}.refreshes"] = stats.refreshes
            counts[f"{key}.incremental"] = stats.incremental
            counts[f"{key}.ops_replayed"] = stats.ops_replayed
            counts[f"{key}.full_rebuilds"] = stats.full_rebuilds
            if stats.full_rebuilds:  # the round's ops are within budget
                m.fail_pass()
        return dict(counts)


# -------------------------------------------------------------- flash_cache
class FlashCache(_Workload):
    """Zipf epochs and one single-hotspot epoch through the §3 cache."""

    name = "flash_cache"
    mutable = ("engine", "tau")

    ITEMS = 64
    ZIPF_EPOCHS = 3

    def setup(self, seed, tr):
        build, gen, tau = _streams(seed, 3)
        net = _build_net(self.sizing.n, build, tr)
        with tr.span("snapshot.compile_adj"):
            router = net.compile_router(with_adjacency=True)
        items = [f"hot-{i}" for i in range(self.ITEMS)]
        with tr.span("batch_cache.build"):
            engine = BatchCacheEngine(net, items, router=router)
        size = self.sizing.batch(4096)
        per_epoch = self.sizing.units(14)
        total = size * per_epoch
        with tr.span("workload.generate"):
            demands = [zipf_demands(self.ITEMS, total, gen, exponent=1.2)
                       for _ in range(self.ZIPF_EPOCHS)]
            demands.append(single_hotspot_demands(self.ITEMS, total, 0))
            epochs = []
            for i, demand in enumerate(demands):
                stream = demand_stream(demand, gen)
                sources = router.points[
                    gen.integers(0, router.points.size, size=total)]
                epochs.append(SimpleNamespace(
                    span=("batch_cache.serve" if i < self.ZIPF_EPOCHS
                          else "batch_cache.serve_hotspot"),
                    batches=[(stream[lo:lo + size], sources[lo:lo + size])
                             for lo in range(0, total, size)]))
        return SimpleNamespace(net=net, router=router, items=items,
                               engine=engine, epochs=epochs, tau=tau)

    def warm(self, st):
        throwaway = BatchCacheEngine(st.net, st.items, router=st.router)
        idx, src = st.epochs[0].batches[0]
        throwaway.serve_batch(idx, src, rng=np.random.default_rng(0))
        throwaway.advance_epoch()

    def run_pass(self, st, m):
        engine = st.engine
        counts: Counter = Counter()
        n = st.router.points.size
        for epoch in st.epochs:
            served = bad = 0
            for idx, src in epoch.batches:
                with m.timed():
                    with m.span(epoch.span):
                        res = engine.serve_batch(idx, src, rng=st.tau)
                served += res.size
                bad += int(((res.serving_server_idx < 0)
                            | (res.serving_server_idx >= n)).sum())
                counts["batch_cache.saved_hops"] += int(res.saved_hops.sum())
                if epoch.span.endswith("hotspot"):
                    counts["batch_cache.hotspot_requests"] += res.size
            with m.timed(unit=False):
                with m.span("batch_cache.advance_epoch"):
                    engine.advance_epoch()
            try:
                engine.check_well_formed()
            except ValueError:
                bad = served  # a failed audit fails the epoch's requests
            m.ops(served, bad)
            counts["batch_cache.requests"] += served
        with m.timed(unit=False):
            with m.span("batch_cache.content_update"):
                engine.content_update(0)
        counts["batch_cache.copies_total"] = engine.total_copies()
        return dict(counts)


# ---------------------------------------------------------------- faults_ft
class FaultsFt(_Workload):
    """§6 lookups under fail-stop and Byzantine plans, then a heal sweep."""

    name = "faults_ft"
    mutable = ("store",)  # heal re-encodes shares in place

    #: Byzantine share.  At the paper-experiment value 0.05 one plan in
    #: seventy draws a point whose covers are half liars, and every
    #: lookup through it legitimately fails; at 0.02 it is one in 4·10^4
    #: (fail-stop p=0.2 leaves a point without an alive cover in one
    #: plan in 4·10^5).  A benchmark run must not fail by the draw.
    LIARS = 0.02

    STORED = 24
    PAYLOAD = 256

    def setup(self, seed, tr):
        build, fault, gen = _streams(seed, 3)
        with tr.span("overlap.build"):
            ft = OverlappingDHNetwork(self.sizing.n, rng=build)
        engine = FTBatchEngine(ft)
        stop_plan = random_failstop(ft.points, 0.2, fault)
        liar_plan = random_byzantine(ft.points, self.LIARS, fault)
        points = ft.points_array
        size = self.sizing.batch(2048)
        everyone = np.ones(points.size, dtype=bool)
        survivors = stop_plan.alive_mask(points)
        with tr.span("workload.generate"):
            simple = [survivor_pairs(points, survivors, gen, size)
                      + (gen.random((size, DH_TAU_DIGITS)),)
                      for _ in range(self.sizing.units(96))]
            resistant = [survivor_pairs(points, everyone, gen, size)
                         for _ in range(self.sizing.units(48))]
            blobs = [bytes(gen.integers(0, 256, size=self.PAYLOAD,
                                        dtype=np.uint8))
                     for _ in range(self.STORED)]
        store = ErasureStore(ft)
        with tr.span("erasure.put"):
            for i, blob in enumerate(blobs):
                store.put(f"item-{i}", blob)
        return SimpleNamespace(ft=ft, engine=engine, stop_plan=stop_plan,
                               liar_plan=liar_plan, simple=simple,
                               resistant=resistant, store=store,
                               alive=stop_plan.alive(ft.points))

    def warm(self, st):
        src, tgt, choices = st.simple[0]
        st.engine.batch_simple_lookup(src, tgt, choices=choices,
                                      plan=st.stop_plan, keep_paths="csr")
        st.engine.batch_resistant_lookup(*st.resistant[0], plan=st.liar_plan)
        throwaway = ErasureStore(st.ft)
        throwaway.put("warm", bytes(self.PAYLOAD))
        throwaway.heal(st.alive)

    def run_pass(self, st, m):
        counts: Counter = Counter()
        for src, tgt, choices in st.simple:
            with m.timed():
                with m.span("batch_ft.simple"):
                    res = st.engine.batch_simple_lookup(
                        src, tgt, choices=choices, plan=st.stop_plan,
                        keep_paths="csr")
            self._book(m, counts, res, "simple")
        for src, tgt in st.resistant:
            with m.timed():
                with m.span("batch_ft.resistant"):
                    res = st.engine.batch_resistant_lookup(src, tgt,
                                                           plan=st.liar_plan)
            self._book(m, counts, res, "resistant")
        with m.timed(unit=False):
            with m.span("erasure.heal"):
                report = st.store.heal(st.alive)
        m.ops(report.items,
              healing_failures(st.store, st.alive, report.lost))
        counts["erasure.items_repaired"] = report.repaired
        counts["erasure.shares_rebuilt"] = report.shares_rebuilt
        counts["erasure.items_lost"] = report.lost
        return dict(counts)

    @staticmethod
    def _book(m, counts, res, kind):
        ok = int(res.success.sum())
        m.ops(res.size, res.size - ok)
        counts[f"batch_ft.{kind}_lookups"] += res.size
        counts["batch_ft.successes"] += ok
        counts["batch_ft.messages"] += int(res.messages.sum())

    def probes(self, st, tr):
        ys = np.concatenate([tgt for _src, tgt, _u in st.simple[:4]])
        with tr.span("overlap.cover_table", probe=True):
            st.ft.cover_table(ys)


# ----------------------------------------------------------------- soak_day
class _SoakTotals:
    """Wraps a ``SoakStats`` so ``==`` is its bit-identical ``equals``."""

    def __init__(self, stats) -> None:
        self.stats = stats

    def __eq__(self, other) -> bool:
        return isinstance(other, _SoakTotals) and self.stats.equals(other.stats)


class SoakDay(_Workload):
    """The composed day-in-the-life scenario, invariants on, strict."""

    name = "soak_day"
    mutable = ("engine", "phased")

    CHUNK = 65536

    def _lookups(self) -> int:
        return max(1000, round(500_000 * self.sizing.scale
                               / self.sizing.shrink))

    def _engine(self, seed, invariants):
        return ScenarioEngine(n=self.sizing.n, lookups=self._lookups(),
                              chunk=self.CHUNK, seed=seed,
                              invariants=invariants)

    def setup(self, seed, tr):
        with tr.span("scenario.build"):
            engine = self._engine(seed, invariants=True)
        # the traced pass audits between phases itself, so that the
        # audit gets its own span: a second engine that does not
        phased = self._engine(seed, invariants=False) if tr.enabled else None
        return SimpleNamespace(engine=engine, phased=phased, seed=seed)

    def warm(self, st):
        ScenarioEngine(n=min(256, self.sizing.n), lookups=2000, chunk=1024,
                       seed=st.seed).run(DEFAULT_PHASES)

    def _script(self) -> List[tuple]:
        """``DEFAULT_PHASES`` with the counts ``run`` would derive, explicit.

        Issued one ``run("<phase>[:arg]")`` at a time this must end in
        the same ``SoakStats`` as the one-call day; the exact-equality
        check between the traced and the untraced pass enforces it.
        """
        plan = parse_phases(DEFAULT_PHASES)
        total = self._lookups()
        free = sum(1 for ph in plan if ph.kind == "lookups")
        share = total // free
        script = []
        first = True
        for ph in plan:
            token = ph.kind
            if ph.kind == "lookups":
                extra = total - share * free if first else 0
                first = False
                token = f"lookups:{share + extra}"
            elif ph.kind == "flash":
                token = f"flash:{min(2 * self.CHUNK, max(1, total // 8))}"
            script.append((ph.kind, token))
        return script

    def run_pass(self, st, m):
        counts: Dict = {}
        if m.tracer.enabled:
            engine = st.phased
            with m.timed():
                for i, (kind, token) in enumerate(self._script()):
                    with m.span(f"scenario.{kind}"):
                        engine.run(token)
                    with m.span("scenario.invariants"):
                        engine.check_invariants(f"{i + 1}:{kind}")
            ok = all(r["ok"] for r in engine.invariant_rows)
        else:
            engine = st.engine
            with m.timed():
                result = engine.run(DEFAULT_PHASES)
            ok = result["invariants_ok"]
            payload = json.dumps(deterministic_payload(result), sort_keys=True)
            counts["scenario.digest"] = hashlib.sha256(
                payload.encode()).hexdigest()
        counts["scenario.requests"] = engine.total.total_requests
        counts["scenario.churn_ops"] = engine.total.churn_ops
        counts["scenario.totals"] = _SoakTotals(engine.total)
        ops = counts["scenario.requests"] + counts["scenario.churn_ops"]
        ok = ok and not healing_failures(engine.store, engine.alive,
                                         engine.total.repair.lost)
        m.ops(ops, 0 if ok else ops)
        return counts


WORKLOADS = {cls.name: cls for cls in (
    RouteFast, RouteDhCost, ChurnMixed, FlashCache, FaultsFt, SoakDay,
    RouteSharded)}
