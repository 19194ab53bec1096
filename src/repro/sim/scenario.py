"""Phase-scripted streaming soak scenarios — the day-in-the-life driver.

Every experiment so far exercises one subsystem at a time; this module
composes the whole batch spine into one sustained scenario on a *live*
network: chunked lookup streams (memory bound O(chunk)), churn waves
applied through the op-journal router refresh, a Zipf flash crowd served
through the batch cache, fail-stop and Byzantine fault plans on the
overlapping substrate with **self-healing storage** (read-repair +
re-encode of the Reed-Solomon shares when holders die), and
load-balance rebalancing — the §1 claim that the continuous-discrete
approach stays correct and balanced *under dynamism*, exercised all at
once.

Three layers:

* :class:`SoakStats` — the streaming accumulator.  Extends the
  :class:`~repro.core.routing_stats.BatchCongestion` merge discipline to
  every statistic a soak tracks (cache congestion, hop histograms, fault
  and repair counters, membership extrema): all fields merge with exact
  associative operations (sorted-array adds, ``int64`` sums, pad-and-add
  histograms, min/max), so splitting a request stream at *any* chunk
  boundaries and merging the snapshots is bit-identical to one-shot
  accumulation — the property the hypothesis suite asserts.
* :class:`ScenarioEngine` — the phase-scripted driver.  A scenario is a
  comma-separated phase string (``"lookups,churn:192,flash,..."``,
  see :func:`parse_phases`); each phase streams its requests in
  ``chunk``-sized batches through the appropriate engine and books them
  into per-phase :class:`SoakStats` snapshots that merge into a running
  total.
* the invariant checker — :meth:`ScenarioEngine.check_invariants` runs
  between phases and audits owner consistency against a fresh compile,
  the congestion-accumulator merge identity, erasure-share
  recoverability (byte-level, against put-time digests), and cache
  active-tree well-formedness, so the soak doubles as the repo's
  integration-test backbone.

Results are **seed-deterministic**: the dict :meth:`ScenarioEngine.run`
returns contains no wall-clock quantities, so two runs with the same
seed produce byte-identical ``--json-out`` artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..balance import MultipleChoice
from ..core import DistanceHalvingNetwork
from ..core.batch_cache import BatchCacheEngine
from ..core.routing_stats import BatchCongestion
from ..faults.batch_ft import FTBatchEngine
from ..faults.erasure import ErasureStore, RepairReport
from ..faults.models import FaultPlan, random_byzantine, random_failstop
from ..faults.overlap import OverlappingDHNetwork
from ..sim.churn import ChurnTrace, run_churn
from ..sim.rng import spawn_many
from ..sim.workload import demand_stream, survivor_pairs, zipf_demands

__all__ = ["SoakStats", "ScenarioEngine", "Phase", "parse_phases",
           "DEFAULT_PHASES", "DEFAULT_CHUNK"]

#: Default streaming chunk: the peak batch the driver materialises.
DEFAULT_CHUNK = 1 << 16

#: The default day-in-the-life script (7 phases, ≥6 required): sustained
#: lookups, a churn wave, more lookups on the churned network, a Zipf
#: flash crowd, fail-stop + Byzantine fault waves with healing, a
#: Multiple-Choice rebalancing cohort, and a §4.1 mass departure.
DEFAULT_PHASES = ("lookups,churn,lookups,flash,failstop,byzantine,"
                  "rebalance,mass")

#: Each phase kind with the argument it takes: a predicate and the words
#: a refusal names it by.
_PHASE_KINDS = {
    "lookups": (float.is_integer, "an integral count >= 0"),
    "churn": (float.is_integer, "an integral count >= 0"),
    "flash": (float.is_integer, "an integral count >= 0"),
    "failstop": (lambda p: p < 1, "a probability in [0, 1)"),
    "byzantine": (lambda p: p < 1, "a probability in [0, 1)"),
    "rebalance": (float.is_integer, "an integral count >= 0"),
    "mass": (lambda f: f <= 1, "a fraction in [0, 1]"),
}


@dataclass(frozen=True)
class Phase:
    """One scripted phase: a kind plus its optional numeric argument."""

    kind: str
    arg: Optional[float] = None


def parse_phases(spec: str) -> List[Phase]:
    """Parse a ``"name[:arg],name[:arg],..."`` scenario script.

    Known kinds: ``lookups[:count]``, ``churn[:ops]``,
    ``flash[:requests]``, ``failstop[:prob]``, ``byzantine[:prob]``,
    ``rebalance[:joins]``, ``mass[:fraction]``.  Every argument is
    checked here, before any phase runs: counts must be integral,
    fail-stop / Byzantine probabilities in ``[0, 1)``, the mass
    departure's fraction in ``[0, 1]`` (more would empty the network).
    """
    phases: List[Phase] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        kind, _, raw = token.partition(":")
        if kind not in _PHASE_KINDS:
            raise ValueError(
                f"unknown phase {kind!r}; known: {', '.join(_PHASE_KINDS)}")
        arg = None
        if raw:
            arg = float(raw)
            if arg < 0:
                raise ValueError(f"phase argument must be >= 0: {token!r}")
            fits, what = _PHASE_KINDS[kind]
            if not fits(arg):  # NaN and inf fail every predicate too
                raise ValueError(f"{kind} takes {what}: {token!r}")
        phases.append(Phase(kind, arg))
    if not phases:
        raise ValueError("scenario script has no phases")
    return phases


def _pad_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact histogram addition: pad the shorter to the longer, add."""
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return out


@dataclass
class SoakStats:
    """Mergeable streaming statistics of one soak (or one phase of it).

    Every field accumulates with an exact associative operation, so for
    any split of the request stream into chunks, merging the per-chunk
    snapshots reproduces the one-shot accumulator *bit-identically*
    (the :class:`~repro.core.routing_stats.BatchCongestion` discipline,
    extended to the whole soak).  Memory is O(servers + max hops), never
    O(requests).
    """

    route: BatchCongestion = field(default_factory=BatchCongestion)
    cache: BatchCongestion = field(default_factory=BatchCongestion)
    hop_hist: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    cache_requests: int = 0
    ft_pairs: int = 0
    ft_successes: int = 0
    ft_messages: int = 0
    repair: RepairReport = field(default_factory=RepairReport)
    churn_ops: int = 0
    chunks: int = 0
    n_min: int = 0
    n_max: int = 0
    smoothness_max: float = 0.0

    # ------------------------------------------------------------- recording
    def record_route(self, result) -> None:
        """Book one routed batch (CSR paths) — lookups + hop histogram."""
        self.route.record_batch(result)
        hops = np.asarray(result.hops)
        if hops.size:
            self.hop_hist = _pad_add(
                self.hop_hist, np.bincount(hops).astype(np.int64))
        self.chunks += 1

    def record_cache(self, result) -> None:
        """Book one cache-served batch (shortened CSR paths)."""
        self.cache.record_batch(result)
        self.cache_requests += result.size
        self.chunks += 1

    def record_ft(self, result) -> None:
        """Book one fault-tolerant batch (simple or resistant)."""
        self.ft_pairs += result.size
        self.ft_successes += int(result.success.sum())
        self.ft_messages += int(result.messages.sum())
        self.chunks += 1

    def record_repair(self, report: RepairReport) -> None:
        """Fold one erasure heal's repair counts into the running report."""
        self.repair.merge(report)

    def record_churn(self, ops: int) -> None:
        """Count ``ops`` membership operations (joins and leaves)."""
        self.churn_ops += int(ops)

    def observe_network(self, n: int, smoothness: float) -> None:
        """Fold one membership observation into the extrema."""
        self.n_min = n if self.n_min == 0 else min(self.n_min, n)
        self.n_max = max(self.n_max, n)
        if math.isfinite(smoothness):
            self.smoothness_max = max(self.smoothness_max, float(smoothness))

    # --------------------------------------------------------------- merging
    def merge(self, other: "SoakStats") -> "SoakStats":
        """Fold another accumulator in (exact, associative)."""
        self.route.merge(other.route)
        self.cache.merge(other.cache)
        self.hop_hist = _pad_add(self.hop_hist, other.hop_hist)
        self.cache_requests += other.cache_requests
        self.ft_pairs += other.ft_pairs
        self.ft_successes += other.ft_successes
        self.ft_messages += other.ft_messages
        self.repair.merge(other.repair)
        self.churn_ops += other.churn_ops
        self.chunks += other.chunks
        if other.n_min:
            self.n_min = (other.n_min if self.n_min == 0
                          else min(self.n_min, other.n_min))
        self.n_max = max(self.n_max, other.n_max)
        self.smoothness_max = max(self.smoothness_max, other.smoothness_max)
        return self

    def equals(self, other: "SoakStats") -> bool:
        """Bit-identical equality — the merge-identity invariant."""
        return (
            np.array_equal(self.route._points, other.route._points)
            and np.array_equal(self.route._counts, other.route._counts)
            and self.route.lookups == other.route.lookups
            and self.route.total_messages == other.route.total_messages
            and np.array_equal(self.cache._points, other.cache._points)
            and np.array_equal(self.cache._counts, other.cache._counts)
            and self.cache.lookups == other.cache.lookups
            and self.cache.total_messages == other.cache.total_messages
            and np.array_equal(self.hop_hist, other.hop_hist)
            and self.cache_requests == other.cache_requests
            and self.ft_pairs == other.ft_pairs
            and self.ft_successes == other.ft_successes
            and self.ft_messages == other.ft_messages
            and (self.repair.items, self.repair.healthy, self.repair.repaired,
                 self.repair.shares_rebuilt, self.repair.lost)
            == (other.repair.items, other.repair.healthy,
                other.repair.repaired, other.repair.shares_rebuilt,
                other.repair.lost)
            and self.churn_ops == other.churn_ops
            and self.chunks == other.chunks
            and self.n_min == other.n_min
            and self.n_max == other.n_max
            and self.smoothness_max == other.smoothness_max
        )

    def snapshot(self) -> "SoakStats":
        """Deep copy — a mergeable point-in-time snapshot."""
        return SoakStats().merge(self)

    # --------------------------------------------------------------- digests
    @property
    def lookups(self) -> int:
        """Routed lookups booked into the route accumulator."""
        return self.route.lookups

    @property
    def total_requests(self) -> int:
        """Everything pushed through the network: routed + cached + FT."""
        return self.route.lookups + self.cache_requests + self.ft_pairs

    def mean_hops(self) -> float:
        """Mean hops per routed lookup, from the hop histogram (0 if empty)."""
        total = int(self.hop_hist.sum())
        if total == 0:
            return 0.0
        return float((self.hop_hist
                      * np.arange(self.hop_hist.size)).sum() / total)

    def summary(self, n_servers: int) -> Dict[str, float]:
        """Flat JSON-native digest (NumPy-safe scalars only)."""
        out = {f"route_{k}": v
               for k, v in self.route.summary(n_servers).items()}
        out.update({f"cache_{k}": v
                    for k, v in self.cache.summary(n_servers).items()})
        out.update({
            "total_requests": float(self.total_requests),
            "cache_requests": float(self.cache_requests),
            "mean_hops": self.mean_hops(),
            "max_hops": float(self.hop_hist.size - 1
                              if self.hop_hist.size else 0),
            "ft_pairs": float(self.ft_pairs),
            "ft_success_rate": (self.ft_successes / self.ft_pairs
                                if self.ft_pairs else 1.0),
            "ft_messages": float(self.ft_messages),
            "repairs": float(self.repair.repaired),
            "shares_rebuilt": float(self.repair.shares_rebuilt),
            "items_lost": float(self.repair.lost),
            "churn_ops": float(self.churn_ops),
            "chunks": float(self.chunks),
            "n_min": float(self.n_min),
            "n_max": float(self.n_max),
            "smoothness_max": float(self.smoothness_max),
        })
        return out


class ScenarioEngine:
    """Streaming soak driver over one live network + one fault substrate.

    Parameters
    ----------
    n:
        Initial server count of the live (churning) Distance Halving
        network; a static ``max(8, n // 16)``-server
        :class:`~repro.faults.overlap.OverlappingDHNetwork` rides along
        as the §6 fault substrate with ``items`` erasure-coded blobs.
    lookups:
        Total routed lookups the ``lookups`` phases share (split evenly;
        an explicit ``lookups:COUNT`` phase keeps its own count).
    chunk:
        Streaming batch size — the peak number of in-flight requests
        (and the accumulator memory bound, O(chunk + n)).
    seed:
        Every stream (membership, workloads, faults, cache taus) derives
        from this; results are byte-reproducible per seed.
    invariants:
        Run :meth:`check_invariants` between phases (``strict`` raises
        on the first violation; otherwise violations are reported in the
        result dict).
    workers:
        ``> 1`` routes the lookup stream through the shared-memory
        sharded backend (``router.lookup_batch(..., workers=...)``).
        Results are bit-identical to single-process by construction —
        the merged :class:`SoakStats` and the byte-reproducibility of
        the artifact are unaffected.  The engine owns the executor and
        tears it down when :meth:`run` returns.
    """

    def __init__(
        self,
        n: int = 4096,
        lookups: int = 1_000_000,
        chunk: int = DEFAULT_CHUNK,
        seed: int = 0,
        items: int = 24,
        payload: int = 256,
        invariants: bool = True,
        strict: bool = True,
        workers: int = 1,
    ) -> None:
        if n < 16:
            raise ValueError("soak needs n >= 16")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.n0 = int(n)
        self.lookups_total = int(lookups)
        self.chunk = int(chunk)
        self.workers = int(workers)
        self.seed = int(seed)
        self.invariants = bool(invariants)
        self.strict = bool(strict)

        (build_rng, churn_rng, route_rng, fault_rng, cache_rng,
         check_rng) = spawn_many(seed * 31 + n, 6)
        self._churn_rng = churn_rng
        self._route_rng = route_rng
        self._fault_rng = fault_rng
        self._cache_rng = cache_rng
        self._check_rng = check_rng

        self.selector = MultipleChoice(t=4)
        self.net = DistanceHalvingNetwork(rng=build_rng)
        self.net.populate(self.n0, selector=self.selector)
        self.router = self.net.router(auto_refresh=True)

        # §6 fault substrate: static membership, erasure-coded blobs
        ft_n = max(8, self.n0 // 16)
        self.ft_net = OverlappingDHNetwork(ft_n, rng=build_rng)
        self.ft_engine = FTBatchEngine(self.ft_net)
        self.store = ErasureStore(self.ft_net)
        self._blobs: Dict[str, bytes] = {}
        for i in range(int(items)):
            key = f"item-{i}"
            data = bytes(fault_rng.integers(0, 256, size=int(payload),
                                            dtype=np.uint8))
            self.store.put(key, data)
            self._blobs[key] = data
        self.alive = set(self.ft_net.points_array.tolist())
        self._ft_points = self.ft_net.points_array

        self.total = SoakStats()
        self.phase_snapshots: List[Tuple[str, SoakStats]] = []
        self.invariant_rows: List[Dict] = []
        self._last_cache_engine: Optional[BatchCacheEngine] = None

    # --------------------------------------------------------------- helpers
    def _observe(self, stats: SoakStats) -> None:
        stats.observe_network(
            self.net.n,
            self.net.smoothness() if self.net.n >= 2 else math.inf)

    def _route_stream(self, stats: SoakStats, count: int) -> None:
        """Route ``count`` uniform lookups in chunk-sized CSR batches."""
        rng = self._route_rng
        done = 0
        while done < count:
            b = min(self.chunk, count - done)
            # the refreshed snapshot's column is the live point list
            pts = self.router.refresh().points
            sources = pts[rng.integers(0, pts.size, size=b)]
            targets = rng.random(b)
            res = self.router.lookup_batch(sources, targets,
                                           workers=self.workers,
                                           keep_paths="csr")
            stats.record_route(res)
            done += b
        self._observe(stats)

    # ---------------------------------------------------------------- phases
    def _phase_lookups(self, stats: SoakStats, arg: Optional[float],
                       share: int) -> None:
        self._route_stream(stats, int(arg) if arg is not None else share)

    def _phase_churn(self, stats: SoakStats, arg: Optional[float]) -> None:
        ops = int(arg) if arg is not None else 192
        trace = ChurnTrace.generate(self._churn_rng, steps=ops,
                                    leave_prob=0.3, warmup=0)
        run_churn(self.net, trace, self._churn_rng, selector=self.selector,
                  sample_every=1 << 30,
                  on_op=lambda step, op: self.router.refresh())
        stats.record_churn(len(trace.ops))
        self._observe(stats)

    def _phase_flash(self, stats: SoakStats, arg: Optional[float]) -> None:
        """Zipf flash crowd through the batch cache, streamed in chunks.

        The cache engine snapshots a frozen router, so each flash phase
        builds a fresh engine on the *current* membership (a stale
        engine under churn raises rather than serving wrong covers).
        """
        requests = (int(arg) if arg is not None
                    else min(2 * self.chunk, max(1, self.lookups_total // 8)))
        rng = self._cache_rng
        n_items = max(8, min(64, self.net.n // 64))
        items = [f"hot-{i}" for i in range(n_items)]
        engine = BatchCacheEngine(self.net, items)
        demands = zipf_demands(n_items, requests, rng)
        stream = demand_stream(demands, rng)
        pts = self.net.segments.as_array()
        for lo in range(0, stream.size, self.chunk):
            idx = stream[lo: lo + self.chunk]
            sources = pts[rng.integers(0, pts.size, size=idx.size)]
            res = engine.serve_batch(idx, sources, rng=rng)
            stats.record_cache(res)
        engine.advance_epoch()
        self._last_cache_engine = engine
        self._observe(stats)

    def _ft_stream(self, stats: SoakStats, count: int, plan,
                   resistant: bool) -> None:
        alive_mask = np.isin(self._ft_points, list(self.alive))
        done = 0
        while done < count:
            b = min(self.chunk, count - done)
            pairs = survivor_pairs(self._ft_points, alive_mask,
                                   self._fault_rng, b)
            if resistant:
                res = self.ft_engine.batch_resistant_lookup(
                    pairs[0], pairs[1], plan=plan)
            else:
                res = self.ft_engine.batch_simple_lookup(
                    pairs[0], pairs[1], rng=self._fault_rng, plan=plan)
            stats.record_ft(res)
            done += b

    def _phase_failstop(self, stats: SoakStats,
                        arg: Optional[float]) -> None:
        """Fail-stop wave + simple lookups + read-repair healing."""
        p = float(arg) if arg is not None else 0.08
        plan = random_failstop(sorted(self.alive), p, self._fault_rng)
        self.alive -= plan.failed
        cumulative = FaultPlan(failed=set(self._ft_points.tolist())
                               - self.alive)
        self._ft_stream(stats, max(1, self.chunk // 2), cumulative,
                        resistant=False)
        stats.record_repair(self.store.heal(self.alive))
        self._observe(stats)

    def _phase_byzantine(self, stats: SoakStats,
                         arg: Optional[float]) -> None:
        """Byzantine liars + Theorem 6.6 resistant lookups."""
        p = float(arg) if arg is not None else 0.05
        plan = random_byzantine(sorted(self.alive), p, self._fault_rng)
        plan.failed |= set(self._ft_points.tolist()) - self.alive
        self._ft_stream(stats, max(1, self.chunk // 4), plan,
                        resistant=True)
        self._observe(stats)

    def _phase_rebalance(self, stats: SoakStats,
                         arg: Optional[float]) -> None:
        """A Multiple-Choice join cohort drives smoothness back down."""
        joins = int(arg) if arg is not None else max(32, self.n0 // 32)
        for _ in range(joins):
            self.net.join(selector=self.selector)
            self.router.refresh()
        stats.record_churn(joins)
        self._observe(stats)

    def _phase_mass(self, stats: SoakStats, arg: Optional[float]) -> None:
        """§4.1 stress: a cohort joins, then a fraction of the net leaves."""
        fraction = float(arg) if arg is not None else 0.3
        m = min(self.net.n, max(64, self.n0 // 8))
        trace = ChurnTrace.mass_departure(self._churn_rng, n=m,
                                          fraction=fraction)
        run_churn(self.net, trace, self._churn_rng, selector=self.selector,
                  sample_every=1 << 30,
                  on_op=lambda step, op: self.router.refresh())
        stats.record_churn(len(trace.ops))
        self._observe(stats)

    # ------------------------------------------------------------ invariants
    def check_invariants(self, phase: str) -> List[Dict]:
        """Audit the cross-subsystem invariants; one row per check.

        * **owners**: the auto-refresh router agrees with a from-scratch
          ``compile_router()`` and with the live segment map on sampled
          targets (a stale router cannot hide behind the journal) — the
          router answers through its bucket-grid cover index, the
          segment map through the ``searchsorted`` oracle, so this is
          also the grid-vs-oracle audit; a failure reports the grid's
          own consistency;
        * **merge**: re-merging every per-phase :class:`SoakStats`
          snapshot reproduces the running total bit-identically;
        * **erasure**: every stored item that is still recoverable
          decodes byte-identically to its put-time sha256 under the
          current alive set;
        * **cache**: the latest flash crowd's active trees are
          well-formed (sorted keys, roots, prefix-closure, depths);
        * **network**: the live network's own structural invariants.
        """
        rows: List[Dict] = []

        def add(check: str, ok: bool, detail: str = "") -> None:
            rows.append({"phase": phase, "check": check, "ok": bool(ok),
                         "detail": detail})

        fresh = self.net.compile_router()
        ys = self._check_rng.random(min(1024, 4 * self.net.n))
        owners_ok = (
            self.router.version == self.net.membership_version
            and np.array_equal(self.router.points, fresh.points)
            and np.array_equal(self.router.cover(ys),
                               self.net.segments.cover_array(ys))
        )
        detail = (f"router v{self.router.version} vs fresh compile, "
                  f"{ys.size} sampled targets")
        if not owners_ok:
            detail += "; " + self.router.cover_index.audit(self.router.points)
        add("owners", owners_ok, detail)

        merged = SoakStats()
        for _, snap in self.phase_snapshots:
            merged.merge(snap)
        add("merge", merged.equals(self.total),
            f"{len(self.phase_snapshots)} phase snapshots")

        recoverable = 0
        verified = 0
        for key in self.store.keys():
            if self.store.is_recoverable(key, self.alive):
                recoverable += 1
                verified += bool(
                    self.store.verify(key, self.alive)
                    and self.store.get(key, self.alive) == self._blobs[key])
        add("erasure", verified == recoverable,
            f"{verified}/{recoverable} recoverable items decode "
            "byte-identically")

        if self._last_cache_engine is not None:
            try:
                nodes = self._last_cache_engine.check_well_formed()
                add("cache", True, f"{nodes} active nodes audited")
            except ValueError as exc:
                add("cache", False, str(exc))

        try:
            self.net.check_invariants()
            add("network", True, f"n={self.net.n}")
        except AssertionError as exc:  # pragma: no cover - healthy net
            add("network", False, str(exc))

        self.invariant_rows.extend(rows)
        if self.strict:
            for row in rows:
                if not row["ok"]:
                    raise AssertionError(
                        f"soak invariant {row['check']!r} violated after "
                        f"phase {phase!r}: {row['detail']}")
        return rows

    # ----------------------------------------------------------------- drive
    def run(self, phases: "str | List[Phase]" = DEFAULT_PHASES) -> Dict:
        """Execute the scenario; returns a seed-deterministic result dict.

        The dict carries per-phase rows, the merged :class:`SoakStats`
        summary, and the invariant audit — no wall-clock values, so the
        artifact is byte-reproducible per seed (timing belongs to the
        caller, see ``experiments/soak.py``).
        """
        plan = parse_phases(phases) if isinstance(phases, str) else phases
        free = [ph for ph in plan
                if ph.kind == "lookups" and ph.arg is None]
        explicit = sum(int(ph.arg) for ph in plan
                       if ph.kind == "lookups" and ph.arg is not None)
        pool = max(0, self.lookups_total - explicit)
        share = pool // len(free) if free else 0
        shares = [share] * len(free)
        if free:
            shares[0] += pool - share * len(free)

        rows: List[Dict] = []
        free_i = 0
        try:
            for i, ph in enumerate(plan):
                stats = SoakStats()
                if ph.kind == "lookups":
                    if ph.arg is None:
                        self._phase_lookups(stats, None, shares[free_i])
                        free_i += 1
                    else:
                        self._phase_lookups(stats, ph.arg, 0)
                elif ph.kind == "churn":
                    self._phase_churn(stats, ph.arg)
                elif ph.kind == "flash":
                    self._phase_flash(stats, ph.arg)
                elif ph.kind == "failstop":
                    self._phase_failstop(stats, ph.arg)
                elif ph.kind == "byzantine":
                    self._phase_byzantine(stats, ph.arg)
                elif ph.kind == "rebalance":
                    self._phase_rebalance(stats, ph.arg)
                elif ph.kind == "mass":
                    self._phase_mass(stats, ph.arg)
                name = f"{i + 1}:{ph.kind}"
                self.phase_snapshots.append((name, stats.snapshot()))
                self.total.merge(stats)
                if self.invariants:
                    self.check_invariants(name)
                rows.append({
                    "phase": name,
                    "n": self.net.n,
                    "rho": round(float(self.net.smoothness()), 2)
                    if self.net.n >= 2 else math.inf,
                    "lookups": stats.route.lookups,
                    "cached": stats.cache_requests,
                    "ft": stats.ft_pairs,
                    "churn_ops": stats.churn_ops,
                    "repairs": stats.repair.repaired,
                    "mean_hops": round(stats.mean_hops(), 2),
                })
        finally:
            # the engine owns the sharded executor's lifetime: release
            # the worker pool + shared-memory blocks even on a strict
            # invariant failure mid-scenario
            self.router.close_executor()

        invariants_ok = all(r["ok"] for r in self.invariant_rows)
        alive_frac = len(self.alive) / self._ft_points.size
        return {
            "n": self.n0,
            "final_n": self.net.n,
            "seed": self.seed,
            "chunk": self.chunk,
            "phases": [ph.kind for ph in plan],
            "rows": rows,
            "stats": self.total.summary(self.net.n),
            "invariants": self.invariant_rows,
            "invariants_ok": invariants_ok,
            "invariant_checks": len(self.invariant_rows),
            "owners_ok": all(r["ok"] for r in self.invariant_rows
                             if r["check"] == "owners"),
            "merge_ok": all(r["ok"] for r in self.invariant_rows
                            if r["check"] == "merge"),
            "healing_ok": all(r["ok"] for r in self.invariant_rows
                              if r["check"] == "erasure")
            and self.total.repair.lost == 0,
            "cache_ok": all(r["ok"] for r in self.invariant_rows
                            if r["check"] == "cache"),
            "ft_alive_fraction": alive_frac,
            "total_requests": self.total.total_requests,
        }
