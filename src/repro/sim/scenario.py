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
  see :func:`parse_phases`); one table gives each kind's argument rule,
  default and body.  Each phase streams its requests in ``chunk``-sized
  batches through the appropriate engine and books them into per-phase
  :class:`SoakStats` snapshots that merge into a running total.
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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import checks
from ..balance.strategies import MultipleChoice
from ..core import DistanceHalvingNetwork
from ..core.batch_cache import BatchCacheEngine
from ..core.routing_stats import BatchCongestion
from ..faults.batch_ft import FTBatchEngine
from ..faults.erasure import ErasureStore, RepairReport
from ..faults.models import FaultPlan, random_byzantine, random_failstop
from ..faults.overlap import OverlappingDHNetwork
from ..sim.churn import ChurnOp, ChurnTrace
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


class _Kind(NamedTuple):
    """One phase kind, as ``_PHASE_KINDS`` (below the engine) holds it."""

    fits: Callable[[float], bool]  # the argument rule parse_phases applies
    what: str  # the words a refusal names the argument by
    default: Callable[["ScenarioEngine"], float]  # run()'s omitted argument
    body: Callable[["ScenarioEngine", "SoakStats", float], None]


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
            rule = _PHASE_KINDS[kind]
            if not rule.fits(arg):  # NaN and inf fail every predicate too
                raise ValueError(f"{kind} takes {rule.what}: {token!r}")
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
        self.churn_ops += checks.count(ops, "ops")

    def observe_network(self, n: int, smoothness: float) -> None:
        """Fold one membership observation into the extrema."""
        n = checks.count(n, "n")
        checks.real(smoothness, "smoothness", "[1, inf]")
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
        n_servers = checks.count(n_servers, "n_servers", 1)
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
        The lookup budget: ``lookups`` phases without a count split what
        the explicit ``lookups:COUNT`` phases leave of it, evenly.
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
    ) -> None:
        for what, count, least in (
                ("n", n, 16), ("lookups", lookups, 0), ("chunk", chunk, 1),
                ("seed", seed, 0), ("items", items, 0), ("payload", payload, 0)):
            checks.count(count, what, least)
        self.n0 = int(n)
        self.lookups_total = int(lookups)
        self.chunk = int(chunk)
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
        for i in range(items):
            key = f"item-{i}"
            data = bytes(fault_rng.integers(0, 256, size=payload,
                                            dtype=np.uint8))
            self.store.put(key, data)
            self._blobs[key] = data
        self.alive = set(self.ft_net.points_array.tolist())
        self._ft_points = self.ft_net.points_array

        self.total = SoakStats()
        self.phase_snapshots: List[Tuple[str, SoakStats]] = []
        self.invariant_rows: List[Dict] = []
        self._last_cache_engine: Optional[BatchCacheEngine] = None

    # ---------------------------------------------------------------- phases
    # Each body takes its phase's explicit argument; _PHASE_KINDS, below
    # the class, names the body, the default and the argument rule.
    def _route_stream(self, stats: SoakStats, count: float) -> None:
        """Route ``count`` uniform lookups in chunk-sized CSR batches."""
        rng = self._route_rng
        done, count = 0, int(count)
        while done < count:
            b = min(self.chunk, count - done)
            # the refreshed snapshot's column is the live point list
            pts = self.router.refresh().points
            sources = pts[rng.integers(0, pts.size, size=b)]
            targets = rng.random(b)
            res = self.router.lookup_batch(sources, targets, keep_paths="csr")
            stats.record_route(res)
            done += b

    def _membership(self, stats: SoakStats, ops: List[ChurnOp],
                    first_rng: Optional[np.random.Generator] = None) -> None:
        """Apply join / leave ops, re-syncing the router after each.

        With ``first_rng``, a first op that is a join on n > 2 draws its
        id from that stream through the selector: churn and mass traces
        keep the draw ``run_churn`` makes for the step it measures, so
        their ids, and the soak digests, stay those of that driver.
        Every other join draws from the network's own stream.
        """
        net = self.net
        for i, op in enumerate(ops):
            if op.kind == "join" or net.n == 0:
                if i == 0 and first_rng is not None and net.n > 2:
                    net.join(point=float(self.selector(net, first_rng)))
                else:
                    net.join(selector=self.selector)
            else:
                net.leave(net.segments.point_at(op.victim % net.n))
            self.router.refresh()
        stats.record_churn(len(ops))

    def _churn(self, stats: SoakStats, ops: float) -> None:
        trace = ChurnTrace.generate(self._churn_rng, steps=int(ops),
                                    leave_prob=0.3, warmup=0)
        self._membership(stats, trace.ops, self._churn_rng)

    def _flash(self, stats: SoakStats, requests: float) -> None:
        """Zipf flash crowd through the batch cache, streamed in chunks.

        The cache engine snapshots a frozen router, so each flash phase
        builds a fresh engine on the *current* membership (a stale
        engine under churn raises rather than serving wrong covers).
        """
        rng = self._cache_rng
        n_items = max(8, min(64, self.net.n // 64))
        items = [f"hot-{i}" for i in range(n_items)]
        engine = BatchCacheEngine(self.net, items)
        demands = zipf_demands(n_items, int(requests), rng)
        stream = demand_stream(demands, rng)
        pts = self.net.segments.as_array()
        for lo in range(0, stream.size, self.chunk):
            idx = stream[lo: lo + self.chunk]
            sources = pts[rng.integers(0, pts.size, size=idx.size)]
            res = engine.serve_batch(idx, sources, rng=rng)
            stats.record_cache(res)
        engine.advance_epoch()
        self._last_cache_engine = engine

    def _ft_stream(self, stats: SoakStats, count: int, plan,
                   resistant: bool) -> None:
        if not self.alive:  # an emptied substrate has no source: 0 pairs
            return
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

    def _failstop(self, stats: SoakStats, p: float) -> None:
        """Fail-stop wave + simple lookups + read-repair healing."""
        plan = random_failstop(sorted(self.alive), p, self._fault_rng)
        self.alive -= plan.failed
        cumulative = FaultPlan(failed=set(self._ft_points.tolist())
                               - self.alive)
        self._ft_stream(stats, max(1, self.chunk // 2), cumulative,
                        resistant=False)
        stats.record_repair(self.store.heal(self.alive))

    def _byzantine(self, stats: SoakStats, p: float) -> None:
        """Byzantine liars + Theorem 6.6 resistant lookups."""
        plan = random_byzantine(sorted(self.alive), p, self._fault_rng)
        plan.failed |= set(self._ft_points.tolist()) - self.alive
        self._ft_stream(stats, max(1, self.chunk // 4), plan,
                        resistant=True)

    def _rebalance(self, stats: SoakStats, joins: float) -> None:
        """A Multiple-Choice join cohort drives smoothness back down."""
        self._membership(stats, [ChurnOp("join")] * int(joins))

    def _mass(self, stats: SoakStats, fraction: float) -> None:
        """§4.1 stress: a cohort joins, then a fraction of the net leaves."""
        m = min(self.net.n, max(64, self.n0 // 8))
        trace = ChurnTrace.mass_departure(self._churn_rng, n=m,
                                          fraction=fraction)
        self._membership(stats, trace.ops, self._churn_rng)

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
        args = [_PHASE_KINDS[ph.kind].default(self) if ph.arg is None
                else ph.arg for ph in plan]
        # free lookups phases split their default, the lookup budget, less
        # the explicit counts; the first takes the remainder
        free = [i for i, ph in enumerate(plan)
                if ph.kind == "lookups" and ph.arg is None]
        if free:
            explicit = sum(int(ph.arg) for ph in plan
                           if ph.kind == "lookups" and ph.arg is not None)
            share, extra = divmod(max(0, args[free[0]] - explicit), len(free))
            for i in free:
                args[i], extra = share + extra, 0

        rows: List[Dict] = []
        for ph, arg in zip(plan, args):
            stats = SoakStats()
            _PHASE_KINDS[ph.kind].body(self, stats, arg)
            rho = self.net.smoothness() if self.net.n >= 2 else math.inf
            stats.observe_network(self.net.n, rho)
            name = f"{len(self.phase_snapshots) + 1}:{ph.kind}"
            self.phase_snapshots.append((name, stats.snapshot()))
            self.total.merge(stats)
            if self.invariants:
                self.check_invariants(name)
            rows.append({
                "phase": name,
                "n": self.net.n,
                "rho": round(float(rho), 2),
                "lookups": stats.route.lookups,
                "cached": stats.cache_requests,
                "ft": stats.ft_pairs,
                "churn_ops": stats.churn_ops,
                "repairs": stats.repair.repaired,
                "mean_hops": round(stats.mean_hops(), 2),
            })

        def passed(check: Optional[str] = None) -> bool:
            return all(r["ok"] for r in self.invariant_rows
                       if check in (None, r["check"]))

        return {
            "n": self.n0,
            "final_n": self.net.n,
            "seed": self.seed,
            "chunk": self.chunk,
            "phases": [ph.kind for ph in plan],
            "rows": rows,
            "stats": self.total.summary(self.net.n),
            "invariants": self.invariant_rows,
            "invariants_ok": passed(),
            "invariant_checks": len(self.invariant_rows),
            "owners_ok": passed("owners"),
            "merge_ok": passed("merge"),
            "healing_ok": passed("erasure") and self.total.repair.lost == 0,
            "cache_ok": passed("cache"),
            "ft_alive_fraction": len(self.alive) / self._ft_points.size,
            "total_requests": self.total.total_requests,
        }


_COUNT = (float.is_integer, "an integral count >= 0")
_PROBABILITY = (lambda p: p < 1, "a probability in [0, 1)")

#: The one phase table: each kind's argument rule and refusal words
#: (:func:`parse_phases`), the default :meth:`ScenarioEngine.run` fills
#: in for an omitted argument (for ``lookups`` the budget its free phases
#: share) and the body it calls with the explicit argument.
_PHASE_KINDS = {
    "lookups": _Kind(*_COUNT, lambda e: e.lookups_total,
                     ScenarioEngine._route_stream),
    "churn": _Kind(*_COUNT, lambda e: 192, ScenarioEngine._churn),
    "flash": _Kind(*_COUNT,
                   lambda e: min(2 * e.chunk, max(1, e.lookups_total // 8)),
                   ScenarioEngine._flash),
    "failstop": _Kind(*_PROBABILITY, lambda e: 0.08, ScenarioEngine._failstop),
    "byzantine": _Kind(*_PROBABILITY, lambda e: 0.05,
                       ScenarioEngine._byzantine),
    "rebalance": _Kind(*_COUNT, lambda e: max(32, e.n0 // 32),
                       ScenarioEngine._rebalance),
    "mass": _Kind(lambda f: f <= 1, "a fraction in [0, 1]", lambda e: 0.3,
                  ScenarioEngine._mass),
}
