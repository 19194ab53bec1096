"""Reach gate: every ``src/`` function and statement some command runs,
or a reason why not.

Usage, from the repository root (no flags; ~1-2 min on a 2-vCPU box)::

    python tools/reach.py

It runs the repository's own commands, reading them rather than copying
them:

* each ``run python ...`` line of ``benchmarks/ci_smoke.sh``: the quick
  run of every experiment (``run all --quick``) and the ``soak`` runs;
* every ``examples/*.py``;
* ``BENCHMARK.json``'s ``command`` with ``--all --seconds 2``.

Each command runs with a generated ``sitecustomize`` first on
``PYTHONPATH``.  It installs one ``sys.settrace`` hook in every Python
process it starts, subprocesses included, and each process dumps what
it saw when it exits: the code objects it entered (the hook's ``call``
events) and the lines it ran inside ``src/repro`` (``line`` events of a
local tracer only frames of the package get, so NumPy and the stdlib
pay only the call check).  Python 3.11 has no ``sys.monitoring``, hence
the trace hook.  Forked pool workers leave through ``os._exit`` and dump
nothing, which is why the worker side of ``core/shard.py`` is
allowlisted by name; the spine's ``route_sharded`` runs its parent side.

Functions are joined against an ``ast`` inventory of ``src/`` keyed by
``(file, first decorator-or-def line)``, the line ``co_firstlineno``
reports.  Statements are every ``ast`` statement of ``src/repro`` but
docstrings: a compound statement ran when a line of its header ran, a
simple one when any of its lines did.  Exempt are refusals, every
statement of a block whose last statement is ``raise`` (nested blocks
included), and the CLI's usage exits (a ``print(..., file=sys.stderr)``
then ``return 2``): tier-1's input sweep and harness enter them.  A
function on :data:`ALLOWLIST` covers its statements.  The gate's limit:
a conditional expression on one line is one statement, so a branch
written as ``a if c else b`` is never a target.

Exit 1 when a function no command entered is not on :data:`ALLOWLIST`,
an unrun statement is neither exempt nor covered nor on
:data:`STATEMENTS`, a list entry went stale (it names nothing, or what
it names ran: the lists must not rot), or a command failed; exit 0
otherwise.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Functions kept although no command enters them, one reason each.  A key
#: is ``"<file under src/repro>:<qualified name>"`` (it covers the
#: functions nested in it), or a bare file for all of its functions.
#: ``tests/core/test_public_surface.py`` reads its public top-level names
#: from here too.
ALLOWLIST = {
    # the worker side of the sharded backend: forked pool workers exit
    # through os._exit without a dump
    "core/shard.py:_init_worker": "pool initializer, runs in each worker",
    "core/shard.py:_run_fast": "a worker's task, runs in the worker",
    "core/shard.py:_ShardRouter.ensure_fresh": "the worker router's "
                                               "freshness guard",
    "core/shard.py:_ShardRouter.refresh": "refuses a refresh in a worker",
    # abstract or protocol stubs
    "baselines/base.py:BaselineDHT.n": "abstract property",
    "baselines/base.py:BaselineDHT.node_ids": "abstract method",
    "baselines/base.py:BaselineDHT._owner": "abstract method",
    "baselines/base.py:BaselineDHT._lookup_path": "abstract method",
    "baselines/base.py:BaselineDHT.degree": "abstract method",
    "baselines/base.py:BaselineDHT.batch_router": "abstract method",
    "baselines/base.py:BaselineBatchRouter.route_batch": "abstract method",
    "core/snapshot.py:ColumnarSnapshot._rebuild": "abstract method",
    "core/snapshot.py:ColumnarSnapshot._patch": "the no-patch-rule default "
                                                "every subclass overrides",
    "emulation/families.py:GraphFamily.degree_bound": "protocol stub",
    "emulation/families.py:GraphFamily.neighbors": "protocol stub",
    "sim/engine.py:SimNode.on_message": "abstract method",
    # dunders
    "core/node.py:Server.__eq__": "dunder",
    "core/node.py:Server.__hash__": "dunder",
    "core/node.py:Server.__repr__": "dunder",
    "hashing/kwise.py:KWiseHash.__repr__": "dunder",
    "core/network.py:DistanceHalvingNetwork.__len__": "dunder",
    "core/shard.py:ShardedExecutor.__enter__": "dunder",
    "core/shard.py:ShardedExecutor.__exit__": "dunder",
    # an error path: no command's lookup fails to converge
    "sim/engine.py:EventLoop.clear": "drops the queue when a protocol "
                                     "lookup raises",
    # a bound check that runs only when its flag is given
    "cli.py:_scenario_script": "validates soak --phases",
    # the only path for a supported input
    "balance/strategies.py:ImprovedSingleChoice._probes": "a window's "
                                                          "probe count; "
                                                          "populate never "
                                                          "picks improved",
}


#: Statements kept although no command runs them, one reason each.  A
#: key is ``"<file under src/repro>:<qualified name>:<first line>"``: the
#: innermost def or class around the statement (``<module>`` at top
#: level) and its first source line, stripped, so a key survives edits
#: that move lines.  It covers every statement matching it.
STATEMENTS = {
    "artifacts.py:_non_finite:yield f\"{where} = {value}\"":
        "names a non-finite leaf in the ValueError a dump raises",
    "artifacts.py:unwritable:return \"is not a directory\" if directory else \"is a directory\"":
        "a bad --out / --json-out path; tier-1's CLI contract tests refuse them",
    "artifacts.py:unwritable:parent = os.path.dirname(parent)":
        "a bad --out / --json-out path; tier-1's CLI contract tests refuse them",
    "artifacts.py:unwritable:return f\"is under {parent}, which is not a directory\"":
        "a bad --out / --json-out path; tier-1's CLI contract tests refuse them",
    "artifacts.py:unwritable:return f\"is under {parent}, which is not writable\"":
        "a bad --out / --json-out path; tier-1's CLI contract tests refuse them",
    "artifacts.py:write_artifact:return":
        "soak without --json-out writes nothing",
    "balance/buckets.py:BucketBalancer._bucket_index_covering:best = max(range(len(self.buckets)), key=lambda i: self.buckets[i].points[0])":
        "fallback when float rounding leaves a point in no half-open territory",
    "balance/buckets.py:BucketBalancer._bucket_index_covering:return best":
        "fallback when float rounding leaves a point in no half-open territory",
    "balance/buckets.py:BucketBalancer._local_smoothness:return 1.0":
        "a bucket whose points all coincide with its anchor",
    "balance/buckets.py:BucketBalancer._respread:q = normalize(q + width * 1e-6)":
        "nudges a respread id off another bucket's id",
    "balance/buckets.py:BucketBalancer._merge_if_needed:return":
        "a lone bucket has nothing to merge into",
    "balance/buckets.py:BucketBalancer.join:z = float(rng.random())":
        "redraws an id that is already taken",
    "balance/strategies.py:_walk:cut = cuts[g] = [got.item(k)]":
        "a later chooser of a group whose cut list the first chooser never made",
    "balance/two_dim.py:TwoDimMultipleChoice.join:self.failed += 1":
        "§5 Step 4's failure fallback: no sample has an empty fine cell",
    "balance/two_dim.py:TwoDimMultipleChoice.join:return self._accept(samples[0])":
        "§5 Step 4's failure fallback: no sample has an empty fine cell",
    "balance/two_dim.py:is_smooth_2d:return False":
        "a non-smooth verdict; every point set the commands test is smooth",
    "baselines/dh_adapter.py:DistanceHalvingAdapter._lookup_path:return dh_lookup(self.net, source, target, rng).server_path":
        "the scalar path of the adapter's dh mode; E1 replays it in batch",
    "baselines/tapestry.py:TapestryNetwork._route:return path":
        "pragma no cover: a node's own digit bucket is never empty",
    "baselines/viceroy.py:ViceroyNetwork.__init__:x0 = self.points[0]":
        "keeps level 1 inhabited when the level draw leaves it empty",
    "baselines/viceroy.py:ViceroyNetwork.__init__:self._by_level.setdefault(1, []).append(x0)":
        "keeps level 1 inhabited when the level draw leaves it empty",
    "baselines/viceroy.py:ViceroyNetwork.__init__:self._by_level[self.level[x0]].remove(x0)":
        "keeps level 1 inhabited when the level draw leaves it empty",
    "baselines/viceroy.py:ViceroyNetwork.__init__:self.level[x0] = 1":
        "keeps level 1 inhabited when the level draw leaves it empty",
    "baselines/viceroy.py:ViceroyNetwork._nearest_at_level:return self._ring_succ(y)":
        "a level with no node falls back to the ring successor",
    "baselines/viceroy.py:ViceroyNetwork._lookup_path:break":
        "a climb that finds no upward link stops",
    "cli.py:_run_soak:print(f\"soak: non-finite value in result ({exc})\", file=sys.stderr)":
        "an error exit: a non-finite value in a soak result",
    "cli.py:_run_soak:return 1":
        "an error exit: a non-finite value in a soak result",
    "cli.py:main:print(\"\\n\".join(available))":
        "the list subcommand",
    "cli.py:main:return 0":
        "the list subcommand",
    "cli.py:main:unknown = [n for n in names if n.upper() not in available]":
        "run with explicit ids; the commands run all",
    "cli.py:main:if unknown:":
        "run with explicit ids; the commands run all",
    "core/batch.py:BatchRouter._build_adjacency:return":
        "a one-server network covers every image itself",
    "core/batch.py:BatchRouter._patch:return False":
        "a ring below four servers is rebuilt, not patched",
    "core/batch.py:BatchRouter.sharded_executor:ex.close()":
        "a worker count other than the cached executor's",
    "core/batch.py:BatchRouter.sharded_executor:ex = None":
        "a worker count other than the cached executor's",
    "core/batch.py:BatchRouter._segment_test:return lambda p: np.ones(p.shape, dtype=bool)":
        "a one-server network's segment is the whole ring",
    "core/batch.py:BatchRouter.batch_fast_lookup:level_cap = min(level_cap, exact_digits(self.delta))":
        "the only path for a non-power-of-two Δ; no command routes one",
    "core/batch.py:BatchRouter._cost_walk:if key is None:":
        "the weighted rule's rng= form; the commands pass choices= so the scalar replay reads them",
    "core/batch.py:BatchRouter._cost_walk:u_mat = KeyedLanes(key, size, exact_digits(self.delta) + 1)":
        "the weighted rule's rng= form; the commands pass choices= so the scalar replay reads them",
    "core/batch_cache.py:_isin_sorted:return np.zeros(values.shape, dtype=bool)":
        "an empty table",
    "core/batch_cache.py:BatchCacheEngine.serve_batch:empty = np.zeros(0, LANE_INT)":
        "an empty batch",
    "core/batch_cache.py:BatchCacheEngine.serve_batch:return BatchCacheResult(":
        "an empty batch",
    "core/batch_cache.py:BatchCacheEngine.items_cached_per_server:return np.zeros(self._router.n, np.int64)":
        "before any request touched a tree",
    "core/continuous.py:ContinuousGraph.child:return y / self.delta + Fraction(digit, self.delta)":
        "an exact Fraction id, the exact suites' input",
    "core/continuous.py:ContinuousGraph.image_arcs_by_digit:s = normalize(arc.start * factor + offset)":
        "a one-server network's segment is the whole ring",
    "core/continuous.py:ContinuousGraph.image_arcs_by_digit:out.append([Arc(s, normalize(s + factor))])":
        "a one-server network's segment is the whole ring",
    "core/continuous.py:ContinuousGraph.image_arcs_by_digit:continue":
        "a one-server network's segment is the whole ring",
    "core/continuous.py:ContinuousGraph.preimage_arcs:return [Arc(0.0, 0.0)]":
        "an arc of length ≥ 1/Δ, whose preimage is the whole ring",
    "core/interval.py:normalize:return r - 1":
        "a tiny negative float whose % 1 rounds to 1.0",
    "core/interval.py:midpoint:mid = BELOW_ONE":
        "a seam midpoint that rounds onto 1.0",
    "core/interval.py:Arc.__contains__:return True":
        "a one-server network's segment is the whole ring",
    "core/interval.py:Arc.pieces:if self.start == zero:":
        "a one-server network's segment is the whole ring",
    "core/interval.py:Arc.pieces:yield (zero, one)":
        "a one-server network's segment is the whole ring",
    "core/interval.py:Arc.pieces:yield (self.start, one)":
        "a one-server network's segment is the whole ring",
    "core/interval.py:Arc.pieces:yield (zero, self.start)":
        "a one-server network's segment is the whole ring",
    "core/network.py:DistanceHalvingNetwork.choose_point:return float(self._rng.random())":
        "join without a selector; the commands grow through §4 strategies",
    "core/network.py:DistanceHalvingNetwork.populate:for key, (pos, _v) in list(srv.store.items()):":
        "hands stored items to their new owners when populate grows a network that holds items",
    "core/network.py:DistanceHalvingNetwork.populate:owner = self.owner_of(pos)":
        "hands stored items to their new owners when populate grows a network that holds items",
    "core/network.py:DistanceHalvingNetwork.populate:if owner is not srv:":
        "hands stored items to their new owners when populate grows a network that holds items",
    "core/network.py:DistanceHalvingNetwork.populate:owner.store[key] = srv.store.pop(key)":
        "hands stored items to their new owners when populate grows a network that holds items",
    "core/network.py:DistanceHalvingNetwork.ring_neighbor_points:return []":
        "a one-server network has no ring neighbours",
    "core/network.py:DistanceHalvingNetwork.average_degree:return 0.0":
        "an empty network",
    "core/network.py:DistanceHalvingNetwork.check_invariants:seg = self.segments.segment_of(p)":
        "an invariant check on stored items",
    "core/network.py:DistanceHalvingNetwork.check_invariants:for key, (pos, _v) in srv.store.items():":
        "an invariant check on stored items",
    "core/network.py:DistanceHalvingNetwork.check_invariants:assert pos in seg, f\"item {key!r} at {pos} outside {seg} of {p}\"":
        "an invariant check on stored items",
    "core/node.py:Server.__init__:self.name = name":
        "a server joined with an explicit name",
    "core/routing_stats.py:_CongestionStatsMixin.max_congestion:return 0.0":
        "no lookup or no server booked yet",
    "core/routing_stats.py:_CongestionStatsMixin.mean_load:return 0.0":
        "no lookup or no server booked yet",
    "core/segments.py:CoverIndex.cover:idx[lanes] = cover_indices(ext[:-1], ys.take(lanes))":
        "a lane past the advance cap falls back to a binary search",
    "core/segments.py:CoverIndex.cover:break":
        "a lane past the advance cap falls back to a binary search",
    "core/segments.py:SegmentMap.__init__:if a == b:":
        "refuses duplicate ids; the commands build maps by insert and merge",
    "core/segments.py:SegmentMap.insert:checks.finite(point, \"point\")":
        "refuses NaN and ±inf",
    "core/segments.py:SegmentMap.covering:return [0]":
        "a one-server network",
    "core/segments.py:SegmentMap.lengths_from_array:return np.zeros(0)":
        "an empty column",
    "core/segments.py:SegmentMap.smoothness:return math.inf":
        "a zero-length segment",
    "core/shard.py:merge_results:points = parts[0].points":
        "shards that kept their id-point array",
    "core/shard.py:ShardedExecutor.__del__:pass":
        "pragma no cover: teardown at garbage collection",
    "core/shard.py:ShardedExecutor.batch_fast_lookup:return self.router.batch_fast_lookup(src, y, keep_paths=keep_paths)":
        "a batch too small to split runs in the parent",
    "core/shard.py:available_workers:return os.cpu_count() or 1":
        "pragma no cover: a platform without sched_getaffinity",
    "core/snapshot.py:OpJournal.ops_since:return None":
        "a version the journal trimmed; the refresh rebuilds",
    "core/snapshot.py:ColumnarSnapshot.ensure_fresh:if not self.auto_refresh:":
        "a stale snapshot at a query; the commands refresh first",
    "core/snapshot.py:ColumnarSnapshot.ensure_fresh:self.refresh()":
        "a stale snapshot at a query; the commands refresh first",
    "core/snapshot.py:ColumnarSnapshot.refresh:self._rebuild()":
        "the full-rebuild fallback of a refresh",
    "core/snapshot.py:ColumnarSnapshot.refresh:self.refresh_stats.full_rebuilds += 1":
        "the full-rebuild fallback of a refresh",
    "core/snapshot.py:ColumnarSnapshot.refresh:self.refresh_stats.ops_absorbed += ops":
        "the full-rebuild fallback of a refresh",
    "core/walk.py:normalize_points:arr = np.full(size if size is not None else 1, float(arr))":
        "a scalar target broadcast over the lanes",
    "core/walk.py:integral_array:with np.errstate(invalid=\"ignore\"):":
        "integer-valued float digits; a fractional one is refused",
    "core/walk.py:integral_array:as_int = arr.astype(np.int64)":
        "integer-valued float digits; a fractional one is refused",
    "core/walk.py:integral_array:if (as_int != arr).any():":
        "integer-valued float digits; a fractional one is refused",
    "core/walk.py:integral_array:return as_int":
        "integer-valued float digits; a fractional one is refused",
    "core/walk.py:per_lane_matrix:mat = integral_array(mat, f\"{what} digits\").astype(dtype, copy=False)":
        "float or uint64 digits checked as integers",
    "core/walk.py:KeyedLanes.__getitem__:lanes = np.arange(self.shape[0])[lanes]":
        "a slice of lanes with a per-lane step",
    "core/walk.py:KeyedLanes.__getitem__:digit = word // delta ** k":
        "the only path for a non-power-of-two Δ; no command routes one",
    "core/walk.py:KeyedLanes.__getitem__:digit %= np.uint64(delta)":
        "the only path for a non-power-of-two Δ; no command routes one",
    "core/walk.py:forward_levels:p /= scale":
        "the only path for a non-power-of-two Δ; no command routes one",
    "core/walk.py:level_points:low = (off % np.asarray(scale, dtype=np.int64)).astype(np.float64)":
        "the only path for a non-power-of-two Δ; no command routes one",
    "core/walk.py:level_points:return fold_unit((y + low) / scale)":
        "the only path for a non-power-of-two Δ; no command routes one",
    "core/walk.py:descend:offs = offs.astype(np.int64)":
        "the only path for a non-power-of-two Δ; no command routes one",
    "emulation/emulator.py:GraphEmulator.guests_of:first += 1":
        "a float ceiling one guest short",
    "expander/expansion.py:spectral_gap:return 0.0":
        "a disconnected graph",
    "expander/expansion.py:spectral_gap:vals = spla.eigsh(L.tocsc(), k=2, sigma=-0.01, which=\"LM\",":
        "a graph above 600 nodes takes the sparse eigensolver",
    "expander/expansion.py:spectral_gap:return float(np.sort(vals)[1])":
        "a graph above 600 nodes takes the sparse eigensolver",
    "experiments/ablations.py:phase_ablation:checks[\"at n≥4096 one-phase pays ≥ 1.4×\"] = (":
        "a full-size check; the commands quick-run",
    "experiments/caching_single.py:trace_parity:continue":
        "a parity check's failure exit",
    "experiments/caching_single.py:trace_parity:return False":
        "a parity check's failure exit",
    "experiments/caching_single.py:run:salted_ok &= salted_hits < max_hits":
        "a full-size check; the commands quick-run",
    "experiments/common.py:format_rows:return \"(no rows)\"":
        "an experiment with no rows",
    "experiments/extensions.py:erasure_vs_replication:pass":
        "a trial whose item is lost",
    "experiments/faults_exp.py:scalar_simple_replay:return False":
        "a parity check's failure exit",
    "experiments/runner.py:run_experiments:kwargs[\"seed\"] = seed + zlib.crc32(key.encode()) % 1000":
        "run --seed N; the commands run the default seeds",
    "experiments/table1.py:run:checks[\"ordering: CAN path dominates log-schemes at max n\"] = all(":
        "a full-size check; the commands quick-run",
    "experiments/table1.py:run:checks[\"ordering: small-world path above every log-scheme\"] = all(":
        "a full-size check; the commands quick-run",
    "faults/batch_ft.py:FTBatchEngine.batch_resistant_lookup:srv = value[lanes][corrupt] - 1":
        "a lane a lone liar corrupted at an earlier relay level",
    "faults/batch_ft.py:FTBatchEngine.batch_resistant_lookup:vp[corrupt] = (amask[:, corrupt]":
        "a lane a lone liar corrupted at an earlier relay level",
    "faults/erasure.py:GF256.pow:return 0 if e else 1":
        "zero to a power",
    "faults/erasure.py:ReedSolomonCode._inverse_of:del self._inverses[next(iter(self._inverses))]":
        "evicts the oldest cached inverse at the cap",
    "faults/erasure.py:ErasureStore.shares_alive:return len(item.share_at)":
        "a query with no fault set",
    "faults/erasure.py:ErasureStore.verify:return False":
        "an audit's failure exit",
    "faults/erasure.py:ErasureStore.read_repair:return 0":
        "an item whose holders are all alive",
    "faults/erasure.py:ErasureStore.heal:report.lost += 1":
        "an item lost beyond repair",
    "faults/erasure.py:ErasureStore.heal:continue":
        "an item lost beyond repair",
    "faults/lookup_ft.py:resistant_lookup:continue":
        "a relay layer that dies out, in the scalar §6.3 twin",
    "faults/lookup_ft.py:resistant_lookup:return FTLookupResult(False, path_points=path, messages=messages,":
        "a relay layer that dies out, in the scalar §6.3 twin",
    "peer/policy.py:select_rows:sel[need] = len(w) - 1 - (0 if ok is None":
        "a row whose every candidate is masked or weighs 0",
    "sim/churn.py:ChurnReport.mean_touched:return 0.0":
        "no measured op",
    "sim/engine.py:EventLoop.run:checks.real(until, \"until\", \"[0, inf]\")":
        "run with an until= time",
    "sim/engine.py:EventLoop.run:break":
        "run with an until= time",
    "sim/metrics.py:summarize:return Summary(0, float(\"nan\"), float(\"nan\"), float(\"nan\"), float(\"nan\"), float(\"nan\"))":
        "an empty sample",
    "sim/scenario.py:parse_phases:continue":
        "soak --phases with arguments; no command passes --phases",
    "sim/scenario.py:parse_phases:arg = float(raw)":
        "soak --phases with arguments; no command passes --phases",
    "sim/scenario.py:parse_phases:if arg < 0:":
        "soak --phases with arguments; no command passes --phases",
    "sim/scenario.py:parse_phases:rule = _PHASE_KINDS[kind]":
        "soak --phases with arguments; no command passes --phases",
    "sim/scenario.py:parse_phases:if not rule.fits(arg):  # NaN and inf fail every predicate too":
        "soak --phases with arguments; no command passes --phases",
    "sim/scenario.py:ScenarioEngine._ft_stream:return":
        "a fault phase on an emptied substrate",
    "sim/scenario.py:ScenarioEngine.check_invariants:detail += \"; \" + grid":
        "an invariant audit's failure detail",
    "sim/scenario.py:ScenarioEngine.check_invariants:add(\"cache\", False, str(exc))":
        "an invariant audit's failure detail",
    "sim/scenario.py:ScenarioEngine.check_invariants:add(\"network\", False, str(exc))":
        "an invariant audit's failure detail",
}


def inventory(src: pathlib.Path = SRC) -> dict:
    """``{(path, first line): qualified name}`` for every def under ``src``.

    The first line is the first decorator's, else the ``def``'s: the line
    a code object's ``co_firstlineno`` reports.  A nested name joins its
    enclosing classes and functions with dots.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    found[(path, first)] = name
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), "")
    return found


class Statement(NamedTuple):
    """One ``src/`` statement as the gate sees it."""

    path: pathlib.Path
    qualname: str
    text: str
    lines: range
    exempt: bool


def _usage_exit(block: list) -> bool:
    """``print(..., file=sys.stderr)`` then ``return 2``: the CLI's exit."""
    if len(block) < 2:
        return False
    say, last = block[-2:]
    return (isinstance(last, ast.Return)
            and isinstance(last.value, ast.Constant) and last.value.value == 2
            and isinstance(say, ast.Expr) and isinstance(say.value, ast.Call)
            and ast.unparse(say.value.func) == "print"
            and any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                    for k in say.value.keywords))


def statements(src: pathlib.Path = SRC) -> list:
    """Every statement under ``src`` but docstrings, in source order.

    ``lines`` holds the lines whose run counts: a compound statement's
    header (decorators included, up to its first body statement), a
    simple statement's every line.  ``exempt`` marks a refusal: the
    statement sits in a block ending in ``raise``, or a usage exit, or
    a block nested in one.
    """
    found = []

    def visit(block, path, source, qualname, exempt):
        exempt = exempt or isinstance(block[-1], ast.Raise) or _usage_exit(block)
        for stmt in block:
            inner = [b for b in (getattr(stmt, "body", None),
                                 getattr(stmt, "orelse", None),
                                 getattr(stmt, "finalbody", None),
                                 *(h.body for h in getattr(stmt, "handlers", ())),
                                 *(c.body for c in getattr(stmt, "cases", ())))
                     if b]
            first = min([d.lineno for d in getattr(stmt, "decorator_list", ())]
                        + [stmt.lineno])
            end = (max(first + 1, min(b[0].lineno for b in inner)) if inner
                   else stmt.end_lineno + 1)
            found.append(Statement(path, qualname,
                                   source[stmt.lineno - 1].strip(),
                                   range(first, end), exempt))
            scope = qualname
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                scope = (stmt.name if qualname == "<module>"
                         else f"{qualname}.{stmt.name}")
            if scope != qualname and ast.get_docstring(stmt) is not None:
                inner[0] = inner[0][1:]
            for b in filter(None, inner):
                visit(b, path, source, scope, exempt)

    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
        if body:
            visit(body, path.resolve(), text.splitlines(), "<module>", False)
    return found


def smoke_commands(script: pathlib.Path, out_dir: str) -> list:
    """The argv of each ``run python ...`` line of a smoke script.

    Backslash continuations join; ``$OUT_DIR`` becomes ``out_dir``.
    """
    joined = re.sub(r"\\\n", " ", script.read_text())
    return [shlex.split(line.strip()[len("run "):].replace("$OUT_DIR", out_dir))
            for line in joined.splitlines()
            if line.strip().startswith("run python ")]


def commands(out_dir: str) -> list:
    """Every command the gate traces, in run order."""
    spine = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return [*smoke_commands(ROOT / "benchmarks" / "ci_smoke.sh", out_dir),
            *(["python", str(path.relative_to(ROOT))]
              for path in sorted((ROOT / "examples").glob("*.py"))),
            [*spine, "--all", "--seconds", "2"]]


#: written as ``sitecustomize.py``; ``{dump_dir!r}`` and ``{package!r}``
#: are filled in.  Each dump gets a name of its own, opened exclusively:
#: a later process that reuses a pid must not overwrite an earlier one's
#: dump.
_HOOK = '''\
import atexit, json, os, sys, threading, time

_entered = {{}}
_ran = {{}}
_local = {{}}


def _lines(name):
    ran = _ran[name] = set()
    add = ran.add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local
    return local


def _call(frame, event, arg):
    code = frame.f_code
    _entered[id(code)] = code
    name = code.co_filename
    if name not in _local:
        mine = os.path.realpath(name).startswith({package!r})
        _local[name] = _lines(name) if mine else None
    return _local[name]


def _dump():
    sys.settrace(None)
    hits = sorted({{(c.co_filename, c.co_firstlineno)
                   for c in _entered.values()}})
    ran = {{name: sorted(lines) for name, lines in _ran.items()}}
    name = f"{{os.getpid()}}-{{time.monotonic_ns()}}.json"
    with open(os.path.join({dump_dir!r}, name), "x") as f:
        json.dump({{"entered": hits, "ran": ran}}, f)


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


def trace(argvs: list, cwd: pathlib.Path, pythonpath: str,
          package: pathlib.Path) -> tuple:
    """Run each argv under the trace hook.

    Returns ``(entered, ran, failures)``: the sets of ``(resolved path,
    line)`` every traced process entered (a code object's first line)
    and ran (a line of a file under ``package``), and a line per command
    that exited non-zero.  ``python`` / ``python3`` run as this
    interpreter.
    """
    entered, ran, failures = set(), set(), []
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir, dump_dir = (os.path.join(scratch, d) for d in ("hook", "dumps"))
        os.mkdir(hook_dir)
        os.mkdir(dump_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as f:
            f.write(_HOOK.format(dump_dir=dump_dir,
                                 package=str(package.resolve()) + os.sep))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([hook_dir, pythonpath]))
        for argv in argvs:
            if argv[0] in ("python", "python3"):
                argv = [sys.executable, *argv[1:]]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=cwd, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            shown = shlex.join(argv[1:] if argv[0] == sys.executable else argv)
            print(f"  {time.perf_counter() - start:5.1f} s  {shown}",
                  flush=True)
            if done.returncode:
                failures.append(f"exit {done.returncode}: {shown}\n"
                                f"{done.stderr[-2000:]}")
        for dump in pathlib.Path(dump_dir).glob("*.json"):
            seen = json.loads(dump.read_text())
            entered |= {(pathlib.Path(cwd, name).resolve(), line)
                        for name, line in seen["entered"]}
            for name, lines in seen["ran"].items():
                path = pathlib.Path(cwd, name).resolve()
                ran |= {(path, line) for line in lines}
    return entered, ran, failures


def _covered(key: str, allowlist: dict) -> bool:
    """Whether an :data:`ALLOWLIST` key covers ``"file:dotted.name"``:
    the file's key, or the key of the name or of a name it nests in."""
    file, _, name = key.partition(":")
    parts = name.split(".")
    return file in allowlist or any(
        f"{file}:{'.'.join(parts[:k])}" in allowlist
        for k in range(1, len(parts) + 1))


def verdict(found: dict, entered: set, allowlist: dict,
            package: pathlib.Path) -> tuple:
    """``(unreached, stale)`` as ``"file:name"`` keys.

    ``unreached``: functions of ``package`` no command entered and no
    allowlist key covers.  ``stale``: allowlist keys that name no
    function or file, or name a function that was entered.
    """
    keys = {(path, line): f"{path.relative_to(package).as_posix()}:{name}"
            for (path, line), name in found.items()}
    unreached = sorted(k for where, k in keys.items()
                       if where not in entered and not _covered(k, allowlist))
    hit = {k for where, k in keys.items() if where in entered}
    named = set(keys.values())
    files = {k.partition(":")[0] for k in named}

    def is_stale(key):
        if ":" not in key:
            return key not in files
        return key not in named or key in hit

    return unreached, sorted(filter(is_stale, allowlist))


def statement_verdict(stmts: list, ran: set, allowlist: dict,
                      kept: dict, package: pathlib.Path) -> tuple:
    """``(unrun, stale)`` over statements, as ``"file:name:first line"``.

    ``unrun``: statements no command ran that are not exempt, not in a
    function ``allowlist`` covers and not on ``kept``; each carries its
    current line number after a ``@``.  ``stale``: ``kept`` keys that
    keep no such statement: none matches, or every match ran or is
    exempt.  (A key names each statement of its text in its function,
    so the redraw of ``z = draw()`` in a loop is kept while the first
    draw runs.)
    """
    unrun, needed = [], set()
    for stmt in stmts:
        file = stmt.path.relative_to(package).as_posix()
        key = f"{file}:{stmt.qualname}:{stmt.text}"
        if not (stmt.exempt or any((stmt.path, line) in ran
                                   for line in stmt.lines)
                or _covered(f"{file}:{stmt.qualname}", allowlist)):
            needed.add(key)
            if key not in kept:
                unrun.append(f"{key} @{stmt.lines[0]}")
    return unrun, sorted(k for k in kept if k not in needed)


def main() -> int:
    package = (SRC / "repro").resolve()
    found, stmts = inventory(), statements()
    with tempfile.TemporaryDirectory() as out_dir:
        print(f"reach: tracing the repository's commands over {len(found)} "
              f"src/ functions and {len(stmts)} statements")
        entered, ran, failures = trace(commands(out_dir), ROOT, str(SRC),
                                       package)
    unreached, stale = verdict(found, entered, ALLOWLIST, package)
    unrun, stale_kept = statement_verdict(stmts, ran, ALLOWLIST, STATEMENTS,
                                          package)
    missed = sum((path, line) not in entered for path, line in found)
    print(f"reach: {len(found) - missed} of {len(found)} functions entered, "
          f"{missed} not ({len(ALLOWLIST)} allowlist entries)")
    idle = [s for s in stmts
            if not any((s.path, line) in ran for line in s.lines)]
    refusals = sum(s.exempt for s in idle)
    print(f"reach: {len(stmts) - len(idle)} of {len(stmts)} statements ran, "
          f"{len(idle)} not: {refusals} refusals, the rest in allowlisted "
          f"functions or on {len(STATEMENTS)} statement entries")
    for failure in failures:
        print(f"command failed, trace incomplete: {failure}")
    for k in unreached:
        print(f"unreached, not allowlisted: {k}")
    for k in stale:
        print(f"allowlisted but entered or not defined: {k}")
    for k in unrun:
        print(f"unrun statement, not allowlisted: {k}")
    for k in stale_kept:
        print(f"statement entry stale (ran, or matches none): {k}")
    return 1 if failures or unreached or stale or unrun or stale_kept else 0


if __name__ == "__main__":
    sys.exit(main())
