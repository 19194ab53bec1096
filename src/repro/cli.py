"""Command-line entry point: ``python -m repro.cli``.

Examples::

    PYTHONPATH=src python -m repro.cli list
    PYTHONPATH=src python -m repro.cli run E1 E3 --quick
    PYTHONPATH=src python -m repro.cli run all --out results/
    PYTHONPATH=src python -m repro.cli bench-throughput --n 4096
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

EPILOG = """\
subcommands:
  list              print every registered experiment id (E*, F*, A*, X*)
  run IDS|all       run experiments; --quick shrinks sizes, --out DIR
                    writes one JSON result file per experiment
  bench-throughput  measure the vectorized batch-lookup engine against
                    the scalar per-hop loop on one network, with a
                    bit-parity cross-check (see docs/BENCHMARKS.md)
  bench-churn       soak the auto-refresh router under churn traces
                    (incl. a 50% mass departure) interleaved with bulk
                    lookup batches; reports lookups/sec and the
                    incremental refresh cost per membership op, gated
                    by --max-refresh-us
  bench-congestion  route-and-account a random-pair workload with CSR
                    batch path accounting (BatchCongestion) against the
                    scalar per-lookup Counter loop; summaries must be
                    bit-identical on a shared subsample
  bench-faults      route one fault-sweep cell (random fail-stop plan,
                    surviving sources) through the vectorized
                    fault-tolerant batch engine against the scalar
                    per-hop walk, with a bit-identical choice-driven
                    replay on a subsample
  bench-caching     serve a Zipf hot-key stream through the vectorized
                    §3 cache engine against the scalar per-request
                    loop, with a bit-identical trace replay on a side
                    network and a salted-vs-unsalted hotspot relief
                    check
  bench-baselines   Table 1 shoot-out: route every baseline overlay
                    (Chord, Tapestry, CAN, small-world, Viceroy,
                    Koorde, DH) through its compiled batch router
                    against its scalar lookup_path loop; every scheme
                    must hold the --min-speedup floor and replay its
                    scalar subsample bit-for-bit
  soak              day-in-the-life streaming soak: a phase-scripted
                    scenario (lookups, churn, flash crowd, fail-stop +
                    Byzantine waves with Reed-Solomon read-repair
                    healing, rebalancing, mass departure) on one live
                    network, with cross-subsystem invariant checks
                    between phases; --json-out artifacts are
                    byte-reproducible per --seed
  bench-shard       multicore shoot-out: route the same random-pair
                    workload chunk-by-chunk through the single-process
                    batch engine and the sharded multiprocessing
                    backend (--workers N over shared-memory snapshot
                    columns); merged congestion summary and hop
                    histogram must be bit-identical, and the sharded
                    gain must hold --min-speedup when the machine has
                    at least N CPUs
  bench-cost        cost-aware covering-edge routing (P4P/ALTO-style):
                    route the same workload under uniform / greedy /
                    weighted cover selection over a synthetic ISP cost
                    map; gates the greedy cross-ISP reduction floor,
                    the hop-stretch ceiling, the scalar bit-parity
                    replay and the core engine's tau_used replay
  bench-compare     regression gate: diff this run's bench-artifacts/
                    BENCH_*.json against the committed references in
                    benchmarks/baselines/; any throughput ("speedup" /
                    "*_rate") value below (1 - tolerance)·reference or
                    any parity flag flipping off fails the build;
                    --update-refs re-baselines the references

every bench-* subcommand accepts --json-out FILE to additionally write
the measurement dict (plus the pass/fail verdict) as machine-readable
JSON — the artifact CI uploads per run and bench-compare gates on —
and --workers N to run batch routing on the sharded multiprocessing
backend (default 1 = in-process; artifacts record workers + cpu count,
and bench-compare refuses diffs across different worker counts).

invocation: PYTHONPATH=src python -m repro.cli <subcommand> [options]
"""


def _write_json_out(path: Optional[str], command: str, result: dict,
                    ok: bool, workers: int = 1) -> None:
    """Dump one bench measurement as a JSON artifact (NumPy-safe).

    Thin wrapper over :func:`repro.artifacts.write_artifact` — the one
    shared serializer — stamping the worker count into the envelope.
    """
    from .artifacts import write_artifact

    write_artifact(path, command, result, ok, workers=workers)


def _check_workers(args, command: str) -> Optional[int]:
    """Validate ``--workers``; returns an exit code on error, else None."""
    if args.workers < 1:
        print(f"{command}: --workers must be >= 1", file=sys.stderr)
        return 2
    return None


def _bench_throughput(args) -> int:
    from .experiments.throughput import format_throughput_report, measure_throughput

    if args.n < 1 or args.lookups < 1 or args.scalar_sample < 1:
        print(
            "bench-throughput: --n, --lookups and --scalar-sample must be >= 1",
            file=sys.stderr,
        )
        return 2
    if args.delta < 2:
        print("bench-throughput: --delta must be >= 2", file=sys.stderr)
        return 2
    if (rc := _check_workers(args, "bench-throughput")) is not None:
        return rc

    result = measure_throughput(
        n=args.n,
        lookups=args.lookups,
        seed=args.seed,
        scalar_sample=args.scalar_sample,
        algorithm=args.algorithm,
        delta=args.delta,
        workers=args.workers,
    )
    print(format_throughput_report(result))
    ok = result["parity_ok"] and result["speedup"] >= args.min_speedup
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] parity and speedup ≥ {args.min_speedup:g}x")
    _write_json_out(args.json_out, "bench-throughput", result, ok,
                    workers=args.workers)
    return 0 if ok else 1


def _bench_churn(args) -> int:
    from .experiments.churn_soak import format_churn_report, measure_churn_soak

    if args.n < 8 or args.lookups < 1 or args.churn_ops < 1 or args.phases < 1:
        print(
            "bench-churn: --n must be >= 8; --lookups, --churn-ops and "
            "--phases must be >= 1",
            file=sys.stderr,
        )
        return 2
    if not 0.0 <= args.leave_prob <= 1.0:
        print("bench-churn: --leave-prob must be in [0, 1]", file=sys.stderr)
        return 2
    if (rc := _check_workers(args, "bench-churn")) is not None:
        return rc
    if args.workers > 1:
        print("bench-churn: the refresh soak is single-process (it measures "
              "journal replay, not routing); --workers recorded only")

    result = measure_churn_soak(
        n=args.n,
        lookups=args.lookups,
        phases=args.phases,
        churn_ops=args.churn_ops,
        leave_prob=args.leave_prob,
        mass_n=args.mass_n,
        seed=args.seed,
        churn_budget=args.churn_budget,
    )
    print(format_churn_report(result))
    ok = (result["owners_ok"]
          and 1e6 * result["refresh_secs_per_op"] <= args.max_refresh_us)
    verdict = "PASS" if ok else "FAIL"
    print(
        f"[{verdict}] owners fresh and incremental refresh ≤ "
        f"{args.max_refresh_us:g}us per membership op"
    )
    _write_json_out(args.json_out, "bench-churn", result, ok,
                    workers=args.workers)
    return 0 if ok else 1


def _bench_congestion(args) -> int:
    from .experiments.congestion import (
        format_congestion_report,
        measure_congestion,
    )

    if args.n < 2 or args.lookups < 1 or args.scalar_sample < 1:
        print(
            "bench-congestion: --n must be >= 2; --lookups and "
            "--scalar-sample must be >= 1",
            file=sys.stderr,
        )
        return 2
    if args.delta < 2:
        print("bench-congestion: --delta must be >= 2", file=sys.stderr)
        return 2
    if (rc := _check_workers(args, "bench-congestion")) is not None:
        return rc

    result = measure_congestion(
        n=args.n,
        lookups=args.lookups,
        seed=args.seed,
        scalar_sample=args.scalar_sample,
        algorithm=args.algorithm,
        delta=args.delta,
        workers=args.workers,
    )
    print(format_congestion_report(result))
    ok = result["parity_ok"] and result["speedup"] >= args.min_speedup
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] accounting parity and speedup ≥ {args.min_speedup:g}x")
    _write_json_out(args.json_out, "bench-congestion", result, ok,
                    workers=args.workers)
    return 0 if ok else 1


def _bench_faults(args) -> int:
    from .experiments.faults_exp import format_faults_report, measure_faults

    if args.n < 8 or args.pairs < 1 or args.scalar_sample < 1:
        print(
            "bench-faults: --n must be >= 8; --pairs and --scalar-sample "
            "must be >= 1",
            file=sys.stderr,
        )
        return 2
    if not 0.0 <= args.p_fail < 1.0:
        print("bench-faults: --p-fail must be in [0, 1)", file=sys.stderr)
        return 2
    if (rc := _check_workers(args, "bench-faults")) is not None:
        return rc
    if args.workers > 1:
        print("bench-faults: the FT engine's choice-driven replay is "
              "single-process; --workers recorded only")

    result = measure_faults(
        n=args.n,
        pairs=args.pairs,
        p_fail=args.p_fail,
        seed=args.seed,
        scalar_sample=args.scalar_sample,
    )
    print(format_faults_report(result))
    ok = result["parity_ok"] and result["speedup"] >= args.min_speedup
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] replay parity and speedup ≥ {args.min_speedup:g}x")
    _write_json_out(args.json_out, "bench-faults", result, ok,
                    workers=args.workers)
    return 0 if ok else 1


def _bench_caching(args) -> int:
    from .experiments.caching_bench import format_caching_report, measure_caching

    if args.n < 2 or args.requests < 1 or args.scalar_sample < 1:
        print(
            "bench-caching: --n must be >= 2; --requests and "
            "--scalar-sample must be >= 1",
            file=sys.stderr,
        )
        return 2
    if args.salts < 2:
        print("bench-caching: --salts must be >= 2 to spread a hot key",
              file=sys.stderr)
        return 2
    if (rc := _check_workers(args, "bench-caching")) is not None:
        return rc
    if args.workers > 1:
        print("bench-caching: serve_batch's replication fixpoint is "
              "order-dependent across the batch, so caching is never "
              "sharded; --workers recorded only")

    result = measure_caching(
        n=args.n,
        requests=args.requests,
        seed=args.seed,
        scalar_sample=args.scalar_sample,
        n_items=args.items,
        salts=args.salts,
        parity_n=args.parity_n,
        hotspot_requests=args.hotspot_requests,
    )
    print(format_caching_report(result))
    ok = (result["parity_ok"] and result["salted_ok"]
          and result["speedup"] >= args.min_speedup)
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] trace parity, salted relief and speedup ≥ "
          f"{args.min_speedup:g}x")
    _write_json_out(args.json_out, "bench-caching", result, ok,
                    workers=args.workers)
    return 0 if ok else 1


def _bench_baselines(args) -> int:
    from .experiments.baseline_bench import (
        SCHEME_BUILDERS,
        format_baselines_report,
        measure_baselines,
    )

    if args.n < 8 or args.lookups < 1 or args.scalar_sample < 1:
        print(
            "bench-baselines: --n must be >= 8; --lookups and "
            "--scalar-sample must be >= 1",
            file=sys.stderr,
        )
        return 2
    schemes = None
    if args.schemes:
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        unknown = [s for s in schemes if s not in SCHEME_BUILDERS]
        if unknown:
            print(
                f"bench-baselines: unknown scheme(s) {', '.join(unknown)}; "
                f"have {', '.join(sorted(SCHEME_BUILDERS))}",
                file=sys.stderr,
            )
            return 2
    if (rc := _check_workers(args, "bench-baselines")) is not None:
        return rc
    if args.workers > 1:
        print("bench-baselines: the per-scheme scalar comparison is "
              "single-process; --workers recorded only")

    result = measure_baselines(
        n=args.n,
        lookups=args.lookups,
        seed=args.seed,
        scalar_sample=args.scalar_sample,
        schemes=schemes,
        chunk=args.chunk,
    )
    print(format_baselines_report(result))
    ok = (result["all_parity_ok"]
          and result["min_speedup_measured"] >= args.min_speedup)
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] per-topology parity and speedup ≥ "
          f"{args.min_speedup:g}x for every scheme")
    _write_json_out(args.json_out, "bench-baselines", result, ok,
                    workers=args.workers)
    return 0 if ok else 1


def _compare_payload(ref, run, tolerance: float):
    """Diff one reference artifact against the same run artifact.

    Walks the nested dicts in parallel.  Gated leaves are (a) booleans —
    a reference ``True`` (parity / verdict flag) may not flip off — and
    (b) throughput numbers, i.e. keys containing ``speedup`` or ending in
    ``_rate``, which must stay ≥ ``(1 - tolerance) ×`` the reference.
    Everything else (sizes, seeds, path lengths, wall-clock seconds) is
    informational and ignored.  Returns ``(findings, gated_count)``.
    """
    findings = []
    gated = 0

    def walk(prefix, r, c):
        nonlocal gated
        if isinstance(r, dict):
            if not isinstance(c, dict):
                findings.append((prefix or ".", "section missing from run"))
                return
            for key, rv in r.items():
                walk(f"{prefix}.{key}" if prefix else key, rv, c.get(key))
            return
        leaf = prefix.rsplit(".", 1)[-1]
        if isinstance(r, bool):
            gated += 1
            if r and c is not True:
                findings.append((prefix, f"flag flipped: ref true, run {c!r}"))
            return
        if isinstance(r, (int, float)) and (
            "speedup" in leaf or leaf.endswith("_rate")
        ):
            gated += 1
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                findings.append((prefix, f"ref {r:g}, run {c!r}"))
            elif c < r * (1.0 - tolerance):
                findings.append(
                    (prefix,
                     f"regression: ref {r:g}, run {c:g} "
                     f"({c / r:.0%} < {1.0 - tolerance:.0%} floor)")
                )

    walk("", ref, run)
    return findings, gated


def _bench_compare(args) -> int:
    import glob
    import json
    import os
    import shutil

    if not 0.0 <= args.tolerance < 1.0:
        print("bench-compare: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2
    run_files = sorted(glob.glob(os.path.join(args.run_dir, "BENCH_*.json")))
    if args.update_refs:
        if not run_files:
            print(f"bench-compare: no BENCH_*.json under {args.run_dir} to "
                  "re-baseline from", file=sys.stderr)
            return 2
        os.makedirs(args.ref_dir, exist_ok=True)
        for path in run_files:
            dst = os.path.join(args.ref_dir, os.path.basename(path))
            shutil.copyfile(path, dst)
            print(f"updated {dst}")
        return 0

    ref_files = sorted(glob.glob(os.path.join(args.ref_dir, "BENCH_*.json")))
    if not ref_files:
        print(f"bench-compare: no reference artifacts under {args.ref_dir}",
              file=sys.stderr)
        return 2
    failures = []
    total_gated = 0
    for ref_path in ref_files:
        base = os.path.basename(ref_path)
        with open(ref_path, encoding="utf-8") as fh:
            ref = json.load(fh)
        run_path = os.path.join(args.run_dir, base)
        if not os.path.exists(run_path):
            failures.append((base, ".", "run artifact missing"))
            print(f"{base}: MISSING from {args.run_dir}")
            continue
        with open(run_path, encoding="utf-8") as fh:
            run = json.load(fh)
        ref_workers = int(ref.get("workers", 1))
        run_workers = int(run.get("workers", 1))
        if ref_workers != run_workers:
            # a sharding change is not a throughput regression (or gain);
            # re-baseline with --update-refs instead of comparing across
            failures.append((base, "workers",
                             f"cross-worker-count diff refused: reference "
                             f"ran with {ref_workers} worker(s), this run "
                             f"with {run_workers}"))
            print(f"{base}: REFUSED (workers {ref_workers} vs {run_workers})")
            continue
        found, gated = _compare_payload(ref, run, args.tolerance)
        total_gated += gated
        if found:
            failures.extend((base, where, msg) for where, msg in found)
            print(f"{base}: {len(found)} regression(s)")
            for where, msg in found:
                print(f"  {where}: {msg}")
        else:
            print(f"{base}: ok ({gated} gated values)")
    ok = not failures
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {len(ref_files)} artifact(s), {total_gated} gated "
          f"values, {len(failures)} regression(s) at "
          f"{args.tolerance:.0%} tolerance")
    return 0 if ok else 1


def _soak(args) -> int:
    from .experiments.soak import (
        deterministic_payload,
        format_soak_report,
        measure_soak,
    )
    from .sim.scenario import parse_phases

    if args.n < 16 or args.lookups < 1 or args.chunk < 1 or args.items < 1:
        print("soak: --n must be >= 16 and --lookups/--chunk/--items >= 1",
              file=sys.stderr)
        return 2
    try:
        parse_phases(args.phases)
    except ValueError as exc:
        print(f"soak: {exc}", file=sys.stderr)
        return 2
    if (rc := _check_workers(args, "soak")) is not None:
        return rc

    result = measure_soak(
        n=args.n,
        lookups=args.lookups,
        phases=args.phases,
        chunk=args.chunk,
        seed=args.seed,
        items=args.items,
        invariants=not args.no_invariants,
        strict=False,
        workers=args.workers,
    )
    print(format_soak_report(result))
    ok = (result["invariants_ok"] and result["healing_ok"]
          and result["stats"]["ft_success_rate"] >= args.min_ft_success)
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] invariants + healing + ft success "
          f"≥ {args.min_ft_success:g}")
    # wall-clock keys are stripped so same-seed runs write identical bytes
    _write_json_out(args.json_out, "soak", deterministic_payload(result), ok,
                    workers=args.workers)
    return 0 if ok else 1


def _bench_shard(args) -> int:
    from .experiments.shard_bench import format_shard_report, measure_shard

    if args.n < 8 or args.lookups < 1 or args.chunk < 1:
        print("bench-shard: --n must be >= 8 and --lookups/--chunk >= 1",
              file=sys.stderr)
        return 2
    if args.workers < 2:
        print("bench-shard: --workers must be >= 2 (there is nothing to "
              "shard for 1)", file=sys.stderr)
        return 2

    result = measure_shard(
        n=args.n,
        lookups=args.lookups,
        workers=args.workers,
        seed=args.seed,
        chunk=args.chunk,
    )
    print(format_shard_report(result))
    gate = result["speedup_gate_engaged"] and args.min_speedup > 0
    ok = result["parity_ok"] and (
        not gate or result["shard_gain"] >= args.min_speedup)
    verdict = "PASS" if ok else "FAIL"
    if gate:
        print(f"[{verdict}] shard parity and gain ≥ {args.min_speedup:g}x "
              f"with {args.workers} workers")
    else:
        print(f"[{verdict}] shard parity (gain gate waived: "
              f"{result['cpu_count']} CPU(s) < {args.workers} workers "
              "or --min-speedup 0)")
    _write_json_out(args.json_out, "bench-shard", result, ok,
                    workers=args.workers)
    return 0 if ok else 1


def _bench_cost(args) -> int:
    from .experiments.cost_routing import (
        format_cost_report,
        measure_cost_routing,
    )

    if args.n < 8 or args.core_n < 8 or args.pairs < 1 or args.core_pairs < 1:
        print("bench-cost: --n/--core-n must be >= 8 and --pairs/"
              "--core-pairs >= 1", file=sys.stderr)
        return 2
    if args.isps < 1:
        print("bench-cost: --isps must be >= 1", file=sys.stderr)
        return 2
    if args.temperature <= 0:
        print("bench-cost: --temperature must be > 0", file=sys.stderr)
        return 2
    if (rc := _check_workers(args, "bench-cost")) is not None:
        return rc

    result = measure_cost_routing(
        n=args.n,
        pairs=args.pairs,
        seed=args.seed,
        isps=args.isps,
        temperature=args.temperature,
        scalar_sample=args.scalar_sample,
        core_n=args.core_n,
        core_pairs=args.core_pairs,
        workers=args.workers,
    )
    print(format_cost_report(result))
    ok = (result["parity_ok"] and result["core_replay_ok"]
          and result["core_shard_parity_ok"]
          and result["xisp_reduction"] >= args.min_xisp_reduction
          and result["stretch"] <= args.max_stretch
          and result["speedup"] >= args.min_speedup)
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] parity, cross-ISP reduction ≥ "
          f"{args.min_xisp_reduction:.0%}, stretch ≤ {args.max_stretch:g}x "
          f"and speedup ≥ {args.min_speedup:g}x")
    _write_json_out(args.json_out, "bench-cost", result, ok,
                    workers=args.workers)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of Naor & Wieder (SPAA 2003).",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")

    runp = sub.add_parser("run", help="run experiments")
    runp.add_argument("names", nargs="+", help="experiment ids or 'all'")
    runp.add_argument("--quick", action="store_true", help="smaller sizes")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--out", default=None, help="directory for JSON results")

    benchp = sub.add_parser(
        "bench-throughput",
        help="vectorized vs scalar lookup throughput (with parity check)",
    )
    benchp.add_argument("--n", type=int, default=4096, help="network size")
    benchp.add_argument(
        "--lookups", type=int, default=100_000, help="batch workload size"
    )
    benchp.add_argument(
        "--scalar-sample",
        type=int,
        default=1000,
        help="lookups routed through the scalar baseline (also parity-checked)",
    )
    benchp.add_argument(
        "--algorithm",
        choices=("fast", "dh"),
        default="fast",
        help="fast (greedy, §2.2.1) or dh (two-phase, §2.2.2)",
    )
    benchp.add_argument("--delta", type=int, default=2, help="graph degree Δ")
    benchp.add_argument("--seed", type=int, default=0)
    benchp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes of the sharded execution backend (default 1 "
        "= in-process; recorded in --json-out artifacts)",
    )
    benchp.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="exit non-zero when the batch engine is slower than this factor",
    )
    benchp.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the measurement dict + verdict as JSON",
    )

    churnp = sub.add_parser(
        "bench-churn",
        help="churn soak: auto-refresh router vs full recompiles (owner check)",
    )
    churnp.add_argument(
        "--n", type=int, default=16384, help="initial network size (up to 65536)"
    )
    churnp.add_argument(
        "--lookups", type=int, default=100_000, help="batch workload size"
    )
    churnp.add_argument(
        "--churn-ops", type=int, default=256, help="churn ops per soak phase"
    )
    churnp.add_argument(
        "--phases", type=int, default=2, help="churn/lookup phases before the "
        "mass departure"
    )
    churnp.add_argument(
        "--leave-prob", type=float, default=0.3, help="leave fraction of the "
        "generated traces"
    )
    churnp.add_argument(
        "--mass-n",
        type=int,
        default=None,
        help="cohort size of the final 50%% mass-departure trace "
        "(default min(n, 16384))",
    )
    churnp.add_argument(
        "--churn-budget",
        type=int,
        default=None,
        help="pending-op budget before an incremental refresh falls back to "
        "a full rebuild (default max(16, n//16))",
    )
    churnp.add_argument("--seed", type=int, default=0)
    churnp.add_argument(
        "--workers", type=int, default=1,
        help="recorded in --json-out artifacts (the refresh soak itself is "
        "single-process)",
    )
    churnp.add_argument(
        "--max-refresh-us",
        type=float,
        default=250.0,
        help="exit non-zero when the incremental refresh costs more than "
        "this many microseconds per churn op",
    )
    churnp.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the measurement dict + verdict as JSON",
    )

    congp = sub.add_parser(
        "bench-congestion",
        help="CSR batch path accounting vs the scalar Counter loop "
        "(bit-identical summaries)",
    )
    congp.add_argument("--n", type=int, default=16384, help="network size")
    congp.add_argument(
        "--lookups", type=int, default=100_000, help="batch workload size"
    )
    congp.add_argument(
        "--scalar-sample",
        type=int,
        default=1000,
        help="lookups routed+accounted through the scalar baseline (its "
        "summary must match the batch accounting bit-for-bit)",
    )
    congp.add_argument(
        "--algorithm",
        choices=("fast", "dh"),
        default="fast",
        help="fast (greedy, §2.2.1) or dh (two-phase, §2.2.2)",
    )
    congp.add_argument("--delta", type=int, default=2, help="graph degree Δ")
    congp.add_argument("--seed", type=int, default=0)
    congp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes of the sharded execution backend (default 1 "
        "= in-process; recorded in --json-out artifacts)",
    )
    congp.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="exit non-zero when batch route-and-account is slower than "
        "this factor over the scalar loop",
    )
    congp.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the measurement dict + verdict as JSON",
    )

    faultp = sub.add_parser(
        "bench-faults",
        help="vectorized fault-tolerant batch lookups vs the scalar walk "
        "(bit-identical choice-driven replay)",
    )
    faultp.add_argument("--n", type=int, default=16384, help="network size")
    faultp.add_argument(
        "--pairs", type=int, default=100_000,
        help="(surviving source, target) pairs routed as one batch"
    )
    faultp.add_argument(
        "--p-fail", type=float, default=0.2,
        help="independent fail-stop probability of the drawn fault plan"
    )
    faultp.add_argument(
        "--scalar-sample",
        type=int,
        default=200,
        help="lookups replayed through the scalar per-hop walk with the "
        "same choice uniforms (must match bit-for-bit)",
    )
    faultp.add_argument("--seed", type=int, default=0)
    faultp.add_argument(
        "--workers", type=int, default=1,
        help="recorded in --json-out artifacts (the FT replay is "
        "single-process)",
    )
    faultp.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="exit non-zero when the batch engine is slower than this factor",
    )
    faultp.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the measurement dict + verdict as JSON",
    )

    cachep = sub.add_parser(
        "bench-caching",
        help="vectorized §3 cache serving vs the scalar request loop "
        "(bit-identical trace replay + salted hotspot relief)",
    )
    cachep.add_argument("--n", type=int, default=16384, help="network size")
    cachep.add_argument(
        "--requests", type=int, default=1_000_000,
        help="Zipf cache requests served as chunked batches"
    )
    cachep.add_argument(
        "--items", type=int, default=64, help="item universe of the Zipf demand"
    )
    cachep.add_argument(
        "--salts", type=int, default=4,
        help="salt points of the salted-mode hotspot comparison"
    )
    cachep.add_argument(
        "--scalar-sample",
        type=int,
        default=1500,
        help="requests served through the scalar CacheSystem baseline",
    )
    cachep.add_argument(
        "--parity-n",
        type=int,
        default=512,
        help="side-network size of the full bit-parity trace replay (≤ 1024)",
    )
    cachep.add_argument(
        "--hotspot-requests",
        type=int,
        default=None,
        help="single-hotspot stream length of the salted-vs-unsalted "
        "comparison (default: same as --requests, capped at 10^6)",
    )
    cachep.add_argument("--seed", type=int, default=1)
    cachep.add_argument(
        "--workers", type=int, default=1,
        help="recorded in --json-out artifacts (the caching fixpoint is "
        "order-dependent and never sharded)",
    )
    cachep.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="exit non-zero when the batch engine is slower than this factor",
    )
    cachep.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the measurement dict + verdict as JSON",
    )

    basep = sub.add_parser(
        "bench-baselines",
        help="Table 1 shoot-out: every baseline's batch router vs its "
        "scalar loop (per-topology parity + speedup gate)",
    )
    basep.add_argument("--n", type=int, default=16384, help="network size")
    basep.add_argument(
        "--lookups", type=int, default=100_000,
        help="batch workload size per scheme"
    )
    basep.add_argument(
        "--scalar-sample",
        type=int,
        default=400,
        help="lookups per scheme routed through the scalar lookup_path loop "
        "(the batch replay of this subsample must match bit-for-bit)",
    )
    basep.add_argument(
        "--schemes",
        default=None,
        metavar="A,B,...",
        help="comma-separated scheme subset (default: all seven)",
    )
    basep.add_argument(
        "--chunk", type=int, default=8192,
        help="batch chunk size of the chunked measurement drive"
    )
    basep.add_argument("--seed", type=int, default=0)
    basep.add_argument(
        "--workers", type=int, default=1,
        help="recorded in --json-out artifacts (the scheme shoot-out is "
        "single-process)",
    )
    basep.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="exit non-zero when ANY scheme's batch router is slower than "
        "this factor over its scalar loop",
    )
    basep.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the measurement dict + verdict as JSON",
    )

    soakp = sub.add_parser(
        "soak",
        help="phase-scripted streaming soak with self-healing storage and "
        "between-phase invariant checks",
    )
    soakp.add_argument(
        "--n", type=int, default=16384, help="initial network size"
    )
    soakp.add_argument(
        "--lookups", type=int, default=1_000_000,
        help="total routed lookups shared by the lookup phases"
    )
    soakp.add_argument(
        "--phases", default=None,
        help="comma-separated scenario script, e.g. "
        "'lookups,churn:192,flash,failstop:0.08,byzantine:0.05,"
        "rebalance,mass:0.3' (default: the 8-phase day-in-the-life script)"
    )
    soakp.add_argument(
        "--chunk", type=int, default=None,
        help="streaming batch size (peak in-flight requests; default 2^16)"
    )
    soakp.add_argument("--seed", type=int, default=0)
    soakp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharding the lookup phases (default 1 = "
        "in-process; merged stats are bit-identical either way)",
    )
    soakp.add_argument(
        "--items", type=int, default=24,
        help="erasure-coded blobs stored on the fault substrate"
    )
    soakp.add_argument(
        "--no-invariants", action="store_true",
        help="skip the between-phase invariant checker (timing runs only)"
    )
    soakp.add_argument(
        "--min-ft-success", type=float, default=0.9,
        help="exit non-zero when the fault-tolerant lookup success rate "
        "drops below this"
    )
    soakp.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the deterministic result dict + verdict as JSON "
        "(byte-identical across runs with the same seed)",
    )

    shardp = sub.add_parser(
        "bench-shard",
        help="multicore sharded batch routing vs the single-process engine "
        "(bit-identical merged congestion + hop histogram)",
    )
    shardp.add_argument(
        "--n", type=int, default=1 << 18, help="network size (default 2^18)"
    )
    shardp.add_argument(
        "--lookups", type=int, default=1_000_000,
        help="random-pair lookups routed by both backends"
    )
    shardp.add_argument(
        "--workers", type=int, default=4,
        help="worker processes of the sharded backend (>= 2)"
    )
    shardp.add_argument(
        "--chunk", type=int, default=1 << 17,
        help="per-dispatch batch size of the chunked drive (default 2^17)"
    )
    shardp.add_argument("--seed", type=int, default=0)
    shardp.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="exit non-zero when the sharded gain is below this factor; "
        "only enforced when the machine has >= --workers CPUs (parity is "
        "always enforced); 0 disables the gain gate",
    )
    shardp.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the measurement dict + verdict as JSON",
    )

    costp = sub.add_parser(
        "bench-cost",
        help="cost-aware covering-edge routing over a synthetic ISP map "
        "(cross-ISP reduction + stretch + bit-parity replay gates)",
    )
    costp.add_argument(
        "--n", type=int, default=16384,
        help="overlapping-network size of the policy shoot-out"
    )
    costp.add_argument(
        "--pairs", type=int, default=100_000,
        help="(source, target) pairs routed per policy"
    )
    costp.add_argument(
        "--isps", type=int, default=8,
        help="ISP count of the synthetic cost map"
    )
    costp.add_argument(
        "--temperature", type=float, default=1.0,
        help="softmin temperature of the weighted policy"
    )
    costp.add_argument(
        "--scalar-sample", type=int, default=200,
        help="lookups per cost policy replayed through the scalar walk "
        "with the same uniforms (must match bit-for-bit)",
    )
    costp.add_argument(
        "--core-n", type=int, default=4096,
        help="core-engine cell network size (tau_used replay check)"
    )
    costp.add_argument(
        "--core-pairs", type=int, default=50_000,
        help="pairs routed by the core-engine cell"
    )
    costp.add_argument("--seed", type=int, default=0)
    costp.add_argument(
        "--workers", type=int, default=1,
        help="also route the core greedy cell on the sharded backend "
        "with this many workers and require bit-parity",
    )
    costp.add_argument(
        "--min-xisp-reduction", type=float, default=0.3,
        help="exit non-zero when greedy cuts mean cross-ISP traffic by "
        "less than this fraction vs uniform",
    )
    costp.add_argument(
        "--max-stretch", type=float, default=1.5,
        help="exit non-zero when greedy's mean hop count exceeds "
        "uniform's by more than this factor",
    )
    costp.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="exit non-zero when the batch engine is slower than this "
        "factor over the scalar replay",
    )
    costp.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the measurement dict + verdict as JSON",
    )

    cmpp = sub.add_parser(
        "bench-compare",
        help="regression gate: diff run bench artifacts against committed "
        "references (throughput floor + parity flags)",
    )
    cmpp.add_argument(
        "--run-dir",
        default="bench-artifacts",
        help="directory holding this run's BENCH_*.json artifacts",
    )
    cmpp.add_argument(
        "--ref-dir",
        default="benchmarks/baselines",
        help="directory holding the committed reference artifacts",
    )
    cmpp.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional throughput drop below the reference "
        "before failing (default 0.30 = fail on >30%% regression)",
    )
    cmpp.add_argument(
        "--update-refs",
        action="store_true",
        help="instead of comparing, copy the run artifacts over the "
        "references (re-baseline after an intentional change)",
    )

    args = parser.parse_args(argv)

    from .experiments.common import all_experiments
    from .experiments.runner import run_experiments  # noqa: F401 (fills registry)

    available = list(all_experiments())
    if args.command == "list":
        for name in available:
            print(name)
        return 0
    if args.command == "bench-throughput":
        return _bench_throughput(args)
    if args.command == "bench-churn":
        return _bench_churn(args)
    if args.command == "bench-congestion":
        return _bench_congestion(args)
    if args.command == "bench-faults":
        return _bench_faults(args)
    if args.command == "bench-caching":
        return _bench_caching(args)
    if args.command == "bench-baselines":
        return _bench_baselines(args)
    if args.command == "bench-shard":
        return _bench_shard(args)
    if args.command == "bench-cost":
        return _bench_cost(args)
    if args.command == "soak":
        from .sim.scenario import DEFAULT_CHUNK, DEFAULT_PHASES

        if args.phases is None:
            args.phases = DEFAULT_PHASES
        if args.chunk is None:
            args.chunk = DEFAULT_CHUNK
        return _soak(args)
    if args.command == "bench-compare":
        return _bench_compare(args)

    names = args.names
    lowered = [n.lower() for n in names]
    if "all" in lowered and len(names) > 1:
        print(
            "run: 'all' cannot be combined with explicit experiment ids",
            file=sys.stderr,
        )
        return 2
    if lowered != ["all"]:
        unknown = [n for n in names if n.upper() not in available]
        if unknown:
            print(
                f"unknown experiment id(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            print(
                f"available: {', '.join(available)}",
                file=sys.stderr,
            )
            return 2
    results = run_experiments(names, seed=args.seed, quick=args.quick,
                              out_dir=args.out)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
