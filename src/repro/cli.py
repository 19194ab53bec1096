"""Command-line entry point: ``python -m repro.cli``.

Examples::

    PYTHONPATH=src python -m repro.cli list
    PYTHONPATH=src python -m repro.cli run E1 E3 --quick
    PYTHONPATH=src python -m repro.cli bench-throughput --n 4096

Every ``bench-*`` / ``soak`` subcommand is one row of :data:`BENCHES` (help,
flags with their bounds, ``measure_*`` / ``format_*`` helpers, gate, verdict)
run by the one handler :func:`_run_bench`; ``list`` and ``run`` are not
measure → report → gate and stay hand-written.  ``--json-out`` writes the
seed-deterministic part of a result (:mod:`repro.artifacts`), which CI
byte-diffs against ``benchmarks/baselines/``; re-baseline with
``benchmarks/ci_smoke.sh benchmarks/baselines``.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import import_module
from typing import Callable, List, NamedTuple, Optional, Tuple, Union


class Flag(NamedTuple):
    """One bench option.  Its value reaches ``measure`` as keyword ``dest``
    unless it is a gate or ``None`` (then the helper's own default applies)."""

    flag: str
    type: Callable  # ``bool`` declares an on/off switch
    default: object
    help: str
    bound: Optional[Callable] = None  # value -> None | "must be ..." (exit 2)
    gate: bool = False  # a threshold only the row's passed / verdict read
    keyword: Optional[str] = None  # the ``measure`` keyword, when not the flag's

    @property
    def dest(self) -> str:
        return self.keyword or self.flag[2:].replace("-", "_")


class Bench(NamedTuple):
    """One measure → report → gate subcommand (a row of :data:`BENCHES`).
    A ``str`` in ``measure`` / ``report`` is a ``module:function`` of
    :mod:`repro.experiments`, imported when the subcommand runs."""

    name: str
    help: str  # the one description: subcommand list and ``<cmd> --help``
    measure: Union[str, Callable]
    report: str
    flags: Tuple[Flag, ...]
    passed: Callable  # (result, args) -> bool
    verdict: Callable  # (result, args) -> the text after [PASS] / [FAIL]


def _bound(text: str, ok: Callable) -> Callable:
    return lambda value: None if ok(value) else f"must be {text}"


def _ge(lo) -> Callable:
    return _bound(f">= {lo}", lambda v: v >= lo)


#: a gate threshold: NaN compares false both ways, so its gate could never pass
_NUMBER = _bound("a number", lambda v: not math.isnan(v))


def _csv(text: str) -> Optional[List[str]]:
    return [s.strip() for s in text.split(",") if s.strip()] or None


def _known_schemes(schemes) -> Optional[str]:
    from .experiments.baseline_bench import SCHEME_BUILDERS

    unknown = ", ".join(s for s in schemes if s not in SCHEME_BUILDERS)
    known = ", ".join(sorted(SCHEME_BUILDERS))
    return f"must name schemes among {known}; got {unknown}" if unknown else None


def _scenario_script(spec: str) -> Optional[str]:
    from .sim.scenario import parse_phases

    try:
        parse_phases(spec)
    except ValueError as exc:
        return f"must be a scenario script: {exc}"
    return None


def _shared(flag: str, type_: Callable, help_: str, bound_=None, gate=False):
    """A flag several rows carry: a row sets the default, may override the rest."""
    return lambda default, bound=bound_, help=help_: Flag(
        flag, type_, default, help, bound, gate)


_N = _shared("--n", int, "network size")
_LOOKUPS = _shared("--lookups", int, "batch workload size", _ge(1))
_PAIRS = _shared("--pairs", int, "(source, target) pairs per batch", _ge(1))
_SAMPLE = _shared(
    "--scalar-sample", int, "lookups also routed through the scalar baseline; "
    "the batch replay of this subsample must match it bit-for-bit", _ge(1))
_SEED = _shared("--seed", int, "seed of the network and the workload", _ge(0))
_CHUNK = _shared("--chunk", int, "batch size of the chunked drive", _ge(1))
_WORKERS = _shared(
    "--workers", int, "worker processes of the sharded execution backend "
    "(1 = in-process)", _ge(1))
_MIN_SPEEDUP = _shared(
    "--min-speedup", float, "exit 1 when the batch engine's gain over its "
    "baseline is below this factor", _NUMBER, gate=True)
_ALGORITHM = Flag("--algorithm", str, "fast", "fast (§2.2.1) or dh (§2.2.2)",
                  _bound("fast or dh", lambda v: v in ("fast", "dh")))
_DELTA = Flag("--delta", int, 2, "graph degree Δ", _ge(2))


def _measure_soak(no_invariants: bool, **kwargs):
    from .experiments.soak import measure_soak

    # not strict: a broken invariant fails the verdict instead of raising
    return measure_soak(invariants=not no_invariants, strict=False, **kwargs)


def _shard_verdict(result, args) -> str:
    if result["speedup_gate_engaged"] and args.min_speedup > 0:
        return (f"shard parity and gain ≥ {args.min_speedup:g}x "
                f"with {args.workers} workers")
    return (f"shard parity (gain gate waived: {result['cpu_count']} CPU(s) < "
            f"{args.workers} workers or --min-speedup 0)")


def _parity_and_speedup(result, args) -> bool:
    return result["parity_ok"] and result["speedup"] >= args.min_speedup


BENCHES = {bench.name: bench for bench in (
    Bench("bench-throughput",
          "vectorized batch-lookup engine vs the scalar per-hop loop on one "
          "network, with a bit-parity cross-check on the scalar subsample",
          "throughput:measure_throughput", "throughput:format_throughput_report",
          (_N(4096, _ge(1)), _LOOKUPS(100_000), _SAMPLE(1000), _ALGORITHM, _DELTA,
           _SEED(0), _WORKERS(1), _MIN_SPEEDUP(10.0)),
          _parity_and_speedup,
          lambda r, a: f"parity and speedup ≥ {a.min_speedup:g}x"),
    Bench("bench-churn",
          "soak the auto-refresh router under churn traces (incl. a half-cohort "
          "mass departure) interleaved with bulk lookup batches; gates fresh "
          "owners and the incremental refresh cost per membership op",
          "churn_soak:measure_churn_soak", "churn_soak:format_churn_report",
          (_N(16384, _ge(8), "initial network size (up to 65536)"), _LOOKUPS(100_000),
           Flag("--churn-ops", int, 256, "churn ops per soak phase", _ge(1)), _SEED(0),
           Flag("--phases", int, 2, "phases before the mass departure", _ge(1)),
           Flag("--leave-prob", float, 0.3, "leave fraction of the traces",
                _bound("in [0, 1]", lambda v: 0.0 <= v <= 1.0)),
           Flag("--mass-n", int, None, "mass-departure cohort (default min(n, 2^14))",
                _ge(0)),
           Flag("--churn-budget", int, None, "pending ops before a refresh falls "
                "back to a full rebuild (default max(16, n//16))", _ge(1)),
           Flag("--max-refresh-us", float, 250.0, "exit 1 when the incremental "
                "refresh costs more microseconds per churn op", _NUMBER, gate=True)),
          lambda r, a: (r["owners_ok"]
                        and 1e6 * r["refresh_secs_per_op"] <= a.max_refresh_us),
          lambda r, a: ("owners fresh and incremental refresh ≤ "
                        f"{a.max_refresh_us:g}us per membership op")),
    Bench("bench-congestion",
          "CSR batch path accounting (BatchCongestion) vs the scalar per-lookup "
          "Counter loop; summaries must be bit-identical on a shared subsample",
          "congestion:measure_congestion", "congestion:format_congestion_report",
          (_N(16384, _ge(2)), _LOOKUPS(100_000), _SAMPLE(1000), _ALGORITHM, _DELTA,
           _SEED(0), _WORKERS(1), _MIN_SPEEDUP(10.0)),
          _parity_and_speedup,
          lambda r, a: f"accounting parity and speedup ≥ {a.min_speedup:g}x"),
    Bench("bench-faults",
          "vectorized fault-tolerant batch lookups vs the scalar per-hop walk "
          "under a random fail-stop plan, with a bit-identical choice-driven "
          "replay on a subsample",
          "faults_exp:measure_faults", "faults_exp:format_faults_report",
          (_N(16384, _ge(8)), _PAIRS(100_000),
           Flag("--p-fail", float, 0.2, "fail-stop probability of the fault plan",
                _bound("in [0, 1)", lambda v: 0.0 <= v < 1.0)),
           _SAMPLE(200), _SEED(0), _MIN_SPEEDUP(10.0)),
          _parity_and_speedup,
          lambda r, a: f"replay parity and speedup ≥ {a.min_speedup:g}x"),
    Bench("bench-caching",
          "vectorized §3 cache serving of a Zipf hot-key stream vs the scalar "
          "request loop, with a bit-identical trace replay on a side network and "
          "a salted-vs-unsalted hotspot relief check",
          "caching_bench:measure_caching", "caching_bench:format_caching_report",
          (_N(16384, _ge(2)),
           Flag("--requests", int, 1_000_000, "Zipf cache requests served", _ge(1)),
           Flag("--items", int, 64, "Zipf item universe", _ge(1), keyword="n_items"),
           Flag("--salts", int, 4, "salt points of the hotspot comparison", _ge(2)),
           _SAMPLE(1500),
           Flag("--parity-n", int, 512, "side-network size of the scalar-bound "
                "trace replay", _bound("in [1, 1024]", lambda v: 1 <= v <= 1024)),
           Flag("--hotspot-requests", int, None, "single-hotspot stream of the "
                "salted comparison (default: --requests, capped at 10^6)", _ge(1)),
           _SEED(1), _MIN_SPEEDUP(10.0)),
          lambda r, a: r["salted_ok"] and _parity_and_speedup(r, a),
          lambda r, a: f"trace parity, salted relief and speedup ≥ {a.min_speedup:g}x"),
    Bench("bench-baselines",
          "Table 1 shoot-out: every baseline overlay (Chord, Tapestry, CAN, "
          "small-world, Viceroy, Koorde, DH) through its batch router vs its "
          "scalar lookup_path loop; per-scheme bit-parity and --min-speedup floor",
          "baseline_bench:measure_baselines",
          "baseline_bench:format_baselines_report",
          (_N(16384, _ge(8)), _LOOKUPS(100_000), _SAMPLE(400),
           Flag("--schemes", _csv, None, "comma-separated scheme subset "
                "(default: all seven)", _known_schemes),
           _CHUNK(8192), _SEED(0), _MIN_SPEEDUP(5.0)),
          lambda r, a: (r["all_parity_ok"]
                        and r["min_speedup_measured"] >= a.min_speedup),
          lambda r, a: ("per-topology parity and speedup ≥ "
                        f"{a.min_speedup:g}x for every scheme")),
    Bench("soak",
          "day-in-the-life streaming soak: a phase-scripted scenario (lookups, "
          "churn, flash crowd, fault waves with Reed-Solomon read-repair healing, "
          "rebalancing, mass departure) on one live network, with invariant "
          "checks between phases; artifacts are byte-reproducible per --seed",
          _measure_soak, "soak:format_soak_report",
          (_N(16384, _ge(16)), _LOOKUPS(1_000_000),
           Flag("--phases", str, None, "scenario script, e.g. 'lookups,churn:192,"
                "flash,failstop:0.08,byzantine:0.05,rebalance,mass:0.3' (default: "
                "the 8-phase day-in-the-life script)", _scenario_script),
           _CHUNK(None, help="peak in-flight requests (default 2^16)"), _SEED(0),
           _WORKERS(1), Flag("--items", int, 24, "erasure-coded blobs", _ge(1)),
           Flag("--no-invariants", bool, False, "skip the between-phase "
                "invariant checker (timing runs only)"),
           Flag("--min-ft-success", float, 0.9, "exit 1 when the fault-tolerant "
                "lookup success rate drops below this", _NUMBER, gate=True)),
          lambda r, a: (r["invariants_ok"] and r["healing_ok"]
                        and r["stats"]["ft_success_rate"] >= a.min_ft_success),
          lambda r, a: f"invariants + healing + ft success ≥ {a.min_ft_success:g}"),
    Bench("bench-shard",
          "multicore shoot-out: the single-process batch engine vs the sharded "
          "shared-memory backend (--workers N) on one workload; merged congestion "
          "summary and hop histogram must be bit-identical, and the gain must "
          "hold --min-speedup when the machine has N CPUs (0 waives it)",
          "shard_bench:measure_shard", "shard_bench:format_shard_report",
          (_N(1 << 18, _ge(8)), _LOOKUPS(1_000_000), _WORKERS(4, _ge(2)),
           _CHUNK(1 << 17), _SEED(0), _MIN_SPEEDUP(2.0)),
          lambda r, a: r["parity_ok"] and (not r["speedup_gate_engaged"]
                                           or r["shard_gain"] >= a.min_speedup),
          _shard_verdict),
    Bench("bench-cost",
          "cost-aware covering-edge routing (P4P/ALTO-style): uniform / greedy / "
          "weighted cover selection over a synthetic ISP cost map; gates greedy's "
          "cross-ISP reduction and hop stretch, the scalar bit-parity replay and "
          "the core engine's tau_used replay",
          "cost_routing:measure_cost_routing", "cost_routing:format_cost_report",
          (_N(16384, _ge(8)), _PAIRS(100_000), _SAMPLE(200), _SEED(0),
           Flag("--isps", int, 8, "ISP count of the synthetic cost map", _ge(1)),
           Flag("--temperature", float, 1.0, "softmin temperature of the "
                "weighted policy", _bound("> 0", lambda v: v > 0)),
           Flag("--core-n", int, 4096, "network size of the core-engine cell", _ge(8)),
           Flag("--core-pairs", int, 50_000, "pairs the core cell routes", _ge(1)),
           _WORKERS(1, help="also route the core greedy cell on the sharded "
                    "backend with this many workers and require bit-parity"),
           Flag("--min-xisp-reduction", float, 0.3, "exit 1 when greedy cuts mean "
                "cross-ISP traffic by less than this fraction", _NUMBER, gate=True),
           Flag("--max-stretch", float, 1.5, "exit 1 when greedy's mean hops "
                "exceed uniform's by more than this factor", _NUMBER, gate=True),
           _MIN_SPEEDUP(10.0)),
          lambda r, a: (_parity_and_speedup(r, a) and r["core_replay_ok"]
                        and r["core_shard_parity_ok"]
                        and r["xisp_reduction"] >= a.min_xisp_reduction
                        and r["stretch"] <= a.max_stretch),
          lambda r, a: ("parity, cross-ISP reduction ≥ "
                        f"{a.min_xisp_reduction:.0%}, stretch ≤ "
                        f"{a.max_stretch:g}x and speedup ≥ {a.min_speedup:g}x")),
)}


def _load(spec: Union[str, Callable]) -> Callable:
    if callable(spec):
        return spec
    module, _, name = spec.partition(":")
    return getattr(import_module(f".experiments.{module}", __package__), name)


def _run_bench(bench: Bench, args) -> int:
    """The one bench handler: validate → measure → report → gate → artifact."""
    from .artifacts import unwritable, write_artifact

    values = {f.dest: getattr(args, f.dest) for f in bench.flags}
    for f in bench.flags:
        value = values[f.dest]
        if f.bound and value is not None and (problem := f.bound(value)):
            print(f"{bench.name}: {f.flag} {problem}", file=sys.stderr)
            return 2
    if args.json_out and (problem := unwritable(args.json_out)):
        print(f"{bench.name}: --json-out {args.json_out} {problem}",
              file=sys.stderr)
        return 2
    result = _load(bench.measure)(**{
        f.dest: values[f.dest] for f in bench.flags
        if not f.gate and values[f.dest] is not None})
    print(_load(bench.report)(result))
    ok = bool(bench.passed(result, args))
    print(f"[{'PASS' if ok else 'FAIL'}] {bench.verdict(result, args)}")
    try:
        write_artifact(args.json_out, bench.name, result, ok)
    except ValueError as exc:
        print(f"{bench.name}: non-finite value in result ({exc})",
              file=sys.stderr)
        return 1
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of Naor & Wieder (SPAA 2003).",
        epilog="invocation: PYTHONPATH=src python -m repro.cli <subcommand> "
        "[options]; <subcommand> --help lists its flags")
    sub = parser.add_subparsers(dest="command", required=True,
                                title="subcommands", metavar="<subcommand>")
    sub.add_parser("list", help="print every registered experiment id (E*, F*, A*, X*)")

    runp = sub.add_parser("run", help="run experiments; --quick shrinks sizes, "
                          "--out DIR writes one JSON result file per experiment")
    runp.add_argument("names", nargs="+", help="experiment ids or 'all'")
    runp.add_argument("--quick", action="store_true", help="smaller sizes")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--out", default=None, help="directory for JSON results")

    for bench in BENCHES.values():
        benchp = sub.add_parser(bench.name, help=bench.help,
                                description=bench.help)
        for f in bench.flags:
            kind = ({"action": "store_true"} if f.type is bool
                    else {"type": f.type, "default": f.default})
            benchp.add_argument(f.flag, dest=f.dest, help=f.help, **kind)
        benchp.add_argument("--json-out", default=None, metavar="FILE",
                            help="also write the result dict + verdict as JSON")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in BENCHES:
        return _run_bench(BENCHES[args.command], args)

    from .experiments.common import all_experiments
    from .experiments.runner import run_experiments  # noqa: F401 (fills registry)

    available = list(all_experiments())
    if args.command == "list":
        print("\n".join(available))
        return 0

    if args.seed < 0:
        print("run: --seed must be >= 0", file=sys.stderr)
        return 2
    names = args.names
    lowered = [n.lower() for n in names]
    if "all" in lowered and len(names) > 1:
        print("run: 'all' cannot be combined with explicit experiment ids",
              file=sys.stderr)
        return 2
    if lowered != ["all"]:
        unknown = [n for n in names if n.upper() not in available]
        if unknown:
            print(f"unknown experiment id(s): {', '.join(unknown)}\n"
                  f"available: {', '.join(available)}", file=sys.stderr)
            return 2
    results = run_experiments(names, seed=args.seed, quick=args.quick,
                              out_dir=args.out)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
