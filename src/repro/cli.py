"""Command-line entry point: ``python -m repro.cli``.

Examples::

    PYTHONPATH=src python -m repro.cli list
    PYTHONPATH=src python -m repro.cli run E1 E3 --quick --out results
    PYTHONPATH=src python -m repro.cli soak --n 1024 --lookups 10000

``run`` reproduces the registered experiments, each gated by its own
checks; ``--out DIR`` (refused up front when it cannot be a directory)
writes one JSON file per experiment.  ``soak`` is
the one measurement subcommand: the day-in-the-life scenario, gated on
its invariants, healing and fault-tolerant success rate; ``--json-out``
writes its result.  Both files hold only the seed-deterministic part of
a result (:mod:`repro.artifacts`), which CI byte-diffs against
``benchmarks/baselines/``; re-baseline with
``benchmarks/ci_smoke.sh benchmarks/baselines``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, List, Optional


def _bound(text: str, ok: Callable) -> Callable:
    return lambda value: None if ok(value) else f"must be {text}"


def _ge(lo) -> Callable:
    return _bound(f">= {lo}", lambda v: v >= lo)


#: a gate threshold: NaN compares false both ways, so its gate could never pass
_NUMBER = _bound("a number", lambda v: not math.isnan(v))


def _scenario_script(spec: str) -> Optional[str]:
    from .sim.scenario import parse_phases

    try:
        parse_phases(spec)
    except ValueError as exc:
        return f"must be a scenario script: {exc}"
    return None


SOAK_HELP = ("day-in-the-life streaming soak: a phase-scripted scenario "
             "(lookups, churn, flash crowd, fault waves with Reed-Solomon "
             "read-repair healing, rebalancing, mass departure) on one live "
             "network, with invariant checks between phases; artifacts are "
             "byte-reproducible per --seed")

#: soak's bounded options, checked in this order before anything runs;
#: a value outside its bound exits 2 with one stderr line
_SOAK_BOUNDS = (("--n", _ge(16)), ("--lookups", _ge(1)),
                ("--phases", _scenario_script), ("--chunk", _ge(1)),
                ("--seed", _ge(0)), ("--items", _ge(1)),
                ("--min-ft-success", _NUMBER))


def _run_soak(args) -> int:
    """Validate → measure → report → gate → artifact; exit 0, 1 or 2."""
    from .artifacts import unwritable, write_artifact
    from .experiments.soak import format_soak_report, measure_soak

    for flag, bound in _SOAK_BOUNDS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and (problem := bound(value)):
            print(f"soak: {flag} {problem}", file=sys.stderr)
            return 2
    if args.json_out and (problem := unwritable(args.json_out)):
        print(f"soak: --json-out {args.json_out} {problem}", file=sys.stderr)
        return 2
    options = {"phases": args.phases, "chunk": args.chunk}
    # not strict: a broken invariant fails the verdict instead of raising
    result = measure_soak(
        n=args.n, lookups=args.lookups, seed=args.seed, items=args.items,
        invariants=not args.no_invariants, strict=False,
        **{k: v for k, v in options.items() if v is not None})
    print(format_soak_report(result))
    ok = bool(result["invariants_ok"] and result["healing_ok"]
              and result["stats"]["ft_success_rate"] >= args.min_ft_success)
    print(f"[{'PASS' if ok else 'FAIL'}] invariants + healing + ft success "
          f"≥ {args.min_ft_success:g}")
    try:
        write_artifact(args.json_out, "soak", result, ok)
    except ValueError as exc:
        print(f"soak: non-finite value in result ({exc})", file=sys.stderr)
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

    soak = sub.add_parser("soak", help=SOAK_HELP, description=SOAK_HELP)
    soak.add_argument("--n", type=int, default=16384, help="network size")
    soak.add_argument("--lookups", type=int, default=1_000_000,
                      help="batch workload size")
    soak.add_argument("--phases", type=str, default=None, help=(
        "scenario script, e.g. 'lookups,churn:192,flash,failstop:0.08,"
        "byzantine:0.05,rebalance,mass:0.3' (default: the 8-phase "
        "day-in-the-life script)"))
    soak.add_argument("--chunk", type=int, default=None, help=(
        "peak in-flight requests (default 2^16); a memory bound only: "
        "no phase's results but the flash crowd's depend on it"))
    soak.add_argument("--seed", type=int, default=0,
                      help="seed of the network and the workload")
    soak.add_argument("--items", type=int, default=24,
                      help="erasure-coded blobs")
    soak.add_argument("--no-invariants", action="store_true", help=(
        "skip the between-phase invariant checker (timing runs only)"))
    soak.add_argument("--min-ft-success", type=float, default=0.9, help=(
        "exit 1 when the fault-tolerant lookup success rate drops below "
        "this"))
    soak.add_argument("--json-out", default=None, metavar="FILE",
                      help="also write the result dict + verdict as JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "soak":
        return _run_soak(args)

    from .artifacts import unwritable
    from .experiments.common import all_experiments
    from .experiments.runner import run_experiments  # noqa: F401 (fills registry)

    available = list(all_experiments())
    if args.command == "list":
        print("\n".join(available))
        return 0

    if args.seed < 0:
        print("run: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.out and (problem := unwritable(args.out, directory=True)):
        print(f"run: --out {args.out} {problem}", file=sys.stderr)
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
