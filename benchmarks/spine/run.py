"""spine — the repo's end-to-end + per-layer benchmark, one command.

One workload, untraced (the end-to-end metrics) or traced (the
per-layer metrics)::

    python3 benchmarks/spine/run.py --workload route_fast --seed 1 \\
        --seconds 10 --trace 0

Every workload, each in its own fresh process, results as files::

    python3 benchmarks/spine/run.py --all --seed 1 --out spine-results

Every metric is printed as ``workload metric value unit``; the last
line of a single-workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any operation's result was wrong or missing.  See README.md in
this directory for what is measured and why.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: load comes from one process (route_sharded adds
# exactly its two workers) — must be set before NumPy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from spec import NAMES, SPEC, UNGATED  # noqa: E402


def _provenance(args) -> dict:
    """Where and how this result was produced."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "argv": sys.argv[1:],
    }


def _child_pids() -> list:
    """Pids whose parent is this process, zombies included (from /proc)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we were listing
        # "pid (comm) state ppid ..." — comm may hold spaces and brackets
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``ShardedExecutor.close`` joins its pool, but the shared-memory
    blocks it exported also started multiprocessing's resource tracker,
    a child that only ends when this process closes its pipe — by
    default at interpreter exit, so the tracker outlives the run and is
    left to init as an orphan.  Close the pipe and wait for it here,
    then kill and wait for whatever else is still a child.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already reaped


def run_one(args) -> int:
    """Measure one workload in this process; returns the exit code."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"spine: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    provenance = _provenance(args)  # load average before the work starts

    from harness import measure, measure_traced
    from layers import layer_metrics
    from workloads import REFERENCE_SECONDS, WORKLOADS, Sizing

    sizing = Sizing(scale=args.seconds / REFERENCE_SECONDS)
    workload = WORKLOADS[args.workload](sizing)
    if args.trace:
        result = measure_traced(workload, args.seed, layer_metrics)
    else:
        result = measure(workload, args.seed)

    extra = result.pop("extra")
    spans = extra.pop("spans", None)
    result = {"correct": result["failed"] == 0, **result}
    name = args.workload
    for metric, cell in result["metrics"].items():
        print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}")
    if "batch_ms_p90" in extra:
        print(f"{name} batch_ms_p90 {extra['batch_ms_p90']:.6g} ms")
    share = result["failed"] / result["attempted"]
    print(f"{name} failed_share {share:.6g} ratio")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}.seed{args.seed}" + (".trace" if args.trace else "")
        record = {"workload": name, "traced": bool(args.trace), **result,
                  "extra": extra, "provenance": provenance}
        (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if spans is not None:
            (out / f"{stem}.spans.json").write_text(json.dumps(spans))
    # the driver's line: the metrics BENCHMARK.json lists, no others
    listed = [m["name"] for m in SPEC["per_layer" if args.trace
                                      else "end_to_end"]]
    result["metrics"] = {k: result["metrics"][k] for k in listed}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, one fresh process each."""
    worst = 0
    for name in NAMES + UNGATED:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        # the per-metric lines; the JSON line is for single runs
        sys.stdout.write("".join(
            line for line in done.stdout.splitlines(keepends=True)
            if not line.startswith("{")))
        sys.stdout.flush()
        if done.returncode:
            print(f"{name} seed {args.seed}: exit code {done.returncode}",
                  file=sys.stderr)
            worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="spine benchmark (see benchmarks/spine/README.md)")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=NAMES + UNGATED)
    which.add_argument("--all", action="store_true",
                       help="every workload, one fresh process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured seconds per run on the reference box "
                             "(scales the operation counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--out", help="directory for result JSON files")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run_all(args) if args.all else run_one(args)
    finally:
        reap_children()


if __name__ == "__main__":
    sys.exit(main())
