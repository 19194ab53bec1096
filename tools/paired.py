"""Ten alternating parent/change runs of one spine workload, as Markdown.

Usage, from anywhere::

    python tools/paired.py PARENT CHANGE WORKLOAD [SEED]

``PARENT`` and ``CHANGE`` are two source trees, each a clean export
(``git archive`` or ``git ls-files | tar``) in a directory of its own;
``SEED`` defaults to 1.  The tool takes no options.  It first copies
both trees into one temporary directory, as ``parent/`` and ``change/``
(:func:`stage`): peak RSS moves with the tree's path, so two trees run
from paths of different lengths differ by it.  It then runs
``benchmarks/spine/run.py --workload WORKLOAD --seed SEED`` at its
default length from each copy ten times, alternating, each run a fresh
process, odd pairs with the parent first, and removes the copies.  The
environment passes through, so ``NUMPY_MADVISE_HUGEPAGE=0 python
tools/paired.py …`` pairs runs without huge pages.

It prints every reading of the gated end-to-end metrics
(``BENCHMARK.json``'s ``end_to_end``), each run's failed operations,
then per metric both medians, the change's wins, the parent's quartile
distance and the verdict of step 5 of docs/BENCHMARKS.md "How to claim
a gain" (:func:`verdict`).  A run without its result line stops the
tool with exit code 1.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Pairs of runs per comparison.
PAIRS = 10
#: Least share of pairs the change must win.
WIN_SHARE = 0.9


def gated_metrics() -> list:
    """``[(name, unit, better)]`` of the end-to-end metrics, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def iqr(values) -> float:
    """The distance between the quartiles (``statistics.quantiles``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better: str) -> tuple:
    """``(verdict, wins, gain)`` of a claim that ``change`` beats ``parent``.

    ``parent`` and ``change`` are the readings of the same pairs, in pair
    order; ``better`` is ``"lower"`` or ``"higher"``.  ``gain`` is how
    far the change's median beats the parent's (negative when it is
    worse), and ``wins`` the pairs the change beats strictly.  The
    verdict is ``"holds"`` when the change wins at least nine tenths of
    the pairs and its gain exceeds the parent's quartile distance;
    ``"rerun"`` when the gain is positive but the parent's own runs
    spread at least as wide (the box was in a slow spell); otherwise
    ``"not met"``.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the two sides of at least two pairs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (statistics.median(parent) - statistics.median(change))
    if gain <= 0:
        return "not met", wins, gain
    if iqr(parent) >= gain:
        return "rerun", wins, gain
    if wins >= WIN_SHARE * len(parent):
        return "holds", wins, gain
    return "not met", wins, gain


@contextlib.contextmanager
def stage(parent: Path, change: Path):
    """Yield ``(parent, change)`` copied into one temporary directory.

    The copies are ``parent/`` and ``change/`` beside each other, so
    their paths have one length; the directory is removed on exit.
    """
    root = Path(tempfile.mkdtemp(prefix="paired-"))
    try:
        staged = root / "parent", root / "change"
        for tree, copy in zip((parent, change), staged):
            shutil.copytree(tree, copy, symlinks=True)
        yield staged
    finally:
        shutil.rmtree(root)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One fresh spine process in ``tree``: its result line, parsed."""
    cmd = [sys.executable, "benchmarks/spine/run.py", "--workload", workload,
           "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} printed no result line "
                           f"(exit code {done.returncode})")
    return json.loads(lines[-1])


def report(parent: Path, change: Path, workload: str, seed: int,
           runs: list, metrics: list, staged: tuple) -> list:
    """The Markdown lines for ``runs``: ``[(first, parent, change)]``.

    ``staged`` names the two copies (:func:`stage`) the runs were made
    from.
    """
    lines = [f"## `{workload}`, seed {seed}", "",
             f"Parent `{parent.name}`, change `{change.name}`: {len(runs)} "
             "pairs of "
             f"`python3 benchmarks/spine/run.py --workload {workload} "
             f"--seed {seed}`, each run a fresh process, odd pairs with the "
             "parent first.",
             f"Run from the copies `{staged[0]}` and `{staged[1]}` (one "
             "path length), removed since.", ""]
    head = ["pair", "first"] + [f"`{name}` ({unit}) parent / change"
                                for name, unit, _ in metrics]
    lines += ["| " + " | ".join(head + ["failed parent / change"]) + " |",
              "| " + " | ".join("---" for _ in range(len(head) + 1)) + " |"]
    for k, (first, p, c) in enumerate(runs, 1):
        cells = [str(k), first] + [
            f"{p['metrics'][name]['value']:.6g} / "
            f"{c['metrics'][name]['value']:.6g}" for name, _, _ in metrics]
        cells.append(f"{p['failed']} / {c['failed']}")
        lines.append("| " + " | ".join(cells) + " |")
    lines += ["", "| metric | better | parent median | change median | "
              "gain | wins | parent IQR | verdict |",
              "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for name, unit, better in metrics:
        p = [r[1]["metrics"][name]["value"] for r in runs]
        c = [r[2]["metrics"][name]["value"] for r in runs]
        said, wins, gain = verdict(p, c, better)
        lines.append(
            f"| `{name}` ({unit}) | {better} | {statistics.median(p):.6g} | "
            f"{statistics.median(c):.6g} | {gain:+.4g} | {wins}/{len(runs)} "
            f"| {iqr(p):.4g} | {said} |")
    return lines


def main(argv) -> int:
    if len(argv) not in (3, 4) or not (len(argv) == 3 or argv[3].isdigit()):
        print("usage: python tools/paired.py PARENT CHANGE WORKLOAD [SEED]",
              file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, seed = argv[2], int(argv[3]) if len(argv) == 4 else 1
    for tree in (parent, change):
        if not (tree / "benchmarks" / "spine" / "run.py").is_file():
            print(f"paired: {tree} holds no benchmarks/spine/run.py",
                  file=sys.stderr)
            return 2
    runs = []
    try:
        with stage(parent, change) as staged:
            for k in range(PAIRS):
                first = "parent" if k % 2 == 0 else "change"
                sides = {}
                for side in (first,
                             "change" if first == "parent" else "parent"):
                    tree = staged[0] if side == "parent" else staged[1]
                    sides[side] = run_once(tree, workload, seed)
                runs.append((first, sides["parent"], sides["change"]))
    except RuntimeError as exc:
        print(f"paired: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(parent, change, workload, seed, runs,
                           gated_metrics(), staged)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
