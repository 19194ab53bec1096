"""Reach gate: every ``src/`` function some command runs, or a reason why not.

Usage, from the repository root (no flags; ~1-2 min on a 2-vCPU box)::

    python tools/reach.py

It runs the repository's own commands, reading them rather than copying
them:

* each ``run python ...`` line of ``benchmarks/ci_smoke.sh``: the quick
  run of every experiment (``run all --quick``) and the ``soak`` runs;
* every ``examples/*.py``;
* ``BENCHMARK.json``'s ``command`` with ``--all --seconds 2``.

Each command runs with a generated ``sitecustomize`` first on
``PYTHONPATH``.  It installs a ``sys.setprofile`` hook in every Python
process it starts, subprocesses included, and each process dumps the
code objects it entered when it exits.  Python 3.11 has no
``sys.monitoring``, hence the profile hook.  Forked pool workers leave
through ``os._exit`` and dump nothing, which is why the worker side of
``core/shard.py`` is allowlisted by name; the spine's ``route_sharded``
runs its parent side.

The dumps are joined against an ``ast`` inventory of ``src/`` keyed by
``(file, first decorator-or-def line)``, the line ``co_firstlineno``
reports.  The gate is function-level: a branch inside a function that
runs is never a target.  Exit 1 when a function no command entered is
not on :data:`ALLOWLIST`, or an allowlisted function was entered (the
list must not rot), or a command failed; exit 0 otherwise.
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


#: written as ``sitecustomize.py``; ``{dump_dir!r}`` is filled in.  Each
#: dump gets a name of its own, opened exclusively: a later process that
#: reuses a pid must not overwrite an earlier one's dump.
_HOOK = '''\
import atexit, json, os, sys, threading, time

_entered = {{}}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered[id(code)] = code


def _dump():
    sys.setprofile(None)
    hits = sorted({{(c.co_filename, c.co_firstlineno)
                   for c in _entered.values()}})
    name = f"{{os.getpid()}}-{{time.monotonic_ns()}}.json"
    with open(os.path.join({dump_dir!r}, name), "x") as f:
        json.dump(hits, f)


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def trace(argvs: list, cwd: pathlib.Path, pythonpath: str) -> tuple:
    """Run each argv under the profile hook.

    Returns ``(entered, failures)``: the set of ``(resolved path, line)``
    every traced process entered, and a line per command that exited
    non-zero.  ``python`` / ``python3`` run as this interpreter.
    """
    entered, failures = set(), []
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir, dump_dir = (os.path.join(scratch, d) for d in ("hook", "dumps"))
        os.mkdir(hook_dir)
        os.mkdir(dump_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as f:
            f.write(_HOOK.format(dump_dir=dump_dir))
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
            entered |= {(pathlib.Path(cwd, name).resolve(), line)
                        for name, line in json.loads(dump.read_text())}
    return entered, failures


def verdict(found: dict, entered: set, allowlist: dict,
            package: pathlib.Path) -> tuple:
    """``(unreached, stale)`` as ``"file:name"`` keys.

    ``unreached``: functions of ``package`` no command entered and no
    allowlist key covers.  ``stale``: allowlist keys that name no
    function or file, or name a function that was entered.
    """
    keys = {(path, line): f"{path.relative_to(package).as_posix()}:{name}"
            for (path, line), name in found.items()}

    def covered(key):
        file, _, name = key.partition(":")
        parts = name.split(".")
        return file in allowlist or any(
            f"{file}:{'.'.join(parts[:k])}" in allowlist
            for k in range(1, len(parts) + 1))

    unreached = sorted(k for where, k in keys.items()
                       if where not in entered and not covered(k))
    hit = {k for where, k in keys.items() if where in entered}
    named = set(keys.values())
    files = {k.partition(":")[0] for k in named}

    def is_stale(key):
        if ":" not in key:
            return key not in files
        return key not in named or key in hit

    return unreached, sorted(filter(is_stale, allowlist))


def main() -> int:
    package = (SRC / "repro").resolve()
    found = inventory()
    with tempfile.TemporaryDirectory() as out_dir:
        print(f"reach: tracing the repository's commands over {len(found)} "
              "src/ functions")
        entered, failures = trace(commands(out_dir), ROOT, str(SRC))
    unreached, stale = verdict(found, entered, ALLOWLIST, package)
    missed = sum((path, line) not in entered for path, line in found)
    print(f"reach: {len(found) - missed} of {len(found)} functions entered, "
          f"{missed} not ({len(ALLOWLIST)} allowlist entries)")
    for failure in failures:
        print(f"command failed, trace incomplete: {failure}")
    for k in unreached:
        print(f"unreached, not allowlisted: {k}")
    for k in stale:
        print(f"allowlisted but entered or not defined: {k}")
    return 1 if failures or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
