"""Every experiment's JSON is independent of the interpreter's hash salt.

Builtin ``hash`` of a ``str`` is salted per process, so a seed derived
from it makes a table that differs between two runs of the same command
(E10 once seeded its §4 strategies that way).  ``run all --quick --out``
in two subprocesses with different ``PYTHONHASHSEED`` must write
byte-equal files once the wall-clock leaves — the
``repro.artifacts.VOLATILE_KEYS`` that ``--json-out`` also strips — are
gone.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.artifacts import dumps, strip_volatile
from repro.experiments.runner import all_experiments

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_every_experiment_equal_across_hash_seeds(tmp_path):
    runs = {}
    for hash_seed in ("0", "1"):  # the two runs share the box concurrently
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        runs[tmp_path / f"hash{hash_seed}"] = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "all", "--quick",
             "--out", str(tmp_path / f"hash{hash_seed}")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    for proc in runs.values():
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
    first, second = runs
    names = sorted(p.name for p in first.glob("*.json"))
    assert len(names) == len(all_experiments())
    for name in names:
        a, b = (dumps(strip_volatile(json.loads((d / name).read_text())))
                for d in (first, second))
        assert a == b, name
