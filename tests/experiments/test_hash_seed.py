"""E10's rows do not depend on the interpreter's hash salt.

Builtin ``hash`` of a ``str`` is salted per process, so a seed derived
from it makes a table that differs between two runs of the same command.
E10 seeds each §4 strategy with a ``zlib.crc32`` digest of its name
instead; two subprocesses with different ``PYTHONHASHSEED`` must write
byte-equal rows.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _e10_rows(tmp_path: pathlib.Path, hash_seed: str) -> str:
    out = tmp_path / f"hash{hash_seed}"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "e10", "--quick",
         "--out", str(out)],
        env=env, check=True, capture_output=True)
    rows = json.loads((out / "E10.json").read_text())["rows"]
    return json.dumps(rows, sort_keys=True)


def test_e10_rows_equal_across_hash_seeds(tmp_path):
    assert _e10_rows(tmp_path, "0") == _e10_rows(tmp_path, "1")
