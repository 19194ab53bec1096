"""Fixtures shared by the experiment suites."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.common import get_experiment

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
HASH_SEED_TEST = "test_every_experiment_equal_across_hash_seeds"


@pytest.fixture(scope="session")
def quick_run():
    """``quick_run(id)``: the experiment's quick result, run once per session."""
    results = {}

    def run(name):
        if name not in results:
            results[name] = get_experiment(name)(quick=True)
        return results[name]

    return run


@pytest.fixture(scope="session", autouse=True)
def other_hash_seed_run(request, tmp_path_factory):
    """``(process, out dir)``: ``run all --quick --out`` under a hash seed
    other than this process's, started with the first experiment test so
    it runs beside the in-process quick runs; None when the hash-seed
    test is not collected."""
    if not any(item.name == HASH_SEED_TEST for item in request.session.items):
        yield None
        return
    # 0 turns the salt off, which no randomised salt (the default) is
    own = os.environ.get("PYTHONHASHSEED", "random")
    env = dict(os.environ, PYTHONHASHSEED="1" if own == "0" else "0",
               PYTHONPATH=str(SRC))
    out = tmp_path_factory.mktemp("hash_seed")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "run", "all", "--quick",
         "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    yield proc, out
    if proc.poll() is None:  # the hash-seed test did not run to the end
        proc.kill()
    proc.wait()
    proc.stderr.close()
