"""Routing processes do not load the heavy optional dependencies.

networkx (~18 MB resident) serves only graph analyses — expander
spectra, ``to_networkx`` exports — and asyncio (~7 MB) only the
asynchronous fabric in :mod:`repro.sim.asyncnet`.  Both load on first
use, so a process that
imports everything the spine benchmark imports routes without them.
Checked in a fresh interpreter: this one has long since imported both.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: What ``benchmarks/spine/workloads.py`` imports from the package.
SPINE_IMPORTS = ("repro.core", "repro.sim.scenario", "repro.faults.batch_ft",
                 "repro.peer.routing", "repro.experiments.soak")


def _run(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    return out.stdout.strip()


def test_spine_imports_leave_networkx_and_asyncio_unloaded():
    code = ("import sys\n"
            + "".join(f"import {mod}\n" for mod in SPINE_IMPORTS)
            + "print(sorted({'networkx', 'asyncio'} & set(sys.modules)))")
    assert _run(code) == "[]"


def test_expander_graph_still_builds_on_first_use():
    code = ("import sys, numpy, repro.core\n"
            "before = 'networkx' in sys.modules\n"
            "from repro.expander import GabberGalilNetwork\n"
            "net = GabberGalilNetwork(n=16, rng=numpy.random.default_rng(0))\n"
            "g = net.to_networkx()\n"
            "print(before, g.number_of_nodes(), "
            "g.number_of_edges() == len(net.edges()) > 0)")
    assert _run(code) == "False 16 True"
