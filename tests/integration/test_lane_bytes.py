"""Smoke of ``tools/lane_bytes.py``, the bytes-per-lane and soak-phase
tables, at tiny n."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "lane_bytes", ROOT / "tools" / "lane_bytes.py")
lane_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lane_bytes)

ENGINES = ("fast", "dh", "dh (no paths)", "cost-dh", "cache-serve",
           "ft-simple", "ft-resistant")
#: the name column's width: a name may hold spaces
NAME = 14
PHASES = ("1:lookups", "2:churn", "3:lookups", "4:flash", "5:failstop",
          "6:byzantine", "7:rebalance", "8:mass")


def test_every_engine_and_phase_row_prints():
    lines = lane_bytes.table(64, 512, lookups=2000)
    assert lines[0] == "n=64 chunk=512 seed=1"
    split = lines.index("soak day: lookups=2000")
    phases = {line.split()[0]: float(line.split()[1])
              for line in lines[split + 2:]}
    assert list(phases) == list(PHASES)
    assert phases["1:lookups"] > 0 and phases["4:flash"] > 0, phases
    rows = {line[:NAME].strip(): line[NAME:].split()
            for line in lines[2:split]}
    assert list(rows) == [*ENGINES, "booking"]
    lanes = {name: int(cells[0]) for name, cells in rows.items()}
    assert [lanes[e] for e in ENGINES] == [512, 512, 512, 4096, 512, 256,
                                           128]
    for name, cells in rows.items():
        assert float(cells[2]) > 0, name  # bytes per lane (or entry)
    assert rows["booking"][-1] == "B/entry"
