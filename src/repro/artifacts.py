"""Shared NumPy-safe JSON artifact helpers for the bench CLI.

Every ``bench-*``/``soak`` subcommand used to carry its own copy of the
"NumPy scalar → Python scalar" JSON dance; this module is the single
implementation (:func:`dumps` — the experiment results' ``to_json``
goes through it too).  :func:`write_artifact` writes one measurement as
``{command, ok, result}`` minus the :data:`VOLATILE_KEYS` leaves, so an
artifact is a pure function of its command line: CI byte-diffs the
files ``benchmarks/ci_smoke.sh`` writes against the committed
``benchmarks/baselines/``, and re-baselining is
``benchmarks/ci_smoke.sh benchmarks/baselines``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Optional

__all__ = ["VOLATILE_KEYS", "to_jsonable", "strip_volatile", "dumps",
           "unwritable", "write_artifact"]

#: Leaf names whose value reads the clock or the machine — wall-clock
#: times, rates and speedups derived from them, memory high-water marks,
#: the CPU count and the gate it engages.  Everything else a bench or an
#: experiment reports is a function of its arguments and seed.  A field
#: that differs between same-seed runs for any other reason is a bug to
#: fix, not a name to add here.
VOLATILE_KEYS = frozenset({
    # wall clock
    "seconds", "secs", "wall_seconds", "batch_secs", "scalar_secs",
    "build_secs", "compile_secs", "full_compile_secs", "single_secs",
    "sharded_secs", "refresh_secs_per_op", "refresh_us_per_op",
    # rates and ratios of wall-clock times
    "batch_rate", "scalar_rate", "baseline_rate", "final_rate",
    "single_rate", "sharded_rate", "refresh_ops_rate", "klookups_per_sec",
    "krequests_per_sec", "speedup", "min_speedup_measured", "shard_gain",
    "refresh_vs_compile",
    # the machine
    "peak_rss_mb", "cpu_count", "speedup_gate_engaged",
})


def to_jsonable(value):
    """Deep-convert a result tree to JSON-native types.

    NumPy scalars go through ``.item()``, arrays through ``.tolist()``,
    tuples become lists; dict keys are stringified the way ``json.dump``
    would.  Shared by :func:`dumps` and :func:`strip_volatile`, so "what
    the artifact holds" has exactly one definition.
    """
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # ndarray
        return value.tolist()
    if hasattr(value, "item"):  # NumPy scalar
        return value.item()
    return value


def strip_volatile(value):
    """:func:`to_jsonable` of ``value`` minus every :data:`VOLATILE_KEYS`
    entry, at any depth: the part of a result two same-seed runs agree on."""
    if isinstance(value, dict):
        return {str(k): strip_volatile(v) for k, v in value.items()
                if str(k) not in VOLATILE_KEYS}
    if isinstance(value, (list, tuple)):
        return [strip_volatile(v) for v in value]
    return to_jsonable(value)


def _non_finite(value, where: str = ""):
    """Yield ``"<key path> = <value>"`` for every NaN / infinite leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield f"{where} = {value}"


def dumps(value) -> str:
    """The repository's one JSON form of a result tree (NumPy-safe).

    Converts through :func:`to_jsonable` and indents by two.  ``NaN`` /
    ``Infinity`` are not JSON: a tree holding one raises ``ValueError``
    naming the key path of every such leaf.
    """
    doc = to_jsonable(value)
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(", ".join(_non_finite(doc)) or str(exc)) from None


def unwritable(path: str) -> Optional[str]:
    """Why an artifact cannot be written to ``path``, or ``None``.

    Checked before a bench measures, so a bad ``--json-out`` costs no
    run; creates nothing.
    """
    if os.path.isdir(path):
        return "is a directory"
    if os.path.exists(path):
        return None if os.access(path, os.W_OK) else "is not writable"
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        return f"is under {parent}, which is not a directory"
    if not os.access(parent, os.W_OK | os.X_OK):
        return f"is under {parent}, which is not writable"
    return None


def write_artifact(path: Optional[str], command: str, result: Dict,
                   ok: bool) -> None:
    """Dump one bench measurement as a JSON artifact (NumPy-safe).

    No-op without a path.  Writes ``{command, ok, result}`` with the
    :data:`VOLATILE_KEYS` stripped from ``result``; the parent directory
    is created on demand and the file ends in a newline.  ``NaN`` /
    ``Infinity`` are not JSON: a result holding one — volatile or not —
    raises ``ValueError`` naming the key, before anything is written.
    """
    if not path:
        return
    doc = to_jsonable({"command": command, "ok": bool(ok), "result": result})
    if bad := ", ".join(_non_finite(doc)):
        raise ValueError(bad)
    text = dumps(strip_volatile(doc))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")
