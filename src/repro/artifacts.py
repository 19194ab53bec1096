"""Shared NumPy-safe JSON artifact helpers.

The ``soak`` subcommand's ``--json-out`` and every experiment result's
``to_json`` (what ``run --out`` writes) turn NumPy scalars into Python
scalars through this one module (:func:`dumps`), and drop the
:data:`VOLATILE_KEYS` leaves (:func:`deterministic_dumps`), so an
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
           "deterministic_dumps", "unwritable", "write_artifact"]

#: Leaf names whose value reads the clock or the machine — wall-clock
#: times, rates and speedups derived from them, memory high-water marks —
#: each one a leaf some result really emits (X3's rows, X4's rows,
#: ``soak``).  Everything else ``soak`` or an experiment reports is a
#: function of its arguments and seed.  A field that differs between
#: same-seed runs for any other reason is a bug to fix, not a name to add
#: here.
VOLATILE_KEYS = frozenset({
    # wall clock
    "wall_seconds", "refresh_us_per_op",
    # rates and ratios of wall-clock times
    "batch_rate", "scalar_rate", "speedup", "klookups_per_sec",
    "krequests_per_sec",
    # the machine
    "peak_rss_mb",
})


def to_jsonable(value):
    """Deep-convert a result tree to JSON-native types.

    Arrays and NumPy scalars go through ``.tolist()``, tuples become
    lists; dict keys are stringified the way ``json.dump``
    would.  Shared by :func:`dumps` and :func:`strip_volatile`, so "what
    the artifact holds" has exactly one definition.
    """
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # ndarray or NumPy scalar
        return value.tolist()
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


def deterministic_dumps(value) -> str:
    """:func:`dumps` of ``value`` minus its :data:`VOLATILE_KEYS` leaves.

    The part two same-seed runs agree on.  ``NaN`` / ``Infinity`` are
    not JSON: a tree holding one — volatile or not — raises
    ``ValueError`` naming the key path of every such leaf.
    """
    doc = to_jsonable(value)
    if bad := ", ".join(_non_finite(doc)):
        raise ValueError(bad)
    return dumps(strip_volatile(doc))


def unwritable(path: str, directory: bool = False) -> Optional[str]:
    """Why an artifact cannot be written to ``path``, or ``None``.

    ``path`` names a file, or with ``directory`` the directory that
    receives one file per result.  Checked before ``soak`` or ``run``
    measures, so a bad ``--json-out`` / ``--out`` costs no run; creates
    nothing.
    """
    if os.path.isdir(path) != directory and os.path.exists(path):
        return "is not a directory" if directory else "is a directory"
    if os.path.exists(path):
        mode = os.W_OK | os.X_OK if directory else os.W_OK
        return None if os.access(path, mode) else "is not writable"
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
    """Dump one measurement as a JSON artifact (NumPy-safe).

    No-op without a path.  Writes :func:`deterministic_dumps` of
    ``{command, ok, result}``; the parent directory is created on demand
    and the file ends in a newline.  A non-finite value raises
    ``ValueError`` before anything is written.
    """
    if not path:
        return
    text = deterministic_dumps(
        {"command": command, "ok": bool(ok), "result": result})
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")
