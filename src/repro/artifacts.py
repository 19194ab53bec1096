"""Shared NumPy-safe JSON artifact helpers for the bench CLI.

Every ``bench-*``/``soak`` subcommand used to carry its own copy of the
"NumPy scalar → Python scalar" JSON dance; this module is the single
implementation (:func:`dumps` — the experiment results' ``to_json``
goes through it too).  :func:`write_artifact` wraps one measurement dict into
the artifact envelope CI uploads and ``bench-compare`` gates on — and
stamps the **execution shape** (``workers`` + machine ``cpu_count``)
into every artifact, so compares can refuse diffs across different
worker counts instead of mistaking a sharding change for a throughput
regression.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Optional

__all__ = ["to_jsonable", "dumps", "artifact_payload", "write_artifact"]


def to_jsonable(value):
    """Deep-convert a result tree to JSON-native types.

    NumPy scalars go through ``.item()``, arrays through ``.tolist()``,
    tuples become lists; dict keys are stringified the way ``json.dump``
    would.  Shared by :func:`dumps` and the soak experiment's
    deterministic payload, so "what the artifact holds" has exactly one
    definition.
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


def artifact_payload(command: str, result: Dict, ok: bool,
                     workers: int = 1) -> Dict:
    """The artifact envelope: verdict + execution shape + measurement."""
    return {
        "command": command,
        "ok": bool(ok),
        "workers": int(workers),
        "cpu_count": int(os.cpu_count() or 1),
        "result": result,
    }


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


def write_artifact(path: Optional[str], command: str, result: Dict,
                   ok: bool, workers: int = 1) -> None:
    """Dump one bench measurement as a JSON artifact (NumPy-safe).

    No-op without a path.  The parent directory is created on demand and
    the file ends in a newline (byte-stable artifacts diff cleanly).
    ``NaN`` / ``Infinity`` are not JSON: a result holding one raises
    ``ValueError`` naming the key, before anything is written.
    """
    if not path:
        return
    text = dumps(artifact_payload(command, result, ok, workers=workers))
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")
