"""The ``--json-out`` schema, shared by the artifact and CLI test suites.

The ``soak`` payload has the ``{"command": str, "ok": bool,
"result": {...}}`` shape with JSON-native, NumPy-free, *finite* leaves
(``NaN`` / ``Infinity`` are not strict JSON and break downstream parsers),
validated by a hand-rolled checker (no external jsonschema dependency).
"""

import json
import math
import pathlib


def _strict_parse(path: pathlib.Path) -> dict:
    """Load rejecting the non-JSON constants Python's dumper tolerates."""
    def reject(token):
        raise AssertionError(
            f"{path.name}: non-JSON constant {token!r} in artifact")
    return json.loads(path.read_text(), parse_constant=reject)


def _check_leaves(value, where: str, problems: list) -> None:
    """Recursively require JSON-native containers and finite leaves."""
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                problems.append(f"{where}: non-string key {k!r}")
            else:
                _check_leaves(v, f"{where}.{k}", problems)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _check_leaves(v, f"{where}[{i}]", problems)
    elif isinstance(value, float):
        if not math.isfinite(value):
            problems.append(f"{where}: non-finite number {value!r}")
    elif value is not None and not isinstance(value, (str, bool, int)):
        problems.append(
            f"{where}: non-JSON-native leaf of type {type(value).__name__}")


def validate_artifact(path: pathlib.Path) -> dict:
    """The ``--json-out`` schema; returns the parsed payload."""
    payload = _strict_parse(path)
    problems: list = []
    if not isinstance(payload, dict):
        problems.append("top level is not an object")
    else:
        for key, typ in (("command", str), ("ok", bool), ("result", dict)):
            if key not in payload:
                problems.append(f"missing required key {key!r}")
            elif not isinstance(payload[key], typ) or (
                    typ is not bool and isinstance(payload[key], bool)):
                problems.append(
                    f"{key!r} is {type(payload[key]).__name__}, "
                    f"expected {typ.__name__}")
        if isinstance(payload.get("result"), dict):
            if not payload["result"]:
                problems.append("'result' is empty")
            _check_leaves(payload["result"], "result", problems)
    assert not problems, f"{path.name}: " + "; ".join(problems)
    # NumPy-safety double-check: a strict re-dump must round-trip
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload
    return payload
