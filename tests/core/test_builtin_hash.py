"""Salted-hash lint gate: no builtin ``hash(`` in ``src/repro``.

Builtin ``hash`` of a ``str`` (or anything holding one) is salted per
process, so a seed or a bucket derived from it changes between two runs
of the same command.  Stable digests are ``zlib.crc32`` (the experiment
runner's per-id seed, E10's per-strategy seed).  The one legitimate use
is a ``__hash__`` method delegating to its key; this test enforces the
rule with the stdlib ``ast`` module, like ``test_unused_imports.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def builtin_hash_calls(path: pathlib.Path) -> list:
    """``"file:line"`` for every ``hash(...)`` call outside ``__hash__``."""
    tree = ast.parse(path.read_text())
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
            allowed |= {id(n) for n in ast.walk(node)}
    return [f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "hash"
            and id(node) not in allowed]


def test_no_builtin_hash_outside_dunder_hash():
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        calls += builtin_hash_calls(path)
    assert not calls, (
        "builtin hash() is salted per process; use zlib.crc32 for a "
        f"stable digest: {calls}")
