"""Docstring lint gate for the invariant-bearing modules.

CI runs ``ruff check --select D100,D101,D102,D103,D104`` over these
files (see ruff.toml); this test enforces the same D1xx subset locally
with the stdlib ``ast`` module, so environments without ruff — like
this container — cannot silently regress the documented column/merge
invariants the modules promise.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: The modules whose public surface must stay documented: they state the
#: snapshot column invariants, the shard export/merge contract, the
#: cost-model determinism rules, the §3 batch-cache semantics, the
#: shared walk kernels other layers build on, the batch engine's
#: phase-I rule contract, the cover index, fault-tolerant engine and
#: baseline path recorder the CSR writer's tests pin, the soak's
#: scenario engine and workload generators, the ring geometry, the
#: continuous graph and the De Bruijn isomorphism check, the §4 id
#: strategies, the membership write path (join / leave, the op
#: journal, churn traces), the congestion accounting that books
#: every routed batch, and the input checks every entry point calls.
GATED = [
    SRC / "checks.py",
    SRC / "core" / "batch.py",
    SRC / "core" / "routing_stats.py",
    SRC / "core" / "snapshot.py",
    SRC / "core" / "shard.py",
    SRC / "core" / "batch_cache.py",
    SRC / "core" / "walk.py",
    SRC / "core" / "segments.py",
    SRC / "core" / "interval.py",
    SRC / "core" / "continuous.py",
    SRC / "core" / "debruijn.py",
    SRC / "core" / "network.py",
    SRC / "core" / "node.py",
    SRC / "sim" / "churn.py",
    SRC / "balance" / "strategies.py",
    SRC / "faults" / "batch_ft.py",
    SRC / "baselines" / "base.py",
    SRC / "peer" / "__init__.py",
    SRC / "peer" / "costmap.py",
    SRC / "peer" / "itracker.py",
    SRC / "peer" / "policy.py",
    SRC / "peer" / "routing.py",
    SRC / "sim" / "scenario.py",
    SRC / "sim" / "workload.py",
]


def _missing(tree: ast.Module, path: pathlib.Path) -> list:
    """(location, kind) entries for every missing public docstring."""
    gaps = []
    if ast.get_docstring(tree) is None:
        gaps.append((f"{path.name}", "module (D100/D104)"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if ast.get_docstring(node) is None:
                gaps.append((f"{path.name}:{node.lineno} {node.name}",
                             "class (D101)"))
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")
                        and ast.get_docstring(item) is None):
                    gaps.append(
                        (f"{path.name}:{item.lineno} "
                         f"{node.name}.{item.name}", "method (D102)"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parent_is_module = any(
                node is item for item in tree.body)
            if (parent_is_module and not node.name.startswith("_")
                    and ast.get_docstring(node) is None):
                gaps.append((f"{path.name}:{node.lineno} {node.name}",
                             "function (D103)"))
    return gaps


@pytest.mark.parametrize("path", GATED, ids=lambda p: p.stem)
def test_public_surface_is_documented(path):
    tree = ast.parse(path.read_text())
    gaps = _missing(tree, path)
    assert not gaps, (
        "public names missing docstrings (CI enforces the same set via "
        f"ruff --select D100..D104): {gaps}")
