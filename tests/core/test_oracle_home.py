"""Structure gate: code kept for comparison lives once, in ``tests/oracles/``.

Stdlib ``ast``, in the style of ``test_unused_imports.py``.  It fails when
a ``tests/**/test_*.py`` module imports another ``test_*`` module; when
a test module defines a frozen parent — a function or class named
``parent_*`` / ``_parent_*`` / ``Parent*`` / ``loop_*`` or ending in
``Oracle`` (``Test*`` classes are suites) — or a second top-level copy
of a name ``tests/oracles/`` defines; and when no test imports an
oracle module.
"""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).resolve().parents[1]
ORACLE_NAME = re.compile(r"^(_?parent_|Parent[A-Z]|loop_)|Oracle$")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imported(tree: ast.AST) -> set:
    """Dotted names of every module and from-imported name in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{alias.name}"
                                      for alias in node.names}
    return names


def violations(root: pathlib.Path = TESTS) -> dict:
    """Each rule's findings over the test modules under ``root``."""
    package = root / "oracles"
    tests = {str(p.relative_to(root)): ast.parse(p.read_text())
             for p in sorted(root.rglob("test_*.py"))
             if package not in p.parents}
    kept = {node.name for path in package.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, DEFS) and not node.name.startswith("_")}
    found = {"imports": [], "defines": []}
    for where, tree in tests.items():
        modules = {name.split(".")[0] for name in imported(tree)}
        found["imports"] += [f"{where}: {module}" for module in sorted(modules)
                             if module.startswith("test_")]
        top = [node for node in tree.body if isinstance(node, DEFS)]
        found["defines"] += sorted(
            f"{where}: {node.name}" for node in ast.walk(tree)
            if isinstance(node, DEFS)
            and (ORACLE_NAME.search(node.name)
                 and not node.name.startswith("Test")
                 or node in top and node.name in kept))
    read = set().union(*map(imported, tests.values()))
    found["unread"] = sorted(path.stem for path in package.glob("*.py")
                             if path.stem != "__init__"
                             and f"oracles.{path.stem}" not in read)
    return found


def test_no_test_module_imports_another():
    assert violations()["imports"] == []


def test_frozen_parents_live_in_the_oracle_package():
    assert violations()["defines"] == []


def test_every_oracle_module_has_a_reader():
    assert violations()["unread"] == []


def test_the_gate_sees_what_it_guards(tmp_path):
    (tmp_path / "test_a.py").write_text(
        "from test_b import helper\nimport oracles.walk\n"
        "def parent_walk(): ...\ndef loop_join(): ...\n"
        "class DenseOracle: ...\nclass ParentNode: ...\n"
        "class TestAgainstTheOracle: ...\ndef joined(): ...\n"
        "def test_parent_is_read():\n    def joined(): ...\n")
    (tmp_path / "test_b.py").write_text("def helper(): ...\n")
    (tmp_path / "oracles").mkdir()
    for name in ("__init__", "walk", "cost"):
        (tmp_path / "oracles" / f"{name}.py").write_text("def joined(): ...\n")
    assert violations(tmp_path) == {
        "imports": ["test_a.py: test_b"],
        "defines": [f"test_a.py: {name}" for name in (
            "DenseOracle", "ParentNode", "joined", "loop_join",
            "parent_walk")],
        "unread": ["cost"]}
