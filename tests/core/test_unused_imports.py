"""Unused-import lint gate (ruff F401) for environments without ruff.

CI runs ``ruff check`` over ``src/``, ``tests/``, ``benchmarks/`` and
``tools/`` with the pyflakes ``F`` family selected (see ruff.toml); an
unused import there fails the lint job.  This test enforces the same rule
locally with the stdlib ``ast`` module, like ``test_docstrings.py`` does
for the D1xx subset: every name an ``import`` / ``from … import``
binds is read somewhere in its module, re-exported through ``__all__``,
or carries ``# noqa: F401``; ``__init__.py`` façades are exempt, as in
ruff.toml.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
TREES = ("src", "tests", "benchmarks", "tools")


def _annotation_names(tree: ast.Module) -> set:
    """Names read inside string annotations (``-> "BatchRouter"``)."""
    names = set()
    for node in ast.walk(tree):
        notes = [getattr(node, "annotation", None),
                 getattr(node, "returns", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                try:
                    quoted = ast.parse(note.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted)
                          if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant)
                      and isinstance(c.value, str)}
    return names


def unused_imports(path: pathlib.Path) -> list:
    """``"file:line name"`` for every import of ``path`` nothing reads."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree) | _exported(tree)
    gaps = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa" in span and ("F401" in span or "# noqa:" not in span):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                gaps.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return gaps


def test_every_import_is_used():
    gaps = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name != "__init__.py":
                gaps += unused_imports(path)
    assert not gaps, (
        "unused imports (CI enforces the same via ruff's F401): "
        f"{gaps}")
