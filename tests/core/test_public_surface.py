"""Public-surface gate: every public top-level name in ``src/repro`` has a caller.

A test that imports a function is not a caller: code reached only by its
own unit tests reproduces nothing.  This test, in the stdlib-``ast``
style of ``test_unused_imports.py``, lists every public (no leading
underscore) top-level ``def`` / ``class`` of ``src/repro`` and requires
each one to be referenced by at least one of:

* code under ``src/`` other than its own definition, its ``__all__``
  entry and a package ``__init__`` re-export (uses inside its own module
  count);
* an example under ``examples/`` or the spine benchmark under
  ``benchmarks/spine/`` (not its self-test);
* a ``"module:function"`` string in ``repro/cli.py`` (the bench table
  names its measure / report / artifact functions that way);
* a ``@register(...)`` decorator (the experiment registry calls it).

A name none of these reach must sit on :data:`ALLOWED` with a one-line
reason, or be deleted.  Options that nothing set were folded into
constants; :data:`FOLDED` keeps each out of its signature.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CALLER_TREES = (ROOT / "examples", ROOT / "benchmarks" / "spine")

#: Names kept although nothing outside the tests calls them.
ALLOWED = {
    "measure_scheme": "scalar oracle of measure_scheme_batch",
    "run_async_lookups": "the asyncio runtime's driver in the lookup "
                         "contract suite",
    "linear_distance": "Obs 2.3 / Claim 2.4 property API",
    "digits_to_point": "Obs 2.3 / Claim 2.4 property API",
    "arcs_cover_ring": "Claim 6.5 oracle in test_overlap.py",
}

_ENTRY = re.compile(r"^[\w.]+:(\w+)$")


def _annotation_names(tree: ast.AST) -> set:
    """Names read inside string annotations (``-> "BatchRouter"``)."""
    names = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                try:
                    quoted = ast.parse(note.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted)
                          if isinstance(n, ast.Name)}
    return names


def referenced(tree: ast.AST, *, count_imports: bool) -> set:
    """Every identifier ``tree`` reads: names, attributes, imported names.

    Definitions and ``__all__`` strings are not reads; an import is one
    only when ``count_imports`` (a package ``__init__`` merely re-exports).
    """
    names = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif count_imports and isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _registered(tree: ast.Module) -> set:
    """Top-level functions decorated with ``@register(...)``."""
    names = set()
    for node in tree.body:
        for deco in getattr(node, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            if isinstance(target, ast.Name) and target.id == "register":
                names.add(node.name)
    return names


def _cli_entries(tree: ast.Module) -> set:
    """Function names of the ``"module:function"`` strings in cli.py."""
    return {m.group(1) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (m := _ENTRY.match(node.value))}


def public_definitions() -> list:
    """``(name, "file:line")`` for every public top-level def / class."""
    defs = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.append(
                    (node.name, f"{path.relative_to(ROOT)}:{node.lineno}"))
    return defs


def reached_names() -> set:
    """Every name some caller (not a test) reaches."""
    reached = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        reached |= referenced(tree, count_imports=path.name != "__init__.py")
        reached |= _registered(tree)
        if path == SRC / "cli.py":
            reached |= _cli_entries(tree)
    for tree_root in CALLER_TREES:
        for path in sorted(tree_root.rglob("*.py")):
            if not path.name.startswith("test_"):
                reached |= referenced(ast.parse(path.read_text()),
                                      count_imports=True)
    return reached


def test_every_public_name_has_a_caller():
    reached = reached_names()
    unreached = sorted(f"{where} {name}"
                       for name, where in public_definitions()
                       if name not in reached and name not in ALLOWED)
    assert not unreached, (
        "public names no src/ module, example, spine file, cli entry or "
        f"@register reaches — delete them or allowlist them: {unreached}")


def test_allowlist_is_not_stale():
    """An allowlisted name still exists and still has no caller."""
    defined = {name for name, _ in public_definitions()}
    reached = reached_names()
    stale = sorted(name for name in ALLOWED
                   if name not in defined or name in reached)
    assert not stale, f"drop these from ALLOWED: {stale}"


def test_gate_sees_register_and_cli_entries():
    registered = _registered(ast.parse(
        "@register('E0')\ndef run_e0(ctx): ...\n"
        "@other\ndef helper(): ...\n"))
    assert registered == {"run_e0"}
    entries = _cli_entries(ast.parse(
        'ROW = ("soak:format_soak_report", "not an entry", "a:b:c")\n'))
    assert entries == {"format_soak_report"}


def test_definitions_all_entries_and_reexports_are_not_reads():
    tree = ast.parse("from .m import f\n__all__ = ['f', 'g']\ndef g(): ...\n")
    assert referenced(tree, count_imports=False).isdisjoint({"f", "g"})
    assert "f" in referenced(tree, count_imports=True)


def test_string_annotations_are_reads():
    tree = ast.parse('def f(x: "Arc") -> "List[Segment]": ...\n')
    assert {"Arc", "List", "Segment"} <= referenced(tree, count_imports=False)


#: Options folded into the constant they always held, and the cost
#: keywords ``lookup_batch`` dropped (``route_pairs`` calls the cost path).
FOLDED = [
    ("core.network:DistanceHalvingNetwork", "item_hash"),
    ("faults.overlap:OverlappingDHNetwork", "item_hash"),
    ("balance.buckets:BucketBalancer", "lo_factor"),
    ("balance.buckets:BucketBalancer", "hi_factor"),
    ("sim.scenario:ScenarioEngine", "zipf_exponent"),
    ("core.shard:ShardedExecutor", "start_method"),
    ("expander.gabber_galil:GabberGalilNetwork", "include_delaunay"),
    ("baselines.kleinberg:KleinbergRing", "long_links"),
    *(("peer.costmap:CostMap.synthetic", keyword)
      for keyword in ("intra", "inter_low", "inter_high")),
    ("hashing.kwise:KWiseHash", "prime"),
    *(("core.batch:BatchRouter.lookup_batch", keyword)
      for keyword in ("policy", "choices", "rng", "temperature")),
]


@pytest.mark.parametrize("where,keyword", FOLDED,
                         ids=[f"{w.partition(':')[2]}.{k}" for w, k in FOLDED])
def test_folded_option_stays_folded(where, keyword):
    """Nothing set these keywords; none may come back, not even via ``**``."""
    module, _, path = where.partition(":")
    target = importlib.import_module(f"repro.{module}")
    for attr in path.split("."):
        target = getattr(target, attr)
    params = inspect.signature(target).parameters
    assert keyword not in params
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())
