"""The docs stay true: every command, code reference and budget they state.

A deleted subcommand, flag, file or function leaves stale instructions
behind unless something reads them.  In the stdlib style of
``tests/core/test_public_surface.py`` (``re``, ``ast``, ``importlib``
and argparse introspection, no doc tooling) this module checks three
things:

* every ``python -m repro.cli <sub> [--flag ...]`` in the user-facing
  docs and scripts (backslash-continued shell lines joined) names a
  subcommand and flags ``build_parser`` has;
* every code reference the maintained pages make resolves (the
  resolver section below lists the forms);
* docs/BENCHMARKS.md and docs/ARCHITECTURE.md stay within their line
  budgets.

ROADMAP.md is not scanned: it names commands and code that do not
exist yet.  Neither is ``docs/perf-log/``, the frozen per-PR archive.
"""

import argparse
import ast
import importlib
import pathlib
import re

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
           ROOT / "benchmarks" / "ci_smoke.sh",
           ROOT / ".github" / "workflows" / "ci.yml",
           ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]

#: an invocation runs to the end of its (joined) line or to the first
#: character that closes it in markdown or shell
_CALL = re.compile(r"python3? -m repro\.cli\b([^`|#;)\n]*)")


def invocations(text: str):
    """``(line, words)`` for every ``python -m repro.cli`` call in ``text``."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        start, line = i + 1, lines[i]
        while line.endswith("\\") and i + 1 < len(lines):
            i += 1
            line = line[:-1] + " " + lines[i]
        for match in _CALL.finditer(line):
            yield start, match.group(1).split()
        i += 1


def _options(parser: argparse.ArgumentParser) -> set:
    return {s for action in parser._actions for s in action.option_strings}


def problems(words, parser: argparse.ArgumentParser) -> list:
    """What ``build_parser`` lacks of one invocation's subcommand and flags."""
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    if not words or words[0].startswith("<"):  # bare, or a <subcommand>
        return []
    if words[0].startswith("-"):
        known, rest = _options(parser), words
    elif words[0] in subparsers:
        known, rest = _options(subparsers[words[0]]), words[1:]
    else:
        return [f"unknown subcommand {words[0]}"]
    flags = {w.split("=", 1)[0] for w in rest if w.startswith("--")}
    return [f"{words[0]} has no flag {f}" for f in sorted(flags - known)]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.name)
def test_every_documented_invocation_parses(path):
    parser = build_parser()
    stale = [f"{path.relative_to(ROOT)}:{line}: {problem}"
             for line, words in invocations(path.read_text())
             for problem in problems(words, parser)]
    assert not stale, stale


def test_the_scan_is_not_vacuous():
    """The scan is not vacuous: the smoke script alone has two calls."""
    calls = list(invocations((ROOT / "benchmarks" / "ci_smoke.sh").read_text()))
    assert [words[0] for _, words in calls] == ["run", "soak"]
    assert "--out" in calls[0][1] and "--json-out" in calls[1][1]


def test_the_scan_catches_stale_invocations():
    text = ("PYTHONPATH=src python -m repro.cli bench-churn --n 1024\n"
            "`python -m repro.cli soak \\\n"
            "    --min-refresh-speedup 2`  # removed flag\n"
            "python -m repro.cli <cmd> --help | python -m repro.cli --help\n")
    found = [(line, problems(words, build_parser()))
             for line, words in invocations(text)]
    assert found == [
        (1, ["unknown subcommand bench-churn"]),
        (2, ["soak has no flag --min-refresh-speedup"]),
        (4, []), (4, []),
    ]


# ---------------------------------------------------------------------------
# Every code reference the maintained pages make resolves.
#
# The texts read are README.md, the top-level docs/*.md, the verify
# skill, the comments of benchmarks/ci_smoke.sh and the docstrings under
# src/.  Five reference forms are checked:
#
# * a backticked ``path.py`` (or ``.md``, ``.sh``, ``.json``) names a
#   file of the checkout: from the repo root, from ``src/`` or from
#   ``src/repro/`` (the pages' convention); a bare ``name.py`` names
#   some file of that name;
# * ``path.py:NN`` names a line the file has;
# * ``path.py::symbol`` names a def, class or assignment there, dotted
#   through class bodies (``CoverIndex.follow``);
# * a backticked ``repro.x.y`` imports, then ``getattr``s, to an object;
# * ``docs/NAME.md "Heading"`` names a heading NAME.md has (backticks
#   dropped, whitespace collapsed, compared whole).
# ---------------------------------------------------------------------------

PAGES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
         ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
SMOKE = ROOT / "benchmarks" / "ci_smoke.sh"
SRC = ROOT / "src"

#: the two maintained pages' line budgets.  A change that measures a
#: gain writes its paired-run table to docs/perf-log/PRnn.md, not here.
LINE_BUDGET = {"BENCHMARKS.md": 250, "ARCHITECTURE.md": 500}

_PATH = re.compile(r"`([\w./-]+\.(?:py|md|sh|json))(?::(\d+)|::([\w.]+))?`")
_MODULE = re.compile(r"`~?(repro(?:\.\w+)+)`")
_GAP = r"[ \t]*\n?[ \t]*"  # a reference may wrap onto the next line
_HEADING_REF = re.compile(rf'docs/(\w+\.md)`?(?:\]\([^)\s]*\))?'
                          rf'((?:{_GAP}(?:,|and)?{_GAP}"[^"]+")+)')


def doc_texts():
    """``(name, first_line, text)`` for every text the resolver reads."""
    for page in PAGES:
        yield page.relative_to(ROOT).as_posix(), 1, page.read_text()
    block = []  # (line, text) of consecutive comment lines, "#" dropped
    for line, text in enumerate(SMOKE.read_text().splitlines() + [""], 1):
        if text.lstrip().startswith("#"):
            block.append((line, text.lstrip()[1:]))
        elif block:
            yield (SMOKE.relative_to(ROOT).as_posix(), block[0][0],
                   "\n".join(t for _, t in block))
            block = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc is not None:
                    yield (path.relative_to(ROOT).as_posix(),
                           node.body[0].lineno, doc)


def _resolve_path(name: str):
    if "/" not in name:
        return next((p for p in sorted(ROOT.rglob(name))
                     if not any(part.startswith(".") for part in
                                p.relative_to(ROOT).parts)), None)
    for base in (ROOT, SRC, SRC / "repro"):
        if (base / name).is_file():
            return base / name
    return None


def _defines(body, dotted: str) -> bool:
    head, _, rest = dotted.partition(".")
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == head:
            return not rest or (isinstance(node, ast.ClassDef)
                                and _defines(node.body, rest))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if not rest and any(isinstance(t, ast.Name) and t.id == head
                            for t in targets):
            return True
    return False


def _resolve_module(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def headings(page: pathlib.Path) -> set:
    """The headings of one markdown page, fenced code blocks skipped."""
    found, fenced = set(), False
    for line in page.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            found.add(" ".join(line.lstrip("#").replace("`", "").split()))
    return found


def references(text: str):
    """``(offset, kind, reference)`` for every checked reference in ``text``."""
    for m in _PATH.finditer(text):
        kind = "line" if m.group(2) else "symbol" if m.group(3) else "path"
        yield m.start(), kind, m.group(0).strip("`")
    for m in _MODULE.finditer(text):
        yield m.start(), "module", m.group(1)
    for m in _HEADING_REF.finditer(text):
        for cited in re.findall(r'"([^"]+)"', m.group(2)):
            yield m.start(), "heading", f"{m.group(1)}#{' '.join(cited.split())}"


def problem(kind: str, ref: str):
    """Why ``ref`` does not resolve, or ``None`` when it does."""
    if kind == "module":
        return None if _resolve_module(ref) else f"{ref} does not import"
    if kind == "heading":
        page, _, cited = ref.partition("#")
        if not (ROOT / "docs" / page).is_file():
            return f"docs/{page} does not exist"
        return (None if cited in headings(ROOT / "docs" / page)
                else f'docs/{page} has no heading "{cited}"')
    name = re.split(r":", ref, maxsplit=1)[0]
    path = _resolve_path(name)
    if path is None:
        return f"{name} is no file of the checkout"
    if kind == "line":
        line = int(ref.rsplit(":", 1)[1])
        count = len(path.read_text().splitlines())
        return None if 1 <= line <= count else f"{ref}: {name} has {count} lines"
    if kind == "symbol":
        symbol = ref.split("::", 1)[1]
        tree = ast.parse(path.read_text())
        return None if _defines(tree.body, symbol) else f"{name} defines no {symbol}"
    return None


def _stale():
    stale, seen = [], {}
    for name, first, text in doc_texts():
        for offset, kind, ref in references(text):
            if (kind, ref) not in seen:
                seen[kind, ref] = problem(kind, ref)
            if seen[kind, ref]:
                line = first + text.count("\n", 0, offset)
                stale.append(f"{name}:{line}: {seen[kind, ref]}")
    return stale, seen


def test_every_reference_resolves():
    stale, _ = _stale()
    assert not stale, "\n".join(stale)


def test_the_resolver_is_not_vacuous():
    """The pages use four of the forms (they cite no line numbers), and
    the scan reads them all."""
    _, seen = _stale()
    assert {kind for kind, _ in seen} >= {"path", "symbol", "module", "heading"}
    assert len(seen) >= 100


def test_the_resolver_catches_stale_references():
    text = ('`core/batch.py` `core/gone.py` `core/batch.py:1`\n'
            '`core/batch.py:999999` `core/segments.py::CoverIndex.follow`\n'
            '`core/segments.py::CoverIndex.gone` `repro.core.batch.BatchRouter`\n'
            '`repro.core.batch.Gone` ``repro.sim.protocol``\n'
            'docs/BENCHMARKS.md "Which experiment do I run?" and "PR 20"\n')
    found = [(kind, problem(kind, ref)) for _, kind, ref in references(text)]
    assert found == [
        ("path", None),
        ("path", "core/gone.py is no file of the checkout"),
        ("line", None),
        ("line", f"core/batch.py:999999: core/batch.py has "
                 f"{len((SRC / 'repro/core/batch.py').read_text().splitlines())} lines"),
        ("symbol", None),
        ("symbol", "core/segments.py defines no CoverIndex.gone"),
        ("module", None),
        ("module", "repro.core.batch.Gone does not import"),
        ("module", None),
        ("heading", None),
        ("heading", 'docs/BENCHMARKS.md has no heading "PR 20"'),
    ]


@pytest.mark.parametrize("page", sorted(LINE_BUDGET))
def test_maintained_pages_keep_their_line_budget(page):
    lines = len((ROOT / "docs" / page).read_text().splitlines())
    assert lines <= LINE_BUDGET[page], (
        f"docs/{page} has {lines} lines, budget {LINE_BUDGET[page]}: "
        "put a measurement log in docs/perf-log/PRnn.md")
