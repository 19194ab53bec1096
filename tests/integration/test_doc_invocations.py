"""Every ``python -m repro.cli`` invocation the docs show still parses.

A deleted subcommand or flag leaves stale instructions behind unless
something reads them.  This test, in the stdlib style of
``tests/core/test_public_surface.py`` (``re`` plus argparse
introspection, no doc tooling), finds each ``python -m repro.cli <sub>
[--flag ...]`` in the user-facing docs and scripts — backslash-continued
shell lines joined — and requires ``build_parser`` to have the
subcommand and every ``--flag``.  ROADMAP.md is not scanned: it names
commands that do not exist yet.
"""

import argparse
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
    """The scan is not vacuous: the smoke script alone has nine calls."""
    calls = list(invocations((ROOT / "benchmarks" / "ci_smoke.sh").read_text()))
    assert len(calls) == 9
    assert all("--json-out" in words for _, words in calls)


def test_the_scan_catches_stale_invocations():
    text = ("PYTHONPATH=src python -m repro.cli bench-gone --run-dir x\n"
            "`python -m repro.cli bench-churn \\\n"
            "    --min-refresh-speedup 2`  # removed flag\n"
            "python -m repro.cli <cmd> --help | python -m repro.cli --help\n")
    found = [(line, problems(words, build_parser()))
             for line, words in invocations(text)]
    assert found == [
        (1, ["unknown subcommand bench-gone"]),
        (2, ["bench-churn has no flag --min-refresh-speedup"]),
        (4, []), (4, []),
    ]
