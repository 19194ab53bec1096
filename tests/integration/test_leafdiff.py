"""``tools/leafdiff.py`` on synthetic artifact directories: each kind of
moved leaf prints one line, and equal trees print nothing."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "leafdiff", ROOT / "tools" / "leafdiff.py")
leafdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(leafdiff)

BASE = {"experiment": "E0", "rows": [{"n": 64, "load": 1.25},
                                     {"n": 128, "load": 1.5}],
        "checks": {"ok": True, "flags": []}}


def tree(tmp_path, name, **files):
    """A directory of JSON artifacts, ``file=document``."""
    d = tmp_path / name
    d.mkdir()
    for stem, doc in files.items():
        (d / f"{stem}.json").write_text(json.dumps(doc))
    return d


def run(capsys, old, new):
    code = leafdiff.main([str(old), str(new)])
    out = capsys.readouterr().out
    return code, [line.split("\t") for line in out.splitlines()]


def edited(edit):
    doc = json.loads(json.dumps(BASE))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, want", [
    (lambda d: d["rows"][1].update(load=1.5000000000000002),
     ["E0.json", "rows.1.load", "1.5", "1.5000000000000002"]),
    (lambda d: d["checks"].update(extra=0),
     ["E0.json", "checks.extra", "(absent)", "0"]),
    (lambda d: d["checks"].pop("ok"),
     ["E0.json", "checks.ok", "true", "(absent)"]),
    (lambda d: d["rows"][0].update(n=65),
     ["E0.json", "rows.0.n", "64", "65"]),
    (lambda d: d["checks"]["flags"].append("late"),
     ["E0.json", "checks.flags", "[]", "(absent)"]),
], ids=["moved-float", "added-key", "removed-key", "list-element",
        "filled-list"])
def test_one_moved_leaf_prints_one_line(tmp_path, capsys, edit, want):
    old = tree(tmp_path, "old", E0=BASE)
    new = tree(tmp_path, "new", E0=edited(edit))
    code, lines = run(capsys, old, new)
    assert code == 1 and lines[0] == want
    assert len(lines) == (2 if want[1] == "checks.flags" else 1)


def test_identical_trees_print_nothing(tmp_path, capsys):
    old = tree(tmp_path, "old", E0=BASE, X1={"a": [1, 2.5]})
    new = tree(tmp_path, "new", E0=BASE, X1={"a": [1, 2.5]})
    assert run(capsys, old, new) == (0, [])


def test_bool_and_int_differ_and_a_lone_file_is_all_absent(tmp_path, capsys):
    old = tree(tmp_path, "old", E0={"v": 1})
    new = tree(tmp_path, "new", E0={"v": True}, E9={"w": [0]})
    code, lines = run(capsys, old, new)
    assert code == 1 and lines == [["E0.json", "v", "1", "true"],
                                   ["E9.json", "w.0", "(absent)", "0"]]


def test_bad_invocation_exits_2(tmp_path, capsys):
    assert leafdiff.main([str(tmp_path)]) == 2
    assert leafdiff.main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().out == ""
