"""``tools/paired.py``'s verdict: step 5 of docs/BENCHMARKS.md "How to
claim a gain", on readings logged in docs/perf-log/."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "paired", ROOT / "tools" / "paired.py")
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

#: The one-lane-block change's log in docs/perf-log/: its ten seed-1
#: ``soak_day`` pairs, parent / change ``peak_rss_mb``, and the same
#: pairs' ``ops_per_s`` in k.
LOGGED_RSS = [(88.02, 84.63), (88.45, 83.61), (88.21, 82.56), (88.45, 83.76),
            (87.98, 83.77), (88.04, 83.66), (88.18, 82.73), (88.59, 83.68),
            (88.53, 82.57), (88.21, 82.55)]
LOGGED_RATE = [(467, 453), (465, 466), (476, 484), (540, 549), (502, 522),
             (489, 493), (531, 489), (529, 485), (610, 504), (630, 480)]


def sides(pairs):
    return [p for p, _ in pairs], [c for _, c in pairs]


def test_logged_rss_claim_holds():
    said, wins, gain = paired.verdict(*sides(LOGGED_RSS), "lower")
    assert (said, wins) == ("holds", 10)
    assert gain == pytest.approx(88.21 - 83.635)
    # the log's parent IQR, 0.43 (88.04..88.47)
    assert paired.iqr(sides(LOGGED_RSS)[0]) == pytest.approx(0.435)


def test_logged_rate_was_not_a_gain():
    said, _, gain = paired.verdict(*sides(LOGGED_RATE), "higher")
    assert said == "not met" and gain < 0


def test_parent_spread_wider_than_the_gain_reruns():
    """A 1 MB gain won in every pair, inside a parent spread of ~4 MB:
    the box was in a slow spell."""
    parent = [80.0, 84.0, 76.0, 82.0, 78.0, 81.0, 79.0, 83.0, 77.0, 80.5]
    change = [p - 1.0 for p in parent]
    said, wins, gain = paired.verdict(parent, change, "lower")
    assert (said, wins) == ("rerun", 10)
    assert gain == pytest.approx(1.0) and paired.iqr(parent) > 1.0


def test_eight_wins_of_ten_are_not_a_claim():
    parent = [10.0] * 10
    change = [9.0] * 8 + [11.0, 11.0]
    assert paired.verdict(parent, change, "lower")[:2] == ("not met", 8)
    assert paired.verdict(parent, [9.0] * 9 + [11.0],
                          "lower")[:2] == ("holds", 9)


def test_report_reads_every_gated_metric():
    metrics = paired.gated_metrics()
    assert [m[0] for m in metrics] == ["ops_per_s", "setup_s", "peak_rss_mb"]

    def run(rss):
        return {"failed": 0, "metrics": {
            "ops_per_s": {"value": 1.0e6}, "setup_s": {"value": 0.1},
            "peak_rss_mb": {"value": rss}}}

    runs = [("parent" if k % 2 == 0 else "change", run(p), run(c))
            for k, (p, c) in enumerate(LOGGED_RSS)]
    staged = pathlib.Path("/tmp/x/parent"), pathlib.Path("/tmp/x/change")
    lines = paired.report(pathlib.Path("a/parent"), pathlib.Path("b/change"),
                          "soak_day", 1, runs, metrics, staged)
    assert lines[0] == "## `soak_day`, seed 1"
    assert "Parent `parent`, change `change`" in lines[2]
    assert "`/tmp/x/parent` and `/tmp/x/change`" in lines[3]
    rows = [line for line in lines if line.startswith("| ")]
    assert len(rows) == 2 + 10 + 2 + 3
    assert rows[2].startswith("| 1 | parent | 1e+06 / 1e+06 | 0.1 / 0.1 "
                              "| 88.02 / 84.63 | 0 / 0 |")
    assert rows[3].startswith("| 2 | change |")
    assert rows[-1].endswith("| 10/10 | 0.435 | holds |")
    assert rows[-3].endswith("| 0/10 | 0 | not met |")


def test_stage_copies_both_trees_at_one_path_length(tmp_path):
    """The staging runs no spine: two trees of different path lengths
    come back as ``parent/`` and ``change/`` of one directory, whole,
    and the directory is gone on exit."""
    parent, change = tmp_path / "p", tmp_path / "a-longer-name"
    for tree, text in ((parent, "old"), (change, "new")):
        (tree / "src").mkdir(parents=True)
        (tree / "src" / "mod.py").write_text(text)
    with paired.stage(parent, change) as staged:
        assert [p.name for p in staged] == ["parent", "change"]
        assert staged[0].parent == staged[1].parent
        assert len(str(staged[0])) == len(str(staged[1]))
        assert (staged[0] / "src" / "mod.py").read_text() == "old"
        assert (staged[1] / "src" / "mod.py").read_text() == "new"
        root = staged[0].parent
    assert not root.exists()
    assert (parent / "src" / "mod.py").read_text() == "old"
