"""Tests for the experiment harness (registry, rendering, quick runs)."""

import ast
import json
import pathlib

import pytest

import repro.experiments
from repro.experiments.common import ExperimentResult, format_rows, get_experiment
from repro.experiments.runner import EXPERIMENT_IDS, run_experiments


class TestRegistry:
    def test_all_paper_ids_registered(self):
        expected = {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10",
                    "E11", "E12", "E13", "E14", "E15",
                    "F1", "F2", "F3", "F4", "A1", "A2", "A3", "A4"}
        assert expected <= set(EXPERIMENT_IDS)

    def test_runner_imports_every_registering_module(self):
        """A module whose ``@register`` nothing imports is a silent hole
        in ``run all`` (and in the quick-run test below)."""
        pkg = pathlib.Path(repro.experiments.__file__).parent
        registering = {
            path.stem for path in pkg.glob("*.py")
            if any(isinstance(dec, ast.Call)
                   and getattr(dec.func, "id", None) == "register"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   for dec in node.decorator_list)}
        runner = ast.parse((pkg / "runner.py").read_text())
        imported = {alias.name for node in ast.walk(runner)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is None for alias in node.names}
        assert registering and registering <= imported
        assert len(EXPERIMENT_IDS) == 28

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("E999")

    def test_lookup_case_insensitive(self):
        assert get_experiment("e2") is get_experiment("E2")

    def test_seed_does_not_depend_on_how_the_id_was_typed(self):
        lower, upper = (run_experiments([name], seed=5, quick=True, echo=False)
                        for name in ("e2", "E2"))
        assert lower[0].rows == upper[0].rows


class TestResultRendering:
    def test_format_rows_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_rows(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4  # header, sep, 2 rows

    def test_format_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_json_roundtrip(self):
        res = ExperimentResult("EX", "t", "claim", rows=[{"x": 1.5}],
                               checks={"ok": True})
        data = json.loads(res.to_json())
        assert data["experiment"] == "EX"
        assert data["passed"] is True

    def test_json_numpy_verdicts_are_booleans(self):
        import numpy as np

        res = ExperimentResult("EX", "t", "claim",
                               rows=[{"n": np.int64(3), "x": np.float64(0.5)}],
                               checks={"ok": np.bool_(True),
                                       "bad": np.bool_(False)})
        data = json.loads(res.to_json())
        assert data["checks"] == {"ok": True, "bad": False}
        assert data["checks"]["bad"] is False and data["passed"] is False
        assert data["rows"] == [{"n": 3, "x": 0.5}]

    def test_json_refuses_non_finite_values_by_key(self):
        res = ExperimentResult("EX", "t", "claim",
                               rows=[{"rate": float("inf")}, {"rate": 1.0}],
                               checks={"ok": True})
        with pytest.raises(ValueError, match=r"rows\[0\]\.rate = inf"):
            res.to_json()

    def test_passed_logic(self):
        good = ExperimentResult("E", "t", "c", checks={"a": True})
        bad = ExperimentResult("E", "t", "c", checks={"a": True, "b": False})
        empty = ExperimentResult("E", "t", "c")
        assert good.passed and not bad.passed and empty.passed

    def test_render_contains_verdicts(self):
        res = ExperimentResult("EX", "title", "claim",
                               checks={"thing": True, "other": False})
        text = res.render()
        assert "[PASS] thing" in text
        assert "[FAIL] other" in text


@pytest.fixture(scope="module")
def quick_run():
    """``quick_run(id)``: the experiment's quick result, run once per module."""
    results = {}

    def run(name):
        if name not in results:
            results[name] = get_experiment(name)(quick=True)
        return results[name]

    return run


def _refuse_constant(token):
    raise AssertionError(f"non-JSON constant {token} in an experiment result")


class TestQuickRuns:
    """Every registered experiment executed end-to-end in quick mode."""

    @pytest.mark.parametrize("name", EXPERIMENT_IDS)
    def test_every_experiment_passes_and_serialises(self, name, quick_run):
        res = quick_run(name)
        assert res.passed, res.render()
        assert res.seconds > 0.0  # register's timing shell ran
        doc = json.loads(res.to_json(), parse_constant=_refuse_constant)
        assert doc["experiment"] == name and doc["passed"] is True
        assert doc["rows"] and doc["checks"]
        for check, verdict in doc["checks"].items():
            assert verdict is True or verdict is False, (check, verdict)

    def test_table1_has_a_row_per_scheme(self, quick_run):
        # every scheme contributes a row with the three Table 1 columns
        path = {row["scheme"]: row["path@maxn"] for row in quick_run("E1").rows}
        assert len(path) == 8
        # CAN's n^{1/2} route is the longest pure-geometry one already here
        assert path["can(d=2)"] > path["chord"]

    @pytest.mark.parametrize("name, checks", [
        ("X3", {"batch/scalar parity (owner, t, hops) at every size",
                "vectorized speedup ≥ 2x at n=1024"}),
        ("X4", {"every batch's owners match the live segment map",
                "smoothness stays finite through mass departure",
                "incremental refresh ≤ 250us per membership op at n=1024",
                "post-soak throughput ≥ 0.2x baseline"}),
        ("E2", {"Thm 2.1: edges ≤ 3n−1 (all sizes, all id distributions)",
                "Thm 2.1 corollary: average degree ≤ 6 (+2 ring)",
                "Thm 2.2: max out-degree ≤ ρ+4",
                "Thm 2.2: max in-degree ≤ ⌈2ρ⌉+1",
                "§2.1: G_x at x_i = i/Δ^r ≅ the r-dim De Bruijn graph, "
                "(Δ, r) ∈ {(2,4), (2,6), (2,8), (3,4)}"}),
    ])
    def test_measured_rates_stay_out_of_check_names(self, name, checks,
                                                    quick_run):
        """The check set is a function of the code, not of the run."""
        assert set(quick_run(name).checks) == checks

    def test_tradeoff_has_the_frontier_rows(self, quick_run):
        # the Δ sweep plus the chord / small-world / viceroy frontier rows
        schemes = [row["scheme"] for row in quick_run("E6").rows]
        assert "chord" in schemes and "small-world" in schemes

    def test_runner_writes_json(self, tmp_path):
        results = run_experiments(["F1"], quick=True, out_dir=str(tmp_path),
                                  echo=False)
        assert json.loads((tmp_path / "F1.json").read_text())["passed"] is True
        assert results[0].passed


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "F4" in out

    def test_run_single(self, capsys):
        from repro.cli import main

        assert main(["run", "F2", "--quick"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", "-5000"])
    def test_run_refuses_a_negative_seed(self, seed, capsys):
        """-5000 died in a NumPy traceback once the runner added its
        per-experiment offset; -1 only ran because the offset covered it."""
        from repro.cli import main

        assert main(["run", "E2", "--quick", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "run: --seed must be >= 0\n"

    def test_bench_baselines_writes_artifact(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "BENCH_baselines.json"
        rc = main(["bench-baselines", "--n", "64", "--lookups", "400",
                   "--scalar-sample", "60", "--schemes", "chord,koorde",
                   "--min-speedup", "0.01", "--json-out", str(out)])
        assert rc == 0
        assert "parity: PASS" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert set(payload["result"]["schemes"]) == {"chord", "koorde"}
        assert payload["result"]["all_parity_ok"] is True

    def test_bench_baselines_rejects_unknown_scheme(self, capsys):
        from repro.cli import main

        assert main(["bench-baselines", "--schemes", "nope"]) == 2

    def test_bench_compare_gate(self, capsys, tmp_path):
        from repro.cli import main

        ref = tmp_path / "refs"
        run = tmp_path / "run"
        ref.mkdir(), run.mkdir()
        payload = {"command": "bench-baselines", "ok": True,
                   "result": {"speedup": 10.0, "batch_rate": 1000.0,
                              "parity_ok": True}}
        (ref / "BENCH_x.json").write_text(json.dumps(payload))
        good = dict(payload, result=dict(payload["result"], speedup=8.0))
        (run / "BENCH_x.json").write_text(json.dumps(good))
        assert main(["bench-compare", "--run-dir", str(run),
                     "--ref-dir", str(ref)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

        # >30% throughput regression fails the gate
        bad = dict(payload, result=dict(payload["result"], speedup=6.0))
        (run / "BENCH_x.json").write_text(json.dumps(bad))
        assert main(["bench-compare", "--run-dir", str(run),
                     "--ref-dir", str(ref)]) == 1
        assert "regression" in capsys.readouterr().out

        # a parity flag flipping off fails even with throughput intact
        flip = dict(payload, result=dict(payload["result"], parity_ok=False))
        (run / "BENCH_x.json").write_text(json.dumps(flip))
        assert main(["bench-compare", "--run-dir", str(run),
                     "--ref-dir", str(ref)]) == 1
        assert "flag flipped" in capsys.readouterr().out

    def test_bench_compare_update_refs(self, capsys, tmp_path):
        from repro.cli import main

        ref = tmp_path / "refs"
        run = tmp_path / "run"
        run.mkdir()
        (run / "BENCH_x.json").write_text(json.dumps({"ok": True}))
        assert main(["bench-compare", "--run-dir", str(run),
                     "--ref-dir", str(ref), "--update-refs"]) == 0
        assert json.loads((ref / "BENCH_x.json").read_text()) == {"ok": True}

    def test_bench_compare_missing_run_artifact(self, capsys, tmp_path):
        from repro.cli import main

        ref = tmp_path / "refs"
        ref.mkdir()
        (ref / "BENCH_x.json").write_text(json.dumps({"ok": True}))
        assert main(["bench-compare", "--run-dir", str(tmp_path / "none"),
                     "--ref-dir", str(ref)]) == 1
        assert "MISSING" in capsys.readouterr().out


# ------------------------------------------------- the bench table contract
#: sizes small enough for tier-1; a new row must add its own (see the test)
TINY = {
    "bench-throughput": ["--n", "128", "--lookups", "2000",
                         "--scalar-sample", "50"],
    "bench-churn": ["--n", "128", "--lookups", "2000", "--churn-ops", "16",
                    "--mass-n", "64"],
    "bench-congestion": ["--n", "128", "--lookups", "2000",
                         "--scalar-sample", "50"],
    "bench-faults": ["--n", "128", "--pairs", "2000", "--scalar-sample", "50"],
    "bench-caching": ["--n", "128", "--requests", "3000",
                      "--scalar-sample", "100", "--parity-n", "64",
                      "--hotspot-requests", "3000"],
    "bench-baselines": ["--n", "64", "--lookups", "400",
                        "--scalar-sample", "60", "--schemes", "chord,koorde"],
    "soak": ["--n", "128", "--lookups", "2000", "--chunk", "1024",
             "--items", "6"],
    "bench-shard": ["--n", "128", "--lookups", "2000", "--workers", "2",
                    "--chunk", "1024"],
    "bench-cost": ["--n", "128", "--pairs", "2000", "--scalar-sample", "50",
                   "--core-n", "64", "--core-pairs", "500"],
}

#: ``{subcommand: {flag: default}}`` read off the parser by argparse
#: introspection at the commit before the table (PR 17), minus the four
#: "recorded only" ``--workers`` of churn / faults / caching / baselines
FLAG_SURFACE = {
    "bench-throughput": {
        "--n": 4096, "--lookups": 100000, "--scalar-sample": 1000,
        "--algorithm": "fast", "--delta": 2, "--seed": 0, "--workers": 1,
        "--min-speedup": 10.0, "--json-out": None},
    "bench-churn": {
        "--n": 16384, "--lookups": 100000, "--churn-ops": 256, "--phases": 2,
        "--leave-prob": 0.3, "--mass-n": None, "--churn-budget": None,
        "--seed": 0, "--max-refresh-us": 250.0, "--json-out": None},
    "bench-congestion": {
        "--n": 16384, "--lookups": 100000, "--scalar-sample": 1000,
        "--algorithm": "fast", "--delta": 2, "--seed": 0, "--workers": 1,
        "--min-speedup": 10.0, "--json-out": None},
    "bench-faults": {
        "--n": 16384, "--pairs": 100000, "--p-fail": 0.2,
        "--scalar-sample": 200, "--seed": 0, "--min-speedup": 10.0,
        "--json-out": None},
    "bench-caching": {
        "--n": 16384, "--requests": 1000000, "--items": 64, "--salts": 4,
        "--scalar-sample": 1500, "--parity-n": 512,
        "--hotspot-requests": None, "--seed": 1, "--min-speedup": 10.0,
        "--json-out": None},
    "bench-baselines": {
        "--n": 16384, "--lookups": 100000, "--scalar-sample": 400,
        "--schemes": None, "--chunk": 8192, "--seed": 0, "--min-speedup": 5.0,
        "--json-out": None},
    "soak": {
        "--n": 16384, "--lookups": 1000000, "--phases": None, "--chunk": None,
        "--seed": 0, "--workers": 1, "--items": 24, "--no-invariants": False,
        "--min-ft-success": 0.9, "--json-out": None},
    "bench-shard": {
        "--n": 262144, "--lookups": 1000000, "--workers": 4,
        "--chunk": 131072, "--seed": 0, "--min-speedup": 2.0,
        "--json-out": None},
    "bench-cost": {
        "--n": 16384, "--pairs": 100000, "--isps": 8, "--temperature": 1.0,
        "--scalar-sample": 200, "--core-n": 4096, "--core-pairs": 50000,
        "--seed": 0, "--workers": 1, "--min-xisp-reduction": 0.3,
        "--max-stretch": 1.5, "--min-speedup": 10.0, "--json-out": None},
}


def _bound_violations():
    """One ``(subcommand, flag, offending text)`` per declared bound."""
    from repro.cli import BENCHES

    for bench in BENCHES.values():
        for flag in bench.flags:
            if flag.bound is None:
                continue
            for text in ("-1", "0", "1", "1000000", "bogus"):
                try:
                    value = flag.type(text)
                except ValueError:
                    continue
                if flag.bound(value):
                    yield bench.name, flag.flag, text
                    break
            else:  # pragma: no cover
                raise AssertionError(f"{bench.name} {flag.flag}: no probe "
                                     "value violates the declared bound")


def _subparsers():
    import argparse

    from repro.cli import build_parser

    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestBenchTable:
    """The CLI contract of every ``bench-*`` / ``soak`` row, off the table."""

    def test_every_row_has_a_tiny_case(self):
        from repro.cli import BENCHES

        assert set(TINY) == set(BENCHES)

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_tiny_run_passes_and_writes_a_valid_artifact(self, name, tmp_path,
                                                         capsys):
        from artifact_schema import validate_artifact

        from repro.cli import BENCHES, main

        relaxed = [f.flag + ("=1e9" if f.flag.startswith("--max") else "=-1e9")
                   for f in BENCHES[name].flags if f.gate]
        path = tmp_path / "BENCH.json"
        assert main([name, *TINY[name], *relaxed, "--json-out", str(path)]) == 0
        assert "[PASS]" in capsys.readouterr().out
        payload = validate_artifact(path)
        assert payload["command"] == name and payload["ok"] is True
        assert payload["workers"] == (2 if name == "bench-shard" else 1)

    @pytest.mark.parametrize("name,flag,text", list(_bound_violations()),
                             ids=lambda v: str(v).lstrip("-"))
    def test_violated_bound_exits_2_with_one_line(self, name, flag, text,
                                                  tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH.json"
        assert main([name, flag, text, "--json-out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{name}: {flag} must ")
        assert captured.err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("name,flag,text", [
        ("bench-cost", "--scalar-sample", "0"),       # wrote scalar_rate Infinity
        ("bench-caching", "--hotspot-requests", "0"),  # salted_reduction Infinity
        ("bench-caching", "--items", "0"),             # NumPy traceback
        ("bench-caching", "--parity-n", "4096"),       # measure's ValueError
        ("bench-churn", "--churn-budget", "-1"),       # 0 incremental refreshes
        ("bench-churn", "--mass-n", "-1"),             # passed, no mass departure
        ("soak", "--phases", "churn:0.5"),             # passed after 0 churn ops
        ("soak", "--phases", "mass:2"),                # LookupError traceback
        ("soak", "--phases", "lookups,failstop:1.5"),  # raised after phase 1
    ])
    def test_bad_inputs_the_hand_copies_let_through(self, name, flag, text,
                                                    tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH.json"
        assert main([name, *TINY[name], flag, text,
                     "--json-out", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"{name}: {flag} must be")
        assert not path.exists()

    def test_flag_surface_is_pinned(self):
        surface = {
            name: {a.option_strings[0]: a.default for a in sp._actions
                   if a.option_strings and a.option_strings[0] != "-h"}
            for name, sp in _subparsers().items() if name in FLAG_SURFACE}
        assert surface == FLAG_SURFACE
        assert sum(map(len, surface.values())) == 83

    def test_top_level_help_names_every_row(self, capsys):
        from repro.cli import BENCHES, main

        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        # undo argparse's wrapping, which also breaks lines after a hyphen
        text = " ".join(capsys.readouterr().out.split()).replace("- ", "-")
        subparsers = _subparsers()
        for bench in BENCHES.values():
            assert bench.name in text
            assert bench.help in text
            assert subparsers[bench.name].description == bench.help

    def test_non_finite_result_fails_without_writing(self, tmp_path, capsys,
                                                     monkeypatch):
        from repro.cli import main
        from repro.experiments import throughput

        monkeypatch.setattr(throughput, "measure_throughput", lambda **kw: {
            "parity_ok": True, "speedup": float("inf"), "rows": [float("nan")]})
        monkeypatch.setattr(throughput, "format_throughput_report", str)
        path = tmp_path / "BENCH.json"
        assert main(["bench-throughput", "--json-out", str(path)]) == 1
        assert capsys.readouterr().err == (
            "bench-throughput: non-finite value in result "
            "(result.speedup = inf, result.rows[0] = nan)\n")
        assert not path.exists()

    def test_bench_compare_reports_an_unreadable_artifact(self, tmp_path,
                                                          capsys):
        from repro.cli import main

        ref, run = tmp_path / "refs", tmp_path / "run"
        ref.mkdir(), run.mkdir()
        good = json.dumps({"ok": True, "result": {"parity_ok": True}})
        (ref / "BENCH_a.json").write_text(good)
        (run / "BENCH_a.json").write_text(good[: len(good) // 2])  # truncated
        (ref / "BENCH_b.json").write_text("[]")                    # no envelope
        (run / "BENCH_b.json").write_text(good)
        (ref / "BENCH_c.json").write_text(good)
        (run / "BENCH_c.json").write_text(good)
        assert main(["bench-compare", "--run-dir", str(run),
                     "--ref-dir", str(ref)]) == 1
        out = capsys.readouterr().out
        assert f"BENCH_a.json: UNREADABLE ({run / 'BENCH_a.json'}: " in out
        assert f"BENCH_b.json: UNREADABLE ({ref / 'BENCH_b.json'}: " in out
        assert "BENCH_c.json: ok" in out
        assert "3 artifact(s), 2 gated values, 2 regression(s)" in out
