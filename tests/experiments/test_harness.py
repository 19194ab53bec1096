"""Tests for the experiment harness (registry, rendering, quick runs)."""

import ast
import json
import pathlib
import re

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

    def test_run_out_writes_no_volatile_leaf(self, tmp_path, capsys):
        """``run --out`` writes the seed-deterministic result: the rates
        and ``seconds`` stay in the printed table, out of the file."""
        from repro.artifacts import VOLATILE_KEYS
        from repro.cli import main

        assert main(["run", "X3", "--quick", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "batch_rate" in printed and re.search(r"\(\d+\.\ds\)", printed)
        keys = set()  # every key at any depth
        doc = json.loads((tmp_path / "X3.json").read_text(),
                         object_hook=lambda obj: keys.update(obj) or obj)
        assert doc["passed"] is True and {"rows", "checks"} <= keys
        assert not keys & VOLATILE_KEYS

    @pytest.mark.parametrize("target, problem", [
        ("file", "is not a directory"),
        ("file/sub", "is under {root}/file, which is not a directory")],
        ids=["file", "under-a-file"])
    def test_unwritable_out_exits_2_before_measuring(self, target, problem,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        """A file as ``--out`` raised ``FileExistsError`` once the first
        experiment had run; now the path is refused up front."""
        from repro.cli import main
        from repro.experiments import runner

        (tmp_path / "file").write_text("")
        monkeypatch.setattr(runner, "run_experiments", None)  # never runs
        out = tmp_path / target
        assert main(["run", "E2", "--quick", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"run: --out {out} {problem.format(root=tmp_path)}\n")

    def test_run_out_creates_a_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "a" / "b"
        assert main(["run", "F2", "--quick", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["F2.json"]

    def test_run_refuses_all_beside_explicit_ids(self, capsys):
        from repro.cli import main

        assert main(["run", "all", "E2", "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "run: 'all' cannot be combined with explicit experiment ids\n")

    def test_run_names_an_unknown_id_before_running_any(self, capsys):
        from repro.cli import main

        assert main(["run", "E2", "E999", "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # E2 did not run either
        first, available = captured.err.splitlines()
        assert first == "unknown experiment id(s): E999"
        assert available == "available: " + ", ".join(EXPERIMENT_IDS)


# ------------------------------------------- the experiments CI byte-diffs
BASELINES = (pathlib.Path(__file__).resolve().parents[2]
             / "benchmarks" / "baselines")

#: the experiments ``benchmarks/ci_smoke.sh`` quick-runs, one file each
SMOKE_IDS = sorted(p.stem for p in BASELINES.glob("[EX]*.json"))

#: ``(gate, experiment, check)``: each gate a retired ``bench-*``
#: subcommand enforced, as the experiment check that carries it now
RETIRED_GATES = [
    ("throughput-parity", "X3",
     "batch/scalar parity (owner, t, hops) at every size"),
    ("churn-owners", "X4", "every batch's owners match the live segment map"),
    ("churn-refresh", "X4",
     "incremental refresh ≤ 250us per membership op at n=1024"),
    ("congestion-parity", "E4",
     "batch CSR accounting bit-identical to scalar counters (n=1024)"),
    ("faults-parity", "E13",
     "batch bit-identical to scalar replay (n=1024, all p)"),
    ("caching-parity", "E7",
     "batch/scalar bit parity at n=128 (plain + salted)"),
    ("caching-relief", "E7", "salting (s=4) relieves the hottest server"),
    ("caching-parity-epochs", "E8",
     "batch/scalar bit parity at n=512 (plain + salted, 2 epochs)"),
    ("baselines-parity", "E1",
     "batch spine replays scalar paths (7 schemes, n=1024)"),
    ("cost-xisp-cut", "X6",
     "greedy cuts mean cross-ISP traffic ≥ 30% vs uniform"),
    ("cost-stretch", "X6",
     "greedy hop stretch ≤ 1.5x (Obs 2.3: digit choice is free)"),
    ("cost-weighted-between", "X6", "weighted sits between greedy and uniform"),
    ("cost-parity", "X6", "batch bit-identical to scalar cost-aware replay"),
    ("cost-core-replay", "X6",
     "core engine: recorded tau_used replays bit-identically"),
    ("cost-core-xisp-cut", "X6",
     "core engine greedy also reduces cross-ISP traffic"),
]


class TestSmokeExperiments:
    """The CI smoke's experiments, held to their baselines in tier-1."""

    def test_the_smoke_runs_eight_experiments(self):
        assert SMOKE_IDS == ["E1", "E13", "E4", "E7", "E8", "X3", "X4", "X6"]
        assert {name for _, name, _ in RETIRED_GATES} == set(SMOKE_IDS)

    @pytest.mark.parametrize("name", SMOKE_IDS)
    def test_quick_run_equals_the_committed_baseline(self, name, quick_run):
        """What ``run --out`` writes, byte for byte: a changed path
        length, load or fault count fails here before CI's diff."""
        committed = (BASELINES / f"{name}.json").read_text()
        assert quick_run(name).to_json() + "\n" == committed

    @pytest.mark.parametrize("name, check",
                             [gate[1:] for gate in RETIRED_GATES],
                             ids=[gate[0] for gate in RETIRED_GATES])
    def test_each_retired_bench_gate_is_a_passing_check(self, name, check,
                                                        quick_run):
        checks = quick_run(name).checks
        assert checks.get(check), sorted(checks)


# ------------------------------------------------------ the volatile leaves
#: where each ``VOLATILE_KEYS`` leaf is emitted: an experiment id (its
#: quick result's rows) or ``soak`` (its result dict)
VOLATILE_EMITTERS = {
    "batch_rate": "X3", "scalar_rate": "X3", "speedup": "X3",
    "klookups_per_sec": "X4", "refresh_us_per_op": "X4",
    "wall_seconds": "soak", "krequests_per_sec": "soak",
    "peak_rss_mb": "soak"}


def _keys(tree) -> set:
    """Every dict key of ``tree``, at any depth."""
    from repro.artifacts import to_jsonable

    keys = set()
    json.loads(json.dumps(to_jsonable(tree)),
               object_hook=lambda obj: keys.update(obj) or obj)
    return keys


@pytest.fixture(scope="module")
def tiny_soak():
    from repro.experiments.soak import measure_soak

    return measure_soak(n=128, lookups=2000, chunk=1024, seed=9, items=6)


class TestVolatileKeys:
    def test_every_volatile_key_has_an_emitter(self):
        from repro.artifacts import VOLATILE_KEYS

        assert set(VOLATILE_EMITTERS) == VOLATILE_KEYS

    @pytest.mark.parametrize("key", sorted(VOLATILE_EMITTERS))
    def test_volatile_key_is_emitted_and_never_written(self, key, quick_run,
                                                       tiny_soak):
        """A name nothing emits is dead weight in ``VOLATILE_KEYS``; a
        name something emits must not reach the written file."""
        from repro.artifacts import deterministic_dumps

        emitter = VOLATILE_EMITTERS[key]
        if emitter == "soak":
            raw, written = tiny_soak, deterministic_dumps(tiny_soak)
        else:
            res = quick_run(emitter)
            raw, written = res.rows, res.to_json()
        assert key in _keys(raw)
        assert key not in _keys(json.loads(written))


# ------------------------------------------------------- the soak contract
#: sizes small enough for tier-1
TINY = ["--n", "128", "--lookups", "2000", "--chunk", "1024", "--items", "6"]

#: ``{flag: default}`` of ``soak``, read off the parser by argparse
#: introspection: the one measurement subcommand's whole surface
FLAG_SURFACE = {
    "--n": 16384, "--lookups": 1000000, "--phases": None, "--chunk": None,
    "--seed": 0, "--items": 24, "--no-invariants": False,
    "--min-ft-success": 0.9, "--json-out": None}

#: one ``(flag, offending text)`` per bounded soak option
BOUND_VIOLATIONS = [("--n", "-1"), ("--lookups", "-1"), ("--phases", "-1"),
                    ("--chunk", "-1"), ("--seed", "-1"), ("--items", "-1"),
                    ("--min-ft-success", "nan")]


def _subparsers():
    import argparse

    from repro.cli import build_parser

    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestSoakContract:
    """The CLI contract of ``soak``: bounds, artifact, exit codes, help."""

    def test_tiny_run_passes_and_writes_a_valid_artifact(self, tmp_path,
                                                         capsys):
        from artifact_schema import validate_artifact

        from repro.cli import main

        relaxed = ["--min-ft-success=-1e9"]
        path, again = tmp_path / "BENCH.json", tmp_path / "again.json"
        assert main(["soak", *TINY, *relaxed, "--json-out", str(path)]) == 0
        assert "[PASS]" in capsys.readouterr().out
        payload = validate_artifact(path)
        assert payload["command"] == "soak" and payload["ok"] is True
        # the artifact is the seed-deterministic part: a second run is
        # byte-equal, which is what CI's diff against baselines/ relies on
        assert main(["soak", *TINY, *relaxed, "--json-out", str(again)]) == 0
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("flag,text", BOUND_VIOLATIONS,
                             ids=lambda v: str(v).lstrip("-"))
    def test_violated_bound_exits_2_with_one_line(self, flag, text,
                                                  tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH.json"
        assert main(["soak", flag, text, "--json-out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"soak: {flag} must ")
        assert captured.err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("flag,text", [
        ("--phases", "churn:0.5"),             # passed after 0 churn ops
        ("--phases", "mass:2"),                # LookupError traceback
        ("--phases", "lookups,failstop:1.5"),  # raised after phase 1
    ])
    def test_bad_inputs_the_hand_copies_let_through(self, flag, text,
                                                    tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH.json"
        assert main(["soak", *TINY, flag, text,
                     "--json-out", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"soak: {flag} must be")
        assert not path.exists()

    @pytest.mark.parametrize("target", ["dir", "dir/file/BENCH.json"])
    def test_unwritable_json_out_exits_2_before_measuring(self, target,
                                                          tmp_path, capsys,
                                                          monkeypatch):
        """A directory raised ``IsADirectoryError`` once the whole
        measurement had run; now the path is refused up front."""
        from repro.cli import main
        from repro.experiments import soak

        (tmp_path / "dir").mkdir()
        (tmp_path / "dir" / "file").write_text("")
        monkeypatch.setattr(soak, "measure_soak", None)  # never runs
        path = tmp_path / target
        assert main(["soak", "--json-out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"soak: --json-out {path} ")
        assert captured.err.count("\n") == 1

    def test_flag_surface_is_pinned(self):
        surface = {a.option_strings[0]: a.default
                   for a in _subparsers()["soak"]._actions
                   if a.option_strings and a.option_strings[0] != "-h"}
        assert surface == FLAG_SURFACE
        assert len(surface) == 9

    def test_top_level_help_lists_list_run_and_soak(self, capsys):
        from repro.cli import SOAK_HELP, main

        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        # undo argparse's wrapping, which also breaks lines after a hyphen
        text = " ".join(capsys.readouterr().out.split()).replace("- ", "-")
        subparsers = _subparsers()
        assert list(subparsers) == ["list", "run", "soak"]
        assert SOAK_HELP in text
        assert subparsers["soak"].description == SOAK_HELP

    def test_non_finite_result_fails_without_writing(self, tmp_path, capsys,
                                                     monkeypatch):
        from repro.cli import main
        from repro.experiments import soak

        monkeypatch.setattr(soak, "measure_soak", lambda **kw: {
            "invariants_ok": True, "healing_ok": True,
            "stats": {"ft_success_rate": float("nan")},
            "wall_seconds": float("inf")})
        monkeypatch.setattr(soak, "format_soak_report", str)
        path = tmp_path / "BENCH.json"
        assert main(["soak", "--json-out", str(path)]) == 1
        assert capsys.readouterr().err == (
            "soak: non-finite value in result "
            "(result.stats.ft_success_rate = nan, "
            "result.wall_seconds = inf)\n")
        assert not path.exists()
