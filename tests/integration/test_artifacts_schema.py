"""Artifact reproducibility + the schema of every committed baseline.

Two contracts every machine-readable artifact must honor:

* **Reproducibility** — ``repro.cli soak --seed S --json-out`` writes
  byte-identical files across runs (the scenario result is a pure
  function of its arguments; ``repro.artifacts.VOLATILE_KEYS`` —
  wall-clock and machine readings — are stripped).
* **Schema** — the ``soak`` payload has the ``{"command": str, "ok":
  bool, "result": {...}}`` shape with JSON-native, NumPy-free, *finite*
  leaves (``NaN``/``Infinity`` are not strict JSON and break downstream
  parsers), validated by a hand-rolled checker (no external jsonschema
  dependency) over both the committed reference in
  ``benchmarks/baselines/`` and a freshly generated artifact; every
  committed experiment baseline (what ``run --out`` writes) holds no
  volatile leaf and passed.
"""

import json
import pathlib

import pytest
from artifact_schema import validate_artifact

from repro.cli import main
from repro.experiments.runner import EXPERIMENT_IDS

REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINES = sorted((REPO / "benchmarks" / "baselines").glob("BENCH_*.json"))
#: the experiments ``benchmarks/ci_smoke.sh`` runs, one file each
EXPERIMENTS = sorted(p for p in (REPO / "benchmarks" / "baselines").glob("*.json")
                     if not p.name.startswith("BENCH_"))

SOAK_ARGS = ["soak", "--n", "128", "--lookups", "2000", "--chunk", "1024",
             "--seed", "9", "--items", "6"]


@pytest.fixture(scope="module")
def soak_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("soak") / "BENCH_soak.json"
    assert main(SOAK_ARGS + ["--json-out", str(path)]) == 0
    return path


class TestSoakReproducibility:
    def test_same_seed_writes_identical_bytes(self, soak_artifact, tmp_path):
        again = tmp_path / "again.json"
        assert main(SOAK_ARGS + ["--json-out", str(again)]) == 0
        assert again.read_bytes() == soak_artifact.read_bytes()

    def test_different_seed_differs(self, soak_artifact, tmp_path):
        other = tmp_path / "other.json"
        args = [a if a != "9" else "10" for a in SOAK_ARGS]
        assert main(args + ["--json-out", str(other)]) == 0
        assert other.read_bytes() != soak_artifact.read_bytes()

    def test_no_wall_clock_keys_in_artifact(self, soak_artifact):
        from repro.artifacts import VOLATILE_KEYS

        keys = set()  # every key at any depth
        json.loads(soak_artifact.read_text(),
                   object_hook=lambda obj: keys.update(obj) or obj)
        assert {"wall_seconds", "krequests_per_sec", "peak_rss_mb"} <= (
            VOLATILE_KEYS)
        assert keys and not keys & VOLATILE_KEYS

    def test_peak_memory_is_reported_but_never_recorded(self):
        from repro.experiments.soak import (deterministic_payload,
                                            format_soak_report, measure_soak)

        result = measure_soak(n=128, lookups=2000, chunk=1024, seed=9, items=6)
        assert result["peak_rss_mb"] > 1.0
        assert "peak_rss_mb" not in deterministic_payload(result)
        assert f"peak RSS {result['peak_rss_mb']:.0f} MB" in (
            format_soak_report(result).splitlines()[-1])

    def test_ci_smoke_soak_equals_the_committed_reference(self, tmp_path):
        """The ``benchmarks/ci_smoke.sh`` soak line, byte for byte."""
        fresh = tmp_path / "BENCH_soak.json"
        assert main(["soak", "--n", "1024", "--lookups", "10000", "--chunk",
                     "4096", "--seed", "0", "--json-out", str(fresh)]) == 0
        committed = REPO / "benchmarks" / "baselines" / "BENCH_soak.json"
        assert (json.dumps(json.loads(fresh.read_text())["result"])
                == json.dumps(json.loads(committed.read_text())["result"]))


class TestArtifactSchema:
    def test_committed_references_exist(self):
        assert [p.name for p in BASELINES] == [
            "BENCH_soak.json", "BENCH_soak_seed1.json",
            "BENCH_soak_seed11.json", "BENCH_soak_seed7.json"]
        assert [p.stem for p in EXPERIMENTS] == sorted(EXPERIMENT_IDS)

    @pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.stem)
    def test_committed_experiment_baseline_is_deterministic_and_green(
            self, path):
        from repro.artifacts import VOLATILE_KEYS

        def reject(token):
            raise AssertionError(f"non-JSON constant {token!r}")

        keys = set()  # every key at any depth
        doc = json.loads(path.read_text(), parse_constant=reject,
                         object_hook=lambda obj: keys.update(obj) or obj)
        assert doc["experiment"] == path.stem
        assert doc["passed"] is True and all(doc["checks"].values())
        assert not keys & VOLATILE_KEYS

    @pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.stem)
    def test_committed_reference_matches_schema(self, path):
        payload = validate_artifact(path)
        assert payload["ok"] is True  # references are committed green

    def test_fresh_soak_artifact_matches_schema(self, soak_artifact):
        payload = validate_artifact(soak_artifact)
        assert payload["command"] == "soak"
        assert payload["ok"] is True
        result = payload["result"]
        for key in ("invariants_ok", "healing_ok", "owners_ok", "merge_ok",
                    "cache_ok", "stats", "rows", "phases"):
            assert key in result

    def test_validator_rejects_malformed_payloads(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "x", "ok": "yes",
                                   "result": {"v": 1}}))
        with pytest.raises(AssertionError, match="'ok' is str"):
            validate_artifact(bad)
        bad.write_text('{"command": "x", "ok": true, '
                       '"result": {"rate": NaN}}')
        with pytest.raises(AssertionError, match="non-JSON constant"):
            validate_artifact(bad)
        bad.write_text(json.dumps({"command": "x", "ok": True,
                                   "result": {}}))
        with pytest.raises(AssertionError, match="empty"):
            validate_artifact(bad)


#: ``(what exists, path asked for, directory?, problem)``
UNWRITABLE_CASES = {
    "file-to-file": ("file", "file", False, None),
    "dir-to-file": ("dir", "dir", False, "is a directory"),
    "new-file-in-dir": ("dir", "dir/new.json", False, None),
    "dir-to-dir": ("dir", "dir", True, None),
    "file-to-dir": ("file", "file", True, "is not a directory"),
    "new-dirs-in-dir": ("dir", "dir/a/b", True, None),
    "dir-under-a-file": ("file", "file/a", True,
                         "is under {root}/file, which is not a directory"),
}


@pytest.mark.parametrize("made, asked, directory, problem",
                         UNWRITABLE_CASES.values(), ids=UNWRITABLE_CASES)
def test_unwritable_names_the_problem_and_creates_nothing(
        made, asked, directory, problem, tmp_path):
    """``soak --json-out`` asks for a file, ``run --out`` for a directory."""
    from repro.artifacts import unwritable

    if made == "dir":
        (tmp_path / "dir").mkdir()
    else:
        (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    expected = problem and problem.format(root=tmp_path)
    assert unwritable(str(tmp_path / asked), directory=directory) == expected
    assert sorted(tmp_path.rglob("*")) == before
