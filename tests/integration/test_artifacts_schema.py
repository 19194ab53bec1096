"""Artifact reproducibility + one shared schema for every ``--json-out``.

Two contracts every machine-readable artifact must honor:

* **Reproducibility** — ``repro.cli soak --seed S --json-out`` writes
  byte-identical files across runs (the scenario result is a pure
  function of its arguments; wall-clock keys are stripped).
* **Schema** — every ``bench-*``/``soak`` payload has the shared
  ``{"command": str, "ok": bool, "result": {...}}`` shape with
  JSON-native, NumPy-free, *finite* leaves (``NaN``/``Infinity`` are
  not strict JSON and break downstream parsers), validated by a
  hand-rolled checker (no external jsonschema dependency) over both the
  committed references in ``benchmarks/baselines/`` and freshly
  generated artifacts.
"""

import json
import pathlib

import pytest
from artifact_schema import validate_artifact

from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINES = sorted((REPO / "benchmarks" / "baselines").glob("BENCH_*.json"))

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
        from repro.experiments.soak import NONDETERMINISTIC_KEYS

        payload = json.loads(soak_artifact.read_text())
        for key in NONDETERMINISTIC_KEYS:
            assert key not in payload["result"]

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
        assert len(BASELINES) >= 6

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

    def test_fresh_throughput_artifact_matches_schema(self, tmp_path):
        path = tmp_path / "BENCH_throughput.json"
        code = main(["bench-throughput", "--n", "128", "--lookups", "2000",
                     "--scalar-sample", "50", "--min-speedup", "0.1",
                     "--json-out", str(path)])
        assert code == 0
        assert validate_artifact(path)["command"] == "bench-throughput"

    def test_fresh_churn_artifact_gates_an_absolute_refresh_bound(
            self, tmp_path):
        """``bench-churn`` gates microseconds per membership op, not a
        ratio to the full compile, and ``bench-compare`` picks the
        refresh up through its ``*_rate`` rule."""
        from repro.cli import _compare_payload

        path = tmp_path / "BENCH_churn.json"
        args = ["bench-churn", "--n", "128", "--lookups", "2000",
                "--churn-ops", "16", "--mass-n", "64",
                "--json-out", str(path)]
        assert main(args + ["--max-refresh-us", "1e9"]) == 0
        result = validate_artifact(path)["result"]
        assert result["refresh_ops_rate"] == pytest.approx(
            1.0 / result["refresh_secs_per_op"])
        assert result["refresh_vs_compile"] == pytest.approx(
            result["full_compile_secs"] / result["refresh_secs_per_op"])
        assert "refresh_speedup" not in result
        # a refresh ten times slower fails the compare; a compile ten
        # times faster (a tenth of the ratio) does not
        ref = {"result": result}
        slow = dict(result, refresh_ops_rate=result["refresh_ops_rate"] / 10)
        fast = dict(result,
                    refresh_vs_compile=result["refresh_vs_compile"] / 10)
        assert _compare_payload(ref, {"result": slow}, 0.3)[0]
        assert not _compare_payload(ref, {"result": fast}, 0.3)[0]
        assert main(args + ["--max-refresh-us", "0"]) == 1
        assert validate_artifact(path)["ok"] is False
        with pytest.raises(SystemExit):  # the ratio flag is gone, not aliased
            main(args + ["--min-refresh-speedup", "2"])

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
