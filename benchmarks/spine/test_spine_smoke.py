"""Self-test of the spine benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/spine -q``.
Every workload runs in-process at a tiny size (n=256, a sixteenth of
the batch sizes); the tests pin that the benchmark emits exactly the
metrics ``BENCHMARK.json`` names, that the traced spans nest, and — by
injecting a wrong owner, a stale router and a tampered share — that
each correctness check is able to fail.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from harness import measure, measure_traced  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from spec import (  # noqa: E402
    BESIDE,
    END_TO_END,
    NAMES,
    PER_LAYER,
    SPEC,
    UNGATED,
)
from workloads import WORKLOADS, Sizing  # noqa: E402

from repro.core.batch import BatchRouter  # noqa: E402
from repro.core.shard import available_workers  # noqa: E402
from repro.core.snapshot import ColumnarSnapshot  # noqa: E402
from repro.faults.erasure import ErasureStore  # noqa: E402

TINY = Sizing(n=256, scale=0.1, shrink=16)
#: a seed on which no fault-tolerant lane is legitimately unreachable
#: at n=256 (sixteen covers per point cannot be promised that small)
SEED = 3


def test_benchmark_json_names_are_well_formed():
    assert set(WORKLOADS) == set(NAMES + UNGATED)
    names = [m["name"] for m in END_TO_END + BESIDE + PER_LAYER] + list(NAMES)
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for metric in END_TO_END + PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert SPEC["paths"] == ["benchmarks/spine"]


@pytest.mark.parametrize("name", NAMES + UNGATED)
def test_untraced_run_emits_the_end_to_end_metrics(name):
    result = measure(WORKLOADS[name](TINY), SEED)
    assert list(result["metrics"]) == [m["name"] for m in END_TO_END + BESIDE]
    for cell in result["metrics"].values():
        assert cell["value"] > 0
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["extra"]["units"] >= 3


@pytest.mark.parametrize("name", NAMES + UNGATED)
def test_traced_run_emits_every_layer_metric_and_spans_nest(name):
    result = measure_traced(WORKLOADS[name](TINY), SEED, layer_metrics)
    assert list(result["metrics"]) == [m["name"] for m in PER_LAYER]
    assert result["failed"] == 0
    spans = result["extra"]["spans"]
    assert spans
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
    selfs = self_times(spans)
    assert min(selfs) >= -1e-6  # float rounding of perf_counter stamps
    in_pass = sum(t for s, t in zip(spans, selfs)
                  if not s["probe"] and _root(spans, s)["layer"] == "bench")
    wall = sum(s["end"] - s["start"] for s in spans
               if s["layer"] == "bench" and not s["probe"])
    assert in_pass <= wall * (1 + 1e-9)
    assert 0 < result["metrics"]["trace.coverage_share"]["value"] <= 1
    busy = {m for m, cell in result["metrics"].items() if cell["value"]}
    assert any(m.split(".")[0] != "trace" for m in busy)


def _root(spans, span):
    while span["parent"] is not None:
        span = spans[span["parent"]]
    return span


def test_self_time_is_duration_minus_children():
    tracer = Tracer(enabled=True)
    with tracer.span("bench.unit"):
        with tracer.span("batch.fast_csr"):
            pass
        with tracer.span("routing_stats.record", probe=True):
            with tracer.span("batch.cover"):
                pass
    durations = [s["end"] - s["start"] for s in tracer.spans]
    selfs = self_times(tracer.spans)
    assert selfs[0] == pytest.approx(durations[0] - durations[1] - durations[2])
    assert selfs[2] == pytest.approx(durations[2] - durations[3])
    assert [s["probe"] for s in tracer.spans] == [False, False, True, True]
    assert [s["layer"] for s in tracer.spans] == [
        "bench", "batch", "routing_stats", "batch"]
    off = Tracer(enabled=False)
    with off.span("batch.fast_csr"):
        off.count("x")
    assert off.spans == [] and not off.counts


# ------------------------------------------------ the checks must be able to fail
def test_a_wrong_owner_is_counted(monkeypatch):
    real = BatchRouter.lookup_batch

    def wrong(self, *args, **kwargs):
        res = real(self, *args, **kwargs)
        res.owner_idx[0] = (res.owner_idx[0] + 1) % self.n
        return res

    monkeypatch.setattr(BatchRouter, "lookup_batch", wrong)
    workload = WORKLOADS["route_fast"](TINY)
    result = measure(workload, SEED)
    batches = TINY.units(36)
    assert result["failed"] == workload.passes * batches  # one lane per batch


def test_a_stale_router_is_counted(monkeypatch):
    # routers that silently stop following membership keep serving the
    # snapshot they were compiled with
    monkeypatch.setattr(ColumnarSnapshot, "ensure_fresh", lambda self: None)
    monkeypatch.setattr(BatchRouter, "refresh",
                        lambda self, force_full=False: self)
    result = measure(WORKLOADS["churn_mixed"](TINY), SEED)
    assert result["failed"] > 0


def test_a_tampered_share_is_counted(monkeypatch):
    real = ErasureStore.heal

    def heal_after_tamper(self, alive, keys=None):
        item = self._items[self.keys()[0]]
        item.share_at = {srv: (idx, bytes(len(blob)))
                         for srv, (idx, blob) in item.share_at.items()}
        return real(self, alive, keys)

    monkeypatch.setattr(ErasureStore, "heal", heal_after_tamper)
    result = measure(WORKLOADS["faults_ft"](TINY), SEED)
    assert result["failed"] > 0


# ------------------------------------------------------------------ compare
def _write(directory, workload, seed, ops, failed=0):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in END_TO_END + BESIDE}
    metrics["ops_per_s"]["value"] = ops
    record = {"workload": workload, "traced": False, "attempted": 100,
              "failed": failed, "metrics": metrics,
              "provenance": {"seed": seed}}
    (directory / f"{workload}.seed{seed}.json").write_text(json.dumps(record))


def test_compare_verdicts(tmp_path, capsys):
    a, b, c, d = (tmp_path / x for x in "abcd")
    for directory in (a, b, c, d):
        directory.mkdir()
    bound = END_TO_END[0]["bound"]
    for seed, ops in enumerate([100.0, 101.0, 99.0, 100.5]):
        _write(a, "route_fast", seed, ops)
        _write(b, "route_fast", seed, ops * (1 - bound - 0.05))  # worse
        _write(c, "route_fast", seed, ops * (1 - bound / 3))  # inside the bound
        _write(d, "route_fast", seed, 100 + 100 * bound * seed)  # wide spread
    assert compare.compare(str(a), str(a)) == 0
    assert compare.compare(str(a), str(b)) == 1
    assert compare.compare(str(a), str(c)) == 0
    assert compare.compare(str(a), str(d)) == 0
    out = capsys.readouterr().out
    assert "worse" in out and "within" in out and "unresolved" in out
    _write(c, "route_fast", 9, 100.0, failed=1)
    assert compare.compare(str(a), str(c)) == 1   # failed_share rose


def test_compare_fails_on_a_run_b_lacks(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for seed in (1, 2):
        _write(a, "route_fast", seed, 100.0)
        _write(a, "soak_day", seed, 100.0)
        _write(b, "route_fast", seed, 100.0)
    assert compare.compare(str(a), str(b)) == 1  # soak_day crashed in B
    _write(b, "soak_day", 1, 100.0)
    assert compare.compare(str(a), str(b)) == 1  # its seed 2 still did
    _write(b, "soak_day", 2, 100.0)
    assert compare.compare(str(a), str(b)) == 0  # five workloads on neither side
    assert compare.compare(str(b), str(a)) == 0
    assert capsys.readouterr().out.count("MISSING in B") == 2


def test_the_sharded_run_leaves_no_process():
    if available_workers() < 2:
        pytest.skip("route_sharded needs two CPUs")
    measure(WORKLOADS["route_sharded"](TINY), SEED)
    # the pool is joined by teardown; the shared-memory resource tracker
    # is what would outlive the run
    assert run._child_pids()
    run.reap_children()
    assert run._child_pids() == []


# ---------------------------------------------------------------------- CLI
def _run(cwd):
    return subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "faults_ft",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_cli_last_line_is_the_result_object():
    done = _run(ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in END_TO_END]
    assert lines[0].split()[:2] == ["faults_ft", "ops_per_s"]


def test_cli_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
