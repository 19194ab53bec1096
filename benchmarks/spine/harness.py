"""Measurement harness of the spine benchmark: setup, passes, metrics.

A run builds everything from the seed (``setup`` — timed, it is
``setup_s``), then runs the workload's ``passes`` on identical inputs.
A pass is the workload's fixed, seed-determined script of operations;
before each one the state the script changes is put back as ``setup``
left it (:class:`Pristine`), the engines get one untimed warm-up and
``gc.collect()`` runs.  A pass is a sequence of timed segments
(:meth:`Meter.timed`); the correctness checks run between segments and
are not timed, so no result has to be kept alive for a later check and
peak memory stays the program's own.

End-to-end numbers come from tracing-off passes only.  Each segment of
the script keeps its best reading over the passes
(:func:`best_segments` says why); rates divide the operations of one
pass by the sum of those readings and ``batch_ms_p50`` is the median
of the units' readings.  The traced run (:func:`measure_traced`) does
one untraced and one traced pass; the per-layer metrics come from the
traced pass's spans and the difference between the two passes is the
tracing overhead.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from spans import Tracer
from spec import BESIDE, END_TO_END

__all__ = ["Meter", "measure", "measure_traced"]


def _live_children_cpu() -> float:
    """user+sys seconds of the not-yet-reaped worker processes.

    ``RUSAGE_CHILDREN`` only counts children that were waited for, and
    the sharded executor's pool outlives the measured pass — so the
    running (single-threaded) workers are read from the first field of
    ``/proc/<pid>/schedstat``, their on-CPU time in nanoseconds.
    """
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except OSError:
            continue
    return total / 1e9


def cpu_seconds() -> Dict[str, float]:
    """user+sys CPU of this process and of its children so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "self": me.ru_utime + me.ru_stime,
        "children": reaped.ru_utime + reaped.ru_stime + _live_children_cpu(),
    }


def peak_rss_mb() -> float:
    """Max of ``ru_maxrss`` over this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # Linux reports KiB


class _Segment:
    """One timed segment of a pass (context manager)."""

    __slots__ = ("_meter", "_unit", "_span", "_cpu0", "_t0")

    def __init__(self, meter: "Meter", unit: bool) -> None:
        self._meter = meter
        self._unit = unit

    def __enter__(self):
        meter = self._meter
        tracer = meter.tracer
        tracer.unit = meter.units if self._unit else None
        self._span = tracer.span("bench.unit" if self._unit else "bench.step")
        self._cpu0 = cpu_seconds()
        # the root span sits inside the wall clock, so that what tracing
        # costs is part of the traced pass's wall
        self._t0 = time.perf_counter()
        self._span.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        self._span.__exit__(*exc)
        wall = time.perf_counter() - self._t0
        cpu1 = cpu_seconds()
        meter = self._meter
        meter.tracer.unit = None
        meter.units += self._unit
        meter.segments.append({
            "unit": self._unit,
            "wall": wall,
            "cpu": sum(cpu1.values()) - sum(self._cpu0.values()),
            "child_cpu": cpu1["children"] - self._cpu0["children"],
        })
        return False


class Meter:
    """Accumulator of one pass: its timed segments and its operations."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.segments: List[Dict] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self._broken = False

    def timed(self, unit: bool = True) -> _Segment:
        """Time the enclosed calls; ``unit=True`` also records one unit.

        A unit is what ``batch_ms_p50`` is the median of (one batch call
        with its booking, one churn round, one soak day); ``unit=False``
        is for timed work between units (epoch advance, heal sweep).
        """
        return _Segment(self, unit)

    def span(self, name: str, probe: bool = False):
        """A layer span inside a timed segment (see :mod:`spans`)."""
        return self.tracer.span(name, probe)

    def ops(self, attempted: int, failed: int = 0) -> None:
        """Book checked operations; ``failed`` of them had a wrong result."""
        self.attempted += int(attempted)
        self.failed += min(int(failed), int(attempted))

    def fail_pass(self) -> None:
        """A whole-pass check failed: every operation of the pass is wrong."""
        self._broken = True

    def close(self) -> None:
        """End of the pass: apply a whole-pass failure, if one was raised."""
        if self._broken:
            self.attempted = max(self.attempted, 1)
            self.failed = self.attempted

    def total(self, key: str) -> float:
        """Sum of one segment field (``wall``, ``cpu``, ``child_cpu``)."""
        return float(sum(seg[key] for seg in self.segments))


class Pristine:
    """What a pass changes of the set-up state, as ``setup`` left it.

    Every pass must start from the same state, and a pass changes the
    churned network and its routers, the cache engine, the erasure
    store, the scenario engine and the digit streams.  Building them
    again would cost a whole ``populate`` per pass; a pickle of the
    workload's ``mutable`` fields, taken once after ``setup`` and
    loaded before each pass, costs 0.05 s.  Fields pickled together
    keep the references they share (the restored routers are bound to
    the restored network).
    """

    def __init__(self, state, names) -> None:
        self._blob = pickle.dumps({k: getattr(state, k) for k in names},
                                  protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, state) -> None:
        """Replace the mutable fields of ``state`` by fresh copies."""
        vars(state).update(pickle.loads(self._blob))


def _pass(workload, state, pristine: Pristine, tracer: Tracer,
          index: int) -> Dict:
    """Restore the state, warm up, run one pass."""
    tracer.repeat = index
    pristine.restore(state)
    workload.warm(state)
    gc.collect()
    meter = Meter(tracer)
    counts: Optional[Dict] = None
    try:
        counts = workload.run_pass(state, meter)
    except Exception:
        # a refused or raised batch fails every operation of its pass
        traceback.print_exc(file=sys.stderr)
        meter.fail_pass()
    meter.close()
    return {"meter": meter, "counts": counts}


def _same_counts(a: Optional[Dict], b: Optional[Dict]) -> bool:
    """Exact agreement of two passes' counts on the keys both report."""
    if a is None or b is None:
        return False
    return all(a[k] == b[k] for k in a.keys() & b.keys())


def _fail_on_drift(passes: List[Dict]) -> None:
    """Counts must repeat exactly per seed; a pass that drifts is wrong."""
    base = passes[0]["counts"]
    for one in passes[1:]:
        if not _same_counts(base, one["counts"]):
            one["meter"].fail_pass()
            one["meter"].close()


def best_segments(meters: List[Meter]) -> List[Dict]:
    """Per script position, the best reading over the passes.

    Every pass runs the same script on the same inputs, so position
    ``i`` of each pass timed identical work.  What other tenants of the
    box add to a reading is one-sided — it only ever makes a segment
    slower — and arrives in bursts of seconds (README, "Steadiness"),
    so each position keeps its minimum wall and CPU time over the
    passes.  A sum of per-position minima repeats about three times
    closer run to run than the median pass.
    """
    shapes = {tuple(seg["unit"] for seg in m.segments) for m in meters}
    if len(shapes) != 1:
        raise RuntimeError("passes of one run timed different scripts")
    return [
        {"unit": segs[0]["unit"],
         "wall": min(seg["wall"] for seg in segs),
         "cpu": min(seg["cpu"] for seg in segs)}
        for segs in zip(*(m.segments for m in meters))
    ]


def end_to_end(passes: List[Dict], setup_s: float) -> Dict[str, Dict]:
    """The untraced metrics (``END_TO_END`` and ``BESIDE``) of the passes."""
    meters = [p["meter"] for p in passes if p["counts"] is not None]
    if not meters:
        raise RuntimeError("every pass raised; nothing was measured")
    best = best_segments(meters)
    ops = meters[0].attempted  # identical in every pass (counts agree)
    units = [seg["wall"] for seg in best if seg["unit"]]
    values = {
        "ops_per_s": ops / sum(seg["wall"] for seg in best),
        "batch_ms_p50": 1e3 * statistics.median(units),
        "cpu_s_per_mop": 1e6 * sum(seg["cpu"] for seg in best) / ops,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in END_TO_END + BESIDE}


def _timed_setup(workload, seed: int, tracer: Tracer):
    """``(state, seconds)`` of one ``setup``."""
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed, tracer)
    return state, time.perf_counter() - t0


def measure(workload, seed: int) -> Dict:
    """The untraced run: set-up, the passes, set-up again, the metrics.

    ``setup_s`` is the better of two readings, for the reason
    :func:`best_segments` gives: one when the run starts and one when
    the passes are over and their state is freed, half a minute later.
    A ``populate`` is a 2.5 s Python loop, and single readings of it
    spread 20-40% over ten runs on this box.
    """
    tracer = Tracer(enabled=False)
    state, first = _timed_setup(workload, seed, tracer)
    try:
        pristine = Pristine(state, workload.mutable)
        passes = [_pass(workload, state, pristine, tracer, i)
                  for i in range(workload.passes)]
    finally:
        workload.teardown(state)
    del state, pristine
    state, second = _timed_setup(workload, seed, tracer)
    workload.teardown(state)
    del state
    setup_s = min(first, second)
    _fail_on_drift(passes)
    metrics = end_to_end(passes, setup_s)
    pooled = [seg["wall"] for p in passes for seg in p["meter"].segments
              if seg["unit"]]
    extra = {
        "units": len(pooled),
        "setup_readings_s": [first, second],
        "passes": [{"wall_s": p["meter"].total("wall"),
                    "cpu_s": p["meter"].total("cpu"),
                    "ops": p["meter"].attempted,
                    "units_ms": [1e3 * seg["wall"]
                                 for seg in p["meter"].segments if seg["unit"]]}
                   for p in passes],
    }
    if len(pooled) >= 100:  # ten samples beyond the 90th percentile
        extra["batch_ms_p90"] = 1e3 * float(np.percentile(pooled, 90))
    return {
        "attempted": sum(p["meter"].attempted for p in passes),
        "failed": sum(p["meter"].failed for p in passes),
        "metrics": metrics,
        "extra": extra,
    }


def _span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span costs, timed on empty spans."""
    scratch = Tracer(enabled=True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with scratch.span("bench.calibrate"):
            pass
    return (time.perf_counter() - t0) / samples


def measure_traced(workload, seed: int, layer_metrics) -> Dict:
    """The traced run: one setup, one untraced pass, then one traced pass.

    ``layer_metrics(view)`` maps the traced pass to the per-layer
    metric dict (see :mod:`layers`).  The setup is traced too (its
    spans are the ``populate`` / ``compile`` / ``build`` metrics).
    Counts must agree exactly between the two passes; their wall-time
    difference is the tracing overhead.
    """
    tracer = Tracer(enabled=True)
    state = workload.setup(seed, tracer)
    try:
        pristine = Pristine(state, workload.mutable)
        tracer.enabled = False
        plain = _pass(workload, state, pristine, tracer, 0)
        tracer.enabled = True
        traced = _pass(workload, state, pristine, tracer, 1)
        if traced["counts"] is None:
            raise RuntimeError("the traced pass raised; nothing was measured")
        workload.probes(state, tracer)
    finally:
        workload.teardown(state)
    passes = [plain, traced]
    _fail_on_drift(passes)
    view = {
        "tracer": tracer,
        "span_cost_s": _span_cost(),
        "counts": traced["counts"],
        "wall_traced": traced["meter"].total("wall"),
        "wall_untraced": plain["meter"].total("wall"),
        "child_cpu_s": traced["meter"].total("child_cpu"),
    }
    return {
        "attempted": sum(p["meter"].attempted for p in passes),
        "failed": sum(p["meter"].failed for p in passes),
        "metrics": layer_metrics(view),
        "extra": {"spans": tracer.spans},
    }
