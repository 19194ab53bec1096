"""In-memory span recorder for the traced run of the spine benchmark.

The benchmark measures every layer *from outside*: each call it makes
into a layer's public function is wrapped in a span whose name is
``<layer>.<what>`` (the layer is the module the call lands in).  Spans
nest — the benchmark's own timed segments are the roots (layer
``bench``), so whatever a root does not hand to a layer is benchmark
glue — and are kept in memory until the run ends.  Counts taken at the
same boundaries go into :attr:`Tracer.counts`.

With ``enabled=False`` (every end-to-end run) :meth:`Tracer.span`
returns one shared no-op context manager and :meth:`Tracer.count` does
nothing, so the workload code has a single path for both modes and the
traced-minus-untraced wall time is the tracing overhead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional

__all__ = ["Tracer", "self_times"]


class _NoSpan:
    """The shared do-nothing span of a disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NO_SPAN = _NoSpan()


class _LiveSpan:
    """Context manager appending one record to the tracer on entry."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", name: str, probe: bool) -> None:
        self._tracer = tracer
        self._record = {
            "name": name,
            "layer": name.split(".", 1)[0],
            "start": 0.0,
            "end": 0.0,
            "parent": None,
            "repeat": tracer.repeat,
            "unit": tracer.unit,
            "probe": probe,
        }

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack
        record = self._record
        record["parent"] = stack[-1] if stack else None
        # a span opened inside a probe is itself a probe: its time is an
        # extra call the untraced run does not make
        if record["parent"] is not None:
            record["probe"] |= tracer.spans[record["parent"]]["probe"]
        stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._record["end"] = time.perf_counter()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans and boundary counts for one benchmark run.

    ``repeat`` and ``unit`` are stamped onto every span opened while
    they are set: the harness sets ``repeat`` to the pass index and
    ``unit`` to the index of the timed unit inside the pass (``None``
    outside a unit).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: List[Dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.repeat: Optional[int] = None
        self.unit: Optional[int] = None
        self._stack: List[int] = []

    def span(self, name: str, probe: bool = False):
        """Context manager timing one call into a layer.

        ``probe=True`` marks an extra call the untraced run does not
        make (a decomposition that needs a second call); probes are
        reported but excluded from wall totals.
        """
        if not self.enabled:
            return _NO_SPAN
        return _LiveSpan(self, name, probe)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named boundary count (no-op when off)."""
        if self.enabled:
            self.counts[name] += value

    # ------------------------------------------------------------- queries
    def durations(self, name: str) -> List[float]:
        """Seconds of every finished span called ``name``, in order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name`` (0.0 if none)."""
        return float(sum(self.durations(name)))


def self_times(spans: List[Dict]) -> List[float]:
    """Self time of each span: its duration minus its children's.

    Children are the spans whose ``parent`` is the span's index; the run
    is single-threaded, so siblings never overlap and the part of a
    span's interval its children cover is the sum of their durations.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
