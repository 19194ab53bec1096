"""Experiment harness plumbing: results, registry, formatting.

Every experiment module registers a ``run(seed, quick)`` callable that
returns an :class:`ExperimentResult` — a set of measured rows plus the
paper's claim and a pass/fail verdict.  :func:`register` is the one
shell around all of them: it keys the registry, times the run and hands
back the timed callable; :meth:`ExperimentResult.to_json` is the one
JSON form (``python -m repro.cli run all --out DIR``).  A committed,
regenerated report over this registry is ROADMAP item 7.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..artifacts import dumps

__all__ = ["ExperimentResult", "register", "get_experiment", "all_experiments",
           "format_rows"]


@dataclass
class ExperimentResult:
    """Outcome of one experiment (one table/figure/theorem reproduction)."""

    experiment: str
    title: str
    paper_claim: str
    rows: List[Dict] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def to_json(self) -> str:
        """The result through :func:`repro.artifacts.dumps`, the writer of
        the bench artifacts: a ``numpy.bool_`` verdict is written ``true``
        (not ``"True"``) and a NaN / infinite value raises ``ValueError``
        naming its key."""
        return dumps(
            {
                "experiment": self.experiment,
                "title": self.title,
                "paper_claim": self.paper_claim,
                "rows": self.rows,
                "checks": self.checks,
                "passed": self.passed,
                "notes": self.notes,
                "seconds": round(self.seconds, 2),
            }
        )

    def render(self) -> str:
        lines = [
            f"== {self.experiment}: {self.title} ==",
            f"paper: {self.paper_claim}",
        ]
        if self.rows:
            lines.append(format_rows(self.rows))
        for name, ok in self.checks.items():
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        lines.append(f"  ({self.seconds:.1f}s)")
        return "\n".join(lines)


def format_rows(rows: Sequence[Dict]) -> str:
    """Plain-text table of dict rows (stable column order from first row)."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())

    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    widths = {c: max(len(c), *(len(fmt(r.get(c, ""))) for r in rows)) for c in cols}
    header = "  ".join(c.ljust(widths[c]) for c in cols)
    sep = "  ".join("-" * widths[c] for c in cols)
    body = [
        "  ".join(fmt(r.get(c, "")).ljust(widths[c]) for c in cols) for r in rows
    ]
    return "\n".join([header, sep, *body])


_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}


def register(name: str):
    """Decorator: register ``fn(seed=..., quick=...)`` under an id like E1.

    What is registered (and returned) is ``fn`` inside the timing shell:
    every run stores its wall time on the result's ``seconds``.
    """

    def deco(fn: Callable[..., ExperimentResult]):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> ExperimentResult:
            t0 = time.perf_counter()
            res = fn(*args, **kwargs)
            res.seconds = time.perf_counter() - t0
            return res

        _REGISTRY[name.upper()] = run
        return run

    return deco


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    key = name.upper()
    if key not in _REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; have {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def all_experiments() -> Dict[str, Callable[..., ExperimentResult]]:
    return dict(sorted(_REGISTRY.items()))
