"""Experiment harness: paper-vs-measured reproduction of every table,
figure and measurable theorem (see the crosswalk in docs/ARCHITECTURE.md
for the index)."""

from .common import ExperimentResult, all_experiments, format_rows, get_experiment

__all__ = ["ExperimentResult", "all_experiments", "format_rows", "get_experiment"]
