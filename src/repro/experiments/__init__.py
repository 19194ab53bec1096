"""Experiment harness: paper-vs-measured reproduction of every table,
figure and measurable theorem (index: docs/ARCHITECTURE.md
"Paper-section → module crosswalk")."""

from .common import ExperimentResult, all_experiments, format_rows, get_experiment

__all__ = ["ExperimentResult", "all_experiments", "format_rows", "get_experiment"]
