"""Experiment harness: PE sweeps, strategy sweeps, table formatting.

The modules here regenerate the paper's tables and figures (see
EXPERIMENTS.md).  ``python -m repro.bench --exp all`` prints everything;
``tests/test_experiments.py`` runs the same registry at quick scale and
asserts each experiment's claim shape.
"""

from repro.bench.harness import (
    APPS,
    AppSpec,
    SweepResult,
)
from repro.bench.tables import format_table
from repro.bench.experiments import EXPERIMENTS, run_experiment

__all__ = [
    "APPS",
    "AppSpec",
    "SweepResult",
    "format_table",
    "EXPERIMENTS",
    "run_experiment",
]
