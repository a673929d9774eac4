"""The branch-prediction simulator (section 4's methodology).

:mod:`repro.sim.engine` drives one predictor over one branch trace and
scores it; :mod:`repro.sim.runner` sweeps many configurations over many
benchmarks with trace caching; :mod:`repro.sim.results` holds the statistics
objects and the geometric-mean aggregation the paper's figures report.
"""

from repro.sim.analysis import (
    PatternConflictStats,
    convergence_point,
    pattern_conflicts,
    windowed_accuracy,
)
from repro.sim.backend import (
    BACKEND_CHOICES,
    default_backend,
    has_numpy,
    resolve_backend,
)
from repro.sim.engine import simulate
from repro.sim.export import rows_to_markdown, sweep_to_csv, sweep_to_markdown
from repro.sim.kernels import score_spec
from repro.sim.results import (
    BenchmarkResult,
    PredictionStats,
    SweepResult,
    geometric_mean,
)
from repro.sim.parallel import run_parallel_sweep
from repro.sim.runner import SweepRunner, run_sweep

__all__ = [
    "BACKEND_CHOICES",
    "BenchmarkResult",
    "default_backend",
    "has_numpy",
    "resolve_backend",
    "score_spec",
    "PatternConflictStats",
    "PredictionStats",
    "SweepResult",
    "SweepRunner",
    "geometric_mean",
    "rows_to_markdown",
    "run_parallel_sweep",
    "run_sweep",
    "simulate",
    "sweep_to_csv",
    "sweep_to_markdown",
    "convergence_point",
    "pattern_conflicts",
    "windowed_accuracy",
]
