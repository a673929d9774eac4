"""repro — a full reproduction of Yeh & Patt, "Two-Level Adaptive Training
Branch Prediction" (MICRO-24, 1991).

The package provides, from the bottom up:

* :mod:`repro.isa` — an M88100-flavoured RISC (assembler + instruction-level
  simulator), standing in for the paper's Motorola 88100 ISIM trace source.
* :mod:`repro.trace` — branch-trace records, binary and text trace
  formats, the trace store, statistics, and synthetic trace generators.
* :mod:`repro.workloads` — nine SPEC89-analog benchmark programs with the
  Table 3 training/testing data-set structure.
* :mod:`repro.predictors` — the Two-Level Adaptive Training predictor (the
  paper's contribution) plus every comparator: Static Training, Lee & Smith
  BTB designs, Always Taken, BTFN, profiling, and the Table 2
  configuration-string parser.
* :mod:`repro.sim` — the trace-driven branch-prediction simulator and sweep
  runner with geometric-mean reporting.
* :mod:`repro.experiments` — one runnable experiment per table/figure of the
  paper, each with explicit shape checks.

Quick start::

    from repro import parse_spec, run_sweep

    sweep = run_sweep(
        ["AT(AHRT(512,12SR),PT(2^12,A2),)", "LS(AHRT(512,A2),,)", "BTFN"],
        max_conditional=20_000,
    )
    for scheme in sweep.schemes():
        print(scheme, round(sweep.mean(scheme), 3))
"""

from repro.errors import (
    AssemblyError,
    ConfigError,
    EncodingError,
    ExecutionError,
    ReproError,
    SpecParseError,
    TraceFormatError,
    WorkloadError,
)
from repro.experiments import experiment_ids, get_experiment
from repro.predictors import (
    ConditionalBranchPredictor,
    PredictorSpec,
    TwoLevelAdaptivePredictor,
    measure_accuracy,
    parse_spec,
)
from repro.sim import SweepResult, run_sweep, simulate
from repro.trace import BranchClass, BranchRecord
from repro.workloads import get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "AssemblyError",
    "BranchClass",
    "BranchRecord",
    "ConditionalBranchPredictor",
    "ConfigError",
    "EncodingError",
    "ExecutionError",
    "PredictorSpec",
    "ReproError",
    "SpecParseError",
    "SweepResult",
    "TraceFormatError",
    "TwoLevelAdaptivePredictor",
    "WorkloadError",
    "__version__",
    "experiment_ids",
    "get_experiment",
    "get_workload",
    "measure_accuracy",
    "parse_spec",
    "run_sweep",
    "simulate",
    "workload_names",
]
