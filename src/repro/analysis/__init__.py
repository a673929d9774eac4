"""Static analysis of assembled programs.

The paper's methodology (section 4) rests on a *static* classification of
every branch — conditional vs. unconditional, return, backward vs. forward —
that the rest of the repository only ever derived dynamically, inside the
trace pipeline.  This package computes the same facts without executing an
instruction, so the dynamic simulator can be cross-validated against them:

* :mod:`repro.analysis.cfg` — basic blocks, control-flow edges, dominators,
  post-dominators, natural loops and strongly-connected components over a
  decoded :class:`~repro.isa.program.Program`;
* :mod:`repro.analysis.dataflow` — reaching definitions and register
  liveness on that CFG, driven by the operand metadata in
  :mod:`repro.isa.instructions`;
* :mod:`repro.analysis.absint` — abstract interpretation: value ranges,
  affine induction variables with closed-form loop trip counts, and the
  deterministic walk, which runs the program on the CPU and splits its
  conditional branches into per-site outcome streams;
* :mod:`repro.analysis.predictability` — the four-way predictability
  taxonomy (constant / loop-periodic / correlated / data-dependent) with
  per-scheme accuracy bounds and the static H2P candidate ranking, behind
  the ``repro analyze`` CLI subcommand;
* :mod:`repro.analysis.branches` — the static branch-site table (per-site
  class, direction, BTFN prediction), the static analog of Table 1;
* :mod:`repro.analysis.lint` — a rule engine (R001..R011) emitting
  structured diagnostics, behind the ``repro lint`` CLI subcommand;
* :mod:`repro.analysis.crossval` — asserts the static tables and
  predictability bounds agree with what the CPU/trace pipeline observes
  dynamically.
"""

from repro.analysis.absint import (
    AffineValue,
    LoopAnalysis,
    LoopSummary,
    Resolution,
    ValueRange,
    WalkResult,
    walk_program,
)
from repro.analysis.branches import (
    BranchSite,
    conditional_sites,
    static_branch_table,
)
from repro.analysis.cfg import BasicBlock, ControlFlowGraph, Edge, EdgeKind, build_cfg
from repro.analysis.crossval import (
    CrossValidationReport,
    PredictabilityValidation,
    cross_validate,
    validate_predictability,
)
from repro.analysis.dataflow import (
    LivenessResult,
    ReachingDefinitions,
    UNINITIALIZED,
    liveness,
    reaching_definitions,
)
from repro.analysis.lint import (
    Diagnostic,
    LintResult,
    RULES,
    Severity,
    lint_program,
    lint_source,
)
from repro.analysis.predictability import (
    ANALYSIS_SCHEMES,
    AnalysisScheme,
    PredictabilityClass,
    PredictabilityReport,
    SchemeBound,
    SiteReport,
    analyze_program,
)

__all__ = [
    "ANALYSIS_SCHEMES",
    "AffineValue",
    "AnalysisScheme",
    "BasicBlock",
    "BranchSite",
    "ControlFlowGraph",
    "CrossValidationReport",
    "Diagnostic",
    "Edge",
    "EdgeKind",
    "LintResult",
    "LivenessResult",
    "LoopAnalysis",
    "LoopSummary",
    "PredictabilityClass",
    "PredictabilityReport",
    "PredictabilityValidation",
    "ReachingDefinitions",
    "RULES",
    "Resolution",
    "SchemeBound",
    "Severity",
    "SiteReport",
    "UNINITIALIZED",
    "ValueRange",
    "WalkResult",
    "analyze_program",
    "build_cfg",
    "conditional_sites",
    "cross_validate",
    "lint_program",
    "lint_source",
    "liveness",
    "reaching_definitions",
    "static_branch_table",
    "validate_predictability",
    "walk_program",
]
