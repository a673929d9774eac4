"""Branch predictors: the paper's Two-Level Adaptive Training scheme and
every comparator it is evaluated against.

Public surface:

* :mod:`repro.predictors.automata` — the Figure 2 pattern-history state
  machines (Last-Time, A1, A2, A3, A4).
* :mod:`repro.predictors.hrt` — history-register-table front-ends
  (IHRT / AHRT / HHRT, section 3.1).
* :mod:`repro.predictors.two_level` — the Two-Level Adaptive Training
  predictor itself (AT), plus the section 3.2 latency-hiding variant.
* :mod:`repro.predictors.static_training` — Lee & Smith Static Training (ST).
* :mod:`repro.predictors.btb` — Lee & Smith Branch Target Buffer designs (LS).
* :mod:`repro.predictors.static_schemes` — Always Taken / Not Taken, BTFN,
  per-branch profiling.
* :mod:`repro.predictors.spec` — the Table 2 naming-convention parser, which
  turns strings like ``"AT(AHRT(512,12SR),PT(2^12,A2))"`` into predictors.
* :mod:`repro.predictors.extensions` — post-paper global-history variants
  (GAg, gshare) for the future-work ablations.
* :mod:`repro.predictors.modern` — the modern subsystem (perceptron,
  TAGE), the comparators for the H2P pipeline (``repro h2p``).
"""

from repro.predictors.automata import (
    A1,
    A2,
    A3,
    A4,
    AUTOMATA,
    Automaton,
    LAST_TIME,
    automaton_by_name,
)
from repro.predictors.base import ConditionalBranchPredictor, measure_accuracy
from repro.predictors.btb import LeeSmithPredictor
from repro.predictors.extensions import GAgPredictor, GSharePredictor
from repro.predictors.hrt import AHRT, HHRT, IHRT, HistoryRegisterTable
from repro.predictors.modern import PerceptronPredictor, TagePredictor, TageState
from repro.predictors.pattern_table import PatternTable
from repro.predictors.spec import PredictorSpec, parse_spec
from repro.predictors.static_schemes import (
    AlwaysNotTaken,
    AlwaysTaken,
    BTFNPredictor,
    ProfilePredictor,
)
from repro.predictors.static_training import (
    StaticTrainingPredictor,
    profile_pattern_table,
)
from repro.predictors.two_level import (
    CachedPredictionTwoLevel,
    DelayedUpdatePredictor,
    TwoLevelAdaptivePredictor,
)

__all__ = [
    "A1",
    "A2",
    "A3",
    "A4",
    "AHRT",
    "AUTOMATA",
    "AlwaysNotTaken",
    "AlwaysTaken",
    "Automaton",
    "BTFNPredictor",
    "CachedPredictionTwoLevel",
    "ConditionalBranchPredictor",
    "DelayedUpdatePredictor",
    "GAgPredictor",
    "GSharePredictor",
    "HHRT",
    "HistoryRegisterTable",
    "IHRT",
    "LAST_TIME",
    "LeeSmithPredictor",
    "PatternTable",
    "PerceptronPredictor",
    "PredictorSpec",
    "ProfilePredictor",
    "TagePredictor",
    "TageState",
    "StaticTrainingPredictor",
    "TwoLevelAdaptivePredictor",
    "automaton_by_name",
    "measure_accuracy",
    "parse_spec",
    "profile_pattern_table",
]
