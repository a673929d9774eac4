"""The census of ``src/repro`` code no ``src`` module reaches is ruled on.

``tools/census.py`` lists every definition that only tests, benches,
examples or the benchmark harness name.  Each name it may print is kept on
purpose: the README, the docs, a bench, an example or a ROADMAP item
uses it.  A new definition that only tests reach fails here until it is
either reached from ``src`` or ruled on and added below.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    # the walk's execution-order view, documented in docs/analysis.md
    "WalkResult.global_stream",
    # closed-form automaton miss counts: the ROADMAP's combinatorial oracle
    "automaton_constant_misses",
    "automaton_periodic_misses",
    # the README quickstart's scorer
    "measure_accuracy",
    # the Bullseye hybrid item and the delay ablation bench
    "TournamentPredictor",
    "DelayedUpdatePredictor",
    # the interference-analysis example and the convergence bench
    "PatternConflictStats.conflict_rate",
    "PatternConflictStats.contested_fraction",
    "pattern_conflicts",
    "windowed_accuracy",
    "convergence_point",
    # the readers of the binary and text files `repro trace -o` writes
    "read_trace",
    "read_text_trace",
}


def test_census_prints_exactly_the_kept_names():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "census.py"), str(ROOT)],
        capture_output=True,
        text=True,
        check=True,
    )
    printed = {line.split()[1] for line in result.stdout.splitlines() if line.strip()}
    assert printed == KEPT
