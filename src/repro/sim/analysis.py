"""Interference and convergence analysis.

The paper attributes accuracy differences to two interference mechanisms —
history interference in finite HRTs (section 3.1 / Figure 6) and the shared
global pattern table — and to warm-up ("adaptive training").  This module
measures all three directly from a trace, turning the paper's qualitative
arguments into numbers:

* :func:`pattern_conflicts` — for each history pattern, how contested its
  pattern-table entry is: the fraction of updates disagreeing with the
  entry's majority outcome.  An entry shared by branches that continue the
  same pattern differently is the PT-interference the paper accepts as the
  cost of a *global* second level.
* :func:`windowed_accuracy` — accuracy over consecutive windows of the
  trace, exposing the warm-up transient that separates adaptive schemes
  from profiled ones at short trace scales.
* :func:`convergence_point` — the first window from which accuracy stays
  within a tolerance of its final level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.families import family_of
from repro.predictors.spec import PredictorSpec, parse_spec
from repro.sim.backend import resolve_backend
from repro.sim.engine import simulate
from repro.trace.columnar import PackedTrace, conditional_branches, pack_records
from repro.trace.record import BranchClass, BranchRecord


@dataclass
class PatternConflictStats:
    """Contestedness of the shared pattern table for one trace."""

    history_length: int
    updates_total: int
    minority_updates: int
    contested_patterns: int
    patterns_used: int

    @property
    def conflict_rate(self) -> float:
        """Fraction of pattern-table updates that went against the entry's
        majority — an upper bound on the accuracy lost to PT sharing."""
        return self.minority_updates / self.updates_total if self.updates_total else 0.0

    @property
    def contested_fraction(self) -> float:
        """Fraction of used patterns whose continuations disagree at all."""
        return (
            self.contested_patterns / self.patterns_used if self.patterns_used else 0.0
        )


def pattern_conflicts(
    records: Iterable[BranchRecord], history_length: int = 12
) -> PatternConflictStats:
    """Measure how contested each global pattern-table entry would be.

    Replays per-address histories (ideal table, all-ones init, as the
    predictor does) and tallies, per pattern, the taken/not-taken
    continuations it receives from *all* branches combined.
    """
    if history_length < 1:
        raise ConfigError(f"history length must be >= 1, got {history_length}")
    mask = (1 << history_length) - 1
    histories: Dict[int, int] = {}
    taken_counts: Dict[int, int] = {}
    total_counts: Dict[int, int] = {}

    for record in records:
        if record.cls is not BranchClass.CONDITIONAL:
            continue
        history = histories.get(record.pc, mask)
        total_counts[history] = total_counts.get(history, 0) + 1
        if record.taken:
            taken_counts[history] = taken_counts.get(history, 0) + 1
        histories[record.pc] = ((history << 1) | (1 if record.taken else 0)) & mask

    updates = sum(total_counts.values())
    minority = 0
    contested = 0
    for pattern, total in total_counts.items():
        taken = taken_counts.get(pattern, 0)
        smaller_side = min(taken, total - taken)
        minority += smaller_side
        if smaller_side:
            contested += 1
    return PatternConflictStats(
        history_length=history_length,
        updates_total=updates,
        minority_updates=minority,
        contested_patterns=contested,
        patterns_used=len(total_counts),
    )


def windowed_accuracy(
    predictor: ConditionalBranchPredictor,
    records: Iterable[BranchRecord],
    window: int = 1_000,
) -> List[float]:
    """Prediction accuracy over consecutive windows of ``window``
    conditional branches (the final partial window is included).

    Each window is one :func:`repro.sim.engine.simulate` call; the
    predictor carries its state from window to window."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    conditional = (record for record in records if record.cls is BranchClass.CONDITIONAL)
    accuracies: List[float] = []
    while True:
        chunk = list(islice(conditional, window))
        if not chunk:
            return accuracies
        accuracies.append(simulate(predictor, chunk).accuracy)


def per_site_accuracy_many(
    predictors: "Dict[str, ConditionalBranchPredictor]",
    records: "Union[Iterable[BranchRecord], PackedTrace]",
) -> Dict[str, Dict[int, "tuple[int, int]"]]:
    """Per-site ``(correct, total)`` for several predictors in one pass.

    The scalar replay behind :func:`per_site_scores`: the trace is read
    once and every predictor observes each conditional record in turn.
    A :class:`PackedTrace` is read through its conditional-only columns,
    as :func:`repro.sim.engine.simulate` reads it.
    """
    names = list(predictors)
    correct: Dict[str, Dict[int, int]] = {name: {} for name in names}
    observers = [(predictors[name].observe, correct[name]) for name in names]
    total: Dict[int, int] = {}
    for pc, target, taken in conditional_branches(records):
        total[pc] = total.get(pc, 0) + 1
        for observe, scheme_correct in observers:
            if observe(pc, target, taken) == taken:
                scheme_correct[pc] = scheme_correct.get(pc, 0) + 1
    return {
        name: {pc: (correct[name].get(pc, 0), n) for pc, n in total.items()}
        for name in names
    }


def per_site_accuracy_specs(
    specs: Sequence[str],
    records: "Union[Sequence[BranchRecord], PackedTrace]",
) -> Dict[str, Dict[int, "tuple[int, int]"]]:
    """Per-site maps for spec strings through the fused sweep kernel.

    The vector twin of :func:`per_site_accuracy_many`: the trace packs
    once (a :class:`PackedTrace` is used as it is) and every spec scores
    through :func:`repro.sim.sweep.fused_per_site` (shared per-pc
    grouping, shared history windows, one two-level scan per group), with
    tallies identical to the replay loop.  Maps are keyed by spec string;
    profiled schemes profile ``records`` themselves.
    """
    from repro.sim.sweep import fused_per_site

    if isinstance(records, PackedTrace):
        packed = records
    else:
        packed = pack_records(
            record for record in records if record.cls is BranchClass.CONDITIONAL
        )
    maps = fused_per_site(
        [parse_spec(text) for text in specs], packed, trainings={"test": packed}
    )
    return dict(zip(specs, maps))


def per_site_replay(
    specs: "Dict[str, PredictorSpec]",
    records: "Union[Sequence[BranchRecord], PackedTrace]",
) -> Dict[str, Dict[int, "tuple[int, int]"]]:
    """Per-site maps for already-parsed specs on the scalar engine.

    One fresh predictor per spec replays ``records``
    (:func:`per_site_accuracy_many`); maps are keyed like ``specs``.
    Profile and ST-Same profile ``records``.  A caller scoring many short
    streams parses its specs once and calls this per stream, which is
    cheaper than the fused kernel's per-call set-up.
    """
    predictors = {}
    for key, spec in specs.items():
        profiles_records = family_of(spec).training_role(spec) == "test"
        predictors[key] = spec.build(training_records=records if profiles_records else None)
    return per_site_accuracy_many(predictors, records)


def per_site_scores(
    specs: Sequence[str],
    records: "Union[Sequence[BranchRecord], PackedTrace]",
    backend: Optional[str] = None,
) -> Dict[str, Dict[int, "tuple[int, int]"]]:
    """Per-site ``(correct, total)`` for every spec string over ``records``.

    The one place per-site scoring picks its backend: the fused kernel
    (:func:`per_site_accuracy_specs`) on ``vector``, one scalar predictor
    per spec (:func:`per_site_replay`) on ``scalar``.  ``backend`` is
    ``auto``, ``scalar`` or ``vector``, or ``None`` for the process
    default (``REPRO_BACKEND``).  ``records`` may be a
    :class:`PackedTrace`, which the fused kernel reads without unboxing.
    Profile and ST-Same profile ``records`` on both backends; a spec that
    profiles a separate training trace (ST-Diff) cannot be scored here.
    """
    if resolve_backend(backend) == "vector":
        return per_site_accuracy_specs(specs, records)
    return per_site_replay({text: parse_spec(text) for text in specs}, records)


def misprediction_mass(
    per_site: "Dict[int, tuple[int, int]]",
) -> Dict[int, int]:
    """Per-site misprediction counts from a :func:`per_site_scores` map."""
    return {pc: n - correct for pc, (correct, n) in per_site.items()}


def top_mispredicted(
    per_site: "Dict[int, tuple[int, int]]", n: int = 5
) -> List[int]:
    """The ``n`` sites carrying the most mispredictions, heaviest first
    (pc breaks ties) — the dynamic side of the static H2P ranking.
    Sites with zero mispredictions never rank."""
    ranked = [
        (mass, pc)
        for pc, mass in misprediction_mass(per_site).items()
        if mass > 0
    ]
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return [pc for _, pc in ranked[:n]]


def accuracy_within_bounds(
    per_site: "Dict[int, tuple[int, int]]",
    bounds: "Dict[int, tuple[int, int, int]]",
) -> List[str]:
    """Check dynamic per-site results against static intervals.

    ``bounds`` maps pc -> ``(lower, upper, occurrences)``: the statically
    proven correct-prediction interval and the expected execution count.
    Returns human-readable violation strings (empty = all within bounds).
    Sites absent from either map are reported — a bound for a site that
    never runs, or a dynamic site the analysis missed, is itself a bug.
    """
    violations: List[str] = []
    for pc in sorted(set(per_site) | set(bounds)):
        if pc not in bounds:
            violations.append(f"{pc:#010x}: dynamic site has no static bound")
            continue
        if pc not in per_site:
            violations.append(f"{pc:#010x}: bounded site never executed")
            continue
        correct, total = per_site[pc]
        lower, upper, occurrences = bounds[pc]
        if total != occurrences:
            violations.append(
                f"{pc:#010x}: occurrence mismatch "
                f"(static {occurrences}, dynamic {total})"
            )
        if not lower <= correct <= upper:
            violations.append(
                f"{pc:#010x}: correct={correct} outside static bound "
                f"[{lower}, {upper}]"
            )
    return violations


def convergence_point(
    accuracies: Sequence[float], tolerance: float = 0.01
) -> Optional[int]:
    """Index of the first window from which accuracy never drops more than
    ``tolerance`` below the final window's level (None if it never settles)."""
    if not accuracies:
        return None
    final = accuracies[-1]
    for index in range(len(accuracies)):
        if all(value >= final - tolerance for value in accuracies[index:]):
            return index
    return None  # pragma: no cover - index len-1 always qualifies
