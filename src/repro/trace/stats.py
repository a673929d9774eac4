"""Trace statistics: taken rates and the static branch census.

The census feeds Table 1 (static conditional branch counts); the Figure 3
and 4 instruction mix is counted by the CPU
(:class:`~repro.trace.record.InstructionMix`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set

from repro.trace.record import BranchClass, BranchRecord


def taken_rate(records: Iterable[BranchRecord]) -> float:
    """Fraction of conditional branches that were taken.

    The paper reports ~60 percent of conditional branches taken across its
    benchmarks; this helper lets tests pin our analogs to the same ballpark.
    """
    taken = 0
    total = 0
    for record in records:
        if record.cls is BranchClass.CONDITIONAL:
            total += 1
            taken += 1 if record.taken else 0
    return taken / total if total else 0.0


@dataclass
class StaticBranchCensus:
    """Static (unique-PC) branch population of a trace (Table 1).

    ``per_class`` maps each branch class to the set of distinct branch PCs
    observed; ``static_conditional`` is the Table 1 number.
    """

    per_class: Dict[BranchClass, Set[int]] = field(default_factory=dict)

    @property
    def static_conditional(self) -> int:
        return len(self.per_class.get(BranchClass.CONDITIONAL, ()))

    def observe(self, record: BranchRecord) -> None:
        self.per_class.setdefault(record.cls, set()).add(record.pc)


def static_branch_census(records: Iterable[BranchRecord]) -> StaticBranchCensus:
    """Count distinct static branches per class over a trace."""
    census = StaticBranchCensus()
    for record in records:
        census.observe(record)
    return census


def conditional_pc_histogram(records: Iterable[BranchRecord]) -> Dict[int, int]:
    """Dynamic execution count per static conditional branch.

    Handy for workload debugging: a healthy analog spreads its dynamic
    branches across many static sites rather than one hot loop.
    """
    histogram: Dict[int, int] = {}
    for record in records:
        if record.cls is BranchClass.CONDITIONAL:
            histogram[record.pc] = histogram.get(record.pc, 0) + 1
    return histogram
