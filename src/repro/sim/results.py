"""Statistics objects and aggregation for simulation results.

The paper reports *prediction accuracy* per benchmark and three geometric
means per scheme: across all benchmarks ("Tot G Mean"), across the integer
benchmarks ("Int G Mean") and across the floating-point benchmarks
("FP G Mean").  :class:`SweepResult` mirrors that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; empty input returns 0.0, zero values are clamped to a
    tiny positive number so one catastrophic benchmark cannot zero the mean."""
    if not values:
        return 0.0
    total = 0.0
    for value in values:
        total += math.log(max(value, 1e-12))
    return math.exp(total / len(values))


@dataclass
class PredictionStats:
    """Scoring of one predictor over one trace."""

    conditional_total: int = 0
    conditional_correct: int = 0

    @property
    def accuracy(self) -> float:
        """Conditional-branch prediction accuracy (the paper's metric)."""
        if not self.conditional_total:
            return 0.0
        return self.conditional_correct / self.conditional_total

    @property
    def miss_rate(self) -> float:
        """1 - accuracy: the pipeline-flush rate the paper emphasises."""
        return 1.0 - self.accuracy if self.conditional_total else 0.0


@dataclass
class BenchmarkResult:
    """One (scheme, benchmark) cell of a figure."""

    scheme: str
    benchmark: str
    stats: PredictionStats

    @property
    def accuracy(self) -> float:
        return self.stats.accuracy


@dataclass
class SweepResult:
    """A full sweep: scheme -> benchmark -> result, plus the paper's three
    geometric-mean summary columns.

    ``categories`` maps each benchmark to ``"integer"`` or ``"fp"`` so the
    Int/FP means can be computed; benchmarks missing from it are counted only
    in the total mean.
    """

    results: Dict[str, Dict[str, BenchmarkResult]] = field(default_factory=dict)
    categories: Dict[str, str] = field(default_factory=dict)

    def add(self, result: BenchmarkResult, category: Optional[str] = None) -> None:
        self.results.setdefault(result.scheme, {})[result.benchmark] = result
        if category:
            self.categories[result.benchmark] = category

    def schemes(self) -> List[str]:
        return list(self.results)

    def benchmarks(self) -> List[str]:
        names: List[str] = []
        for per_benchmark in self.results.values():
            for name in per_benchmark:
                if name not in names:
                    names.append(name)
        return names

    def accuracy(self, scheme: str, benchmark: str) -> float:
        return self.results[scheme][benchmark].accuracy

    def accuracies(self, scheme: str) -> Dict[str, float]:
        return {name: r.accuracy for name, r in self.results[scheme].items()}

    def mean(self, scheme: str, category: Optional[str] = None) -> float:
        """Geometric mean accuracy for a scheme: the paper's "Tot G Mean"
        (category None), "Int G Mean" (``"integer"``) or "FP G Mean"
        (``"fp"``)."""
        values = [
            result.accuracy
            for benchmark, result in self.results[scheme].items()
            if category is None or self.categories.get(benchmark) == category
        ]
        return geometric_mean(values)
