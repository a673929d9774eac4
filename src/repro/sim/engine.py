"""The branch-prediction simulator core.

Mirrors the paper's methodology: conditional branches go through the
direction predictor under test (predict, verify, update) and are scored;
every other branch class needs no direction prediction and is skipped.

The loop is kept minimal because a full sweep pushes tens of millions of
records through it.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.predictors.base import ConditionalBranchPredictor
from repro.sim.results import PredictionStats
from repro.trace.columnar import PackedTrace, conditional_branches
from repro.trace.record import BranchRecord


def simulate(
    predictor: ConditionalBranchPredictor,
    records: Union[Iterable[BranchRecord], PackedTrace],
) -> PredictionStats:
    """Run ``predictor`` over ``records`` and score it.

    Args:
        predictor: the conditional-branch direction predictor under test.
        records: a branch trace — any iterable of
            :class:`~repro.trace.record.BranchRecord`, or a
            :class:`~repro.trace.columnar.PackedTrace`, whose
            conditional-only columns are read without boxing a record.

    Each conditional branch goes through the predictor's fused
    :meth:`~repro.predictors.base.ConditionalBranchPredictor.observe`
    (predict, then update with the outcome).  Returns the accumulated
    :class:`~repro.sim.results.PredictionStats`.
    """
    total = 0
    correct = 0
    observe = predictor.observe
    for pc, target, taken in conditional_branches(records):
        total += 1
        if observe(pc, target, taken) == taken:
            correct += 1
    return PredictionStats(total, correct)
