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
from repro.trace.columnar import PackedTrace
from repro.trace.record import BranchClass, BranchRecord


def simulate(
    predictor: ConditionalBranchPredictor,
    records: Union[Iterable[BranchRecord], PackedTrace],
) -> PredictionStats:
    """Run ``predictor`` over ``records`` and score it.

    Args:
        predictor: the conditional-branch direction predictor under test.
        records: a branch trace — any iterable of
            :class:`~repro.trace.record.BranchRecord`, or a
            :class:`~repro.trace.columnar.PackedTrace`, which is dispatched
            to the columnar fast path :func:`simulate_packed` automatically.

    Returns the accumulated :class:`~repro.sim.results.PredictionStats`.
    """
    if isinstance(records, PackedTrace):
        return simulate_packed(predictor, records)
    conditional_total = 0
    conditional_correct = 0
    predict = predictor.predict
    update = predictor.update
    CONDITIONAL = BranchClass.CONDITIONAL

    for record in records:
        if record.cls is CONDITIONAL:
            pc = record.pc
            target = record.target
            taken = record.taken
            conditional_total += 1
            if predict(pc, target) == taken:
                conditional_correct += 1
            update(pc, target, taken)

    return PredictionStats(conditional_total, conditional_correct)


def simulate_packed(
    predictor: ConditionalBranchPredictor, packed: PackedTrace
) -> PredictionStats:
    """Columnar twin of :func:`simulate` over a :class:`PackedTrace`.

    Produces statistics identical to replaying ``packed.to_records()``
    through :func:`simulate`: predictors see the same ``(pc, target, taken)``
    sequence with the same types, delivered through the fused
    :meth:`~repro.predictors.base.ConditionalBranchPredictor.observe` hook.
    The loop touches only the precomputed conditional-branch columns
    (non-conditional records cannot influence a direction predictor).
    Skipping the non-conditional records and the fused single-lookup
    observe are where the speedup over the record-list loop comes from.
    """
    conditional_correct = 0
    observe = predictor.observe
    for pc, target, taken in zip(
        packed.cond_pc, packed.cond_target, packed.cond_taken
    ):
        if observe(pc, target, taken) == taken:
            conditional_correct += 1
    return PredictionStats(packed.num_conditional, conditional_correct)
