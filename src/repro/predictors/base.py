"""Predictor interface shared by every scheme.

A conditional-branch direction predictor sees, at fetch time, the branch's
address and its (statically encoded) taken-direction target, and answers
taken/not-taken.  After the branch resolves it is told the outcome.  The
simulation engine (:mod:`repro.sim.engine`) drives exactly this
predict-then-update protocol over a trace.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.trace.record import BranchClass, BranchRecord


class ConditionalBranchPredictor(ABC):
    """Base class for conditional-branch direction predictors."""

    @abstractmethod
    def predict(self, pc: int, target: int) -> bool:
        """Predict the branch at ``pc`` whose taken-direction target is
        ``target``.  Returns True for taken."""

    @abstractmethod
    def update(self, pc: int, target: int, taken: bool) -> None:
        """Inform the predictor of the resolved outcome."""

    def observe(self, pc: int, target: int, taken: bool) -> bool:
        """Score one resolved branch: predict it, apply the outcome, and
        return the prediction that was made.

        Must behave exactly like :meth:`predict` followed by :meth:`update`
        (the default does literally that).  Schemes whose two halves share a
        table lookup override this to do the lookup once; the columnar fast
        path in :func:`repro.sim.engine.simulate_packed` drives predictors
        through this hook."""
        prediction = self.predict(pc, target)
        self.update(pc, target, taken)
        return prediction

    def reset(self) -> None:
        """Restore start-of-execution state.  Stateless schemes need not
        override this."""

    @property
    def name(self) -> str:
        """Display name; defaults to the class name, overridden by schemes
        that carry a Table 2 spec string."""
        return type(self).__name__


def measure_accuracy(
    predictor: ConditionalBranchPredictor, records: Iterable[BranchRecord]
) -> float:
    """Convenience scorer: run ``predictor`` over the conditional branches of
    ``records`` and return the prediction accuracy in [0, 1].

    This is the small-scale sibling of the full engine in
    :mod:`repro.sim.engine` (which returns the full
    :class:`~repro.sim.results.PredictionStats`); examples and tests use
    this one.
    """
    correct = 0
    total = 0
    conditional = BranchClass.CONDITIONAL
    for record in records:
        if record.cls is not conditional:
            continue
        prediction = predictor.predict(record.pc, record.target)
        predictor.update(record.pc, record.target, record.taken)
        total += 1
        if prediction == record.taken:
            correct += 1
    return correct / total if total else 0.0
