"""Simulation engine: scoring."""

from repro.predictors.base import ConditionalBranchPredictor
from repro.sim.engine import simulate
from repro.trace.record import BranchClass, BranchRecord


class _Oracle(ConditionalBranchPredictor):
    """Predicts perfectly by peeking at a supplied answer list."""

    def __init__(self, answers):
        self.answers = iter(answers)

    def predict(self, pc, target):
        return next(self.answers)

    def update(self, pc, target, taken):
        pass


def _cond(pc, taken):
    return BranchRecord(pc, BranchClass.CONDITIONAL, taken, pc + 0x40)


class TestScoring:
    def test_counts_correct_and_total(self):
        trace = [_cond(0, True), _cond(4, False), _cond(8, True)]
        stats = simulate(_Oracle([True, True, True]), trace)
        assert stats.conditional_total == 3
        assert stats.conditional_correct == 2
        assert abs(stats.accuracy - 2 / 3) < 1e-12
        assert abs(stats.miss_rate - 1 / 3) < 1e-12

    def test_non_conditionals_not_scored(self):
        trace = [
            _cond(0, True),
            BranchRecord(4, BranchClass.IMM_UNCONDITIONAL, True, 0x80),
            BranchRecord(8, BranchClass.RETURN, True, 0x0C),
        ]
        stats = simulate(_Oracle([True]), trace)
        assert stats.conditional_total == 1

    def test_empty_trace(self):
        stats = simulate(_Oracle([]), [])
        assert stats.accuracy == 0.0
        assert stats.miss_rate == 0.0
