"""Trace statistics: mixes, taken rate, static census."""

from repro.trace.record import BranchClass, BranchRecord
from repro.trace.stats import conditional_pc_histogram, static_branch_census, taken_rate


def _records():
    C, R = BranchClass.CONDITIONAL, BranchClass.RETURN
    return [
        BranchRecord(0x10, C, True, 0x40),
        BranchRecord(0x10, C, False, 0x40),
        BranchRecord(0x20, C, True, 0x60),
        BranchRecord(0x30, R, True, 0x14),
    ]


class TestTakenRate:
    def test_only_conditionals_counted(self):
        assert taken_rate(_records()) == 2 / 3

    def test_empty(self):
        assert taken_rate([]) == 0.0


class TestStaticCensus:
    def test_distinct_pcs_per_class(self):
        census = static_branch_census(_records())
        assert census.static_conditional == 2
        assert census.per_class[BranchClass.RETURN] == {0x30}
        assert BranchClass.IMM_UNCONDITIONAL not in census.per_class


class TestHistogram:
    def test_execution_counts(self):
        histogram = conditional_pc_histogram(_records())
        assert histogram == {0x10: 2, 0x20: 1}
