"""BranchRecord / InstructionMix semantics."""

from repro.trace.record import BranchClass, BranchRecord, InstructionMix


class TestBranchClass:
    def test_is_branch(self):
        assert BranchClass.CONDITIONAL.is_branch
        assert BranchClass.RETURN.is_branch
        assert not BranchClass.NON_BRANCH.is_branch


class TestBranchRecord:
    def test_backward_detection(self):
        assert BranchRecord(0x2000, BranchClass.CONDITIONAL, True, 0x1000).is_backward
        assert not BranchRecord(0x1000, BranchClass.CONDITIONAL, True, 0x2000).is_backward

    def test_is_call_defaults_false(self):
        assert not BranchRecord(0, BranchClass.CONDITIONAL, True, 4).is_call


class TestInstructionMix:
    def test_counting_and_totals(self):
        mix = InstructionMix()
        mix.count(BranchClass.CONDITIONAL, 10)
        mix.count(BranchClass.RETURN, 2)
        mix.count(BranchClass.IMM_UNCONDITIONAL)
        mix.count(BranchClass.REG_UNCONDITIONAL)
        mix.count(BranchClass.NON_BRANCH, 86)
        assert mix.total_instructions == 100
        assert mix.total_branches == 14
        assert mix.branch_fraction == 0.14

    def test_empty_mix_fractions(self):
        mix = InstructionMix()
        assert mix.branch_fraction == 0.0

    def test_merged(self):
        merged = InstructionMix(conditional=1, returns=2).merged(
            InstructionMix(conditional=10, non_branch=5)
        )
        assert merged.conditional == 11
        assert merged.returns == 2
        assert merged.non_branch == 5
