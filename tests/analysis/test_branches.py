"""Static branch-site extraction: classes, directions, BTFN predictions."""

from repro.analysis import static_branch_table
from repro.isa.assembler import assemble
from repro.trace.record import BranchClass
from tests.analysis.helpers import static_branch_summary

SOURCE = """
_start:
    li r2, 3
loop:
    subi r2, r2, 1
    bnez r2, loop
    bsr sub
    beq r0, r0, done
done:
    halt
sub:
    jmp r1
"""


def _table(source: str = SOURCE):
    return static_branch_table(assemble(source))


class TestTable:
    def test_sites_in_address_order(self):
        pcs = [site.pc for site in _table()]
        assert pcs == sorted(pcs)

    def test_classes(self):
        by_cls = {}
        for site in _table():
            by_cls.setdefault(site.cls, []).append(site)
        assert len(by_cls[BranchClass.CONDITIONAL]) == 2  # bnez, beq
        assert len(by_cls[BranchClass.IMM_UNCONDITIONAL]) == 1  # bsr
        assert len(by_cls[BranchClass.REG_UNCONDITIONAL]) == 1  # jmp
        assert BranchClass.NON_BRANCH not in by_cls

    def test_targets_and_direction(self):
        sites = {s.label: s for s in _table()}
        bnez = sites["loop+0x4"]
        assert bnez.cls is BranchClass.CONDITIONAL
        assert bnez.is_backward is True
        assert bnez.btfn_taken is True
        beq = sites["loop+0xc"]
        assert beq.is_backward is False
        assert beq.btfn_taken is False

    def test_indirect_site_has_no_target(self):
        jmp = next(s for s in _table() if s.cls is BranchClass.REG_UNCONDITIONAL)
        assert jmp.target is None
        assert jmp.is_backward is None
        assert jmp.btfn_taken is None

    def test_call_flag(self):
        bsr = next(s for s in _table() if s.cls is BranchClass.IMM_UNCONDITIONAL)
        assert bsr.is_call

    def test_return_site(self):
        sites = _table(
            """
_start:
    bsr sub
    halt
sub:
    rts
"""
        )
        rts = next(s for s in sites if s.cls is BranchClass.RETURN)
        assert rts.target is None and rts.btfn_taken is None


class TestSummary:
    def test_summary_counts(self):
        summary = static_branch_summary(assemble(SOURCE))
        assert summary["total"] == 4
        assert summary["conditional"] == 2
        assert summary["imm_unconditional"] == 1
        assert summary["reg_unconditional"] == 1
        assert summary["return"] == 0
        assert summary["conditional_backward"] == 1
        assert summary["conditional_forward"] == 1
        assert summary["btfn_predict_taken"] == 1
        assert summary["btfn_predict_not_taken"] == 1

    def test_backward_forward_partition_conditionals(self):
        summary = static_branch_summary(assemble(SOURCE))
        assert (
            summary["conditional_backward"] + summary["conditional_forward"]
            == summary["conditional"]
        )
