"""Interpreter semantics: every opcode, limits, branch records, mix counts."""

import pytest

from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.trace.record import BranchClass


def run(source: str, **kwargs) -> CPU:
    cpu = CPU(assemble(source))
    cpu.result = cpu.run(**kwargs)
    return cpu


class TestArithmetic:
    def test_add_sub_wraparound(self):
        cpu = run(
            """
            _start:
                li r2, 0x7FFFFFFF
                addi r3, r2, 1
                li r4, 0
                addi r4, r4, -1
                add r5, r4, r4
                sub r6, r0, r4
                halt
            """
        )
        assert cpu.regs[3] == 0x80000000
        assert cpu.regs[4] == 0xFFFFFFFF
        assert cpu.regs[5] == 0xFFFFFFFE
        assert cpu.regs[6] == 1

    def test_mul_signed(self):
        cpu = run("_start: li r2, -3\nli r3, 7\nmul r4, r2, r3\nmuli r5, r2, -2\nhalt")
        assert cpu.regs[4] == (-21) & 0xFFFFFFFF
        assert cpu.regs[5] == 6

    def test_div_rem_truncate_toward_zero(self):
        cpu = run(
            """
            _start:
                li r2, -7
                li r3, 2
                divs r4, r2, r3
                rems r5, r2, r3
                halt
            """
        )
        assert cpu.regs[4] == (-3) & 0xFFFFFFFF
        assert cpu.regs[5] == (-1) & 0xFFFFFFFF

    def test_division_by_zero_faults(self):
        with pytest.raises(ExecutionError):
            run("_start: divs r2, r3, r0\nhalt")

    def test_logical_and_shifts(self):
        cpu = run(
            """
            _start:
                li r2, 0xF0F0
                li r3, 0x0FF0
                and r4, r2, r3
                or r5, r2, r3
                xor r6, r2, r3
                shli r7, r2, 4
                shri r8, r2, 4
                li r9, -16
                srai r10, r9, 2
                halt
            """
        )
        assert cpu.regs[4] == 0x00F0
        assert cpu.regs[5] == 0xFFF0
        assert cpu.regs[6] == 0xFF00
        assert cpu.regs[7] == 0xF0F00
        assert cpu.regs[8] == 0x0F0F
        assert cpu.regs[10] == (-4) & 0xFFFFFFFF

    def test_register_shift_masks_amount(self):
        cpu = run("_start: li r2, 1\nli r3, 33\nshl r4, r2, r3\nhalt")
        assert cpu.regs[4] == 2  # 33 & 31 == 1

    def test_r0_writes_discarded(self):
        cpu = run("_start: addi r0, r0, 99\nadd r0, r0, r0\nhalt")
        assert cpu.regs[0] == 0

    def test_lui_and_logical_zero_extension(self):
        cpu = run("_start: lui r2, 0x8000\nori r3, r0, 0x8000\nhalt")
        assert cpu.regs[2] == 0x80000000
        assert cpu.regs[3] == 0x00008000


class TestMemory:
    def test_word_and_byte_access(self):
        cpu = run(
            """
            _start:
                li r2, buf
                li r3, 0x11223344
                st r3, 0(r2)
                ld r4, 0(r2)
                ldb r5, 0(r2)
                ldb r6, 3(r2)
                li r7, 0xAA
                stb r7, 1(r2)
                ld r8, 0(r2)
                halt
            .data
            buf: .space 2
            """
        )
        assert cpu.regs[4] == 0x11223344
        assert cpu.regs[5] == 0x11  # big-endian: byte 0 is the MSB
        assert cpu.regs[6] == 0x44
        assert cpu.regs[8] == 0x11AA3344

    #: a loop's two branches, then one word access at ``buf + 2``
    MISALIGNED = """
        _start:
            li r2, 2
        loop:
            subi r2, r2, 1
            bnez r2, loop
            li r3, buf
            li r4, 7
            {access} 2(r3)
            halt
        .data
        buf: .space 2
    """

    @pytest.mark.parametrize(
        "access,message",
        [
            ("ld r4,", "misaligned word load"),
            ("ld r0,", "misaligned word load"),  # a discarded result still faults
            ("st r4,", "misaligned word store"),
        ],
    )
    def test_misaligned_word_access_faults(self, access, message):
        program = assemble(self.MISALIGNED.format(access=access))
        cpu = CPU(program)
        with pytest.raises(ExecutionError, match=message) as caught:
            cpu.run()
        fault = caught.value
        assert fault.pc == cpu.pc
        assert program.instruction_at(fault.pc).opcode.name.lower() == access[:2]
        assert [record.taken for record in fault.trace] == [True, False]
        assert cpu.regs[4] == 7
        assert not any(cpu.memory._words.values())  # the store never landed

    def test_byte_access_needs_no_alignment(self):
        cpu = run(self.MISALIGNED.format(access="stb r4,").replace("halt", "ldb r5, 2(r3)\nhalt"))
        assert cpu.result.halted
        assert cpu.regs[5] == 7


class TestControlFlow:
    def test_call_and_return(self):
        cpu = run(
            """
            _start:
                li r2, 1
                bsr f
                addi r2, r2, 100
                halt
            f:  addi r2, r2, 10
                rts
            """
        )
        assert cpu.regs[2] == 111

    def test_jsr_jmp_via_register(self):
        cpu = run(
            """
            _start:
                li r3, f
                jsr r3
                li r4, g
                jmp r4
                halt            ; skipped
            f:  addi r2, r2, 5
                rts
            g:  addi r2, r2, 7
                halt
            """
        )
        assert cpu.regs[2] == 12

    def test_branch_records_classes_and_calls(self):
        cpu = run(
            """
            _start:
                beq r0, r0, next    ; conditional taken
            next:
                bne r0, r0, never   ; conditional not taken
                bsr f
                li r3, f
                jsr r3
                br end
            never:
                nop
            f:  rts
            end: halt
            """
        )
        records = cpu.result.branch_records
        classes = [record.cls for record in records]
        assert classes == [
            BranchClass.CONDITIONAL,
            BranchClass.CONDITIONAL,
            BranchClass.IMM_UNCONDITIONAL,  # bsr
            BranchClass.RETURN,
            BranchClass.REG_UNCONDITIONAL,  # jsr
            BranchClass.RETURN,
            BranchClass.IMM_UNCONDITIONAL,  # br
        ]
        assert records[0].taken is True
        assert records[1].taken is False
        assert records[2].is_call and records[4].is_call
        assert not records[0].is_call

    def test_conditional_record_keeps_taken_target_when_not_taken(self):
        cpu = run(
            """
            _start:
                bne r0, r0, away
                halt
            away: halt
            """
        )
        record = cpu.result.branch_records[0]
        assert record.taken is False
        assert record.target == cpu.program.symbols["away"]

    def test_signed_comparisons(self):
        cpu = run(
            """
            _start:
                li r2, -1
                li r3, 1
                blt r2, r3, ok      ; -1 < 1 signed (would fail unsigned)
                halt
            ok: li r4, 1
                halt
            """
        )
        assert cpu.regs[4] == 1


class TestLimitsAndAccounting:
    def test_max_instructions(self):
        cpu = run("_start: br _start", max_instructions=10)
        assert cpu.result.instructions_executed == 10
        assert not cpu.result.halted

    def test_max_conditional_branches(self):
        cpu = run(
            """
            _start: beq r0, r0, _start
            """,
            max_conditional_branches=7,
        )
        assert cpu.result.mix.conditional == 7

    def test_mix_counts(self):
        cpu = run(
            """
            _start:
                nop
                beq r0, r0, next
            next:
                bsr f
                br end
            f:  rts
            end: halt
            """
        )
        mix = cpu.result.mix
        assert mix.conditional == 1
        assert mix.imm_unconditional == 2  # bsr + br
        assert mix.returns == 1
        assert mix.non_branch == 2  # nop + halt
        assert mix.total_instructions == cpu.result.instructions_executed

    def test_branch_columns_agree_with_mix(self):
        cpu = run("_start: beq r0, r0, next\nnext: halt")
        packed = cpu.result.packed
        assert list(packed.pc) == [cpu.program.text_base]
        assert list(packed.target) == [cpu.program.symbols["next"]]
        assert packed.flags == b"\x01"  # conditional, taken
        assert cpu.result.mix.conditional == packed.num_conditional == 1
        assert cpu.result.branch_records is cpu.result.branch_records  # boxed once

    def test_replaced_register_file_is_honoured(self):
        cpu = CPU(assemble("_start: addi r3, r2, 1\nhalt"))
        cpu.run()
        cpu.regs = [0] * 32
        cpu.regs[2] = 41
        cpu.pc = cpu.program.entry
        cpu.run()
        assert cpu.regs[3] == 42

    def test_fetch_outside_text_faults(self):
        with pytest.raises(ExecutionError):
            run("_start: li r2, 0\njmp r2")

    def test_fault_carries_the_branches_before_it(self):
        source = "_start: li r2, 2\nloop: subi r2, r2, 1\nbnez r2, loop\ndivs r3, r3, r2\nhalt"
        cpu = CPU(assemble(source))
        with pytest.raises(ExecutionError) as caught:
            cpu.run()
        trace = caught.value.trace
        assert caught.value.pc == cpu.pc
        assert [record.taken for record in trace] == [True, False]
        assert {record.cls for record in trace} == {BranchClass.CONDITIONAL}

    def test_run_resumes_from_current_pc(self):
        cpu = CPU(assemble("_start: nop\nnop\nnop\nhalt"))
        first = cpu.run(max_instructions=2)
        assert first.instructions_executed == 2
        second = cpu.run()
        assert second.halted
        assert second.instructions_executed == 2  # nop + halt
