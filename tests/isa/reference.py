"""A single-step reference interpreter for differential testing of the CPU.

It executes one instruction per loop iteration and takes every ALU, immediate
and branch-condition result from the semantics tables in
:mod:`repro.isa.instructions`, so it shares no code with the translated
blocks of :class:`repro.isa.cpu.CPU`.  Memory is a plain dict of word index
to word, exactly the layout of :class:`repro.isa.memory.Memory`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.isa.instructions import (
    ALU_SEMANTICS,
    BRANCH_SEMANTICS,
    IMM_SEMANTICS,
    Opcode,
    branch_class_of,
)
from repro.isa.program import Program
from repro.trace.columnar import pack_flags
from repro.trace.record import BranchClass, InstructionMix

_LINK = 1
_CALLS = (Opcode.BSR, Opcode.JSR)


class ReferenceCPU:
    """State plus a one-instruction-at-a-time ``run``; see :class:`CPU`."""

    def __init__(self, program: Program):
        self.program = program
        self.words: Dict[int, int] = {}
        for address, word in program.data:
            self.words[address >> 2] = word & 0xFFFFFFFF
        self.regs: List[int] = [0] * 32
        self.pc = program.entry
        self.halted = False

    def _write(self, rd: int, value: int) -> None:
        if rd:
            self.regs[rd] = value

    def _word_address(self, address: int, access: str, pc: int) -> int:
        """``address``, or a fault at ``pc`` if it is not word-aligned."""
        if address & 3:
            self.pc = pc
            raise ExecutionError(f"misaligned word {access} at {address:#x}", pc=pc)
        return address

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_conditional_branches: Optional[int] = None,
    ) -> Tuple[List[Tuple[int, int, int]], InstructionMix, int]:
        """Returns ``(events, mix, instructions_executed)``; each event is
        ``(pc, target, flag byte)``.  Faults raise :class:`ExecutionError`
        with ``self.pc`` left on the faulting instruction."""
        program = self.program
        regs = self.regs
        words = self.words
        events: List[Tuple[int, int, int]] = []
        mix = InstructionMix()
        executed = 0
        pc = self.pc
        self.halted = False
        while executed != max_instructions and mix.conditional != max_conditional_branches:
            index = (pc - program.text_base) >> 2
            if pc & 3 or not 0 <= index < len(program.instructions):
                self.pc = pc
                raise ExecutionError("instruction fetch outside text segment", pc=pc)
            op, rd, rs1, rs2, imm = program.instructions[index]
            executed += 1
            next_pc = pc + 4
            cls = branch_class_of(op)
            mix.count(cls)
            if op in ALU_SEMANTICS:
                try:
                    self._write(rd, ALU_SEMANTICS[op](regs[rs1], regs[rs2]))
                except ZeroDivisionError:
                    self.pc = pc
                    raise ExecutionError("division by zero", pc=pc) from None
            elif op in IMM_SEMANTICS:
                self._write(rd, IMM_SEMANTICS[op](regs[rs1], imm))
            elif op is Opcode.LD:
                address = self._word_address(regs[rs1] + imm, "load", pc)
                self._write(rd, words.get(address >> 2, 0))
            elif op is Opcode.ST:
                address = self._word_address(regs[rs1] + imm, "store", pc)
                words[address >> 2] = regs[rd]
            elif op is Opcode.LDB:
                address = regs[rs1] + imm
                word = words.get(address >> 2, 0)
                self._write(rd, (word >> ((3 - (address & 3)) * 8)) & 0xFF)
            elif op is Opcode.STB:
                address = regs[rs1] + imm
                shift = (3 - (address & 3)) * 8
                word = words.get(address >> 2, 0)
                words[address >> 2] = (word & ~(0xFF << shift)) | ((regs[rd] & 0xFF) << shift)
            elif op is Opcode.HALT:
                self.halted = True
                pc = next_pc
                break
            elif cls is not BranchClass.NON_BRANCH:
                if op in BRANCH_SEMANTICS:
                    taken = BRANCH_SEMANTICS[op](regs[rs1], regs[rs2])
                    target = next_pc + 4 * imm
                elif op in (Opcode.BR, Opcode.BSR):
                    taken, target = True, next_pc + 4 * imm
                elif op is Opcode.RTS:
                    taken, target = True, regs[_LINK]
                else:  # jmp, jsr
                    taken, target = True, regs[rs1]
                if op in _CALLS:
                    regs[_LINK] = next_pc
                events.append(
                    (pc, target & 0xFFFFFFFF, pack_flags(taken, cls, op in _CALLS))
                )
                if taken:
                    next_pc = target
            pc = next_pc
        self.pc = pc
        return events, mix, executed
