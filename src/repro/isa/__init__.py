"""An M88100-flavoured 32-bit RISC: the trace-generating substrate.

The paper drives its branch-prediction simulator with instruction traces from
a Motorola 88100 instruction-level simulator.  This subpackage provides the
equivalent: a small fixed-width RISC with

* 32 general registers (``r0`` hardwired to zero, ``r1`` the link register),
* a two-pass assembler with labels, data directives and pseudo-instructions,
* a binary instruction encoding with a verified encode/decode round-trip,
* an instruction-level interpreter (:class:`~repro.isa.cpu.CPU`) that counts
  the dynamic instruction mix and emits
  :class:`~repro.trace.record.BranchRecord` events for every branch.

The branch classes match the paper's methodology exactly: conditional
branches, subroutine returns (``rts``), immediate unconditional branches
(``br``/``bsr``), and unconditional branches on registers (``jmp``/``jsr``).
"""

#: bump when the assembler or the CPU would turn the same program text into
#: a different trace (an encoding, an instruction's effect, a fault, the
#: trace the interpreter emits); part of every trace store key
#: (:func:`repro.trace.store.content_key`), so no stale trace survives it.
SEMANTICS_VERSION = 1

from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, CPUResult
from repro.isa.disassembler import disassemble_instruction, disassemble_program
from repro.isa.encoding import decode, encode
from repro.isa.instructions import Instruction, Opcode, branch_class_of
from repro.isa.memory import Memory
from repro.isa.program import Program
from repro.isa.registers import LINK_REGISTER, NUM_REGISTERS, SP_REGISTER, register_number

__all__ = [
    "CPU",
    "CPUResult",
    "Instruction",
    "LINK_REGISTER",
    "Memory",
    "NUM_REGISTERS",
    "Opcode",
    "Program",
    "SEMANTICS_VERSION",
    "SP_REGISTER",
    "assemble",
    "branch_class_of",
    "decode",
    "disassemble_instruction",
    "disassemble_program",
    "encode",
    "register_number",
]
