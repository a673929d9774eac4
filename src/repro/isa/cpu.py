"""Instruction-level interpreter with branch-trace hooks.

This is the counterpart of the paper's Motorola 88100 ISIM: it executes an
assembled :class:`~repro.isa.program.Program`, counts the dynamic
instruction mix per class (Figures 3 and 4), and appends every executed
branch to the columns of a :class:`~repro.trace.columnar.PackedTrace`.

Execution is closure-threaded over basic blocks, the translation-cache
technique of Shade (Cmelik & Keppel, SIGMETRICS 1994).  The first time
control reaches a pc, the straight-line run up to the next control transfer
is translated into a tuple of specialised closures, one per instruction
that has an effect (NOPs and writes to ``r0`` are dropped, ``r0`` sources
fold to constants), plus a terminator closure.  The terminator evaluates
the branch, appends its pc, target and flag byte to the trace columns and
returns the next pc.  The driver loop then runs whole blocks, so an
instruction costs one Python call rather than a walk down an opcode chain,
and no :class:`~repro.trace.record.BranchRecord` is boxed unless a caller
asks for :attr:`CPUResult.branch_records`.

Translations live on the :class:`CPU` instance and die with it, so every
cold trace build pays for its own.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import is_not
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.isa.instructions import ALU_SEMANTICS, IMM_SEMANTICS, Opcode
from repro.isa.memory import Memory
from repro.isa.program import Program
from repro.trace.columnar import _ADDR_TYPECODE, PackedTrace, pack_flags
from repro.trace.record import BranchClass, BranchRecord, InstructionMix

_WORD = 0xFFFFFFFF
_LINK = 1  # r1, the bsr/jsr link register

#: flag bytes of the unconditional branch events (columnar layout)
_RETURN = pack_flags(True, BranchClass.RETURN, False)
_IMM = pack_flags(True, BranchClass.IMM_UNCONDITIONAL, False)
_IMM_CALL = pack_flags(True, BranchClass.IMM_UNCONDITIONAL, True)
_REG = pack_flags(True, BranchClass.REG_UNCONDITIONAL, False)
_REG_CALL = pack_flags(True, BranchClass.REG_UNCONDITIONAL, True)

#: a ``max_instructions`` no run can reach
_NO_LIMIT = 1 << 62

#: opcodes that end a block: HALT and every branch
_CONTROL = frozenset(op for op in Opcode if op == Opcode.HALT or op >= Opcode.BEQ)

#: ops whose only effect is writing ``rd`` (dropped when ``rd`` is r0);
#: a word load is not one, as a misaligned address faults
_PURE = (
    frozenset(ALU_SEMANTICS) | frozenset(IMM_SEMANTICS) | {Opcode.LDB}
) - {Opcode.DIVS, Opcode.REMS}
#: register-register ops whose result is a constant when both sources are
#: r0 (every immediate op folds when its source is r0)
_FOLDABLE_ALU = _PURE & frozenset(ALU_SEMANTICS)

Op = Callable[[], None]
Terminator = Callable[[], int]
#: (effect closures, instruction count, 1 if it ends in a conditional
#: branch else 0, terminator returning the next pc, or None for HALT)
Block = Tuple[Tuple[Op, ...], int, int, Optional[Terminator]]


@dataclass
class CPUResult:
    """Outcome of one :meth:`CPU.run` call."""

    mix: InstructionMix
    packed: PackedTrace
    instructions_executed: int
    halted: bool
    final_pc: int
    _records: Optional[List[BranchRecord]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def branch_records(self) -> List[BranchRecord]:
        """The branch events as records (boxed on first use, then cached)."""
        if self._records is None:
            self._records = self.packed.to_records()
        return self._records

    @property
    def conditional_branches(self) -> int:
        return self.mix.conditional


# ----------------------------------------------------------------------
# Translation of non-control instructions.
#
# Each factory takes (regs, words, rd, rs1, rs2, imm, pc) and returns the
# closure that executes one instruction.  The ops the bundled workloads
# execute most (each about 1% or more of their dynamic instructions) and
# the memory ops get hand-specialised closures; every other ALU op calls
# its function in the semantics tables of repro.isa.instructions.  Closures
# spell 0xFFFFFFFF and 0x80000000 as literals because a constant load is
# cheaper than a global lookup.  Products are taken unsigned, which equals
# the signed product modulo 2**32.
# ----------------------------------------------------------------------
_EFFECTS: Dict[int, Callable[..., Op]] = {}


def _effect(opcode: Opcode) -> Callable[[Callable[..., Op]], Callable[..., Op]]:
    def register(factory: Callable[..., Op]) -> Callable[..., Op]:
        _EFFECTS[opcode] = factory
        return factory
    return register


@_effect(Opcode.ADDI)
def _addi(regs, words, rd, rs1, rs2, imm, pc):
    def addi() -> None:
        regs[rd] = (regs[rs1] + imm) & 0xFFFFFFFF
    return addi


@_effect(Opcode.ADD)
def _add(regs, words, rd, rs1, rs2, imm, pc):
    def add() -> None:
        regs[rd] = (regs[rs1] + regs[rs2]) & 0xFFFFFFFF
    return add


@_effect(Opcode.SUB)
def _sub(regs, words, rd, rs1, rs2, imm, pc):
    def sub() -> None:
        regs[rd] = (regs[rs1] - regs[rs2]) & 0xFFFFFFFF
    return sub


@_effect(Opcode.MUL)
def _mul(regs, words, rd, rs1, rs2, imm, pc):
    def mul() -> None:
        regs[rd] = (regs[rs1] * regs[rs2]) & 0xFFFFFFFF
    return mul


@_effect(Opcode.XOR)
def _xor(regs, words, rd, rs1, rs2, imm, pc):
    def xor() -> None:
        regs[rd] = regs[rs1] ^ regs[rs2]
    return xor


@_effect(Opcode.MULI)
def _muli(regs, words, rd, rs1, rs2, imm, pc):
    def muli() -> None:
        regs[rd] = (regs[rs1] * imm) & 0xFFFFFFFF
    return muli


@_effect(Opcode.ANDI)
def _andi(regs, words, rd, rs1, rs2, imm, pc):
    mask = imm & 0xFFFF

    def andi() -> None:
        regs[rd] = regs[rs1] & mask
    return andi


@_effect(Opcode.SHLI)
def _shli(regs, words, rd, rs1, rs2, imm, pc):
    shift = imm & 31

    def shli() -> None:
        regs[rd] = (regs[rs1] << shift) & 0xFFFFFFFF
    return shli


@_effect(Opcode.SRAI)
def _srai(regs, words, rd, rs1, rs2, imm, pc):
    shift = imm & 31

    def srai() -> None:
        regs[rd] = (((regs[rs1] ^ 0x80000000) - 0x80000000) >> shift) & 0xFFFFFFFF
    return srai


@_effect(Opcode.LD)
def _ld(regs, words, rd, rs1, rs2, imm, pc):
    load = words.get
    if not rd:
        def ld_r0() -> None:  # the load's only effect is its fault
            address = regs[rs1] + imm
            if address & 3:
                raise ExecutionError(f"misaligned word load at {address:#x}", pc=pc)
        return ld_r0

    def ld() -> None:
        address = regs[rs1] + imm
        if address & 3:
            raise ExecutionError(f"misaligned word load at {address:#x}", pc=pc)
        regs[rd] = load(address >> 2, 0)
    return ld


@_effect(Opcode.ST)
def _st(regs, words, rd, rs1, rs2, imm, pc):
    def st() -> None:
        address = regs[rs1] + imm
        if address & 3:
            raise ExecutionError(f"misaligned word store at {address:#x}", pc=pc)
        words[address >> 2] = regs[rd]
    return st


@_effect(Opcode.LDB)
def _ldb(regs, words, rd, rs1, rs2, imm, pc):
    load = words.get

    def ldb() -> None:
        address = regs[rs1] + imm
        regs[rd] = (load(address >> 2, 0) >> ((3 - (address & 3)) * 8)) & 0xFF
    return ldb


@_effect(Opcode.STB)
def _stb(regs, words, rd, rs1, rs2, imm, pc):
    load = words.get

    def stb() -> None:
        address = regs[rs1] + imm
        index = address >> 2
        shift = (3 - (address & 3)) * 8
        words[index] = (load(index, 0) & ~(0xFF << shift)) | ((regs[rd] & 0xFF) << shift)
    return stb


def _translate_effect(
    regs: List[int], words: Dict[int, int], op: int, rd: int, rs1: int, rs2: int, imm: int,
    pc: int,
) -> Optional[Op]:
    """The closure for one non-control instruction, or None if it has no effect."""
    if op == Opcode.NOP or (op in _PURE and not rd):
        return None  # a pure op's only effect would be a discarded write to r0
    if (op in IMM_SEMANTICS and not rs1) or (op in _FOLDABLE_ALU and not rs1 | rs2):
        value = IMM_SEMANTICS[op](0, imm) if op in IMM_SEMANTICS else ALU_SEMANTICS[op](0, 0)

        def const() -> None:
            regs[rd] = value
        return const
    factory = _EFFECTS.get(op)
    if factory is not None:
        return factory(regs, words, rd, rs1, rs2, imm, pc)
    if op in IMM_SEMANTICS:
        immediate_semantics = IMM_SEMANTICS[op]

        def immediate() -> None:
            regs[rd] = immediate_semantics(regs[rs1], imm)
        return immediate
    if op in ALU_SEMANTICS:
        semantics = ALU_SEMANTICS[op]

        def alu() -> None:  # divs/rems run even for rd == r0: they may fault
            try:
                value = semantics(regs[rs1], regs[rs2])
            except ZeroDivisionError:
                raise ExecutionError("division by zero", pc=pc) from None
            if rd:
                regs[rd] = value
        return alu

    def unimplemented() -> None:  # pragma: no cover - the enum is closed
        raise ExecutionError(f"unimplemented opcode {op}", pc=pc)
    return unimplemented


# ----------------------------------------------------------------------
# Translation of block terminators.
# ----------------------------------------------------------------------
#: conditional branches as (signed "a < b" on sign-flipped values, else
#: "a == b"; operands swapped; outcomes swapped)
_CONDITIONS = {
    Opcode.BEQ: (False, False, False),
    Opcode.BNE: (False, False, True),
    Opcode.BLT: (True, False, False),
    Opcode.BGE: (True, False, True),
    Opcode.BGT: (True, True, False),
    Opcode.BLE: (True, True, True),
}
_CALLS = frozenset({Opcode.BSR, Opcode.JSR})
_JUMP_FLAGS = {
    Opcode.BR: _IMM,
    Opcode.BSR: _IMM_CALL,
    Opcode.RTS: _RETURN,
    Opcode.JMP: _REG,
    Opcode.JSR: _REG_CALL,
}


def _translate_terminator(
    regs: List[int], columns: Tuple[array, array, bytearray], op: int, rs1: int, rs2: int,
    imm: int, pc: int,
) -> Terminator:
    """The closure that runs one branch, logs its event and returns the next pc."""
    log_pc, log_target, log_flag = (column.append for column in columns)
    fall = pc + 4
    target = fall + (imm << 2)
    logged_target = target & _WORD
    condition = _CONDITIONS.get(op)
    if condition is not None:
        signed_less, operands_swapped, outcomes_swapped = condition
        a, b = (rs2, rs1) if operands_swapped else (rs1, rs2)
        hit, hit_flag, miss, miss_flag = (
            (fall, 0, target, 1) if outcomes_swapped else (target, 1, fall, 0)
        )
        if signed_less:
            def less() -> int:
                log_pc(pc)
                log_target(logged_target)
                if regs[a] ^ 0x80000000 < regs[b] ^ 0x80000000:
                    log_flag(hit_flag)
                    return hit
                log_flag(miss_flag)
                return miss
            return less

        def equal() -> int:
            log_pc(pc)
            log_target(logged_target)
            if regs[a] == regs[b]:
                log_flag(hit_flag)
                return hit
            log_flag(miss_flag)
            return miss
        return equal

    flag = _JUMP_FLAGS[op]
    call = op in _CALLS
    if op in (Opcode.BR, Opcode.BSR):
        def branch() -> int:
            if call:
                regs[_LINK] = fall
            log_pc(pc)
            log_target(logged_target)
            log_flag(flag)
            return target
        return branch

    source = _LINK if op == Opcode.RTS else rs1

    def jump() -> int:  # rts, jmp, jsr: the target comes from a register
        destination = regs[source]
        if call:
            regs[_LINK] = fall
        log_pc(pc)
        log_target(destination & 0xFFFFFFFF)
        log_flag(flag)
        return destination
    return jump


class CPU:
    """The interpreter.

    Args:
        program: assembled program; its data segment is loaded into memory.
        memory: optional pre-populated :class:`~repro.isa.memory.Memory`
            (a fresh one is created otherwise).

    Registers are exposed as the ``regs`` list for tests and for workloads
    that want to pass parameters in registers. ``r0`` reads as zero; writes
    to it are discarded.
    """

    def __init__(self, program: Program, memory: Optional[Memory] = None):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        for address, word in program.data:
            self.memory.store_word(address, word)
        self.regs: List[int] = [0] * 32
        self.pc = program.entry
        self.halted = False
        # translation cache: block start pc -> Block, valid for the
        # (program, regs, memory words) objects the closures were built over
        self._blocks: Dict[int, Block] = {}
        self._bound = self._closed_over()
        # trace columns the terminators append to (copied out per run)
        self._columns = (array(_ADDR_TYPECODE), array(_ADDR_TYPECODE), bytearray())

    def _closed_over(self) -> Tuple[object, ...]:
        return (self.program, self.regs, self.memory._words)  # noqa: SLF001 - same package

    def _translation_cache(self) -> Dict[int, Block]:
        """The block cache, emptied if the state it closed over was replaced."""
        bound = self._closed_over()
        if any(map(is_not, bound, self._bound)):
            self._blocks = {}
            self._bound = bound
        return self._blocks

    def _translate(self, pc: int, limit: int = _NO_LIMIT) -> Block:
        """Translate the block starting at ``pc``, at most ``limit`` long.

        A block ends after its first control transfer, at the end of the
        text segment, or after ``limit`` instructions; the last two fall
        through to the next pc.
        """
        program = self.program
        instrs = program.instructions
        index = (pc - program.text_base) >> 2
        if pc & 3 or not 0 <= index < len(instrs):
            raise ExecutionError("instruction fetch outside text segment", pc=pc)
        regs = self.regs
        words = self.memory._words  # noqa: SLF001 - same package
        ops: List[Op] = []
        at = pc
        end = min(len(instrs), index + limit)
        while index < end:
            op, rd, rs1, rs2, imm = instrs[index]
            index += 1
            if op in _CONTROL:
                length = ((at - pc) >> 2) + 1
                if op == Opcode.HALT:
                    return tuple(ops), length, 0, None
                terminator = _translate_terminator(regs, self._columns, op, rs1, rs2, imm, at)
                return tuple(ops), length, int(op in _CONDITIONS), terminator
            effect = _translate_effect(regs, words, op, rd, rs1, rs2, imm, at)
            if effect is not None:
                ops.append(effect)
            at += 4
        return tuple(ops), (at - pc) >> 2, 0, lambda: at

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_conditional_branches: Optional[int] = None,
    ) -> CPUResult:
        """Execute until HALT or a limit is reached.

        Args:
            max_instructions: stop after this many dynamic instructions.
            max_conditional_branches: stop after this many conditional
                branches have executed (the paper's per-benchmark cap).

        A limit stops execution exactly, even inside a block, and a later
        ``run`` resumes from the stop.  A fault raises
        :class:`~repro.errors.ExecutionError` with ``pc`` (and ``self.pc``)
        at the faulting instruction and ``trace`` holding the branches
        executed before it.
        """
        blocks = self._translation_cache()
        lookup = blocks.get
        translate = self._translate
        pcs, targets, flags = self._columns
        del pcs[:], targets[:], flags[:]

        limit_i = (
            max_instructions
            if max_instructions is not None and max_instructions >= 0
            else _NO_LIMIT
        )
        limit_b = max_conditional_branches if max_conditional_branches is not None else -1
        pc = self.pc
        executed = n_cond = 0
        halted = False
        try:
            while executed != limit_i and n_cond != limit_b:
                block = lookup(pc)
                if block is None:
                    block = blocks[pc] = translate(pc)
                ops, length, conditional, terminator = block
                if executed + length > limit_i:
                    ops, length, conditional, terminator = translate(pc, limit_i - executed)
                for op in ops:
                    op()
                executed += length
                if terminator is None:
                    halted = True
                    pc += length << 2
                    break
                pc = terminator()
                n_cond += conditional
        except ExecutionError as exc:
            self.pc = exc.pc
            exc.trace = PackedTrace(pcs[:], targets[:], bytes(flags))
            raise

        self.pc = pc
        self.halted = halted
        packed = PackedTrace(pcs[:], targets[:], bytes(flags))
        count = flags.count
        mix = InstructionMix(
            conditional=n_cond,
            returns=count(_RETURN),
            imm_unconditional=count(_IMM) + count(_IMM_CALL),
            reg_unconditional=count(_REG) + count(_REG_CALL),
            non_branch=executed - len(flags),
        )
        del pcs[:], targets[:], flags[:]
        return CPUResult(
            mix=mix,
            packed=packed,
            instructions_executed=executed,
            halted=halted,
            final_pc=pc,
        )
