"""Two-pass assembler for the repro ISA.

Source syntax::

    ; full-line or trailing comment ("#" also starts a comment)
    _start:
        li    r2, 100           ; pseudo: load 32-bit immediate
        li    r3, table         ; symbols resolve to absolute addresses
    loop:
        ld    r4, 0(r3)         ; word load, numeric offset only
        addi  r3, r3, 4
        addi  r2, r2, -1
        bgt   r2, r0, loop      ; conditional branch to label
        halt
    .data
    table:  .word 1, 2, 0x10, end-4
    buf:    .space 64           ; 64 zero words

Constants can be named with ``.equ NAME, expression`` (usable anywhere an
expression is), and ``.align N`` advances the data cursor to the next
multiple of ``N`` words.

Each statement is tokenized once.  Pass 1 places labels, checks arity and
resolves all that needs no symbol (registers, numeric immediates, the size of
``li``), building fully resolved statements on the spot through the
``_EMITTERS`` table.  Pass 2 evaluates only the symbolic operands (branch
targets, ``li``/``lui`` of a symbol, ``.word`` expressions) and fills the
slots left open.  Text starts at ``text_base``, data at ``data_base``.

Pseudo-instructions: ``li rd, expr`` (1 or 2 machine instructions), ``mov rd,
rs``, ``subi rd, rs, imm``, ``neg rd, rs``, ``not rd, rs``, and the
zero-compare branches ``beqz/bnez/bltz/bgez/bgtz/blez rs, label``.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import AssemblyError
from repro.isa.instructions import (
    B_FORMAT,
    I_FORMAT,
    IMM16_MAX,
    IMM16_MIN,
    Instruction,
    OFFSET16_MAX,
    OFFSET16_MIN,
    OFFSET26_MAX,
    OFFSET26_MIN,
    Opcode,
    R_FORMAT,
)
from repro.isa.program import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE, Program
from repro.isa.registers import register_number

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_OPERAND_RE = re.compile(r"^(-?[\w.$+\-]*)\((\w+)\)$")
_SYMBOL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_OFFSET_EXPR_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*([+-])\s*(\w+)$")
#: first characters of a token ``int(token, 0)`` can accept
_NUMBER_START = frozenset("0123456789+-")


def _split_operands(rest: str, line_no: int) -> List[str]:
    if not rest:
        return []
    operands = [part.strip() for part in rest.split(",")]
    if "" in operands:
        raise AssemblyError("empty operand", line_no)
    return operands


def _parse_number(token: str) -> Optional[int]:
    """An integer literal (``12``, ``-0x10``, ``1_000``), or ``None``.

    Only ASCII digits count: ``int`` alone would also take any Unicode
    digit, so ``３`` would assemble as 3.
    """
    if token[:1] in _NUMBER_START and token.isascii():
        try:
            return int(token, 0)
        except ValueError:
            return None
    return None


def _register(token: str, line_no: int) -> int:
    try:
        return register_number(token)
    except AssemblyError as exc:
        raise AssemblyError(str(exc), line_no) from None


# Emitters: (opcode, resolved operands, pc, line) -> machine instructions.
Operands = Sequence[int]
Emitter = Callable[[Opcode, Operands, int, int], Tuple[Instruction, ...]]


def _imm16(value: int, line_no: int) -> int:
    if not IMM16_MIN <= value <= IMM16_MAX:
        raise AssemblyError(f"imm16 out of range: {value}", line_no)
    return value


def _as_signed16(value: int) -> int:
    return value - (1 << 16) if value & 0x8000 else value


def _offset(target: int, pc: int, line_no: int, lo: int, hi: int) -> int:
    delta = target - (pc + 4)
    if delta & 3:
        raise AssemblyError(f"branch target {target:#x} not word-aligned", line_no)
    offset = delta >> 2
    if not lo <= offset <= hi:
        raise AssemblyError(f"branch offset out of range: {offset}", line_no)
    return offset


def _fields(op: Opcode, ops: Operands, pc: int, line_no: int):
    # operands fill rd, rs1, rs2 in order: ``add``, ``mov`` (addi rd, rs1, 0), ``halt``
    return (Instruction(op, *ops),)


def _i_format(op: Opcode, ops: Operands, pc: int, line_no: int):
    # also the memory ops: ``ld rd, imm(rs1)`` resolves to (rd, rs1, imm)
    return (Instruction(op, ops[0], ops[1], 0, _imm16(ops[2], line_no)),)


def _logical(op: Opcode, ops: Operands, pc: int, line_no: int):
    # andi/ori/xori take a 16-bit immediate that is either signed or unsigned
    imm = ops[2]
    if not -(1 << 15) <= imm <= 0xFFFF:
        raise AssemblyError(f"imm16 out of range: {imm}", line_no)
    return (Instruction(op, ops[0], ops[1], 0, _as_signed16(imm & 0xFFFF)),)


def _lui(op: Opcode, ops: Operands, pc: int, line_no: int):
    value = ops[1]
    if not 0 <= value <= 0xFFFF:
        raise AssemblyError(f"lui immediate out of range: {value}", line_no)
    return (Instruction(op, ops[0], 0, 0, _as_signed16(value)),)


def _branch(op: Opcode, ops: Operands, pc: int, line_no: int):
    # ``beq rs1, rs2, target``, or the zero-compare pseudo ``beqz rs1, target``
    rs2 = ops[1] if len(ops) == 3 else 0
    offset = _offset(ops[-1], pc, line_no, OFFSET16_MIN, OFFSET16_MAX)
    return (Instruction(op, 0, ops[0], rs2, offset),)


def _jump(op: Opcode, ops: Operands, pc: int, line_no: int):
    return (Instruction(op, 0, 0, 0, _offset(ops[0], pc, line_no, OFFSET26_MIN, OFFSET26_MAX)),)


def _register_jump(op: Opcode, ops: Operands, pc: int, line_no: int):
    return (Instruction(op, 0, ops[0]),)


def _subi(op: Opcode, ops: Operands, pc: int, line_no: int):
    return (Instruction(op, ops[0], ops[1], 0, _imm16(-ops[2], line_no)),)


def _neg(op: Opcode, ops: Operands, pc: int, line_no: int):
    return (Instruction(op, ops[0], 0, ops[1]),)


def _not(op: Opcode, ops: Operands, pc: int, line_no: int):
    return (Instruction(op, ops[0], ops[1], 0, -1),)


def _li(op: Opcode, ops: Operands, pc: int, line_no: int):
    # a numeric literal that fits imm16 is one addi; anything else is lui+ori
    if IMM16_MIN <= ops[1] <= IMM16_MAX:
        return (Instruction(op, ops[0], 0, 0, ops[1]),)
    return _li_long(op, ops, pc, line_no)


def _li_long(op: Opcode, ops: Operands, pc: int, line_no: int):
    # symbols always take the long form: pass 1 sizes ``li`` before they resolve
    rd, value = ops[0], ops[1] & 0xFFFFFFFF
    return (
        Instruction(Opcode.LUI, rd, 0, 0, _as_signed16(value >> 16)),
        Instruction(Opcode.ORI, rd, rd, 0, _as_signed16(value & 0xFFFF)),
    )


def _emitter_table() -> Dict[str, Tuple[Opcode, str, Emitter]]:
    """mnemonic -> (opcode, operand kinds, emitter).

    One kind letter per operand: ``r`` a register, ``i`` an expression,
    ``m`` a memory operand ``imm(rs1)`` (which resolves to rs1, imm).
    """
    formats: List[Tuple[frozenset, str, Emitter]] = [
        (R_FORMAT, "rrr", _fields),
        (frozenset({Opcode.LD, Opcode.ST, Opcode.LDB, Opcode.STB}), "rm", _i_format),
        (frozenset({Opcode.LUI}), "ri", _lui),
        (frozenset({Opcode.ANDI, Opcode.ORI, Opcode.XORI}), "rri", _logical),
        (I_FORMAT, "rri", _i_format),
        (B_FORMAT, "rri", _branch),
        (frozenset({Opcode.BR, Opcode.BSR}), "i", _jump),
        (frozenset({Opcode.JMP, Opcode.JSR}), "r", _register_jump),
        (frozenset({Opcode.RTS, Opcode.NOP, Opcode.HALT}), "", _fields),
    ]
    table = {}
    for opcode in Opcode:
        kinds, emit = next((k, e) for group, k, e in formats if opcode in group)
        table[opcode.name.lower()] = (opcode, kinds, emit)
    table.update({
        "li": (Opcode.ADDI, "ri", _li),
        "mov": (Opcode.ADDI, "rr", _fields),
        "subi": (Opcode.ADDI, "rri", _subi),
        "neg": (Opcode.SUB, "rr", _neg),
        "not": (Opcode.XORI, "rr", _not),
    })
    for name in ("beq", "bne", "blt", "bge", "bgt", "ble"):  # beqz rs, label ...
        table[name + "z"] = (table[name][0], "ri", _branch)
    return table


_EMITTERS = _emitter_table()


def _tokenize(line: str, line_no: int) -> Tuple[Opcode, Emitter, list, bool]:
    """Split an instruction statement into ``(opcode, emitter, operands,
    symbolic)``; operands that need a symbol stay as source text for pass 2."""
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    operands = _split_operands(parts[1] if len(parts) > 1 else "", line_no)
    entry = _EMITTERS.get(mnemonic)
    if entry is None:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_no)
    opcode, kinds, emit = entry
    if len(operands) != len(kinds):
        message = f"{mnemonic} takes {len(kinds)} operand(s), got {len(operands)}"
        raise AssemblyError(message, line_no)
    values: list = []
    symbolic = False
    for kind, token in zip(kinds, operands):
        if kind == "r":
            values.append(_register(token, line_no))
            continue
        if kind == "m":
            match = _MEM_OPERAND_RE.match(token.replace(" ", ""))
            if not match:
                raise AssemblyError(f"bad memory operand {token!r}", line_no)
            values.append(_register(match.group(2), line_no))
            token = match.group(1) or "0"
        value = _parse_number(token)
        if value is None:
            value, symbolic = token, True
        values.append(value)
    if symbolic and emit is _li:
        emit = _li_long
    return opcode, emit, values, symbolic


class _Assembler:
    def __init__(self, source: str, text_base: int, data_base: int):
        self.source = source
        self.text_base = text_base
        self.data_base = data_base
        self.symbols: Dict[str, int] = {}
        # pass 1 fills every slot it can resolve; ``None`` slots wait for pass 2
        self.instructions: List[Optional[Instruction]] = []
        self.data: List[Optional[Tuple[int, int]]] = []
        self.pending_text: List[Tuple[int, Opcode, Emitter, list, int, int]] = []
        self.pending_data: List[Tuple[int, int, str, int]] = []

    # -- expression evaluation (numbers, symbols, symbol +/- number)
    def eval_expr(self, token: str, line_no: int) -> int:
        token = token.strip()
        value = self.symbols.get(token)
        if value is not None:
            return value
        value = _parse_number(token)
        if value is not None:
            return value
        match = _OFFSET_EXPR_RE.match(token)
        if match:
            base = self.eval_expr(match.group(1), line_no)
            offset = _parse_number(match.group(3))
            if offset is None:
                raise AssemblyError(f"bad offset in expression {token!r}", line_no)
            return base + offset if match.group(2) == "+" else base - offset
        if _SYMBOL_RE.match(token):
            raise AssemblyError(f"undefined symbol {token!r}", line_no)
        raise AssemblyError(f"cannot evaluate expression {token!r}", line_no)

    # -- pass 1: tokenize, place labels, resolve what needs no symbol
    def pass1(self) -> None:
        in_text = True
        data_cursor = self.data_base
        text_base, instructions, symbols = self.text_base, self.instructions, self.symbols
        pending = self.pending_text.append
        # generated code repeats statements, so each distinct text is tokenized once
        tokenized: Dict[str, Tuple[Opcode, Emitter, list, bool]] = {}

        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.split(";", 1)[0].split("#", 1)[0].strip()  # drop the comment
            while ":" in line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                label = match.group(1)
                if label in symbols:
                    raise AssemblyError(f"duplicate label {label!r}", line_no)
                symbols[label] = text_base + 4 * len(instructions) if in_text else data_cursor
                line = line[match.end():].strip()
            if not line:
                continue
            if line[0] == ".":
                in_text, data_cursor = self._directive(line, in_text, data_cursor, line_no)
                continue
            if not in_text:
                raise AssemblyError("instruction outside .text section", line_no)
            statement = tokenized.get(line)
            if statement is None:
                statement = tokenized[line] = _tokenize(line, line_no)
            opcode, emit, values, symbolic = statement
            pc = text_base + 4 * len(instructions)
            if symbolic:
                pending((len(instructions), opcode, emit, values, pc, line_no))
                instructions.extend((None, None) if emit is _li_long else (None,))
            else:
                instructions.extend(emit(opcode, values, pc, line_no))

    def _directive(self, line: str, in_text: bool, data_cursor: int, line_no: int):
        """Apply one directive; returns the new (in_text, data_cursor)."""
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".text":
            return True, data_cursor
        if name == ".data":
            return False, data_cursor
        if name == ".equ":
            parts = _split_operands(rest, line_no)
            if len(parts) != 2:
                raise AssemblyError(".equ takes NAME, expression", line_no)
            symbol = parts[0]
            if not _SYMBOL_RE.match(symbol):
                raise AssemblyError(f"bad .equ name {symbol!r}", line_no)
            if symbol in self.symbols:
                raise AssemblyError(f"duplicate label {symbol!r}", line_no)
            self.symbols[symbol] = self.eval_expr(parts[1], line_no)
            return in_text, data_cursor
        if name not in (".align", ".word", ".space"):
            raise AssemblyError(f"unknown directive {name!r}", line_no)
        if in_text:
            raise AssemblyError(f"{name} outside .data section", line_no)
        if name == ".word":
            for expr in _split_operands(rest, line_no):
                value = _parse_number(expr)
                if value is None:
                    self.pending_data.append((len(self.data), data_cursor, expr, line_no))
                else:
                    value &= 0xFFFFFFFF
                self.data.append((data_cursor, value))
                data_cursor += 4
            return in_text, data_cursor
        count = _parse_number(rest)
        if name == ".align":
            if count is None or count < 1:
                raise AssemblyError(f"bad .align count {rest!r}", line_no)
            step = 4 * count
            return in_text, ((data_cursor + step - 1) // step) * step
        if count is None or count < 0:
            raise AssemblyError(f"bad .space count {rest!r}", line_no)
        return in_text, data_cursor + 4 * count

    # -- pass 2: resolve symbolic operands, fill the waiting slots
    def pass2(self) -> None:
        for index, opcode, emit, values, pc, line_no in self.pending_text:
            resolved = [self.eval_expr(v, line_no) if type(v) is str else v for v in values]
            emitted = emit(opcode, resolved, pc, line_no)
            self.instructions[index:index + len(emitted)] = emitted
        for index, address, expr, line_no in self.pending_data:
            self.data[index] = (address, self.eval_expr(expr, line_no) & 0xFFFFFFFF)


def assemble(
    source: str,
    text_base: int = DEFAULT_TEXT_BASE,
    data_base: int = DEFAULT_DATA_BASE,
) -> Program:
    """Assemble ``source`` into a :class:`~repro.isa.program.Program`.

    Raises :class:`~repro.errors.AssemblyError` with the offending line
    number on any syntax or range error.
    """
    assembler = _Assembler(source, text_base, data_base)
    assembler.pass1()
    assembler.pass2()
    return Program(assembler.instructions, assembler.data, assembler.symbols, text_base)
