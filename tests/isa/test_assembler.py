"""Assembler: syntax, pseudo-instructions, labels, data directives, errors."""

import pytest

from repro.errors import AssemblyError
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE


def run_program(source: str) -> CPU:
    cpu = CPU(assemble(source))
    cpu.run(max_instructions=100_000)
    return cpu


class TestBasicSyntax:
    def test_empty_program(self):
        program = assemble("")
        assert len(program) == 0

    def test_comments_and_blank_lines(self):
        program = assemble(
            """
            ; full line comment
            # hash comment
            nop        ; trailing comment
            halt       # another
            """
        )
        assert [i.opcode for i in program.instructions] == [Opcode.NOP, Opcode.HALT]

    def test_labels_same_line_and_standalone(self):
        program = assemble(
            """
            a: nop
            b:
                nop
            c: d: nop
            """
        )
        assert program.symbols["a"] == DEFAULT_TEXT_BASE
        assert program.symbols["b"] == DEFAULT_TEXT_BASE + 4
        assert program.symbols["c"] == program.symbols["d"] == DEFAULT_TEXT_BASE + 8

    def test_entry_defaults_to_start_symbol(self):
        program = assemble("nop\n_start: halt")
        assert program.entry == DEFAULT_TEXT_BASE + 4

    def test_entry_defaults_to_text_base_without_start(self):
        assert assemble("nop").entry == DEFAULT_TEXT_BASE


class TestInstructions:
    def test_r_format(self):
        program = assemble("add r3, r4, r5")
        assert program.instructions[0] == Instruction(Opcode.ADD, rd=3, rs1=4, rs2=5)

    def test_memory_operands(self):
        program = assemble("ld r2, 8(r3)\nst r4, -4(sp)")
        assert program.instructions[0] == Instruction(Opcode.LD, rd=2, rs1=3, imm=8)
        assert program.instructions[1] == Instruction(Opcode.ST, rd=4, rs1=30, imm=-4)

    def test_memory_operand_default_offset(self):
        program = assemble("ld r2, (r3)")
        assert program.instructions[0].imm == 0

    def test_branch_offsets_forward_and_backward(self):
        program = assemble(
            """
            loop: addi r2, r2, 1
                  beq r2, r3, done
                  br loop
            done: halt
            """
        )
        beq = program.instructions[1]
        assert beq.imm == 1  # skips the br
        br = program.instructions[2]
        assert br.imm == -3

    def test_logical_immediates_accept_unsigned_16bit(self):
        program = assemble("ori r2, r2, 65535\nandi r3, r3, 32768")
        # stored as signed, used as unsigned
        assert program.instructions[0].imm == -1
        assert program.instructions[1].imm == -32768


class TestPseudoInstructions:
    def test_li_small_is_one_instruction(self):
        program = assemble("li r2, 100")
        assert len(program) == 1
        assert program.instructions[0] == Instruction(Opcode.ADDI, rd=2, rs1=0, imm=100)

    def test_li_large_expands_to_lui_ori(self):
        program = assemble("li r2, 0x12345678")
        assert len(program) == 2
        cpu = CPU(assemble("_start: li r2, 0x12345678\nhalt"))
        cpu.run()
        assert cpu.regs[2] == 0x12345678

    def test_li_negative(self):
        cpu = run_program("_start: li r2, -5\nhalt")
        assert cpu.regs[2] == 0xFFFFFFFB

    def test_li_symbol_uses_long_form(self):
        program = assemble("li r2, buf\nhalt\n.data\nbuf: .word 1")
        assert len(program) == 3  # lui+ori+halt
        cpu = CPU(program)
        cpu.run()
        assert cpu.regs[2] == DEFAULT_DATA_BASE

    def test_mov_subi_neg_not(self):
        cpu = run_program(
            """
            _start:
                li r2, 9
                mov r3, r2
                subi r4, r2, 4
                neg r5, r2
                not r6, r0
                halt
            """
        )
        assert cpu.regs[3] == 9
        assert cpu.regs[4] == 5
        assert cpu.regs[5] == (-9) & 0xFFFFFFFF
        assert cpu.regs[6] == 0x0000FFFF  # xori zero-extends its 16-bit immediate

    @pytest.mark.parametrize(
        "mnemonic,value,expect_taken",
        [
            ("beqz", 0, True),
            ("beqz", 1, False),
            ("bnez", 1, True),
            ("bltz", -1, True),
            ("bgez", 0, True),
            ("bgtz", 0, False),
            ("blez", 0, True),
        ],
    )
    def test_zero_branch_pseudos(self, mnemonic, value, expect_taken):
        cpu = run_program(
            f"""
            _start:
                li r2, {value}
                {mnemonic} r2, taken
                li r3, 1
                halt
            taken:
                li r3, 2
                halt
            """
        )
        assert cpu.regs[3] == (2 if expect_taken else 1)


class TestDataDirectives:
    def test_word_values_and_expressions(self):
        program = assemble(
            """
            halt
            .data
            a: .word 1, 2, 0x10
            b: .word a, a+4, b-4
            """
        )
        data = dict(program.data)
        base = DEFAULT_DATA_BASE
        assert data[base] == 1 and data[base + 8] == 0x10
        assert data[base + 12] == base
        assert data[base + 16] == base + 4
        assert data[base + 20] == base + 8

    def test_space_reserves_words(self):
        program = assemble(
            """
            halt
            .data
            a: .space 10
            b: .word 7
            """
        )
        assert program.symbols["b"] == program.symbols["a"] + 40

    def test_data_loads_into_memory(self):
        cpu = run_program(
            """
            _start:
                li r2, table
                ld r3, 4(r2)
                halt
            .data
            table: .word 11, 22, 33
            """
        )
        assert cpu.regs[3] == 22


class TestErrors:
    @pytest.mark.parametrize(
        "source,fragment",
        [
            ("bogus r1, r2", "unknown mnemonic"),
            ("add r1, r2", "takes 3"),
            ("li r1", "takes 2"),
            ("beq r1, r2, nowhere", "undefined symbol"),
            ("x: nop\nx: nop", "duplicate label"),
            (".word 5", "outside .data"),
            ("nop\n.data\nnop", "outside .text"),
            ("ld r1, 99999(r2)", "imm16 out of range"),
            ("addi r1, r2, 40000", "imm16 out of range"),
            (".data\n.space -1", "bad .space"),
            (".frobnicate", "unknown directive"),
            ("add r1, r2, r99", "invalid register"),
        ],
    )
    def test_error_cases(self, source, fragment):
        with pytest.raises(AssemblyError) as excinfo:
            assemble(source)
        assert fragment in str(excinfo.value)

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblyError) as excinfo:
            assemble("nop\nnop\nbogus")
        assert "line 3" in str(excinfo.value)


class TestEquAndAlign:
    def test_equ_constant_in_instructions_and_data(self):
        cpu = run_program(
            """
            .equ SIZE, 10
            .equ DOUBLE, 20
            _start:
                li r2, SIZE
                addi r3, r0, DOUBLE
                halt
            .data
            t: .word SIZE, DOUBLE
            """
        )
        assert cpu.regs[2] == 10
        assert cpu.regs[3] == 20

    def test_equ_referencing_label(self):
        program = assemble(
            """
            halt
            .data
            base: .word 0
            .equ BASE_PLUS, base+8
            next: .word BASE_PLUS
            """
        )
        data = dict(program.data)
        assert data[program.symbols["next"]] == program.symbols["base"] + 8

    def test_align_advances_cursor(self):
        program = assemble(
            """
            halt
            .data
            a: .word 1
            .align 4
            b: .word 2
            """
        )
        assert program.symbols["b"] % 16 == 0
        assert program.symbols["b"] > program.symbols["a"]

    def test_equ_errors(self):
        with pytest.raises(AssemblyError, match="takes NAME"):
            assemble(".equ ONLYNAME")
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble(".equ X, 1\n.equ X, 2")

    def test_align_errors(self):
        with pytest.raises(AssemblyError, match="outside .data"):
            assemble(".align 2")
        with pytest.raises(AssemblyError, match="bad .align"):
            assemble(".data\n.align zero")


class TestErrorParity:
    """One malformed source per ``AssemblyError`` raise site.

    Each case pins the line number and the message (the message must start
    the error text), so a faster assembler cannot change what a user sees.
    """

    @pytest.mark.parametrize(
        "source,line,message",
        [
            ("nop\nadd r1, , r2", 2, "empty operand"),
            ("x: nop\naddi r1, r1, x+y", 2, "bad offset in expression 'x+y'"),
            ("nop\naddi r1, r2, 010", 2, "cannot evaluate expression '010'"),
            ("nop\naddi r1, r2, 1+2", 2, "cannot evaluate expression '1+2'"),
            ("nop\nbeq r1, r2, nowhere", 2, "undefined symbol 'nowhere'"),
            ("nop\nli r1, table+4", 2, "undefined symbol 'table'"),
            (".data\n.word missing", 2, "undefined symbol 'missing'"),
            ("x: nop\nx: nop", 2, "duplicate label 'x'"),
            ("nop\n.equ ONLYNAME", 2, ".equ takes NAME, expression"),
            (".equ 9x, 1", 1, "bad .equ name '9x'"),
            ("x: nop\n.equ x, 1", 2, "duplicate label 'x'"),
            (".equ Y, later\nlater: nop", 1, "undefined symbol 'later'"),
            ("nop\n.align 2", 2, ".align outside .data section"),
            (".data\n.align 0", 2, "bad .align count '0'"),
            (".data\n.align zero", 2, "bad .align count 'zero'"),
            ("nop\n.word 5", 2, ".word outside .data section"),
            ("nop\n.space 4", 2, ".space outside .data section"),
            (".data\n.space -1", 2, "bad .space count '-1'"),
            (".data\n.space", 2, "bad .space count ''"),
            ("nop\n.frobnicate", 2, "unknown directive '.frobnicate'"),
            (".data\n.ascii \"hi\"", 2, "unknown directive '.ascii'"),
            ("nop\n.data\nnop", 3, "instruction outside .text section"),
            ("nop\nli r1", 2, "li takes 2 operand"),
            ("nop\nbogus r1, r2", 2, "unknown mnemonic 'bogus'"),
            ("nop\nlui r1, 0x10000", 2, "lui immediate out of range: 65536"),
            ("lui r1, -1", 1, "lui immediate out of range: -1"),
            ("nop\nandi r1, r1, 0x10000", 2, "imm16 out of range: 65536"),
            ("ori r1, r1, -32769", 1, "imm16 out of range: -32769"),
            ("nop\nadd r1, r2", 2, "add takes 3 operand(s), got 2"),
            ("mov r1", 1, "mov takes 2 operand(s), got 1"),
            ("nop\nhalt r1", 2, "halt takes 0 operand(s), got 1"),
            ("br", 1, "br takes 1 operand(s), got 0"),
            ("x: beqz r1, r2, x", 1, "beqz takes 2 operand(s), got 3"),
            ("nop\nadd r1, r2, r99", 2, "invalid register 'r99'"),
            ("ld r1, 4(r99)", 1, "invalid register 'r99'"),
            ("jmp 4", 1, "invalid register '4'"),
            ("nop\nld r1, r2", 2, "bad memory operand 'r2'"),
            ("nop\nbeq r1, r2, 0x1002", 2, "branch target 0x1002 not word-aligned"),
            ("beq r1, r2, 0x100000", 1, "branch offset out of range: 261119"),
            ("br 0x10000000", 1, "branch offset out of range: 67107839"),
            ("nop\naddi r1, r2, 40000", 2, "imm16 out of range: 40000"),
            ("ld r1, 99999(r2)", 1, "imm16 out of range: 99999"),
            ("subi r1, r1, -32768", 1, "imm16 out of range: 32768"),
            # only ASCII digits are numbers: int() alone takes any Unicode digit
            ("addi r1, r0, \uff13", 1, "cannot evaluate expression '\uff13'"),
            ("ld r1, \uff14(r2)", 1, "cannot evaluate expression '\uff14'"),
            (".data\n.word \u0663", 2, "cannot evaluate expression '\u0663'"),
            (".data\n.space \uff15", 2, "bad .space count '\uff15'"),
            (".data\n.align \uff12", 2, "bad .align count '\uff12'"),
            ("add r1, r2, r\uff13", 1, "invalid register 'r\uff13'"),
            ("add r1, r2, r\u0663", 1, "invalid register 'r\u0663'"),
        ],
    )
    def test_error_message_and_line(self, source, line, message):
        with pytest.raises(AssemblyError) as excinfo:
            assemble(source)
        assert excinfo.value.line == line
        assert str(excinfo.value).startswith(f"line {line}: {message}")

    def test_upper_case_mnemonics_and_registers(self):
        program = assemble("ADD R3, R4, R5\nst r1, 4(R2)")
        assert program.instructions == [
            Instruction(Opcode.ADD, rd=3, rs1=4, rs2=5),
            Instruction(Opcode.ST, rd=1, rs1=2, imm=4),
        ]

    @pytest.mark.parametrize(
        "literal,imm", [("1_000", 1000), ("-0x10", -16), ("0xFFFF", -1)]
    )
    def test_andi_numeric_literals(self, literal, imm):
        program = assemble(f"andi r1, r2, {literal}")
        assert program.instructions == [Instruction(Opcode.ANDI, rd=1, rs1=2, imm=imm)]
