"""Program image: symbols, bounds, fetch."""

import pytest

from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.isa.instructions import Opcode
from repro.isa.program import DEFAULT_TEXT_BASE, Program


@pytest.fixture()
def program():
    return assemble(
        """
        _start:
            nop
        target:
            halt
        .data
        value: .word 42
        """
    )


class TestProgram:
    def test_text_bounds(self, program):
        assert program.text_end == DEFAULT_TEXT_BASE + 4 * len(program)

    def test_instruction_at(self, program):
        assert program.instruction_at(DEFAULT_TEXT_BASE).opcode is Opcode.NOP
        with pytest.raises(ExecutionError):
            program.instruction_at(program.text_end)
        with pytest.raises(ExecutionError):
            program.instruction_at(DEFAULT_TEXT_BASE + 2)  # misaligned

    def test_custom_bases(self):
        custom = assemble("halt", text_base=0x4000, data_base=0x8000)
        assert custom.entry == 0x4000
        assert custom.instruction_at(0x4000).opcode is Opcode.HALT

    def test_explicit_entry_preserved(self):
        explicit = Program(instructions=[], entry=0x1234)
        assert explicit.entry == 0x1234
