"""Sparse memory semantics, including byte/word consistency properties.

Loads and byte stores go through the CPU's ``ld``/``ldb``/``stb``, the
only code that reads or writes memory while a program runs; ``Memory``
itself keeps the data-segment ``store_word`` and ``clear``.
"""

from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.isa.memory import Memory
from repro.isa.program import Program


@lru_cache(maxsize=None)
def _program(source: str) -> Program:
    return assemble(source)


def _execute(memory: Memory, source: str, address: int, value: int = 0) -> CPU:
    """Run ``source`` over ``memory`` with ``r2 = address`` and ``r3 = value``."""
    cpu = CPU(_program(source), memory)
    cpu.regs[2] = address
    cpu.regs[3] = value
    cpu.run()
    return cpu


def load_word(memory: Memory, address: int) -> int:
    return _execute(memory, "_start: ld r4, 0(r2)\nhalt", address).regs[4]


def load_byte(memory: Memory, address: int) -> int:
    return _execute(memory, "_start: ldb r4, 0(r2)\nhalt", address).regs[4]


def store_byte(memory: Memory, address: int, value: int) -> None:
    _execute(memory, "_start: stb r3, 0(r2)\nhalt", address, value)


class TestWords:
    def test_unwritten_reads_zero(self):
        assert load_word(Memory(), 0x1000) == 0

    def test_store_load(self):
        memory = Memory()
        memory.store_word(0x2000, 0xDEADBEEF)
        assert load_word(memory, 0x2000) == 0xDEADBEEF

    def test_values_masked_to_32_bits(self):
        memory = Memory()
        memory.store_word(0, 1 << 40 | 5)
        assert load_word(memory, 0) == 5

    @pytest.mark.parametrize("address", [1, 2, 3, 0x1001])
    def test_misaligned_word_access_faults(self, address):
        memory = Memory()
        with pytest.raises(ExecutionError):
            memory.store_word(address, 0)

    def test_bulk_store_load(self):
        # the CPU stores a program's data segment word by word
        program = assemble("_start: halt\n.data\nbuf: .word 1, 2, 3\n")
        memory = CPU(program).memory
        base = program.symbols["buf"]
        assert [load_word(memory, base + 4 * i) for i in range(5)] == [1, 2, 3, 0, 0]

    def test_footprint_and_clear(self):
        memory = Memory()
        memory.store_word(0, 1)
        memory.store_word(4, 2)
        memory.store_word(0, 3)  # overwrite, not new
        assert len(memory._words) == 2
        assert load_word(memory, 0) == 3
        memory.clear()
        assert not memory._words
        assert load_word(memory, 0) == 0


class TestBytes:
    def test_big_endian_layout(self):
        memory = Memory()
        memory.store_word(0, 0x11223344)
        assert [load_byte(memory, i) for i in range(4)] == [0x11, 0x22, 0x33, 0x44]

    def test_store_byte_updates_word(self):
        memory = Memory()
        store_byte(memory, 2, 0xAB)
        assert load_word(memory, 0) == 0x0000AB00

    @given(
        word=st.integers(0, 0xFFFFFFFF),
        position=st.integers(0, 3),
        value=st.integers(0, 255),
    )
    def test_byte_write_read_consistent_with_word(self, word, position, value):
        memory = Memory()
        memory.store_word(0, word)
        store_byte(memory, position, value)
        assert load_byte(memory, position) == value
        # other bytes untouched
        for other in range(4):
            if other != position:
                assert load_byte(memory, other) == (word >> ((3 - other) * 8)) & 0xFF

    @given(values=st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_word_equals_composed_bytes(self, values):
        memory = Memory()
        for offset, value in enumerate(values):
            store_byte(memory, offset, value)
        expected = (
            values[0] << 24 | values[1] << 16 | values[2] << 8 | values[3]
        )
        assert load_word(memory, 0) == expected
