"""Sparse data memory.

Word-granular storage over a dict keyed by word index, so workloads can place
data anywhere in the 32-bit address space without reserving it.  The CPU's
translated ``ld``/``st``/``ldb``/``stb`` closures read and write that dict
directly; byte accesses use big-endian order within the word, matching the
M88100.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ExecutionError

WORD_MASK = 0xFFFFFFFF


class Memory:
    """Byte-addressed, word-backed sparse memory.

    Unwritten locations read as zero.  :meth:`store_word`, which loads a
    program's data segment, requires a 4-byte aligned address and raises
    :class:`~repro.errors.ExecutionError` otherwise.
    """

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}

    def store_word(self, address: int, value: int) -> None:
        if address & 3:
            raise ExecutionError(f"misaligned word store at {address:#x}")
        self._words[address >> 2] = value & WORD_MASK

    def clear(self) -> None:
        self._words.clear()
