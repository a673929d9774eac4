"""Assembled program image.

A :class:`Program` couples the decoded text segment (a list of instructions
laid out contiguously from ``text_base``), the initial data segment, and the
symbol table produced by the assembler.  It is what the CPU loads and what
the disassembler walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ExecutionError
from repro.isa.instructions import Instruction

DEFAULT_TEXT_BASE = 0x0000_1000
DEFAULT_DATA_BASE = 0x0010_0000


@dataclass
class Program:
    """An executable image.

    Attributes:
        instructions: decoded text segment; instruction ``i`` lives at byte
            address ``text_base + 4 * i``.
        data: initial data segment as ``(address, word)`` pairs.
        symbols: label name -> byte address.
        text_base: base byte address of the text segment.
        entry: byte address execution starts at (defaults to ``text_base``,
            or the ``_start`` symbol when the source defines one).
    """

    instructions: List[Instruction]
    data: List[Tuple[int, int]] = field(default_factory=list)
    symbols: Dict[str, int] = field(default_factory=dict)
    text_base: int = DEFAULT_TEXT_BASE
    entry: int = -1

    def __post_init__(self) -> None:
        if self.entry < 0:
            self.entry = self.symbols.get("_start", self.text_base)

    @property
    def text_end(self) -> int:
        """First byte address past the text segment."""
        return self.text_base + 4 * len(self.instructions)

    def instruction_at(self, address: int) -> Instruction:
        """Fetch the decoded instruction at a byte address."""
        index = (address - self.text_base) >> 2
        if address & 3 or not 0 <= index < len(self.instructions):
            raise ExecutionError("instruction fetch outside text segment", pc=address)
        return self.instructions[index]

    def __len__(self) -> int:
        return len(self.instructions)
