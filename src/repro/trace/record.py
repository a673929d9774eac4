"""Branch trace record model.

The paper (section 4) classifies M88100 instructions into five classes:
conditional branches, subroutine returns, immediate unconditional branches,
unconditional branches on registers, and non-branch instructions.  The
branch-prediction simulator consumes a stream of *branch* events; the
non-branch instructions only matter for the instruction-mix statistics
(Figure 3), which are carried separately in :class:`InstructionMix`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple


class BranchClass(enum.IntEnum):
    """Branch classes used by the paper's methodology (section 4).

    ``NON_BRANCH`` is included so instruction-mix accounting can use the same
    enumeration; it never appears in a :class:`BranchRecord`.
    """

    CONDITIONAL = 0
    RETURN = 1
    IMM_UNCONDITIONAL = 2
    REG_UNCONDITIONAL = 3
    NON_BRANCH = 4

    @property
    def is_branch(self) -> bool:
        return self is not BranchClass.NON_BRANCH


class BranchRecord(NamedTuple):
    """One dynamic branch event.

    Attributes:
        pc: byte address of the branch instruction.
        cls: which of the four branch classes the instruction belongs to.
        taken: whether the branch was taken.  Unconditional branches and
            returns are always taken.
        target: the branch's *taken-direction* target address, recorded even
            when the branch falls through (direction predictors such as BTFN
            inspect the encoded target; the fall-through address is always
            ``pc + 4``).
        is_call: True for subroutine calls (``bsr``/``jsr``), which push a
            return address consumed later by a RETURN-class branch.
    """

    pc: int
    cls: BranchClass
    taken: bool
    target: int
    is_call: bool = False

    @property
    def is_backward(self) -> bool:
        """Whether the taken target precedes the branch (loop-closing)."""
        return self.target < self.pc


@dataclass
class InstructionMix:
    """Dynamic instruction counts by class (data behind Figures 3 and 4)."""

    conditional: int = 0
    returns: int = 0
    imm_unconditional: int = 0
    reg_unconditional: int = 0
    non_branch: int = 0

    _FIELDS = (
        ("conditional", BranchClass.CONDITIONAL),
        ("returns", BranchClass.RETURN),
        ("imm_unconditional", BranchClass.IMM_UNCONDITIONAL),
        ("reg_unconditional", BranchClass.REG_UNCONDITIONAL),
        ("non_branch", BranchClass.NON_BRANCH),
    )

    @property
    def total_instructions(self) -> int:
        return (
            self.conditional
            + self.returns
            + self.imm_unconditional
            + self.reg_unconditional
            + self.non_branch
        )

    @property
    def total_branches(self) -> int:
        return self.total_instructions - self.non_branch

    @property
    def branch_fraction(self) -> float:
        """Fraction of dynamic instructions that are branches (Figure 3)."""
        total = self.total_instructions
        return self.total_branches / total if total else 0.0

    def count(self, cls: BranchClass, n: int = 1) -> None:
        """Add ``n`` dynamic instructions of class ``cls``."""
        if cls is BranchClass.CONDITIONAL:
            self.conditional += n
        elif cls is BranchClass.RETURN:
            self.returns += n
        elif cls is BranchClass.IMM_UNCONDITIONAL:
            self.imm_unconditional += n
        elif cls is BranchClass.REG_UNCONDITIONAL:
            self.reg_unconditional += n
        else:
            self.non_branch += n

    def merged(self, other: "InstructionMix") -> "InstructionMix":
        """Return a new mix summing ``self`` and ``other``."""
        return InstructionMix(
            conditional=self.conditional + other.conditional,
            returns=self.returns + other.returns,
            imm_unconditional=self.imm_unconditional + other.imm_unconditional,
            reg_unconditional=self.reg_unconditional + other.reg_unconditional,
            non_branch=self.non_branch + other.non_branch,
        )
