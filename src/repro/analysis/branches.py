"""Static branch-site extraction.

The static analog of the trace pipeline's census: every branch instruction
in a program, classified per the paper's section 4 taxonomy, with its
encoded target, backward/forward direction and the static BTFN prediction —
all computed straight from the decoding, without executing anything.

Register-indirect control flow (``jmp``/``jsr``/``rts``) has no encoded
target, so those sites carry ``target=None``; direction and BTFN are
defined only for sites with a static target.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.isa.instructions import B_FORMAT, Opcode, branch_class_of
from repro.isa.program import Program
from repro.trace.record import BranchClass

_IMMEDIATE_TARGET = B_FORMAT | {Opcode.BR, Opcode.BSR}


class BranchSite(NamedTuple):
    """One static branch instruction.

    Attributes:
        pc: byte address of the branch.
        opcode: the branch mnemonic's opcode.
        cls: paper taxonomy class (conditional / return / imm / reg).
        target: encoded taken-direction target, or None when the target is
            register-indirect (``jmp``/``jsr``/``rts``).
        is_call: True for ``bsr``/``jsr``.
        label: symbolic name for ``pc`` when the symbol table offers one.
    """

    pc: int
    opcode: Opcode
    cls: BranchClass
    target: Optional[int]
    is_call: bool
    label: Optional[str]

    @property
    def is_backward(self) -> Optional[bool]:
        """Whether the encoded target precedes the branch; None if indirect."""
        return None if self.target is None else self.target < self.pc

    @property
    def btfn_taken(self) -> Optional[bool]:
        """The static BTFN prediction for a conditional site.

        Matches :class:`repro.predictors.static_schemes.BTFNPredictor`:
        predict taken exactly when the target is backward.  None for
        non-conditional sites (they need no direction prediction).
        """
        if self.cls is not BranchClass.CONDITIONAL or self.target is None:
            return None
        return self.target < self.pc


def _nearest_labels(program: Program) -> Dict[int, str]:
    """Map each text address to the nearest preceding symbol (with offset)."""
    text_symbols = sorted(
        (value, name)
        for name, value in program.symbols.items()
        if program.text_base <= value < program.text_end
    )
    labels: Dict[int, str] = {}
    index = -1
    for address in range(program.text_base, program.text_end, 4):
        while (
            index + 1 < len(text_symbols)
            and text_symbols[index + 1][0] <= address
        ):
            index += 1
        if index >= 0:
            value, name = text_symbols[index]
            delta = address - value
            labels[address] = name if delta == 0 else f"{name}+{delta:#x}"
    return labels


def static_branch_table(program: Program) -> List[BranchSite]:
    """Every branch site in ``program``, in address order."""
    labels = _nearest_labels(program)
    sites: List[BranchSite] = []
    for index, instruction in enumerate(program.instructions):
        if not instruction.is_branch:
            continue
        pc = program.text_base + 4 * index
        opcode = instruction.opcode
        target: Optional[int] = None
        if opcode in _IMMEDIATE_TARGET:
            target = pc + 4 + 4 * instruction.imm
        sites.append(
            BranchSite(
                pc=pc,
                opcode=opcode,
                cls=branch_class_of(opcode),
                target=target,
                is_call=opcode in (Opcode.BSR, Opcode.JSR),
                label=labels.get(pc),
            )
        )
    return sites


def conditional_sites(program: Program) -> List[BranchSite]:
    """The conditional subset of :func:`static_branch_table`, in address
    order — the population the predictability analysis classifies (every
    conditional site has an encoded target, so ``target`` is never None)."""
    return [
        site
        for site in static_branch_table(program)
        if site.cls is BranchClass.CONDITIONAL
    ]
