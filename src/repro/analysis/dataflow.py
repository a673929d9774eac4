"""Dataflow analyses over the control-flow graph.

Two classic bit-vector analyses, specialised to the register file:

* **Reaching definitions** (forward, may): which instruction last wrote
  each register on *some* path.  Every register is seeded with a virtual
  :data:`UNINITIALIZED` definition at the program entry, so "every
  definition reaching this read is the virtual one" means the read observes
  a register no instruction has written — the R003 lint rule.
* **Liveness** (backward, may): which registers may still be read before
  being overwritten.  A register write whose value is never live is a dead
  store — the R007 lint rule.

Both reuse :func:`repro.isa.instructions.registers_read` /
:func:`~repro.isa.instructions.registers_written`, so the analyses track
the interpreter's semantics (stores read ``rd``, calls define the link
register, ``rts`` reads it) without restating them.  ``r0`` is hardwired
zero and excluded throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.isa.instructions import Opcode, registers_read, registers_written
from repro.isa.registers import NUM_REGISTERS

from repro.analysis.cfg import ControlFlowGraph

#: Virtual definition address meaning "never written since program entry".
UNINITIALIZED = -1

#: A definition: ``(register, address)`` where ``address`` is the byte
#: address of the writing instruction, or :data:`UNINITIALIZED`.
Definition = Tuple[int, int]


def _analysis_order(cfg: ControlFlowGraph) -> List[int]:
    """Reverse post-order of the reachable blocks, then the rest."""
    order = cfg.reverse_post_order()
    seen = set(order)
    order.extend(start for start in sorted(cfg.blocks) if start not in seen)
    return order


@dataclass
class ReachingDefinitions:
    """Fixpoint solution: the definitions reaching each block's entry."""

    cfg: ControlFlowGraph
    #: the definition of each bit of a solution
    definitions: List[Definition] = field(repr=False)
    #: block start -> the bits of the definitions reaching the block
    in_bits: Dict[int, int] = field(repr=False)
    #: register -> (its lowest bit, its definition addresses in bit order)
    register_defs: Dict[int, Tuple[int, Tuple[int, ...]]] = field(repr=False)

    def of(self, register: int, address: int) -> Tuple[int, ...]:
        """Addresses of the definitions of ``register`` reaching ``address``
        (:data:`UNINITIALIZED` for the virtual entry definition).

        A definition earlier in the block is the only one that reaches;
        otherwise the answer is the register's run of bits in the block's
        in-set, walked lowest bit first.
        """
        block = self.cfg.block_at(address)
        offset = address - block.start
        if offset & 3:
            raise KeyError(f"address {address:#x} is not in block {block.start:#x}")
        instructions = block.instructions
        for index in range((offset >> 2) - 1, -1, -1):
            if register in registers_written(instructions[index]):
                return (block.start + 4 * index,)
        return self.addresses(register, self.entering_bits(register, block.start))

    def entering_bits(self, register: int, start: int) -> int:
        """``register``'s run of bits in the in-set of block ``start``:
        bit ``i`` is set when its ``i``-th definition reaches the block."""
        low, addresses = self.register_defs.get(register, (0, ()))
        return (self.in_bits[start] >> low) & ((1 << len(addresses)) - 1)

    def addresses(self, register: int, bits: int) -> Tuple[int, ...]:
        """The addresses of the definitions of ``register`` that ``bits``
        (a run from :meth:`entering_bits`) names, lowest bit first."""
        addresses = self.register_defs.get(register, (0, ()))[1]
        found: List[int] = []
        while bits:
            lowest = bits & -bits
            found.append(addresses[lowest.bit_length() - 1])
            bits ^= lowest
        return tuple(found)

    def definitely_uninitialized_reads(self) -> List[Tuple[int, int]]:
        """``(address, register)`` pairs where every reaching definition of a
        read register is the virtual entry definition.

        Reads with *no* reaching definition (unreachable code) are skipped —
        that is R001's territory.
        """
        findings: List[Tuple[int, int]] = []
        for start in sorted(self.cfg.blocks):
            block = self.cfg.blocks[start]
            written: Set[int] = set()
            for pc, instruction in zip(block.addresses(), block.instructions):
                for register in registers_read(instruction):
                    if register == 0 or register in written:
                        continue
                    bits = self.entering_bits(register, start)
                    if self.addresses(register, bits) == (UNINITIALIZED,):
                        findings.append((pc, register))
                written.update(registers_written(instruction))
        return findings


def reaching_definitions(cfg: ControlFlowGraph) -> ReachingDefinitions:
    """Solve forward may reaching-definitions over ``cfg``.

    The fixpoint runs on bitsets: only a block's *last* definition of each
    register can escape it, so the definition universe is the per-block gen
    pairs plus the virtual entry definitions — small enough to give every
    definition a bit and solve with integer ``|``/``&`` instead of
    per-element frozenset rebuilds.
    """
    last_defs: Dict[int, Dict[int, int]] = {}
    addresses: Dict[int, List[int]] = {
        register: [] for register in range(1, NUM_REGISTERS)
    }
    for start, block in cfg.blocks.items():
        last_def: Dict[int, int] = {}
        for pc, instruction in zip(block.addresses(), block.instructions):
            for register in registers_written(instruction):
                last_def[register] = pc
        last_defs[start] = last_def
        for register, pc in last_def.items():
            addresses[register].append(pc)

    # number the definitions register by register, the virtual entry one
    # last: each register's bits are one contiguous run, which is how
    # ``ReachingDefinitions.of`` cuts one register out of a solution
    definitions: List[Definition] = []
    index_of: Dict[Definition, int] = {}
    register_defs: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    register_bits: Dict[int, int] = {}
    entry_bits = 0
    for register, run in addresses.items():
        run.append(UNINITIALIZED)
        register_defs[register] = (len(definitions), tuple(run))
        register_bits[register] = ((1 << len(run)) - 1) << len(definitions)
        for address in run:
            index_of[(register, address)] = len(definitions)
            definitions.append((register, address))
        entry_bits |= 1 << (len(definitions) - 1)

    # a block generates its last definition of each register it writes and
    # kills every other definition of that register
    gen_bits: Dict[int, int] = {}
    keep_mask: Dict[int, int] = {}
    universe = (1 << len(definitions)) - 1
    for start, last_def in last_defs.items():
        bits = killed = 0
        for item in last_def.items():
            bits |= 1 << index_of[item]
            killed |= register_bits[item[0]]
        gen_bits[start] = bits
        keep_mask[start] = universe & ~killed

    predecessors: Dict[int, List[int]] = {
        start: [edge.src for edge in cfg.predecessors(start)]
        for start in cfg.blocks
    }
    in_bits: Dict[int, int] = {start: 0 for start in cfg.blocks}
    out_bits: Dict[int, int] = {start: 0 for start in cfg.blocks}
    order = _analysis_order(cfg)
    changed = True
    while changed:
        changed = False
        for start in order:
            merged = entry_bits if start == cfg.entry else 0
            for src in predecessors[start]:
                merged |= out_bits[src]
            new_out = (merged & keep_mask[start]) | gen_bits[start]
            if merged != in_bits[start] or new_out != out_bits[start]:
                in_bits[start] = merged
                out_bits[start] = new_out
                changed = True

    return ReachingDefinitions(
        cfg=cfg,
        definitions=definitions,
        in_bits=in_bits,
        register_defs=register_defs,
    )


@dataclass
class LivenessResult:
    """Fixpoint solution: registers live at each block boundary."""

    cfg: ControlFlowGraph
    block_in: Dict[int, FrozenSet[int]]
    block_out: Dict[int, FrozenSet[int]]

    def dead_stores(self) -> List[Tuple[int, int]]:
        """``(address, register)`` pairs where a written register is not live
        afterwards.

        Calls are exempt (the link register is an ABI effect, not a value
        computation), as is any block that can leave the graph through an
        indirect edge — the candidate-target sets are approximate, so a
        value could flow somewhere liveness cannot see.
        """
        findings: List[Tuple[int, int]] = []
        for start in sorted(self.cfg.blocks):
            block = self.cfg.blocks[start]
            live: Set[int] = set(self.block_out[start])
            pcs = list(block.addresses())
            for pc, instruction in zip(
                reversed(pcs), reversed(block.instructions)
            ):
                written = registers_written(instruction)
                if written and instruction.opcode not in (Opcode.BSR, Opcode.JSR):
                    for register in written:
                        if register not in live:
                            findings.append((pc, register))
                live.difference_update(written)
                live.update(r for r in registers_read(instruction) if r)
        findings.sort()
        return findings


def liveness(cfg: ControlFlowGraph) -> LivenessResult:
    """Solve backward may liveness over ``cfg``."""
    use: Dict[int, FrozenSet[int]] = {}
    defs: Dict[int, FrozenSet[int]] = {}
    for start, block in cfg.blocks.items():
        block_use: Set[int] = set()
        block_def: Set[int] = set()
        for instruction in block.instructions:
            block_use.update(
                r
                for r in registers_read(instruction)
                if r and r not in block_def
            )
            block_def.update(registers_written(instruction))
        use[start] = frozenset(block_use)
        defs[start] = frozenset(block_def)

    block_in: Dict[int, FrozenSet[int]] = {
        start: frozenset() for start in cfg.blocks
    }
    block_out: Dict[int, FrozenSet[int]] = {
        start: frozenset() for start in cfg.blocks
    }
    order = list(reversed(_analysis_order(cfg)))
    changed = True
    while changed:
        changed = False
        for start in order:
            merged: Set[int] = set()
            for edge in cfg.successors(start):
                merged.update(block_in[edge.dst])
            new_out = frozenset(merged)
            new_in = use[start] | (new_out - defs[start])
            if new_out != block_out[start] or new_in != block_in[start]:
                block_out[start] = new_out
                block_in[start] = new_in
                changed = True
    return LivenessResult(cfg=cfg, block_in=block_in, block_out=block_out)
