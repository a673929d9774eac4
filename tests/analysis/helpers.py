"""Shorthands the analysis tests share over the public analysis API."""

from repro.analysis import LoopAnalysis, Resolution, build_cfg
from repro.isa.instructions import registers_written


def loop_summaries(program):
    """The :class:`~repro.analysis.LoopSummary` of every natural loop of
    ``program``, in header order."""
    return LoopAnalysis(resolution=Resolution.of(build_cfg(program))).summarize()


def definitions_at(reaching, address):
    """Every ``(register, address)`` definition that ``reaching`` says
    reaches ``address``, decoded from the block's whole bitset solution.

    The oracle for :meth:`~repro.analysis.ReachingDefinitions.of`, which
    cuts one register's run out of the same solution instead.
    """
    block = reaching.cfg.block_at(address)
    last_def = {}
    for pc, instruction in zip(block.addresses(), block.instructions):
        if pc == address:
            bits = format(reaching.in_bits[block.start], "b")[::-1]
            live = {
                definition
                for definition, bit in zip(reaching.definitions, bits)
                if bit == "1" and definition[0] not in last_def
            }
            return frozenset(live | set(last_def.items()))
        for register in registers_written(instruction):
            last_def[register] = pc
    raise KeyError(f"address {address:#x} is not in block {block.start:#x}")
