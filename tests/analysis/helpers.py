"""Shorthands the analysis tests share over the public analysis API."""

from repro.analysis import LoopAnalysis, Resolution, build_cfg, static_branch_table
from repro.isa.instructions import registers_written
from repro.trace.record import BranchClass

_CLASS_KEYS = {
    BranchClass.CONDITIONAL: "conditional",
    BranchClass.RETURN: "return",
    BranchClass.IMM_UNCONDITIONAL: "imm_unconditional",
    BranchClass.REG_UNCONDITIONAL: "reg_unconditional",
}


def static_branch_summary(program):
    """Counts over :func:`~repro.analysis.static_branch_table`: ``total``,
    one per branch class, the conditional-direction split
    (``conditional_backward`` / ``conditional_forward``) and the split of
    the sites' static BTFN predictions (``btfn_predict_taken`` /
    ``btfn_predict_not_taken``)."""
    table = static_branch_table(program)
    conditional = [site for site in table if site.cls is BranchClass.CONDITIONAL]
    summary = {"total": len(table)}
    for cls, key in _CLASS_KEYS.items():
        summary[key] = sum(1 for site in table if site.cls is cls)
    summary["conditional_backward"] = sum(1 for site in conditional if site.is_backward)
    summary["conditional_forward"] = sum(1 for site in conditional if not site.is_backward)
    summary["btfn_predict_taken"] = sum(1 for site in conditional if site.btfn_taken)
    summary["btfn_predict_not_taken"] = sum(
        1 for site in conditional if site.btfn_taken is False
    )
    return summary


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
