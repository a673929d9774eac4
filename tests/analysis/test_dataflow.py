"""Reaching definitions and liveness on small hand-built programs, and the
per-register query against the whole-set one on the bundled programs."""

import pytest

from repro.analysis import (
    UNINITIALIZED,
    build_cfg,
    liveness,
    reaching_definitions,
)
from repro.isa.assembler import assemble
from repro.isa.registers import NUM_REGISTERS
from repro.workloads import workload_names
from repro.workloads.base import get_workload

from tests.analysis.helpers import definitions_at


def _cfg(source: str):
    return build_cfg(assemble(source))


class TestReachingDefinitions:
    def test_entry_seeds_virtual_uninitialized_defs(self):
        cfg = _cfg("_start:\n    halt\n")
        rd = reaching_definitions(cfg)
        assert (5, UNINITIALIZED) in definitions_at(rd, cfg.entry)
        assert (0, UNINITIALIZED) not in definitions_at(rd, cfg.entry)  # r0 exempt

    def test_definition_kills_uninitialized(self):
        cfg = _cfg(
            """
_start:
    li r2, 1
    addi r3, r2, 1
    halt
"""
        )
        rd = reaching_definitions(cfg)
        defs_at_add = {d for d in definitions_at(rd, 0x1004) if d[0] == 2}
        assert defs_at_add == {(2, 0x1000)}

    def test_merge_keeps_both_paths(self):
        cfg = _cfg(
            """
_start:
    bnez r9, other
    li r2, 1
    br join
other:
    li r2, 2
join:
    addi r3, r2, 0
    halt
"""
        )
        rd = reaching_definitions(cfg)
        join = cfg.program.symbols["join"]
        defs_r2 = {d[1] for d in definitions_at(rd, join) if d[0] == 2}
        assert len(defs_r2) == 2 and UNINITIALIZED not in defs_r2

    def test_definitely_uninitialized_read_detected(self):
        cfg = _cfg(
            """
_start:
    addi r3, r9, 1
    halt
"""
        )
        reads = reaching_definitions(cfg).definitely_uninitialized_reads()
        assert (0x1000, 9) in reads

    def test_loop_carried_def_not_flagged(self):
        # r3 is uninitialized on the first iteration only; a later-iteration
        # path defines it, so the "definitely" analysis stays quiet.
        cfg = _cfg(
            """
_start:
    li r2, 5
loop:
    addi r3, r3, 1
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        reads = reaching_definitions(cfg).definitely_uninitialized_reads()
        assert all(register != 2 for _, register in reads)
        assert reads == []


def _of_matches_at(rd, address):
    """``of(r, address)`` is ``definitions_at(rd, address)`` narrowed to
    ``r``, as a set without repeats, for every register."""
    found = [
        (register, def_address)
        for register in range(NUM_REGISTERS)
        for def_address in rd.of(register, address)
    ]
    assert len(found) == len(set(found)), f"{address:#x}"
    assert frozenset(found) == definitions_at(rd, address), f"{address:#x}"


class TestPerRegisterQuery:
    REDEFINED = """
_start:
    bnez r9, other
    li r2, 1
    br join
other:
    li r2, 2
join:
    addi r3, r2, 0
    li r2, 5
    addi r4, r2, 0
    li r2, 6
    addi r5, r2, 0
    halt
"""

    def test_definitions_reaching_the_block_entry(self):
        cfg = _cfg(self.REDEFINED)
        rd = reaching_definitions(cfg)
        join = cfg.program.symbols["join"]
        assert set(rd.of(2, join)) == {cfg.entry + 4, cfg.program.symbols["other"]}
        assert rd.of(9, join) == (UNINITIALIZED,)
        assert rd.of(0, join) == ()

    def test_redefinition_earlier_in_the_block_wins(self):
        cfg = _cfg(self.REDEFINED)
        rd = reaching_definitions(cfg)
        join = cfg.program.symbols["join"]
        assert rd.of(2, join + 8) == (join + 4,)
        # the second redefinition replaces the first
        assert rd.of(2, join + 16) == (join + 12,)
        # the instruction's own write is not before it
        assert len(rd.of(2, join + 4)) == 2
        for address in range(join, join + 24, 4):
            _of_matches_at(rd, address)

    def test_misaligned_address_is_rejected(self):
        cfg = _cfg(self.REDEFINED)
        with pytest.raises(KeyError):
            reaching_definitions(cfg).of(2, cfg.entry + 2)

    @pytest.mark.parametrize("name", workload_names())
    def test_matches_at_on_every_bundled_program(self, name):
        workload = get_workload(name)
        cfg = _cfg(workload.build_source(workload.dataset("test")))
        rd = reaching_definitions(cfg)
        starts = sorted(cfg.blocks)
        # about 2,000 definitions reach each gcc pc, so checking all of them
        # takes ~20 s; every 16th block of it keeps the test short
        for start in starts[:: 16 if name == "gcc" else 1]:
            for address in cfg.blocks[start].addresses():
                _of_matches_at(rd, address)


class TestLiveness:
    def test_live_after_and_dead_store(self):
        cfg = _cfg(
            """
_start:
    li r2, 1
    li r3, 2
    add r4, r2, r3
    li r4, 9
    st r4, 0(r2)
    halt
"""
        )
        lv = liveness(cfg)
        # the add writes r4, immediately overwritten by li r4 -> dead
        assert (0x1008, 4) in lv.dead_stores()
        # the li r4, 9 is stored, hence live after it
        assert (0x100C, 4) not in lv.dead_stores()

    def test_store_reads_its_value_operand(self):
        cfg = _cfg(
            """
_start:
    li r2, 4096
    li r3, 7
    st r3, 0(r2)
    halt
"""
        )
        assert liveness(cfg).dead_stores() == []

    def test_call_link_write_exempt(self):
        cfg = _cfg(
            """
_start:
    bsr sub
    halt
sub:
    rts
"""
        )
        # bsr writes r1 (read by rts), but even when no rts existed the
        # call would be exempt; here it simply must not be flagged.
        assert liveness(cfg).dead_stores() == []

    def test_value_live_across_branch_paths(self):
        cfg = _cfg(
            """
_start:
    li r2, 1
    bnez r9, use
    halt
use:
    addi r3, r2, 1
    st r3, 0(r2)
    halt
"""
        )
        assert (0x1000, 2) not in liveness(cfg).dead_stores()
