"""CFG construction: blocks, edge kinds, dominators, loops, SCCs."""

import pytest

from repro.analysis import EdgeKind, build_cfg
from repro.isa.assembler import assemble
from repro.workloads import workload_names
from repro.workloads.base import get_workload


def _cfg(source: str):
    return build_cfg(assemble(source))


LOOP = """
_start:
    li r2, 5
loop:
    addi r3, r3, 1
    subi r2, r2, 1
    bnez r2, loop
    halt
"""


class TestBlocks:
    def test_leaders_split_at_branch_targets_and_after_branches(self):
        cfg = _cfg(LOOP)
        assert sorted(cfg.blocks) == [0x1000, 0x1004, 0x1010]

    def test_block_contents_partition_the_program(self):
        cfg = _cfg(LOOP)
        total = sum(len(b.instructions) for b in cfg.blocks.values())
        assert total == len(cfg.program.instructions)
        assert cfg.blocks[0x1004].end == 0x1010

    def test_block_at_finds_containing_block(self):
        cfg = _cfg(LOOP)
        assert cfg.block_at(0x1008).start == 0x1004
        assert cfg.block_at(0x1010).start == 0x1010

    @pytest.mark.parametrize("name", workload_names())
    def test_block_at_is_the_one_block_containing_each_address(self, name):
        workload = get_workload(name)
        cfg = _cfg(workload.build_source(workload.dataset("test")))
        program = cfg.program
        # every block that contains each address, from one pass over them all
        owners = {}
        for block in cfg.blocks.values():
            for address in range(block.start, block.end, 4):
                owners.setdefault(address, []).append(block)
        for index in range(len(program.instructions)):
            address = program.text_base + 4 * index
            assert [cfg.block_at(address)] == owners[address]
        for outside in (program.text_base - 4, program.text_base + 4 * len(program.instructions)):
            with pytest.raises(KeyError):
                cfg.block_at(outside)

    def test_labels_attached_to_blocks(self):
        cfg = _cfg(LOOP)
        assert cfg.blocks[0x1004].label == "loop"
        assert cfg.blocks[0x1000].label == "_start"


class TestEdges:
    def test_conditional_has_taken_and_fallthrough(self):
        cfg = _cfg(LOOP)
        kinds = {(e.dst, e.kind) for e in cfg.successors(0x1004)}
        assert kinds == {(0x1004, EdgeKind.TAKEN), (0x1010, EdgeKind.FALLTHROUGH)}

    def test_halt_is_terminal(self):
        cfg = _cfg(LOOP)
        assert cfg.successors(0x1010) == []

    def test_call_and_continuation_and_return(self):
        cfg = _cfg(
            """
_start:
    bsr sub
    halt
sub:
    addi r2, r2, 1
    rts
"""
        )
        kinds = {(e.dst, e.kind) for e in cfg.successors(0x1000)}
        assert (0x1008, EdgeKind.CALL) in kinds
        assert (0x1004, EdgeKind.CONTINUATION) in kinds
        # rts returns to every call continuation
        rts_block = cfg.block_at(0x100C).start
        returns = {(e.dst, e.kind) for e in cfg.successors(rts_block)}
        assert (0x1004, EdgeKind.RETURN) in returns

    def test_indirect_jump_edges_from_address_taken_table(self):
        cfg = _cfg(
            """
_start:
    li r2, table
    ld r3, 0(r2)
    jmp r3
a:
    halt
b:
    halt
.data
table: .word a, b
"""
        )
        jmp_pc = next(
            cfg.program.text_base + 4 * i
            for i, ins in enumerate(cfg.program.instructions)
            if ins.opcode.name == "JMP"
        )
        jmp_block = cfg.block_at(jmp_pc).start
        targets = {e.dst for e in cfg.successors(jmp_block) if e.kind == EdgeKind.INDIRECT}
        assert targets == {cfg.program.symbols["a"], cfg.program.symbols["b"]}

    def test_no_indirect_resolution_without_jmp(self):
        # data words that look like text addresses must not create edges
        # when the program has no register-indirect jump at all
        cfg = _cfg(
            """
_start:
    halt
.data
t: .word 4096
"""
        )
        assert cfg.indirect_targets == frozenset()


class TestGraphAnalyses:
    def test_reachability_excludes_dead_code(self):
        cfg = _cfg(
            """
_start:
    br out
dead:
    addi r2, r2, 1
out:
    halt
"""
        )
        reachable = cfg.reachable()
        dead = cfg.program.symbols["dead"]
        assert dead not in reachable
        assert cfg.entry in reachable

    def test_dominators_chain(self):
        cfg = _cfg(LOOP)
        idom = cfg.dominators()
        assert idom[0x1000] is None
        assert idom[0x1004] == 0x1000
        assert idom[0x1010] == 0x1004
        assert cfg.dominates(0x1000, 0x1010)
        assert not cfg.dominates(0x1010, 0x1004)

    def test_natural_loop_found(self):
        cfg = _cfg(LOOP)
        loops = cfg.natural_loops()
        assert loops == [(0x1004, frozenset({0x1004}))]

    def test_nested_loop_bodies(self):
        cfg = _cfg(
            """
_start:
    li r2, 3
outer:
    li r3, 3
inner:
    subi r3, r3, 1
    bnez r3, inner
    subi r2, r2, 1
    bnez r2, outer
    halt
"""
        )
        loops = dict(cfg.natural_loops())
        outer = cfg.program.symbols["outer"]
        inner = cfg.program.symbols["inner"]
        assert inner in loops and outer in loops
        assert loops[inner] < loops[outer]  # inner body strictly nested

    def test_sccs_group_cycles(self):
        cfg = _cfg(LOOP)
        sccs = cfg.strongly_connected_components()
        cyclic = [c for c in sccs if len(c) > 1 or any(
            e.dst in c for s in c for e in cfg.successors(s)
        )]
        assert cyclic == [frozenset({0x1004})]

    def test_label_for_offsets(self):
        cfg = _cfg(LOOP)
        assert cfg.label_for(0x1004) == "loop"
        assert cfg.label_for(0x1008) == "loop+0x4"
