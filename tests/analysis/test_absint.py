"""Abstract interpretation: ranges, trip counts, and the deterministic walk.

The walk's contract is the strongest claim in the analysis package: for a
deterministic program (registers zeroed, data segment loaded) it reproduces
the CPU's conditional-branch outcome sequence *exactly*.  The integration
tests here assert that per-site stream equality against the real trace for
every bundled workload variant.
"""

import random

import pytest
from hypothesis import given, settings

from repro.analysis import (
    LoopAnalysis,
    Resolution,
    build_cfg,
    conditional_sites,
    lint_source,
    walk_program,
)
from repro.analysis.absint import (
    TOP,
    ValueRange,
    compare_ranges,
    constant,
    _resolve_relation,
)
from repro.isa.assembler import assemble
from repro.isa.instructions import Opcode
from repro.trace.record import BranchClass
from repro.workloads import workload_names
from repro.workloads.base import get_workload

from tests.analysis.helpers import loop_summaries
from tests.isa.test_fuzz import _rich_programs


def _program(name, role):
    workload = get_workload(name)
    return assemble(workload.build_source(workload.dataset(role)))


VARIANTS = [
    (name, role)
    for name in workload_names()
    for role in sorted(get_workload(name).datasets)
]


class TestValueRange:
    def test_constant_and_top(self):
        five = constant(5)
        assert five.is_constant and five != TOP
        assert TOP == ValueRange(0, 0xFFFFFFFF) and not TOP.is_constant

    def test_join_widens(self):
        joined = constant(3).join(constant(9))
        assert (joined.lo, joined.hi) == (3, 9)
        assert joined.join(TOP) == TOP

    def test_equality_comparisons(self):
        assert compare_ranges(Opcode.BEQ, constant(5), constant(5)) is True
        assert compare_ranges(Opcode.BEQ, ValueRange(0, 3), ValueRange(5, 9)) is False
        assert compare_ranges(Opcode.BNE, ValueRange(0, 3), ValueRange(5, 9)) is True
        assert compare_ranges(Opcode.BEQ, ValueRange(0, 5), ValueRange(5, 9)) is None

    def test_ordered_comparisons_use_signed_bounds(self):
        assert compare_ranges(Opcode.BLT, ValueRange(0, 3), ValueRange(5, 9)) is True
        assert compare_ranges(Opcode.BGE, ValueRange(5, 9), ValueRange(0, 3)) is True
        assert compare_ranges(Opcode.BGT, ValueRange(0, 3), ValueRange(5, 9)) is False
        # 0xFFFFFFFF is -1 signed: less than anything non-negative.
        assert (
            compare_ranges(Opcode.BLT, constant(0xFFFFFFFF), constant(0)) is True
        )

    def test_sign_straddling_range_is_undecidable(self):
        straddling = ValueRange(0x7FFFFFFF, 0x80000000)
        assert compare_ranges(Opcode.BLT, straddling, constant(0)) is None


#: ``r7`` copies ``r2``, which copies ``r1``, which the loop masks from
#: ``r7``: a definition cycle that never leaves 5, so both ``bgt`` sites
#: (0x1010 and 0x101c) compare 5 against 100 on every iteration
COPY_CYCLE = """
_start:
    li r1, 5
    li r3, 100
    li r4, 50
loop:
    addi r2, r1, 0
    bgt r2, r3, y1
y1:
    addi r7, r2, 0
    andi r1, r7, 7
    bgt r7, r3, w1
w1:
    subi r4, r4, 1
    bnez r4, loop
    halt
"""
COPY_CYCLE_SITES = (0x1010, 0x101C)


def _query_orders(pcs):
    """The sites in address order, reversed, and in three seeded shuffles."""
    pcs = sorted(pcs)
    orders = [pcs, pcs[::-1]]
    for seed in range(3):
        shuffled = list(pcs)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    return orders


def _decisions(cfg, order):
    """``branch_decision`` of every site, asked of a fresh resolution in
    ``order``."""
    resolution = Resolution.of(cfg)
    return {pc: resolution.branch_decision(pc) for pc in order}


class TestResolutionOrder:
    """Every answer reads one fixpoint, whatever was asked before it."""

    def test_copy_cycle_decides_both_sites_in_every_order(self):
        cfg = build_cfg(assemble(COPY_CYCLE))
        for order in _query_orders(COPY_CYCLE_SITES):
            decisions = _decisions(cfg, order)
            assert decisions == {pc: False for pc in COPY_CYCLE_SITES}, order

    def test_copy_cycle_fires_r009_on_both_sites(self):
        fired = {
            d.address for d in lint_source(COPY_CYCLE).diagnostics if d.rule == "R009"
        }
        assert fired == set(COPY_CYCLE_SITES)

    @pytest.mark.parametrize("name,role", VARIANTS)
    def test_shuffled_queries_give_the_same_answers(self, name, role):
        program = _program(name, role)
        cfg = build_cfg(program)
        pcs = [site.pc for site in conditional_sites(program)]
        answers = []
        for order in _query_orders(pcs)[::2]:  # address order, two shuffles
            resolution = Resolution.of(cfg)
            ranges = {}
            for pc in order:
                instruction = program.instruction_at(pc)
                for register in (instruction.rs1, instruction.rs2):
                    ranges[pc, register] = resolution.resolve(register, pc)
            loops = LoopAnalysis(resolution=resolution).summarize()
            answers.append((ranges, loops))
        assert all(answer == answers[0] for answer in answers)


@settings(max_examples=200, deadline=None)
@given(_rich_programs())
def test_decided_branches_agree_with_the_cpu(source):
    # the CPU is the oracle: a site the resolution decides must go that way
    # every time the walk executes it, whatever order the sites are asked in
    program = assemble(source)
    cfg = build_cfg(program)
    pcs = [site.pc for site in conditional_sites(program)]
    decisions = _decisions(cfg, pcs)
    assert _decisions(cfg, pcs[::-1]) == decisions
    streams = walk_program(program, 2000).streams
    for pc, decision in decisions.items():
        if decision is not None:
            assert all(taken == decision for taken in streams.get(pc, ())), hex(pc)


class TestResolveRelation:
    """Smallest j >= 0 with c + s*j REL 0, or None."""

    def test_equality(self):
        assert _resolve_relation("==", -5, 1) == 5
        assert _resolve_relation("==", 0, 1) == 0
        assert _resolve_relation("==", -5, 2) is None  # never lands on 0
        assert _resolve_relation("==", 5, 1) is None  # moves away

    def test_inequality(self):
        assert _resolve_relation("!=", 0, 1) == 1
        assert _resolve_relation("!=", 3, -1) == 0

    def test_ordered(self):
        assert _resolve_relation("<", 5, -1) == 6
        assert _resolve_relation("<=", 5, -1) == 5
        assert _resolve_relation(">", -3, 2) == 2
        assert _resolve_relation(">=", -4, 2) == 2
        assert _resolve_relation("<", 5, 1) is None  # increasing, positive


class TestLoopTrips:
    def test_counted_down_loop(self):
        program = assemble(
            """
_start:
    li r2, 10
loop:
    addi r3, r3, 1
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        [summary] = loop_summaries(program)
        # r2: 10 -> exits when it hits 0 after 9 back-edge traversals.
        assert summary.trip_count == 9

    def test_counted_up_loop_with_invariant_bound(self):
        program = assemble(
            """
_start:
    li r2, 0
loop:
    addi r3, r3, 1
    addi r2, r2, 1
    li r4, 7
    blt r2, r4, loop
    halt
"""
        )
        [summary] = loop_summaries(program)
        assert summary.trip_count == 6

    def test_data_dependent_loop_has_no_trip(self):
        program = assemble(
            """
_start:
    li r5, buf
    ld r2, 0(r5)
loop:
    addi r3, r3, 1
    subi r2, r2, 1
    bnez r2, loop
    halt

.data
buf: .word 12
"""
        )
        [summary] = loop_summaries(program)
        assert summary.trip_count is None


class TestWalk:
    def test_walk_reproduces_simple_loop_stream(self):
        program = assemble(
            """
_start:
    li r2, 4
loop:
    addi r3, r3, 1
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        result = walk_program(program, budget=100)
        assert result.halted and result.complete
        [(pc, stream)] = list(result.streams.items())
        assert stream == [True, True, True, False]

    def test_walk_reads_data_segment(self):
        program = assemble(
            """
_start:
    li r5, buf
    ld r2, 0(r5)
loop:
    addi r3, r3, 1
    subi r2, r2, 1
    bnez r2, loop
    halt

.data
buf: .word 3
"""
        )
        result = walk_program(program, budget=100)
        assert result.complete
        [(_, stream)] = list(result.streams.items())
        assert stream == [True, True, False]

    def test_budget_stops_the_walk(self):
        program = assemble(
            """
_start:
    li r2, 1000
loop:
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        result = walk_program(program, budget=10)
        assert result.stop_reason == "budget"
        assert result.known_conditionals == 10

    def test_global_stream_orders_interleaved_sites(self):
        program = assemble(
            """
_start:
    li r2, 2
outer:
    li r3, 2
inner:
    subi r3, r3, 1
    bnez r3, inner
    subi r2, r2, 1
    bnez r2, outer
    halt
"""
        )
        result = walk_program(program, budget=100)
        assert result.complete
        outcomes = [taken for _, taken in result.global_stream]
        # inner (T,F), outer T, inner (T,F), outer F
        assert outcomes == [True, False, True, True, False, False]


class TestWalkStops:
    """Where the walk stops, and what it keeps of the branches before."""

    def test_halt_before_the_budget(self):
        program = assemble(
            """
_start:
    li r2, 3
loop:
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        result = walk_program(program, budget=100)
        assert (result.stop_reason, result.halted, result.complete) == ("halt", True, True)
        assert result.known_conditionals == 3

    def test_budget_inside_an_iteration_stops_exactly(self):
        # two conditional sites per iteration; an odd budget ends the walk
        # between them, after the first site of the fourth iteration
        program = assemble(
            """
_start:
    li r2, 1000
loop:
    andi r3, r2, 1
    beqz r3, even
    addi r4, r4, 1
even:
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        result = walk_program(program, budget=7)
        assert (result.stop_reason, result.halted, result.complete) == ("budget", False, True)
        assert result.known_conditionals == 7
        assert len(result.global_stream) == 7
        parity, latch = sorted(result.streams)
        assert result.streams[parity] == [True, False, True, False]
        assert result.streams[latch] == [True, True, True]

    def test_division_by_zero_keeps_the_branches_before_it(self):
        program = assemble(
            """
_start:
    li r2, 4
    li r5, 9
loop:
    subi r2, r2, 1
    bnez r2, loop
    divs r6, r5, r2
    halt
"""
        )
        result = walk_program(program, budget=100)
        assert (result.stop_reason, result.halted, result.complete) == (
            "divide-fault", False, False,
        )
        assert result.known_conditionals == 4
        [stream] = result.streams.values()
        assert stream == [True, True, True, False]

    @pytest.mark.parametrize("access", ["ld r6, 2(r5)", "st r6, 2(r5)"])
    def test_misaligned_word_access_keeps_the_branches_before_it(self, access):
        program = assemble(
            f"""
_start:
    li r2, 2
    li r5, buf
loop:
    subi r2, r2, 1
    bnez r2, loop
    {access}
    halt
.data
buf: .space 2
"""
        )
        result = walk_program(program, budget=100)
        assert (result.stop_reason, result.halted, result.complete) == (
            "misaligned-access", False, False,
        )
        [stream] = result.streams.values()
        assert stream == [True, False]

    def test_jump_out_of_the_text_segment(self):
        program = assemble(
            """
_start:
    li r2, 2
loop:
    subi r2, r2, 1
    bnez r2, loop
    li r14, 0x40
    jmp r14
"""
        )
        result = walk_program(program, budget=100)
        assert (result.stop_reason, result.halted, result.complete) == (
            "bad-fetch", False, False,
        )
        [stream] = result.streams.values()
        assert stream == [True, False]


@pytest.mark.parametrize("name,role", VARIANTS)
def test_assembled_instructions_hold_opcode_members(name, role):
    # the range and loop analyses test an instruction's opcode by identity
    # (``is Opcode.ADDI``) without converting it, so a plain int in that
    # field would misread
    for instruction in _program(name, role).instructions:
        assert type(instruction.opcode) is Opcode, instruction


class TestWalkMatchesDynamicTrace:
    """The decisive property: the static walk IS the conditional trace."""

    @pytest.mark.parametrize("name,role", VARIANTS)
    def test_per_site_streams_equal_the_simulator(
        self, trace_cache, small_scale, name, role
    ):
        program = _program(name, role)
        trace = trace_cache.get(get_workload(name), role, small_scale)
        result = walk_program(program, small_scale)
        assert result.complete, result.stop_reason

        dynamic = {}
        for record in trace.records:
            if record.cls is BranchClass.CONDITIONAL:
                dynamic.setdefault(record.pc, []).append(record.taken)

        static = {pc: stream for pc, stream in result.streams.items() if stream}
        assert set(static) == set(dynamic)
        for pc in dynamic:
            assert static[pc] == dynamic[pc], f"{name}/{role} {pc:#x}"

    @pytest.mark.parametrize("name,role", VARIANTS)
    def test_global_stream_equals_the_dynamic_sequence(
        self, trace_cache, small_scale, name, role
    ):
        trace = trace_cache.get(get_workload(name), role, small_scale)
        result = walk_program(_program(name, role), small_scale)
        assert result.complete
        dynamic = [
            (record.pc, record.taken)
            for record in trace.records
            if record.cls is BranchClass.CONDITIONAL
        ]
        assert result.global_stream == dynamic

    @pytest.mark.parametrize("name", [
        "espresso", "li", "doduc", "fpppp", "matrix300", "spice2g6", "tomcatv",
    ])
    def test_counted_workloads_have_solvable_loops(self, name):
        # These programs carry affine counted loops (incl. the bounded_driver
        # countdown); the induction machinery must resolve closed-form trips.
        # eqntott/gcc loop bounds are data-dependent, so they are excluded.
        for role in sorted(get_workload(name).datasets):
            summaries = loop_summaries(_program(name, role))
            trips = [s.trip_count for s in summaries if s.trip_count is not None]
            assert trips, f"{name}/{role}: no loop trip counts resolved"
