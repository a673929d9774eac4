"""Whole-toolchain property tests: random programs through assembler,
encoder, disassembler and CPU.

The generator builds structurally valid programs (straight-line ALU work,
bounded loops, forward skips, a leaf call) so every property below must hold
for *any* output of the strategy: toolchain round-trips are exact, execution
is deterministic, r0 stays zero, and accounting invariants hold.

A second, richer strategy draws every opcode -- memory, divide (with zero
divisors), shifts, ``lui``, register jumps and calls, all six conditions --
and runs :class:`CPU` differentially against the single-step interpreter in
:mod:`tests.isa.reference`, including runs cut at arbitrary
``max_instructions`` points (mostly inside blocks) and resumed, and faults.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.isa.disassembler import disassemble_program
from repro.isa.encoding import decode, encode
from repro.trace.record import BranchClass
from tests.isa.reference import ReferenceCPU

_REGS = [f"r{n}" for n in range(2, 12)]

_ALU = st.sampled_from(["add", "sub", "xor", "and", "or", "mul"])
_ALU_IMM = st.sampled_from(["addi", "muli", "andi", "ori", "xori"])
_REG = st.sampled_from(_REGS)
_IMM = st.integers(-200, 200)
_POS_IMM = st.integers(0, 200)


@st.composite
def _blocks(draw):
    """A list of source fragments; each fragment is a few instructions."""
    fragments = []
    block_count = draw(st.integers(1, 6))
    for index in range(block_count):
        kind = draw(st.integers(0, 3))
        if kind == 0:  # straight-line ALU
            lines = [
                f"    {draw(_ALU)} {draw(_REG)}, {draw(_REG)}, {draw(_REG)}"
                for _ in range(draw(st.integers(1, 4)))
            ]
        elif kind == 1:  # immediate ALU
            lines = [
                f"    {draw(_ALU_IMM)} {draw(_REG)}, {draw(_REG)}, {draw(_POS_IMM)}"
            ]
        elif kind == 2:  # bounded counted loop
            trip = draw(st.integers(1, 8))
            counter = draw(_REG)
            lines = [
                f"    li {counter}, {trip}",
                f"fz_loop{index}:",
                f"    addi {counter}, {counter}, -1",
                f"    bgt {counter}, r0, fz_loop{index}",
            ]
        else:  # forward skip over one instruction
            lines = [
                f"    beq {draw(_REG)}, {draw(_REG)}, fz_skip{index}",
                f"    addi {draw(_REG)}, {draw(_REG)}, 1",
                f"fz_skip{index}:",
            ]
        fragments.append("\n".join(lines))
    return fragments


@st.composite
def _programs(draw):
    fragments = draw(_blocks())
    use_call = draw(st.booleans())
    body = ["_start:"]
    body.extend(fragments)
    if use_call:
        body.append("    bsr fz_leaf")
    body.append("    halt")
    if use_call:
        body.append("fz_leaf:")
        body.append(f"    addi {draw(_REG)}, r0, 7")
        body.append("    rts")
    return "\n".join(body)


class TestToolchainProperties:
    @given(_programs())
    @settings(max_examples=60, deadline=None)
    def test_binary_round_trip(self, source):
        program = assemble(source)
        words = [encode(instruction) for instruction in program.instructions]
        assert [decode(word) for word in words] == program.instructions

    @given(_programs())
    @settings(max_examples=40, deadline=None)
    def test_disassemble_reassemble_fixpoint(self, source):
        program = assemble(source)
        listing = "\n".join(
            line.split(":", 1)[1] for line in disassemble_program(program).splitlines()
        )
        assert assemble(listing).instructions == program.instructions

    @given(_programs())
    @settings(max_examples=40, deadline=None)
    def test_execution_deterministic(self, source):
        program = assemble(source)
        first = CPU(program).run(max_instructions=5_000)
        second = CPU(program).run(max_instructions=5_000)
        assert first.branch_records == second.branch_records
        assert first.instructions_executed == second.instructions_executed

    @given(_programs())
    @settings(max_examples=40, deadline=None)
    def test_execution_invariants(self, source):
        program = assemble(source)
        cpu = CPU(program)
        result = cpu.run(max_instructions=5_000)
        # r0 is hardwired zero
        assert cpu.regs[0] == 0
        # all registers hold 32-bit values
        assert all(0 <= value <= 0xFFFFFFFF for value in cpu.regs)
        # the mix accounts for every executed instruction
        assert result.mix.total_instructions == result.instructions_executed
        # branch records and mix agree
        conditionals = sum(
            1 for record in result.branch_records if record.cls is BranchClass.CONDITIONAL
        )
        assert conditionals == result.mix.conditional
        # these programs always halt within the cap
        assert result.halted

    @given(_programs())
    @settings(max_examples=40, deadline=None)
    def test_branch_records_reference_text_segment(self, source):
        program = assemble(source)
        result = CPU(program).run(max_instructions=5_000)
        for record in result.branch_records:
            assert program.text_base <= record.pc < program.text_end
            assert program.text_base <= record.target <= program.text_end


# ----------------------------------------------------------------------
# Differential testing against the single-step reference interpreter.
# ----------------------------------------------------------------------
#: every register but r1 (the link register, so leaf returns stay sane) and
#: r12-r14 (loop counters and jump scratch)
_USABLE = [f"r{n}" for n in range(0, 12) if n != 1]
_ANY_REG = st.sampled_from(_USABLE)
#: destinations lean on r0 (about a third), whose writes must vanish while
#: a divide into it must still fault
_DEST = st.sampled_from(["r0"] * 3 + _USABLE)
_R_OPS = st.sampled_from(
    ["add", "sub", "mul", "divs", "rems", "and", "or", "xor", "shl", "shr", "sra"]
)
_I_OPS = st.sampled_from(["addi", "muli", "andi", "ori", "xori", "shli", "shri", "srai"])
_CONDITIONS = st.sampled_from(["beq", "bne", "blt", "bge", "ble", "bgt"])
#: loop-closing conditions that mean "counter > 0" (operand order matters)
_LOOP_CLOSERS = st.sampled_from(
    ["bgt {c}, r0, {label}", "bne {c}, r0, {label}", "blt r0, {c}, {label}"]
)
_WORD_VALUES = st.one_of(st.integers(-40, 40), st.integers(-(1 << 31), (1 << 32) - 1))


@st.composite
def _straight_line(draw):
    """One non-control instruction of any kind."""
    kind = draw(st.integers(0, 5))
    rd, a, b = draw(_DEST), draw(_ANY_REG), draw(_ANY_REG)
    if kind == 0:
        return f"    {draw(_R_OPS)} {rd}, {a}, {b}"
    if kind == 1:
        return f"    {draw(_I_OPS)} {rd}, {a}, {draw(st.integers(-(1 << 15), (1 << 15) - 1))}"
    if kind == 2:
        return f"    lui {rd}, {draw(st.integers(0, 0xFFFF))}"
    if kind == 3:
        op = draw(st.sampled_from(["ld", "st", "ldb", "stb"]))
        return f"    li r11, fz_buf\n    {op} {rd}, {draw(st.integers(-8, 60))}(r11)"
    if kind == 4:
        return f"    li {rd}, {draw(_WORD_VALUES)}"
    return "    nop"


@st.composite
def _rich_programs(draw):
    body = ["_start:"]
    for n in range(2, 11):  # mostly non-zero operands, so divides mostly succeed
        body.append(f"    li r{n}, {draw(_WORD_VALUES)}")
    for index in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            body.extend(draw(_straight_line()) for _ in range(draw(st.integers(1, 6))))
        elif kind == 1:  # bounded loop with a random body
            counter = draw(st.sampled_from(["r12", "r13"]))
            body.append(f"    li {counter}, {draw(st.integers(1, 6))}")
            body.append(f"fz_loop{index}:")
            body.extend(draw(_straight_line()) for _ in range(draw(st.integers(0, 3))))
            body.append(f"    addi {counter}, {counter}, -1")
            body.append("    " + draw(_LOOP_CLOSERS).format(c=counter, label=f"fz_loop{index}"))
        elif kind == 2:  # forward skip on any condition
            a, b = draw(_ANY_REG), draw(_ANY_REG)
            body.append(f"    {draw(_CONDITIONS)} {a}, {b}, fz_skip{index}")
            body.extend(draw(_straight_line()) for _ in range(draw(st.integers(1, 3))))
            body.append(f"fz_skip{index}:")
        elif kind == 3:  # register jump over one instruction
            body.append(f"    li r14, fz_over{index}")
            body.append("    jmp r14")
            body.append(draw(_straight_line()))
            body.append(f"fz_over{index}:")
        elif kind == 4:  # call the leaf by bsr or jsr
            if draw(st.booleans()):
                body.append("    bsr fz_leaf")
            else:
                body.append("    li r14, fz_leaf\n    jsr r14")
        else:
            body.append(f"    br fz_next{index}\nfz_next{index}:")
    ending = draw(st.integers(0, 9))
    if ending == 0:
        body.append("    li r14, 0x40\n    jmp r14")  # fetch outside text
    elif ending == 1:
        body.append("    li r14, fz_leaf\n    addi r14, r14, 2\n    jmp r14")  # misaligned
    elif ending == 2:
        body.append("    br fz_end")  # falls off the end of text
    else:
        body.append("    halt")
    body.append("fz_leaf:")
    body.extend(draw(_straight_line()) for _ in range(draw(st.integers(0, 2))))
    body.append("    rts")
    body.append("fz_end:")
    body.append(".data")
    body.append("fz_buf:")
    body.extend(f"    .word {draw(_WORD_VALUES)}" for _ in range(20))
    return "\n".join(body)


def _step(machine, **limits):
    """Run one segment; returns the observable outcome, fault included."""
    try:
        result = machine.run(**limits)
    except ExecutionError as exc:
        return ("fault", str(exc), exc.pc, machine.pc)
    if isinstance(machine, ReferenceCPU):
        events, mix, executed = result
        return ("ok", events, mix, executed, machine.halted, machine.pc)
    packed = result.packed
    events = list(zip(packed.pc, packed.target, packed.flags))
    assert result.final_pc == machine.pc
    return ("ok", events, result.mix, result.instructions_executed, result.halted, machine.pc)


def _state(machine):
    words = machine.words if isinstance(machine, ReferenceCPU) else machine.memory._words
    return machine.regs, words


class TestDifferentialAgainstReference:
    @given(_rich_programs())
    @settings(max_examples=150, deadline=None)
    def test_matches_single_step_reference(self, source):
        program = assemble(source)
        cpu, reference = CPU(program), ReferenceCPU(program)
        assert _step(cpu, max_instructions=4_000) == _step(reference, max_instructions=4_000)
        assert _state(cpu) == _state(reference)

    @given(
        _rich_programs(),
        st.lists(
            st.tuples(st.sampled_from(["max_instructions", "max_conditional_branches"]),
                      st.integers(0, 40)),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_stop_and_resume_matches_reference(self, source, cuts):
        program = assemble(source)
        cpu, reference = CPU(program), ReferenceCPU(program)
        for name, value in cuts + [("max_instructions", 4_000)]:
            outcome = _step(cpu, **{name: value})
            assert outcome == _step(reference, **{name: value})
            assert _state(cpu) == _state(reference)
            if outcome[0] == "fault":
                break
