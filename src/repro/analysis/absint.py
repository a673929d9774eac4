"""Abstract interpretation over the workload ISA, and the deterministic walk.

Two static engines, built on the CFG of :mod:`repro.analysis.cfg` and
sharing the interpreter's value semantics through the tables in
:mod:`repro.isa.instructions` (stated once, never restated):

* **Value resolution** (:class:`Resolution`) — a reaching-definitions-based
  constant/range analysis.  Registers start at the architectural zero, loads
  are ⊤ (memory is never modelled), and every ALU opcode is evaluated
  through :data:`~repro.isa.instructions.ALU_SEMANTICS` /
  :data:`~repro.isa.instructions.IMM_SEMANTICS`.  Decisive range
  comparisons prove branches one-sided *forever* — the R009 lint rule.

* **Loop summaries** (:func:`loop_summaries`) — affine induction-variable
  detection through the natural-loop structure, with closed-form trip
  counts where a loop's single conditional exit compares loop-affine values
  (solved algebraically, then verified at the boundary through
  :data:`~repro.isa.instructions.BRANCH_SEMANTICS`).

**The deterministic walk** (:func:`walk_program`) is not abstract at all:
it runs the program on :class:`~repro.isa.cpu.CPU`, through the same
translated blocks that build every trace, and splits the conditional
branches into per-site outcome streams.  A walk starts from zeroed
registers and the loaded data segment, and the ISA has no input
instruction, so every value the program ever reads is known: there is no
unknown operand to skip past and no state to invalidate, and each stream
is exact for as long as the walk runs.  The walk therefore *is* the
dynamic conditional-branch trace of its budget; it stops at the budget, at
HALT, at its step cap, or at a fault (a division by zero, a misaligned
word access or a fetch outside the text segment), keeping the branches
executed before the stop.  A caller already holding that trace reads the
walk off it (:meth:`WalkResult.of_trace`) instead of running the CPU
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.errors import ExecutionError
from repro.isa.cpu import CPU
from repro.isa.instructions import (
    ALU_SEMANTICS,
    B_FORMAT,
    BRANCH_SEMANTICS,
    IMM_SEMANTICS,
    Instruction,
    Opcode,
    encoded_target,
)
from repro.isa.program import Program
from repro.trace.columnar import PackedTrace, conditional_only
from repro.trace.record import InstructionMix

from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dataflow import (
    UNINITIALIZED,
    ReachingDefinitions,
    reaching_definitions,
)

_WORD_MAX = 0xFFFFFFFF
_SIGN = 0x80000000

# ----------------------------------------------------------------------
# Value ranges.
# ----------------------------------------------------------------------

class ValueRange(NamedTuple):
    """An inclusive unsigned 32-bit interval; ``[0, 2^32-1]`` is ⊤."""

    lo: int
    hi: int

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == 0 and self.hi == _WORD_MAX

    def join(self, other: "ValueRange") -> "ValueRange":
        return ValueRange(min(self.lo, other.lo), max(self.hi, other.hi))


TOP = ValueRange(0, _WORD_MAX)


def constant(value: int) -> ValueRange:
    """A degenerate range holding one 32-bit value."""
    masked = value & _WORD_MAX
    return ValueRange(masked, masked)


def _signed_bounds(r: ValueRange) -> Optional[Tuple[int, int]]:
    """The range as a signed interval, or None when it straddles the sign
    boundary (and therefore is not an interval in the signed order)."""
    if r.hi < _SIGN:
        return (r.lo, r.hi)
    if r.lo >= _SIGN:
        return (r.lo - 0x100000000, r.hi - 0x100000000)
    return None


def compare_ranges(opcode: Opcode, a: ValueRange, b: ValueRange) -> Optional[bool]:
    """Decide a conditional branch's outcome from operand ranges.

    Returns True/False when every pair of values in the ranges agrees on
    the predicate (so the branch is provably one-sided), None otherwise.
    Signedness matches the CPU: equality is bitwise, the ordered compares
    are signed two's-complement.
    """
    if a.is_constant and b.is_constant:
        return BRANCH_SEMANTICS[opcode](a.lo, b.lo)
    if opcode in (Opcode.BEQ, Opcode.BNE):
        disjoint = a.hi < b.lo or b.hi < a.lo
        if not disjoint:
            return None
        return opcode is Opcode.BNE
    sa = _signed_bounds(a)
    sb = _signed_bounds(b)
    if sa is None or sb is None:
        return None
    alo, ahi = sa
    blo, bhi = sb
    if opcode is Opcode.BLT:
        return True if ahi < blo else (False if alo >= bhi else None)
    if opcode is Opcode.BGE:
        return True if alo >= bhi else (False if ahi < blo else None)
    if opcode is Opcode.BLE:
        return True if ahi <= blo else (False if alo > bhi else None)
    if opcode is Opcode.BGT:
        return True if alo > bhi else (False if ahi <= blo else None)
    return None


def _apply_imm(opcode: Opcode, r: ValueRange, imm: int) -> ValueRange:
    if opcode is Opcode.LUI:
        return constant((imm & 0xFFFF) << 16)
    if r.is_constant:
        return constant(IMM_SEMANTICS[opcode](r.lo, imm))
    if opcode is Opcode.ANDI:
        return ValueRange(0, min(r.hi, imm & 0xFFFF))
    if opcode is Opcode.ADDI:
        lo, hi = r.lo + imm, r.hi + imm
        if 0 <= lo and hi <= _WORD_MAX:
            return ValueRange(lo, hi)
        return TOP
    if opcode is Opcode.SHRI:
        shift = imm & 31
        return ValueRange(r.lo >> shift, r.hi >> shift)
    if opcode is Opcode.SHLI:
        shift = imm & 31
        if (r.hi << shift) <= _WORD_MAX:
            return ValueRange(r.lo << shift, r.hi << shift)
        return TOP
    return TOP


def _apply_alu(opcode: Opcode, a: ValueRange, b: ValueRange) -> ValueRange:
    if a.is_constant and b.is_constant:
        try:
            return constant(ALU_SEMANTICS[opcode](a.lo, b.lo))
        except ZeroDivisionError:
            return TOP
    if opcode is Opcode.AND:
        return ValueRange(0, min(a.hi, b.hi))
    if opcode is Opcode.ADD:
        lo, hi = a.lo + b.lo, a.hi + b.hi
        if hi <= _WORD_MAX:
            return ValueRange(lo, hi)
        return TOP
    if opcode is Opcode.SUB:
        lo, hi = a.lo - b.hi, a.hi - b.lo
        if lo >= 0:
            return ValueRange(lo, hi)
        return TOP
    if opcode is Opcode.SHR and b.is_constant:
        shift = b.lo & 31
        return ValueRange(a.lo >> shift, a.hi >> shift)
    return TOP


_MAX_RESOLVE_DEPTH = 16


@dataclass
class Resolution:
    """Reaching-definitions-based value resolution over one program.

    ``resolve(register, address)`` answers "what values can this register
    hold just before ``address`` executes, on any path?" — a sound range,
    exact when the register is a propagated constant.  The virtual entry
    definition resolves to the architectural zero, matching ``CPU.run``'s
    register-file initialisation.
    """

    cfg: ControlFlowGraph
    reaching: ReachingDefinitions
    _memo: Dict[Tuple[int, int], ValueRange] = field(default_factory=dict)
    _in_progress: Set[Tuple[int, int]] = field(default_factory=set)

    def instruction_at(self, address: int) -> Instruction:
        index = (address - self.cfg.program.text_base) >> 2
        return self.cfg.program.instructions[index]

    def resolve(
        self, register: int, address: int, depth: int = _MAX_RESOLVE_DEPTH
    ) -> ValueRange:
        """Range of ``register`` immediately before ``address``."""
        if register == 0:
            return constant(0)
        if depth <= 0:
            return TOP
        key = (register, address)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return TOP  # definition cycle (induction variable): widen
        self._in_progress.add(key)
        try:
            result: Optional[ValueRange] = None
            for def_address in self.reaching.of(register, address):
                value = self._resolve_definition(register, def_address, depth)
                result = value if result is None else result.join(value)
                if result.is_top:
                    break
            if result is None:
                result = TOP  # unreachable code: no facts
        finally:
            self._in_progress.discard(key)
        self._memo[key] = result
        return result

    def _resolve_definition(
        self, register: int, def_address: int, depth: int
    ) -> ValueRange:
        if def_address == UNINITIALIZED:
            return constant(0)  # architectural register-file init
        instruction = self.instruction_at(def_address)
        opcode = instruction.opcode
        if opcode in (Opcode.BSR, Opcode.JSR):
            return constant(def_address + 4)  # link-register value
        if opcode in (Opcode.LD, Opcode.LDB):
            return TOP  # memory is never modelled
        if opcode in IMM_SEMANTICS:
            base = self.resolve(instruction.rs1, def_address, depth - 1)
            return _apply_imm(opcode, base, instruction.imm)
        if opcode in ALU_SEMANTICS:
            a = self.resolve(instruction.rs1, def_address, depth - 1)
            b = self.resolve(instruction.rs2, def_address, depth - 1)
            return _apply_alu(opcode, a, b)
        return TOP

    def branch_decision(self, pc: int) -> Optional[bool]:
        """Provable constant outcome of the conditional branch at ``pc``,
        valid for *every* execution (None when not provable)."""
        instruction = self.instruction_at(pc)
        if instruction.opcode not in B_FORMAT:
            return None
        a = self.resolve(instruction.rs1, pc)
        b = self.resolve(instruction.rs2, pc)
        return compare_ranges(instruction.opcode, a, b)


def resolution_for(program: Program) -> Resolution:
    """Build a :class:`Resolution` (convenience wrapper)."""
    cfg = build_cfg(program)
    return Resolution(cfg=cfg, reaching=reaching_definitions(cfg))


# ----------------------------------------------------------------------
# Loop summaries: affine induction variables and trip counts.
# ----------------------------------------------------------------------

class AffineValue(NamedTuple):
    """A register whose value at a fixed loop-body point is
    ``base + step * j`` on the loop's j-th iteration (0-based)."""

    base: int
    step: int

    def at(self, iteration: int) -> int:
        return self.base + self.step * iteration


class LoopSummary(NamedTuple):
    """One natural loop with its statically derived iteration structure.

    ``trip_count`` is the number of completed back-edge traversals per
    activation — for a counted loop closed by a backward conditional latch
    this equals the latch's dynamic taken-run length; the header executes
    ``trip_count + 1`` times.  None when the trip is not statically known.
    """

    header: int
    blocks: FrozenSet[int]
    latches: Tuple[int, ...]
    exit_pc: Optional[int]
    trip_count: Optional[int]


def _resolve_relation(relation: str, c: int, s: int) -> Optional[int]:
    """Smallest ``j >= 0`` with ``c + s*j <relation> 0``, or None."""
    if relation == "==":
        if s == 0:
            return 0 if c == 0 else None
        if c % s == 0 and -c // s >= 0 and c * s <= 0:
            return -c // s
        return None
    if relation == "!=":
        if c != 0:
            return 0
        return 1 if s != 0 else None
    if relation in (">", ">="):
        flipped = "<" if relation == ">" else "<="
        return _resolve_relation(flipped, -c, -s)
    if relation == "<":
        if c < 0:
            return 0
        if s >= 0:
            return None
        return c // (-s) + 1
    if relation == "<=":
        if c <= 0:
            return 0
        if s >= 0:
            return None
        return (c + (-s) - 1) // (-s)
    raise ValueError(f"unknown relation {relation!r}")


_EXIT_RELATION = {
    Opcode.BEQ: "==",
    Opcode.BNE: "!=",
    Opcode.BLT: "<",
    Opcode.BGE: ">=",
    Opcode.BLE: "<=",
    Opcode.BGT: ">",
}
_NEGATED = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


@dataclass
class LoopAnalysis:
    """Affine induction variables and trip counts over every natural loop.

    Loop structure is the CFG's intraprocedural view
    (:attr:`~repro.analysis.cfg.ControlFlowGraph.intra_loops`), with every
    procedure entry as an additional dominator-tree root: context-insensitive
    RETURN edges would otherwise pull unrelated procedures into loop bodies
    and manufacture spurious exits, and CALL edges would make a call inside a
    loop look like the loop being left.  Trip counts are therefore
    per-*activation*: the number of back-edge traversals each time control
    enters the loop.
    """

    resolution: Resolution

    def _latches(self, header: int, body: FrozenSet[int]) -> Tuple[int, ...]:
        return tuple(
            sorted(
                src
                for src in body
                if header in self.resolution.cfg.intra_successors[src]
            )
        )

    def _inner_blocks(self, header: int, body: FrozenSet[int]) -> FrozenSet[int]:
        """Blocks of loops strictly nested inside ``(header, body)``."""
        nested: Set[int] = set()
        for other_header, other_body in self.resolution.cfg.intra_loops:
            if other_header != header and other_body < body:
                nested.update(other_body)
        return frozenset(nested)

    def loop_affine(
        self,
        header: int,
        body: FrozenSet[int],
        register: int,
        use_pc: int,
    ) -> Optional[AffineValue]:
        """Resolve ``register`` at ``use_pc`` as affine in the iteration
        index of the loop ``(header, body)``.

        The use must sit at a point executed once per iteration; the
        pattern recognised is the classic one — a constant initialisation
        outside the loop plus self-increments (``addi r, r, c``) at points
        control-equivalent with the latch.
        """
        if register == 0:
            return AffineValue(0, 0)
        resolution = self.resolution
        cfg = resolution.cfg
        use_block = cfg.block_at(use_pc).start
        latches = self._latches(header, body)
        inner = self._inner_blocks(header, body)
        inside: List[int] = []
        outside: List[int] = []
        for def_address in resolution.reaching.of(register, use_pc):
            if def_address == UNINITIALIZED:
                outside.append(def_address)
            elif cfg.block_at(def_address).start in body:
                inside.append(def_address)
            else:
                outside.append(def_address)
        if not inside:
            value = resolution.resolve(register, use_pc)
            if value.is_constant:
                return AffineValue(value.lo, 0)
            return None
        # Loop-invariant redefinition: every in-body definition produces the
        # same constant and executes before the use on every iteration.
        invariant = self._invariant_constant(inside, register, use_pc, use_block)
        if invariant is not None:
            return AffineValue(invariant, 0)
        # Otherwise every inside definition must be a once-per-iteration
        # self-increment (``addi r, r, c`` control-equivalent with the latch).
        step = 0
        before_use = 0
        for def_address in inside:
            instruction = resolution.instruction_at(def_address)
            if not (
                instruction.opcode is Opcode.ADDI
                and instruction.rd == register
                and instruction.rs1 == register
            ):
                return None
            def_block = cfg.block_at(def_address).start
            if def_block in inner:
                return None
            if not all(cfg.dominates(def_block, latch) for latch in latches):
                return None
            step += instruction.imm
            executes_before = (
                def_block == use_block and def_address < use_pc
            ) or (def_block != use_block and cfg.dominates(def_block, use_block))
            if executes_before:
                before_use += instruction.imm
        # The initial value comes from the definitions that reach the loop
        # entry from outside the body (the increment kills them at the use,
        # so they must be read off at the header).
        init: Optional[int] = None
        for def_address in resolution.reaching.of(register, header):
            if (
                def_address != UNINITIALIZED
                and cfg.block_at(def_address).start in body
            ):
                continue  # the increment itself, flowing around the back edge
            value = resolution._resolve_definition(
                register, def_address, _MAX_RESOLVE_DEPTH
            )
            if not value.is_constant:
                return None
            if init is None:
                init = value.lo
            elif init != value.lo:
                return None
        if init is None:
            return None
        return AffineValue(init + before_use, step)

    def _invariant_constant(
        self, inside: List[int], register: int, use_pc: int, use_block: int
    ) -> Optional[int]:
        """The single constant every in-body definition of ``register``
        produces, when each definition also executes before the use on every
        iteration; None when the pattern does not hold."""
        resolution = self.resolution
        cfg = resolution.cfg
        value: Optional[int] = None
        for def_address in inside:
            produced = resolution._resolve_definition(
                register, def_address, _MAX_RESOLVE_DEPTH
            )
            if not produced.is_constant:
                return None
            if value is None:
                value = produced.lo
            elif value != produced.lo:
                return None
            def_block = cfg.block_at(def_address).start
            executes_before = (
                def_block == use_block and def_address < use_pc
            ) or (def_block != use_block and cfg.dominates(def_block, use_block))
            if not executes_before:
                return None
        return value

    def summarize(self) -> List[LoopSummary]:
        """A :class:`LoopSummary` for every natural loop, in header order."""
        summaries: List[LoopSummary] = []
        cfg = self.resolution.cfg
        for header, body in cfg.intra_loops:
            latches = self._latches(header, body)
            exit_edges = [
                (src, dst)
                for src in sorted(body)
                for dst in cfg.intra_successors[src]
                if dst not in body
            ]
            exit_pc: Optional[int] = None
            trip: Optional[int] = None
            if len(exit_edges) == 1:
                exit_block = cfg.blocks[exit_edges[0][0]]
                terminator = exit_block.terminator
                if terminator.opcode in B_FORMAT and all(
                    cfg.dominates(exit_block.start, latch) for latch in latches
                ):
                    exit_pc = exit_block.end - 4
                    exit_on_taken = (
                        encoded_target(exit_pc, terminator) == exit_edges[0][1]
                    )
                    trip = self._solve_trip(
                        header, body, exit_pc, terminator, exit_on_taken,
                    )
            summaries.append(
                LoopSummary(
                    header=header,
                    blocks=body,
                    latches=latches,
                    exit_pc=exit_pc,
                    trip_count=trip,
                )
            )
        return summaries

    def _solve_trip(
        self,
        header: int,
        body: FrozenSet[int],
        exit_pc: int,
        terminator: Instruction,
        exit_on_taken: bool,
    ) -> Optional[int]:
        a = self.loop_affine(header, body, terminator.rs1, exit_pc)
        b = self.loop_affine(header, body, terminator.rs2, exit_pc)
        if a is None or b is None:
            return None
        relation = _EXIT_RELATION[terminator.opcode]
        if not exit_on_taken:
            relation = _NEGATED[relation]
        first = _resolve_relation(relation, a.base - b.base, a.step - b.step)
        if first is None:
            return None
        # Verify algebra at the boundary through the interpreter's own
        # predicate, and require both operands to stay in [0, 2^31) so the
        # unsigned register values coincide with the integer domain.
        predicate = BRANCH_SEMANTICS[terminator.opcode]
        for operand in (a, b):
            for j in (0, first):
                if not 0 <= operand.at(j) < _SIGN:
                    return None

        def exits_at(j: int) -> bool:
            taken = predicate(a.at(j) & _WORD_MAX, b.at(j) & _WORD_MAX)
            return taken == exit_on_taken

        if not exits_at(first):
            return None
        if first > 0 and exits_at(first - 1):
            return None
        return first


def loop_summaries(program: Program) -> List[LoopSummary]:
    """Loop summaries for ``program`` (convenience wrapper)."""
    return LoopAnalysis(resolution=resolution_for(program)).summarize()


# ----------------------------------------------------------------------
# The deterministic walk.
# ----------------------------------------------------------------------


def default_step_cap(budget: int) -> int:
    """The instruction cap of a walk of ``budget`` conditional branches."""
    return 200 * budget + 10_000


@dataclass
class WalkResult:
    """The conditional branches of one deterministic run.

    ``packed`` holds them in execution order as a conditional-only
    :class:`~repro.trace.columnar.PackedTrace`; ``streams[pc]`` holds site
    ``pc``'s outcomes in order.  ``stop_reason`` is ``budget``, ``halt``,
    ``step-cap``, ``divide-fault``, ``misaligned-access`` or ``bad-fetch``.
    """

    packed: PackedTrace
    streams: Dict[int, List[bool]]
    stop_reason: str

    @classmethod
    def of_branches(cls, trace: PackedTrace, stop_reason: str) -> "WalkResult":
        """The walk whose run executed ``trace``'s branches, in order."""
        packed = conditional_only(trace)
        streams: Dict[int, List[bool]] = {}
        for pc, taken in zip(packed.cond_pc, packed.cond_taken):
            streams.setdefault(pc, []).append(taken)
        return cls(packed=packed, streams=streams, stop_reason=stop_reason)

    @classmethod
    def of_trace(
        cls, trace: PackedTrace, mix: InstructionMix, budget: int
    ) -> "Optional[WalkResult]":
        """:func:`walk_program`'s result, read off a dynamic trace.

        ``trace`` and ``mix`` are what the CPU produced running the same
        program with ``max_conditional_branches=budget`` and no instruction
        cap (a workload trace of that scale), so the walk would have run
        the same instructions and stopped at the budget or at HALT, unless
        its step cap came first.  That stop is the one case a trace cannot
        reproduce, and it returns None: walk the program instead.
        """
        if mix.conditional > budget:
            raise ValueError(
                f"a trace of {mix.conditional} conditional branches"
                f" is not a walk of budget {budget}"
            )
        if mix.total_instructions >= default_step_cap(budget):
            return None
        return cls.of_branches(trace, "budget" if mix.conditional == budget else "halt")

    @property
    def known_conditionals(self) -> int:
        return len(self.packed)

    @property
    def halted(self) -> bool:
        return self.stop_reason == "halt"

    @property
    def complete(self) -> bool:
        """True when the walk stopped where a trace of its budget stops, at
        the budget or at HALT, so its branches ARE that dynamic trace."""
        return self.stop_reason in ("budget", "halt")

    @property
    def poisoned(self) -> Dict[int, str]:
        """Sites whose streams stop being exact: none, as every value the
        walk reads is known (see the module docstring)."""
        return {}

    @property
    def global_stream(self) -> List[Tuple[int, bool]]:
        """``(pc, taken)`` of every conditional branch, in execution order."""
        return list(zip(self.packed.cond_pc, self.packed.cond_taken))


def _fault_reason(program: Program, pc: int) -> str:
    """The stop reason of a run that faulted at ``pc``."""
    if pc & 3 or not program.text_base <= pc < program.text_end:
        return "bad-fetch"
    if program.instruction_at(pc).opcode in (Opcode.LD, Opcode.ST):
        return "misaligned-access"
    return "divide-fault"


def walk_program(
    program: Program, budget: int, step_cap: Optional[int] = None
) -> WalkResult:
    """Run ``program`` on the CPU until ``budget`` conditional branches
    have executed, it halts, it faults, or ``step_cap`` instructions (by
    default :func:`default_step_cap`) have run."""
    if step_cap is None:
        step_cap = default_step_cap(budget)
    try:
        result = CPU(program).run(
            max_instructions=step_cap, max_conditional_branches=budget
        )
    except ExecutionError as fault:
        # CPU.run sets both: the faulting pc and the branches before it
        assert fault.pc is not None and fault.trace is not None
        return WalkResult.of_branches(fault.trace, _fault_reason(program, fault.pc))
    if result.instructions_executed >= step_cap:
        stop_reason = "step-cap"
    else:
        stop_reason = "halt" if result.halted else "budget"
    return WalkResult.of_branches(result.packed, stop_reason)
