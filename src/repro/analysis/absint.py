"""Abstract interpretation over the workload ISA.

Three cooperating engines, all built on the PR-3 CFG and sharing the
interpreter's value semantics through the tables in
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

* **The deterministic walk** (:func:`walk_program`) — the CPU semantics
  over partially-known state.  Registers start at the architectural zero
  and memory starts as the loaded data segment, so the walk interprets the
  program concretely — recording the *exact* outcome stream of every
  conditional site it can evaluate — until unknown state intervenes.
  Unknown control flow is handled soundly by skipping to the branch's
  intraprocedural immediate post-dominator while invalidating everything
  the skipped region could write (registers always; all of memory once a
  skipped region contains a store).  A site's recorded stream is therefore
  exact for its first ``len(stream)`` dynamic occurrences (its *horizon*);
  data-dependent control flow truncates horizons rather than corrupting
  them.

The walk is parameterized by a conditional-branch budget.  Because it
counts only the conditionals it can evaluate — an undercount of the real
execution — running it to the simulator's ``max_conditional_branches``
budget guarantees every never-poisoned site's horizon covers its dynamic
occurrence count in a trace of that scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.isa.instructions import (
    ALU_SEMANTICS,
    B_FORMAT,
    BRANCH_SEMANTICS,
    IMM_SEMANTICS,
    Instruction,
    Opcode,
    encoded_target,
    registers_written,
)
from repro.isa.program import Program

from repro.analysis.cfg import ControlFlowGraph, EdgeKind, build_cfg
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


_VIRTUAL_ROOT = -2


@dataclass
class LoopAnalysis:
    """Affine induction variables and trip counts over every natural loop.

    Loop structure is computed on the *intraprocedural* edge view with every
    procedure entry as an additional dominator-tree root: context-insensitive
    RETURN edges would otherwise pull unrelated procedures into loop bodies
    and manufacture spurious exits, and CALL edges would make a call inside a
    loop look like the loop being left.  Trip counts are therefore
    per-*activation*: the number of back-edge traversals each time control
    enters the loop.
    """

    resolution: Resolution
    _dominators: Dict[int, Optional[int]] = field(default_factory=dict)
    _intra_succ: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    _intra_pred: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    _loops: List[Tuple[int, FrozenSet[int]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        cfg = self.resolution.cfg
        self._intra_succ = cfg.intra_successors
        self._intra_pred = cfg.intra_predecessors
        roots = {cfg.entry}
        roots.update(edge.dst for edge in cfg.edges if edge.kind == EdgeKind.CALL)
        self._dominators = self._intra_dominators(sorted(roots))
        self._loops = self._intra_loops()

    def _intra_dominators(self, roots: List[int]) -> Dict[int, Optional[int]]:
        """CHK immediate dominators over the multi-rooted intra view."""
        seen: Set[int] = {_VIRTUAL_ROOT}
        order: List[int] = []
        stack: List[Tuple[int, Iterator[int]]] = [(_VIRTUAL_ROOT, iter(roots))]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(self._intra_succ[child])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                order.append(node)
        order.reverse()
        position = {node: index for index, node in enumerate(order)}
        idom: Dict[int, int] = {_VIRTUAL_ROOT: _VIRTUAL_ROOT}

        def preds(node: int) -> Tuple[int, ...]:
            base = self._intra_pred.get(node, ())
            return base + (_VIRTUAL_ROOT,) if node in roots else base

        def intersect(a: int, b: int) -> int:
            while a != b:
                while position[a] > position[b]:
                    a = idom[a]
                while position[b] > position[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for node in order:
                if node == _VIRTUAL_ROOT:
                    continue
                new_idom: Optional[int] = None
                for pred in preds(node):
                    if pred in idom and pred in position:
                        new_idom = (
                            pred
                            if new_idom is None
                            else intersect(pred, new_idom)
                        )
                if new_idom is not None and idom.get(node) != new_idom:
                    idom[node] = new_idom
                    changed = True
        return {
            node: (None if value == _VIRTUAL_ROOT else value)
            for node, value in idom.items()
            if node != _VIRTUAL_ROOT
        }

    def _intra_loops(self) -> List[Tuple[int, FrozenSet[int]]]:
        """Natural loops of the intra view (bodies merged per header)."""
        bodies: Dict[int, Set[int]] = {}
        for src, dsts in self._intra_succ.items():
            if src not in self._dominators:
                continue
            for dst in dsts:
                if not self._dominates(dst, src):
                    continue
                body = bodies.setdefault(dst, {dst})
                stack = [src]
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(
                        pred
                        for pred in self._intra_pred[node]
                        if pred in self._dominators
                    )
                bodies[dst] = body
        return sorted(
            (header, frozenset(body)) for header, body in bodies.items()
        )

    def _dominates(self, a: int, b: int) -> bool:
        node: Optional[int] = b
        while node is not None:
            if node == a:
                return True
            node = self._dominators.get(node)
        return False

    def _latches(self, header: int, body: FrozenSet[int]) -> Tuple[int, ...]:
        return tuple(
            sorted(
                src
                for src in body
                if header in self._intra_succ[src]
            )
        )

    def _inner_blocks(self, header: int, body: FrozenSet[int]) -> FrozenSet[int]:
        """Blocks of loops strictly nested inside ``(header, body)``."""
        nested: Set[int] = set()
        for other_header, other_body in self._loops:
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
            if not all(self._dominates(def_block, latch) for latch in latches):
                return None
            step += instruction.imm
            executes_before = (
                def_block == use_block and def_address < use_pc
            ) or (def_block != use_block and self._dominates(def_block, use_block))
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
            ) or (def_block != use_block and self._dominates(def_block, use_block))
            if not executes_before:
                return None
        return value

    def summarize(self) -> List[LoopSummary]:
        """A :class:`LoopSummary` for every natural loop, in header order."""
        summaries: List[LoopSummary] = []
        cfg = self.resolution.cfg
        for header, body in self._loops:
            latches = self._latches(header, body)
            exit_edges = [
                (src, dst)
                for src in sorted(body)
                for dst in self._intra_succ[src]
                if dst not in body
            ]
            exit_pc: Optional[int] = None
            trip: Optional[int] = None
            if len(exit_edges) == 1:
                exit_block = cfg.blocks[exit_edges[0][0]]
                terminator = exit_block.terminator
                if terminator.opcode in B_FORMAT and all(
                    self._dominates(exit_block.start, latch) for latch in latches
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

class RegionInfo(NamedTuple):
    """What a branch-to-join skip must account for: the join block, every
    register the region (including called subroutines) can write, every
    conditional site whose occurrences the walk will not observe, and
    whether the region can write memory at all."""

    join: Optional[int]
    clobbers: FrozenSet[int]
    sites: Tuple[int, ...]
    has_store: bool


@dataclass
class WalkResult:
    """Exact per-site outcome streams from one deterministic walk.

    ``streams[pc]`` holds the site's first ``len(streams[pc])`` dynamic
    outcomes, in order; that length is the site's *horizon*.  A site enters
    ``poisoned`` the first time its occurrences stop being observable —
    unknown operands at the site, or residence inside a skipped region —
    and its stream stops growing (the recorded prefix stays exact).
    """

    streams: Dict[int, List[bool]]
    poisoned: Dict[int, str]
    observed_unknown: Dict[int, int]
    region_entries: Dict[int, int]
    region_sites: Dict[int, Tuple[int, ...]]
    known_conditionals: int
    observed_conditionals: int
    checkpoint: Dict[int, int]
    steps: int
    truncated: bool
    halted: bool
    stop_reason: str = "budget"
    stop_pc: int = -1
    global_stream: List[Tuple[int, bool]] = field(default_factory=list)
    global_exact: bool = True

    def horizon(self, pc: int) -> int:
        """Occurrences for which ``pc``'s outcomes are exactly known."""
        return len(self.streams.get(pc, []))

    @property
    def complete(self) -> bool:
        """True when the walk reproduced the execution's conditional-branch
        sequence exactly up to where it stopped — no region was ever
        skipped, so ``global_stream`` IS the dynamic branch trace."""
        return self.global_exact and not self.truncated


class _Walker:
    """Implementation of :func:`walk_program` (state bundled in a class so
    the region machinery can be memoized per program)."""

    def __init__(self, program: Program, cfg: ControlFlowGraph) -> None:
        self.program = program
        self.cfg = cfg
        self.ipdom = cfg.intra_post_dominators
        self._intra_succ = cfg.intra_successors
        self._call_targets: Dict[int, List[int]] = {
            start: [
                edge.dst
                for edge in cfg.successors(start)
                if edge.kind == EdgeKind.CALL
            ]
            for start in cfg.blocks
        }
        self._region_cache: Dict[int, RegionInfo] = {}
        self._proc_cache: Dict[
            int, Tuple[FrozenSet[int], Tuple[int, ...], bool]
        ] = {}
        self._proc_in_progress: Set[int] = set()

    # -- procedure summaries -------------------------------------------
    def _procedure_summary(
        self, entry: int
    ) -> Tuple[FrozenSet[int], Tuple[int, ...], bool]:
        """(clobbered registers, conditional sites, writes-memory) of the
        procedure whose body is reachable from ``entry`` along
        intraprocedural edges, including everything its own calls can do."""
        cached = self._proc_cache.get(entry)
        if cached is not None:
            return cached
        if entry in self._proc_in_progress:
            # Recursion: give the conservative answer (everything).
            return frozenset(range(1, 32)), (), True
        self._proc_in_progress.add(entry)
        try:
            clobbers: Set[int] = set()
            sites: Set[int] = set()
            seen: Set[int] = set()
            has_store = False
            stack = [entry]
            while stack:
                start = stack.pop()
                if start in seen:
                    continue
                seen.add(start)
                block = self.cfg.blocks[start]
                for pc, instruction in zip(block.addresses(), block.instructions):
                    clobbers.update(registers_written(instruction))
                    if instruction.opcode in B_FORMAT:
                        sites.add(pc)
                    elif instruction.opcode in (Opcode.ST, Opcode.STB):
                        has_store = True
                for callee in self._call_targets[start]:
                    sub = self._procedure_summary(callee)
                    clobbers.update(sub[0])
                    sites.update(sub[1])
                    has_store = has_store or sub[2]
                stack.extend(self._intra_succ[start])
            result = (frozenset(clobbers), tuple(sorted(sites)), has_store)
        finally:
            self._proc_in_progress.discard(entry)
        self._proc_cache[entry] = result
        return result

    # -- region skipping -----------------------------------------------
    def region_info(self, block_start: int) -> RegionInfo:
        """Join point and side effects of "this block's terminator went an
        unknown way": everything reachable intraprocedurally from its
        successors short of the immediate post-dominator."""
        cached = self._region_cache.get(block_start)
        if cached is not None:
            return cached
        join = self.ipdom.get(block_start)
        if join is None:
            info = RegionInfo(
                join=None, clobbers=frozenset(), sites=(), has_store=False
            )
            self._region_cache[block_start] = info
            return info
        clobbers: Set[int] = set()
        sites: Set[int] = set()
        seen: Set[int] = set()
        has_store = False
        stack = [s for s in self._intra_succ[block_start] if s != join]
        while stack:
            start = stack.pop()
            if start in seen or start == join:
                continue
            seen.add(start)
            block = self.cfg.blocks[start]
            for pc, instruction in zip(block.addresses(), block.instructions):
                clobbers.update(registers_written(instruction))
                if instruction.opcode in B_FORMAT:
                    sites.add(pc)
                elif instruction.opcode in (Opcode.ST, Opcode.STB):
                    has_store = True
            for callee in self._call_targets[start]:
                sub = self._procedure_summary(callee)
                clobbers.update(sub[0])
                sites.update(sub[1])
                has_store = has_store or sub[2]
            stack.extend(s for s in self._intra_succ[start] if s != join)
        info = RegionInfo(
            join=join,
            clobbers=frozenset(clobbers),
            sites=tuple(sorted(sites)),
            has_store=has_store,
        )
        self._region_cache[block_start] = info
        return info

    # -- the walk itself -----------------------------------------------
    def walk(self, budget: int, step_cap: Optional[int] = None) -> WalkResult:
        program = self.program
        instructions = program.instructions
        text_base = program.text_base
        count = len(instructions)
        if step_cap is None:
            step_cap = 200 * budget + 10_000

        regs: List[Optional[int]] = [0] * 32
        streams: Dict[int, List[bool]] = {}
        poisoned: Dict[int, str] = {}
        observed_unknown: Dict[int, int] = {}
        region_entries: Dict[int, int] = {}
        region_sites: Dict[int, Tuple[int, ...]] = {}
        checkpoint: Dict[int, int] = {}
        known = 0
        observed = 0
        steps = 0
        truncated = False
        halted = False
        checkpointed = False
        stop_reason = "budget"
        pc = program.entry
        global_stream: List[Tuple[int, bool]] = []
        global_exact = True
        # Concrete memory: the loaded data segment, word-indexed like
        # Memory._words.  A None entry is a known address holding an unknown
        # value; mem_valid False means an unskipped store to an unknown
        # address (or a skipped region containing stores) may have clobbered
        # anything, so every load is ⊤ from then on.
        mem: Dict[int, Optional[int]] = {
            address >> 2: word & _WORD_MAX for address, word in program.data
        }
        mem_valid = True

        def poison(site: int, reason: str) -> None:
            if site not in poisoned:
                poisoned[site] = reason

        def nonlocal_exact() -> None:
            nonlocal global_exact
            global_exact = False

        def skip_unknown(branch_pc: int) -> Optional[int]:
            """Handle an unresolvable terminator: invalidate and rejoin."""
            nonlocal mem_valid
            block_start = self.cfg.block_at(branch_pc).start
            info = self.region_info(block_start)
            if info.join is None:
                return None
            nonlocal_exact()
            region_entries[branch_pc] = region_entries.get(branch_pc, 0) + 1
            region_sites[branch_pc] = info.sites
            for register in info.clobbers:
                if register:
                    regs[register] = None
            for site in info.sites:
                poison(site, "skipped-region")
            if info.has_store:
                mem_valid = False
            return info.join

        while steps < step_cap and known < budget:
            index = (pc - text_base) >> 2
            if pc & 3 or not 0 <= index < count:
                truncated = True
                stop_reason = "bad-fetch"
                break
            # the identity tests below need Opcode members in the opcode
            # field, which is what the assembler and the decoder store
            opcode, rd, rs1, rs2, imm = instructions[index]
            steps += 1
            next_pc = pc + 4

            if opcode in B_FORMAT:
                a = regs[rs1]
                b = regs[rs2]
                observed += 1
                if a is not None and b is not None:
                    taken = BRANCH_SEMANTICS[opcode](a, b)
                    known += 1
                    if global_exact:
                        global_stream.append((pc, taken))
                    if pc not in poisoned:
                        streams.setdefault(pc, []).append(taken)
                    if taken:
                        next_pc = pc + 4 + 4 * imm
                else:
                    observed_unknown[pc] = observed_unknown.get(pc, 0) + 1
                    poison(pc, "unknown-operands")
                    nonlocal_exact()
                    join = skip_unknown(pc)
                    if join is None:
                        truncated = True
                        stop_reason = "no-join"
                        break
                    next_pc = join
                if not checkpointed and observed >= budget:
                    checkpointed = True
                    checkpoint = {site: len(s) for site, s in streams.items()}
            elif opcode in IMM_SEMANTICS:
                if rd:
                    base = regs[rs1] if opcode is not Opcode.LUI else 0
                    if base is not None:
                        regs[rd] = IMM_SEMANTICS[opcode](base, imm)
                    else:
                        regs[rd] = None
            elif opcode in ALU_SEMANTICS:
                if rd:
                    a = regs[rs1]
                    b = regs[rs2]
                    if a is not None and b is not None:
                        try:
                            regs[rd] = ALU_SEMANTICS[opcode](a, b)
                        except ZeroDivisionError:
                            # The CPU would fault here; the walk has
                            # followed real paths, so stop faithfully.
                            truncated = True
                            stop_reason = "divide-fault"
                            break
                    else:
                        regs[rd] = None
            elif opcode is Opcode.LD:
                if rd:
                    base = regs[rs1]
                    if mem_valid and base is not None:
                        regs[rd] = mem.get((base + imm) >> 2, 0)
                    else:
                        regs[rd] = None
            elif opcode is Opcode.LDB:
                if rd:
                    base = regs[rs1]
                    if mem_valid and base is not None:
                        address = base + imm
                        word = mem.get(address >> 2, 0)
                        if word is None:
                            regs[rd] = None
                        else:
                            regs[rd] = (word >> ((3 - (address & 3)) * 8)) & 0xFF
                    else:
                        regs[rd] = None
            elif opcode is Opcode.ST:
                base = regs[rs1]
                if base is None:
                    mem_valid = False
                elif mem_valid:
                    mem[(base + imm) >> 2] = regs[rd]
            elif opcode is Opcode.STB:
                base = regs[rs1]
                value = regs[rd]
                if base is None:
                    mem_valid = False
                elif mem_valid:
                    address = base + imm
                    windex = address >> 2
                    word = mem.get(windex, 0)
                    if word is None or value is None:
                        mem[windex] = None
                    else:
                        shift = (3 - (address & 3)) * 8
                        mem[windex] = (
                            (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
                        )
            elif opcode is Opcode.NOP:
                pass
            elif opcode is Opcode.BR:
                next_pc = pc + 4 + 4 * imm
            elif opcode is Opcode.BSR:
                regs[1] = next_pc
                next_pc = pc + 4 + 4 * imm
            elif opcode is Opcode.JMP:
                target = regs[rs1]
                if target is not None:
                    next_pc = target
                else:
                    join = skip_unknown(pc)
                    if join is None:
                        truncated = True
                        stop_reason = "no-join"
                        break
                    next_pc = join
            elif opcode is Opcode.JSR:
                target = regs[rs1]
                if target is not None:
                    regs[1] = next_pc
                    next_pc = target
                else:
                    # Unknown indirect call: every candidate callee's side
                    # effects, then the continuation.  The callee's rts
                    # reaches the continuation *through* r1, so r1 holds
                    # exactly the continuation address when control resumes.
                    block_start = self.cfg.block_at(pc).start
                    nonlocal_exact()
                    candidates = self._call_targets[block_start]
                    if not candidates:
                        mem_valid = False
                        for register in range(2, 32):
                            regs[register] = None
                    for callee in candidates:
                        sub = self._procedure_summary(callee)
                        for register in sub[0]:
                            if register:
                                regs[register] = None
                        for site in sub[1]:
                            poison(site, "skipped-region")
                        if sub[2]:
                            mem_valid = False
                    regs[1] = next_pc
            elif opcode is Opcode.RTS:
                target = regs[1]
                if target is None:
                    truncated = True
                    stop_reason = "unknown-return"
                    break
                next_pc = target
            elif opcode is Opcode.HALT:
                halted = True
                stop_reason = "halt"
                break
            pc = next_pc

        if steps >= step_cap:
            truncated = True
            stop_reason = "step-cap"
        if not checkpointed:
            checkpoint = {site: len(s) for site, s in streams.items()}
        return WalkResult(
            streams=streams,
            poisoned=poisoned,
            observed_unknown=observed_unknown,
            region_entries=region_entries,
            region_sites=region_sites,
            known_conditionals=known,
            observed_conditionals=observed,
            checkpoint=checkpoint,
            steps=steps,
            truncated=truncated,
            halted=halted,
            stop_reason=stop_reason,
            stop_pc=pc,
            global_stream=global_stream,
            global_exact=global_exact,
        )


def walk_program(
    program: Program,
    budget: int,
    cfg: Optional[ControlFlowGraph] = None,
    step_cap: Optional[int] = None,
) -> WalkResult:
    """Run the deterministic walk until ``budget`` conditional branches
    have been evaluated (or the program halts / becomes unresolvable)."""
    if cfg is None:
        cfg = build_cfg(program)
    return _Walker(program, cfg).walk(budget, step_cap)
