"""Control-flow graph over a decoded :class:`~repro.isa.program.Program`.

Construction follows the classic leader algorithm: an instruction starts a
basic block if it is the program entry, the target of a branch, or the
instruction after a control transfer.  Edges carry a *kind* so downstream
analyses can distinguish a conditional branch's taken edge from its
fall-through, a subroutine call from its return continuation, and resolved
indirect-jump candidates from architectural certainties.

Register-indirect control flow (``jmp``/``jsr``/``rts``) has no encoded
target, so the builder recovers a conservative candidate set:

* *address-taken* text addresses — data words or materialized ``li``
  constants that name a text address — become the candidate targets of
  ``jmp``/``jsr`` (this resolves the computed-goto dispatch tables the gcc
  analog uses);
* ``rts`` gets a RETURN edge to the continuation of every call site, the
  standard context-insensitive approximation.

One Cooper-Harvey-Kennedy solver, run over a virtual root above any number
of roots, gives the three views the analyses read, all over the
intraprocedural edges: dominators rooted at the entry and at every call
target, post-dominators rooted at every exit, and the natural loops (back
edges whose head dominates their tail).  One iterative Tarjan gives the
strongly connected components of any graph: the blocks', which drive the
infinite-loop lint rule (it must also catch irreducible cycles), and the
definitions' that value resolution solves in dependency order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program


class EdgeKind:
    """Edge kinds (plain strings so diagnostics and JSON stay readable)."""

    TAKEN = "taken"
    FALLTHROUGH = "fallthrough"
    CALL = "call"
    CONTINUATION = "continuation"
    RETURN = "return"
    INDIRECT = "indirect"

    ALL = (TAKEN, FALLTHROUGH, CALL, CONTINUATION, RETURN, INDIRECT)


#: Edge kinds of the intraprocedural view: calls are summarised by their
#: continuation (every generated subroutine returns), returns are cut.
INTRAPROCEDURAL_KINDS: FrozenSet[str] = frozenset(
    {
        EdgeKind.TAKEN,
        EdgeKind.FALLTHROUGH,
        EdgeKind.CONTINUATION,
        EdgeKind.INDIRECT,
    }
)


@dataclass(frozen=True)
class Edge:
    """One control-flow edge between basic blocks (by block start address)."""

    src: int
    dst: int
    kind: str


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run.

    Attributes:
        start: byte address of the first instruction.
        instructions: the decoded instruction run.
        label: symbol naming ``start`` when one exists.
    """

    start: int
    instructions: List[Instruction]
    label: Optional[str] = None

    @property
    def end(self) -> int:
        """First byte address past the block."""
        return self.start + 4 * len(self.instructions)

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def addresses(self) -> Iterator[int]:
        for index in range(len(self.instructions)):
            yield self.start + 4 * index


_UNCONDITIONAL_TRANSFER = frozenset(
    {Opcode.BR, Opcode.JMP, Opcode.RTS, Opcode.HALT}
)
_CALLS = frozenset({Opcode.BSR, Opcode.JSR})


def _address_taken_targets(program: Program) -> FrozenSet[int]:
    """Word-aligned text addresses a register-indirect jump could reach.

    Candidates are (a) data words whose value lands in the text segment
    (jump tables), and (b) text addresses materialized by ``li`` — either a
    single ``addi rd, r0, imm`` or a ``lui``/``ori`` pair.  The set is only
    consulted when the program actually contains ``jmp``/``jsr``.
    """
    lo, hi = program.text_base, program.text_end
    candidates: Set[int] = set()
    for _, word in program.data:
        if lo <= word < hi and word % 4 == 0:
            candidates.add(word)
    previous: Optional[Instruction] = None
    for instruction in program.instructions:
        opcode = instruction.opcode
        if opcode is Opcode.ADDI and instruction.rs1 == 0:
            value = instruction.imm & 0xFFFFFFFF
            if lo <= value < hi and value % 4 == 0:
                candidates.add(value)
        elif (
            opcode is Opcode.ORI
            and previous is not None
            and previous.opcode is Opcode.LUI
            and previous.rd == instruction.rd == instruction.rs1
        ):
            value = ((previous.imm & 0xFFFF) << 16) | (instruction.imm & 0xFFFF)
            if lo <= value < hi and value % 4 == 0:
                candidates.add(value)
        previous = instruction
    return frozenset(candidates)


#: The parent the dominator solver gives every root, so that one fixpoint
#: serves any number of roots (block starts are never negative).
_VIRTUAL_ROOT = -1


def _reverse_post_order(
    roots: Iterable[int], succ: Mapping[int, Sequence[int]]
) -> List[int]:
    """Every node reachable from ``roots`` in reverse post-order (iterative
    DFS), headed by :data:`_VIRTUAL_ROOT`, whose children are the roots."""
    seen: Set[int] = {_VIRTUAL_ROOT}
    order: List[int] = []
    stack: List[Tuple[int, Iterator[int]]] = [(_VIRTUAL_ROOT, iter(roots))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(succ[child])))
                break
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def _immediate_dominators(
    roots: Sequence[int],
    succ: Mapping[int, Sequence[int]],
    pred: Mapping[int, Sequence[int]],
) -> Dict[int, Optional[int]]:
    """Immediate dominator of every node reachable from ``roots``.

    The iterative Cooper-Harvey-Kennedy fixpoint over reverse post-order,
    with :data:`_VIRTUAL_ROOT` above every root.  A node whose immediate
    dominator is that virtual root maps to None; unreachable nodes are
    absent.
    """
    order = _reverse_post_order(roots, succ)
    position = {node: index for index, node in enumerate(order)}
    root_set = frozenset(roots)
    idom: Dict[int, int] = {_VIRTUAL_ROOT: _VIRTUAL_ROOT}

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
        for node in order[1:]:
            new_idom = _VIRTUAL_ROOT if node in root_set else None
            for parent in pred[node]:
                if parent in idom:
                    new_idom = (
                        parent if new_idom is None else intersect(parent, new_idom)
                    )
            if new_idom is not None and idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return {
        node: (None if parent == _VIRTUAL_ROOT else parent)
        for node, parent in idom.items()
        if node != _VIRTUAL_ROOT
    }


def _strongly_connected(
    roots: Iterable[int], succ: Mapping[int, Sequence[int]]
) -> List[FrozenSet[int]]:
    """The strongly connected components of every node reachable from
    ``roots`` (iterative Tarjan).  A component comes out after every
    component it reaches, so dependencies come before their users."""
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    components: List[FrozenSet[int]] = []
    for root in roots:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work: List[Tuple[int, Iterator[int]]] = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    break
                if child in on_stack and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                low = lowlink[node]
                if work and low < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = low
                if low == index[node]:
                    component: Set[int] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(frozenset(component))
    return components


@dataclass
class ControlFlowGraph:
    """Basic blocks plus typed edges, with the standard graph analyses."""

    program: Program
    blocks: Dict[int, BasicBlock]
    edges: List[Edge]
    entry: int
    indirect_targets: FrozenSet[int] = frozenset()
    _succ: Dict[int, List[Edge]] = field(default_factory=dict, repr=False)
    _pred: Dict[int, List[Edge]] = field(default_factory=dict, repr=False)
    #: block starts in address order, the search column of :meth:`block_at`
    _starts: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._starts = sorted(self.blocks)
        for start in self.blocks:
            self._succ[start] = []
            self._pred[start] = []
        for edge in self.edges:
            self._succ[edge.src].append(edge)
            self._pred[edge.dst].append(edge)

    # ------------------------------------------------------------------
    def successors(self, start: int) -> List[Edge]:
        return self._succ[start]

    def predecessors(self, start: int) -> List[Edge]:
        return self._pred[start]

    @cached_property
    def intra_successors(self) -> Dict[int, Tuple[int, ...]]:
        """Per block, the successors along intraprocedural edges, in edge
        order.  Computed once and shared: callers must not mutate it."""
        return {
            start: tuple(
                edge.dst
                for edge in self._succ[start]
                if edge.kind in INTRAPROCEDURAL_KINDS
            )
            for start in self.blocks
        }

    @cached_property
    def intra_predecessors(self) -> Dict[int, Tuple[int, ...]]:
        """Per block, the predecessors along intraprocedural edges, in
        edge order (shared, like :attr:`intra_successors`)."""
        return {
            start: tuple(
                edge.src
                for edge in self._pred[start]
                if edge.kind in INTRAPROCEDURAL_KINDS
            )
            for start in self.blocks
        }

    def block_at(self, address: int) -> BasicBlock:
        """The block containing ``address`` (must be a valid text address)."""
        index = bisect_right(self._starts, address) - 1
        if index >= 0:
            block = self.blocks[self._starts[index]]
            if address < block.end:
                return block
        raise KeyError(f"address {address:#x} is not in any basic block")

    # ------------------------------------------------------------------
    def reverse_post_order(self) -> List[int]:
        """Blocks reachable from the entry, in reverse post-order."""
        succ = {
            start: [edge.dst for edge in edges]
            for start, edges in self._succ.items()
        }
        return _reverse_post_order((self.entry,), succ)[1:]

    def reachable(self) -> Set[int]:
        """Block starts reachable from the entry block."""
        return set(self.reverse_post_order())

    @cached_property
    def intra_dominators(self) -> Dict[int, Optional[int]]:
        """Immediate dominator of each block over the intraprocedural
        view, rooted at the entry and at every CALL target (the view cuts
        the edges that reach a callee), so each procedure gets its own
        tree.  A root, or a block that two roots reach on disjoint paths,
        maps to None; blocks no root reaches are absent.  Computed once
        and shared."""
        roots = {self.entry}
        roots.update(edge.dst for edge in self.edges if edge.kind == EdgeKind.CALL)
        return _immediate_dominators(
            sorted(roots), self.intra_successors, self.intra_predecessors
        )

    @cached_property
    def intra_post_dominators(self) -> Dict[int, Optional[int]]:
        """Immediate post-dominator of each block over the intraprocedural
        view: the dominators of its reversed edges, rooted at every block
        with no intraprocedural successor (halts and ``rts``).  These are
        the within-procedure join points the abstract interpreter skips
        to; calls are summarised by their continuation because every
        generated subroutine returns.  A block whose only post-dominator
        is an exit's virtual parent maps to None; blocks that reach no
        exit (never-terminating cycles) are absent.  Computed once."""
        exits = sorted(
            start for start, succ in self.intra_successors.items() if not succ
        )
        return _immediate_dominators(
            exits, self.intra_predecessors, self.intra_successors
        )

    def dominates(self, a: int, b: int) -> bool:
        """Whether block ``a`` dominates block ``b`` in
        :attr:`intra_dominators` (every block dominates itself)."""
        idom = self.intra_dominators
        node: Optional[int] = b
        while node is not None:
            if node == a:
                return True
            node = idom.get(node)
        return False

    @cached_property
    def intra_loops(self) -> List[Tuple[int, FrozenSet[int]]]:
        """``(header, body)`` natural loops of the intraprocedural view, in
        header order: one per back edge (its head dominates its tail),
        with the bodies of back edges sharing a header merged."""
        idom = self.intra_dominators
        bodies: Dict[int, Set[int]] = {}
        for tail, heads in self.intra_successors.items():
            if tail not in idom:
                continue
            for header in heads:
                if not self.dominates(header, tail):
                    continue
                body = bodies.setdefault(header, {header})
                stack = [tail]
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(
                        pred
                        for pred in self.intra_predecessors[node]
                        if pred in idom
                    )
        return sorted(
            (header, frozenset(body)) for header, body in bodies.items()
        )

    def strongly_connected_components(self) -> List[FrozenSet[int]]:
        """Tarjan SCCs over the *reachable* subgraph."""
        succ = {start: [edge.dst for edge in edges] for start, edges in self._succ.items()}
        return _strongly_connected(sorted(self.reachable()), succ)

    def label_for(self, address: int) -> Optional[str]:
        """Best symbolic name for a text address: the nearest preceding
        label, with a ``+offset`` suffix when not exact."""
        best_name: Optional[str] = None
        best_address = -1
        for name, value in self.program.symbols.items():
            if value <= address and self.program.text_base <= value:
                if value > best_address and value < self.program.text_end:
                    best_name, best_address = name, value
        if best_name is None:
            return None
        delta = address - best_address
        return best_name if delta == 0 else f"{best_name}+{delta:#x}"


def build_cfg(program: Program) -> ControlFlowGraph:
    """Partition ``program`` into basic blocks and connect them."""
    instructions = program.instructions
    base = program.text_base
    end = program.text_end
    n = len(instructions)

    has_indirect = any(
        instruction.opcode in (Opcode.JMP, Opcode.JSR)
        for instruction in instructions
    )
    indirect_targets = (
        _address_taken_targets(program) if has_indirect else frozenset()
    )
    call_continuations = [
        base + 4 * index + 4
        for index, instruction in enumerate(instructions)
        if instruction.opcode in _CALLS
    ]
    has_rts = any(
        instruction.opcode is Opcode.RTS for instruction in instructions
    )

    # -- leaders -------------------------------------------------------
    leaders: Set[int] = set()
    if n:
        leaders.add(program.entry if base <= program.entry < end else base)
        leaders.add(base)
    for index, instruction in enumerate(instructions):
        pc = base + 4 * index
        opcode = instruction.opcode
        if not instruction.is_branch and opcode is not Opcode.HALT:
            continue
        if pc + 4 < end:
            leaders.add(pc + 4)
        if opcode in (Opcode.BR, Opcode.BSR) or instruction.branch_class.name == "CONDITIONAL":
            target = pc + 4 + 4 * instruction.imm
            if base <= target < end:
                leaders.add(target)
    if has_indirect:
        leaders.update(indirect_targets)
    if has_rts:
        leaders.update(
            address for address in call_continuations if address < end
        )

    # -- blocks --------------------------------------------------------
    text_labels = {
        value: name
        for name, value in sorted(program.symbols.items(), reverse=True)
        if base <= value < end
    }
    ordered = sorted(leaders)
    blocks: Dict[int, BasicBlock] = {}
    for position, start in enumerate(ordered):
        stop = ordered[position + 1] if position + 1 < len(ordered) else end
        lo_index = (start - base) >> 2
        hi_index = (stop - base) >> 2
        blocks[start] = BasicBlock(
            start=start,
            instructions=instructions[lo_index:hi_index],
            label=text_labels.get(start),
        )

    # -- edges ---------------------------------------------------------
    edges: List[Edge] = []
    starts = set(blocks)

    def add(src: int, dst: int, kind: str) -> None:
        if dst in starts:
            edges.append(Edge(src, dst, kind))

    for start, block in blocks.items():
        last = block.terminator
        pc = block.end - 4
        opcode = last.opcode
        fall = block.end
        if opcode is Opcode.HALT:
            continue
        if opcode in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
                      Opcode.BLE, Opcode.BGT):
            add(start, pc + 4 + 4 * last.imm, EdgeKind.TAKEN)
            add(start, fall, EdgeKind.FALLTHROUGH)
        elif opcode is Opcode.BR:
            add(start, pc + 4 + 4 * last.imm, EdgeKind.TAKEN)
        elif opcode is Opcode.BSR:
            add(start, pc + 4 + 4 * last.imm, EdgeKind.CALL)
            add(start, fall, EdgeKind.CONTINUATION)
        elif opcode is Opcode.JMP:
            for target in sorted(indirect_targets):
                add(start, target, EdgeKind.INDIRECT)
        elif opcode is Opcode.JSR:
            for target in sorted(indirect_targets):
                add(start, target, EdgeKind.CALL)
            add(start, fall, EdgeKind.CONTINUATION)
        elif opcode is Opcode.RTS:
            for target in call_continuations:
                add(start, target, EdgeKind.RETURN)
        else:
            add(start, fall, EdgeKind.FALLTHROUGH)

    entry = program.entry if program.entry in blocks else (base if n else 0)
    return ControlFlowGraph(
        program=program,
        blocks=blocks,
        edges=edges,
        entry=entry,
        indirect_targets=indirect_targets,
    )
