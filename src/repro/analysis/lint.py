"""Lint rules over the CFG and dataflow results.

Each rule has a stable identifier (``R001``..``R008``) so suppressions,
docs and tests can reference findings without string-matching messages.
Severities are fixed per rule: *error* marks structural defects that make a
program meaningless to simulate (control flow leaving the text segment,
loops that cannot terminate), *warning* marks suspicious-but-runnable
constructs (dead stores, unreachable code).  ``repro lint`` exits non-zero
only on errors unless ``--strict`` promotes warnings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.isa.assembler import assemble
from repro.isa.instructions import B_FORMAT, Opcode
from repro.isa.program import Program
from repro.isa.registers import register_name

from repro.analysis.absint import LoopAnalysis, Resolution
from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dataflow import liveness


class Severity(enum.Enum):
    """Finding severity; ordering lets callers threshold (error > warning)."""

    WARNING = "warning"
    ERROR = "error"


class Rule(NamedTuple):
    """A lint rule's identity card (the check itself lives in the engine)."""

    id: str
    name: str
    severity: Severity
    description: str


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "R001",
            "unreachable-block",
            Severity.WARNING,
            "Basic block can never execute: no control-flow path from the "
            "program entry reaches it.",
        ),
        Rule(
            "R002",
            "fallthrough-off-text-end",
            Severity.ERROR,
            "The last text instruction can fall through past the end of the "
            "text segment (it is not halt/br/jmp/rts).",
        ),
        Rule(
            "R003",
            "read-of-uninitialized-register",
            Severity.WARNING,
            "Every definition reaching this read of a register is the "
            "program entry: no instruction has written it on any path.",
        ),
        Rule(
            "R004",
            "branch-to-undefined-address",
            Severity.ERROR,
            "An immediate branch target lies outside the text segment.",
        ),
        Rule(
            "R005",
            "call-return-imbalance",
            Severity.WARNING,
            "The program has subroutine calls without any rts, or an rts "
            "without any call site.",
        ),
        Rule(
            "R006",
            "infinite-loop-no-exit",
            Severity.ERROR,
            "A reachable cycle has no edge leaving it: once entered, "
            "execution can never terminate or continue elsewhere.",
        ),
        Rule(
            "R007",
            "dead-store",
            Severity.WARNING,
            "A register write whose value cannot be read on any path before "
            "being overwritten.",
        ),
        Rule(
            "R008",
            "unreachable-halt-missing",
            Severity.WARNING,
            "No halt instruction is reachable: the program cannot terminate "
            "on its own.",
        ),
        Rule(
            "R009",
            "constant-condition-branch",
            Severity.WARNING,
            "Conditional branch whose outcome is provably one-sided: the "
            "value ranges of its operands decide the comparison on every "
            "path.",
        ),
        Rule(
            "R010",
            "code-after-unconditional-jump",
            Severity.WARNING,
            "Block that starts right after an unconditional transfer and is "
            "the target of no edge: dead code a fall-through can never "
            "reach.",
        ),
        Rule(
            "R011",
            "degenerate-loop-trip-count",
            Severity.WARNING,
            "Loop whose statically-known trip count is 0 or 1: the "
            "back-edge is never or once taken, so the loop structure is "
            "vestigial.",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule, severity, location and human-readable message."""

    rule: str
    severity: Severity
    address: Optional[int]
    label: Optional[str]
    message: str

    def render(self) -> str:
        """``ADDR [label] RULE severity: message`` (address part optional)."""
        where = ""
        if self.address is not None:
            where = f"{self.address:#010x}"
            if self.label:
                where += f" <{self.label}>"
            where += ": "
        return f"{where}{self.rule} {self.severity.value}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "name": RULES[self.rule].name,
            "severity": self.severity.value,
            "address": self.address,
            "label": self.label,
            "message": self.message,
        }


@dataclass
class LintResult:
    """All findings for one program, plus the CFG they were computed on."""

    name: str
    cfg: ControlFlowGraph
    diagnostics: List[Diagnostic]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when there are no error-severity findings."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when there are no findings at all."""
        return not self.diagnostics

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.name,
            "blocks": len(self.cfg.blocks),
            "edges": len(self.cfg.edges),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


def _diag(
    cfg: ControlFlowGraph,
    rule: str,
    address: Optional[int],
    message: str,
) -> Diagnostic:
    label = cfg.label_for(address) if address is not None else None
    return Diagnostic(
        rule=rule,
        severity=RULES[rule].severity,
        address=address,
        label=label,
        message=message,
    )


# ----------------------------------------------------------------------
# Rule implementations.  Each takes the CFG, or the program's Resolution
# for the rules that read values, and appends diagnostics.
# ----------------------------------------------------------------------

def _check_unreachable(cfg: ControlFlowGraph, out: List[Diagnostic]) -> None:
    reachable = cfg.reachable()
    for start in sorted(cfg.blocks):
        if start in reachable:
            continue
        block = cfg.blocks[start]
        out.append(
            _diag(
                cfg,
                "R001",
                start,
                f"unreachable block of {len(block.instructions)} "
                "instruction(s)",
            )
        )


def _check_fallthrough_off_end(
    cfg: ControlFlowGraph, out: List[Diagnostic]
) -> None:
    program = cfg.program
    if not program.instructions:
        return
    last = program.instructions[-1]
    if last.opcode in (Opcode.HALT, Opcode.BR, Opcode.JMP, Opcode.RTS):
        return
    out.append(
        _diag(
            cfg,
            "R002",
            program.text_end - 4,
            f"last instruction '{last.opcode.name.lower()}' can fall "
            "through past the end of the text segment",
        )
    )


def _check_uninitialized_reads(
    resolution: Resolution, out: List[Diagnostic]
) -> None:
    for address, register in resolution.reaching.definitely_uninitialized_reads():
        out.append(
            _diag(
                resolution.cfg,
                "R003",
                address,
                f"read of {register_name(register)} which no instruction "
                "has written on any path from entry",
            )
        )


def _check_branch_targets(
    cfg: ControlFlowGraph, out: List[Diagnostic]
) -> None:
    program = cfg.program
    lo, hi = program.text_base, program.text_end
    for start in sorted(cfg.blocks):
        block = cfg.blocks[start]
        for pc, instruction in zip(block.addresses(), block.instructions):
            opcode = instruction.opcode
            if opcode not in B_FORMAT and opcode not in (
                Opcode.BR,
                Opcode.BSR,
            ):
                continue
            target = pc + 4 + 4 * instruction.imm
            if not lo <= target < hi:
                out.append(
                    _diag(
                        cfg,
                        "R004",
                        pc,
                        f"branch target {target:#x} lies outside the text "
                        f"segment [{lo:#x}, {hi:#x})",
                    )
                )


def _check_call_return_balance(
    cfg: ControlFlowGraph, out: List[Diagnostic]
) -> None:
    calls = [
        pc
        for start in cfg.blocks
        for pc, instruction in zip(
            cfg.blocks[start].addresses(), cfg.blocks[start].instructions
        )
        if instruction.opcode in (Opcode.BSR, Opcode.JSR)
    ]
    returns = [
        pc
        for start in cfg.blocks
        for pc, instruction in zip(
            cfg.blocks[start].addresses(), cfg.blocks[start].instructions
        )
        if instruction.opcode is Opcode.RTS
    ]
    if calls and not returns:
        out.append(
            _diag(
                cfg,
                "R005",
                min(calls),
                f"{len(calls)} call site(s) but no rts anywhere in the "
                "program",
            )
        )
    elif returns and not calls:
        out.append(
            _diag(
                cfg,
                "R005",
                min(returns),
                "rts without any bsr/jsr call site: the link register is "
                "never set",
            )
        )


def _check_infinite_loops(
    cfg: ControlFlowGraph, out: List[Diagnostic]
) -> None:
    for component in cfg.strongly_connected_components():
        cyclic = len(component) > 1 or any(
            edge.dst in component for edge in cfg.successors(next(iter(component)))
        )
        if not cyclic:
            continue
        escapes = any(
            edge.dst not in component
            for start in component
            for edge in cfg.successors(start)
        )
        if escapes:
            continue
        header = min(component)
        out.append(
            _diag(
                cfg,
                "R006",
                header,
                f"cycle of {len(component)} block(s) with no exit edge: "
                "execution can never leave it",
            )
        )


def _check_dead_stores(cfg: ControlFlowGraph, out: List[Diagnostic]) -> None:
    for address, register in liveness(cfg).dead_stores():
        out.append(
            _diag(
                cfg,
                "R007",
                address,
                f"value written to {register_name(register)} is never read "
                "before being overwritten",
            )
        )


def _check_halt_reachable(
    cfg: ControlFlowGraph, out: List[Diagnostic]
) -> None:
    reachable = cfg.reachable()
    for start in reachable:
        if any(
            instruction.opcode is Opcode.HALT
            for instruction in cfg.blocks[start].instructions
        ):
            return
    out.append(
        _diag(
            cfg,
            "R008",
            None,
            "no reachable halt instruction: the program cannot terminate "
            "on its own",
        )
    )


def _check_constant_conditions(
    resolution: Resolution, out: List[Diagnostic]
) -> None:
    cfg = resolution.cfg
    reachable = cfg.reachable()
    for start in sorted(reachable):
        block = cfg.blocks[start]
        terminator = block.terminator
        if terminator.opcode not in B_FORMAT:
            continue
        pc = block.end - 4
        decision = resolution.branch_decision(pc)
        if decision is None:
            continue
        out.append(
            _diag(
                cfg,
                "R009",
                pc,
                f"'{terminator.opcode.name.lower()}' is always "
                f"{'taken' if decision else 'not taken'}: operand value "
                "ranges decide the comparison on every path",
            )
        )


def _check_code_after_jump(
    cfg: ControlFlowGraph, out: List[Diagnostic]
) -> None:
    _UNCONDITIONAL = (Opcode.BR, Opcode.JMP, Opcode.RTS, Opcode.HALT)
    program = cfg.program
    for start in sorted(cfg.blocks):
        if start == cfg.entry or cfg.predecessors(start):
            continue
        previous_index = (start - program.text_base) // 4 - 1
        if previous_index < 0:
            continue
        previous = program.instructions[previous_index]
        if previous.opcode not in _UNCONDITIONAL:
            continue
        block = cfg.blocks[start]
        out.append(
            _diag(
                cfg,
                "R010",
                start,
                f"block of {len(block.instructions)} instruction(s) after "
                f"'{previous.opcode.name.lower()}' is the target of no edge",
            )
        )


def _check_degenerate_loops(
    resolution: Resolution, out: List[Diagnostic]
) -> None:
    for summary in LoopAnalysis(resolution=resolution).summarize():
        if summary.trip_count is None or summary.trip_count > 1:
            continue
        times = "never" if summary.trip_count == 0 else "exactly once"
        out.append(
            _diag(
                resolution.cfg,
                "R011",
                summary.header,
                f"loop back-edge is statically known to be taken {times} "
                f"(trip count {summary.trip_count})",
            )
        )


_CHECKS: List[Callable[[ControlFlowGraph, List[Diagnostic]], None]] = [
    _check_unreachable,
    _check_fallthrough_off_end,
    _check_branch_targets,
    _check_call_return_balance,
    _check_infinite_loops,
    _check_dead_stores,
    _check_halt_reachable,
    _check_code_after_jump,
]

#: The rules that read values share the program's one :class:`Resolution`:
#: one reaching-definitions solve and one value fixpoint per lint run.
_VALUE_CHECKS: List[Callable[[Resolution, List[Diagnostic]], None]] = [
    _check_uninitialized_reads,
    _check_constant_conditions,
    _check_degenerate_loops,
]


def lint_program(program: Program, name: str = "<program>") -> LintResult:
    """Run every rule over ``program`` and collect the findings."""
    cfg = build_cfg(program)
    diagnostics: List[Diagnostic] = []
    for check in _CHECKS:
        check(cfg, diagnostics)
    resolution = Resolution.of(cfg)
    for value_check in _VALUE_CHECKS:
        value_check(resolution, diagnostics)
    diagnostics.sort(
        key=lambda d: (d.address if d.address is not None else -1, d.rule)
    )
    return LintResult(name=name, cfg=cfg, diagnostics=diagnostics)


def lint_source(source: str, name: str = "<source>") -> LintResult:
    """Assemble ``source`` and lint the result.

    Assembly failures raise :class:`~repro.errors.AssemblyError` — a lint
    run cannot begin without a decodable program, so that is a usage error
    (CLI exit 2), not a finding.
    """
    return lint_program(assemble(source), name=name)
