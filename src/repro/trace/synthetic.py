"""Parametric synthetic branch-trace generators.

The real evaluation traces come from running the SPEC-analog programs on the
ISA simulator (:mod:`repro.workloads`), but unit tests, property tests and
microbenchmarks need *controlled* branch behaviour: a branch with an exact
period-3 pattern, several such branches interleaved, a whole skewed
program, and so on.
These generators produce such streams directly, bypassing the CPU.

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.trace.record import BranchClass, BranchRecord

_TEXT_BASE = 0x1000


def _record(pc: int, taken: bool) -> BranchRecord:
    target = pc + 0x40 if taken else pc + 4
    return BranchRecord(pc=pc, cls=BranchClass.CONDITIONAL, taken=taken, target=target)


def periodic_branch(
    pattern: Sequence[bool], repetitions: int, pc: int = _TEXT_BASE
) -> Iterator[BranchRecord]:
    """A single static branch repeating an exact outcome ``pattern``.

    A two-level predictor with history length >= ``len(pattern) - 1`` learns
    such a branch perfectly after warm-up; a per-address 2-bit counter cannot
    if the pattern mixes outcomes.  This is the canonical "why Yeh-Patt wins"
    microworkload.
    """
    if not pattern:
        raise ConfigError("pattern must be non-empty")
    for _ in range(repetitions):
        for outcome in pattern:
            yield _record(pc, bool(outcome))


def interleaved(
    branch_specs: Sequence[Tuple[int, Sequence[bool]]], repetitions: int
) -> Iterator[BranchRecord]:
    """Round-robin interleave several periodic static branches.

    ``branch_specs`` is a sequence of ``(pc, pattern)`` pairs.  Each
    repetition emits one outcome from every branch in order, cycling each
    branch through its own pattern.  Exercises per-address history isolation
    (and, under an HHRT, hash interference between the PCs).
    """
    if not branch_specs:
        raise ConfigError("at least one branch spec is required")
    positions = [0] * len(branch_specs)
    for _ in range(repetitions):
        for index, (pc, pattern) in enumerate(branch_specs):
            if not pattern:
                raise ConfigError(f"branch at {pc:#x} has an empty pattern")
            yield _record(pc, bool(pattern[positions[index]]))
            positions[index] = (positions[index] + 1) % len(pattern)


def random_program(
    static_branches: int,
    count: int,
    seed: int = 0,
    taken_bias: float = 0.6,
    periodic_fraction: float = 0.5,
    max_period: int = 8,
) -> Iterator[BranchRecord]:
    """A whole synthetic "program": many static branches, a mix of periodic
    and biased-random behaviours, visited with a skewed (hot/cold) profile.

    Roughly ``periodic_fraction`` of static branches get an exact periodic
    pattern (period 2..max_period); the rest are independently random with
    ``taken_bias``.  Visit frequencies follow a Zipf-ish skew so a small
    associative HRT sees realistic hit rates.
    """
    if static_branches < 1:
        raise ConfigError("static_branches must be >= 1")
    rng = random.Random(seed)
    pcs = [_TEXT_BASE + 4 * i for i in range(static_branches)]
    behaviours: List[Tuple[str, object]] = []
    for _ in pcs:
        if rng.random() < periodic_fraction:
            period = rng.randint(2, max(2, max_period))
            pattern = [rng.random() < taken_bias for _ in range(period)]
            behaviours.append(("periodic", pattern))
        else:
            behaviours.append(("biased", min(1.0, max(0.0, rng.gauss(taken_bias, 0.2)))))
    weights = [1.0 / (rank + 1) for rank in range(static_branches)]
    positions = [0] * static_branches
    for _ in range(count):
        index = rng.choices(range(static_branches), weights=weights)[0]
        kind, param = behaviours[index]
        if kind == "periodic":
            pattern = param  # type: ignore[assignment]
            outcome = bool(pattern[positions[index] % len(pattern)])  # type: ignore[index, arg-type]
            positions[index] += 1
        else:
            outcome = rng.random() < float(param)  # type: ignore[arg-type]
        yield _record(pcs[index], outcome)
