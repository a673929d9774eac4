"""Single-branch trace fixtures for the predictor and trace tests.

Each generator yields conditional
:class:`~repro.trace.record.BranchRecord` streams with controlled
behaviour, bypassing the CPU, and follows the record convention of
:func:`repro.trace.synthetic.random_program` (taken target ``pc + 0x40``,
fall-through ``pc + 4``).
"""

import random
from typing import Iterator, Sequence, Tuple

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
    if the pattern mixes outcomes.
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
    branch through its own pattern.
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


def biased_branch(
    taken_probability: float, count: int, pc: int = _TEXT_BASE, seed: int = 0
) -> Iterator[BranchRecord]:
    """A single branch taken independently with the given probability."""
    if not 0.0 <= taken_probability <= 1.0:
        raise ConfigError("taken_probability must be within [0, 1]")
    rng = random.Random(seed)
    for _ in range(count):
        yield _record(pc, rng.random() < taken_probability)


def loop_branch(
    trip_count: int, iterations: int, pc: int = _TEXT_BASE
) -> Iterator[BranchRecord]:
    """A backward loop branch: taken ``trip_count - 1`` times, then not taken,
    repeated for ``iterations`` loop entries."""
    if trip_count < 1:
        raise ConfigError("trip_count must be >= 1")
    pattern = [True] * (trip_count - 1) + [False]
    return periodic_branch(pattern, iterations, pc=pc)
