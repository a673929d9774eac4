"""Single-branch trace fixtures for the predictor and trace tests.

They complement :mod:`repro.trace.synthetic` (whose generators the
experiments and benches also use) and follow its record convention.
"""

import random
from typing import Iterator

from repro.errors import ConfigError
from repro.trace.record import BranchClass, BranchRecord
from repro.trace.synthetic import periodic_branch

_TEXT_BASE = 0x1000


def biased_branch(
    taken_probability: float, count: int, pc: int = _TEXT_BASE, seed: int = 0
) -> Iterator[BranchRecord]:
    """A single branch taken independently with the given probability."""
    if not 0.0 <= taken_probability <= 1.0:
        raise ConfigError("taken_probability must be within [0, 1]")
    rng = random.Random(seed)
    for _ in range(count):
        taken = rng.random() < taken_probability
        target = pc + 0x40 if taken else pc + 4
        yield BranchRecord(pc=pc, cls=BranchClass.CONDITIONAL, taken=taken, target=target)


def loop_branch(
    trip_count: int, iterations: int, pc: int = _TEXT_BASE
) -> Iterator[BranchRecord]:
    """A backward loop branch: taken ``trip_count - 1`` times, then not taken,
    repeated for ``iterations`` loop entries."""
    if trip_count < 1:
        raise ConfigError("trip_count must be >= 1")
    pattern = [True] * (trip_count - 1) + [False]
    return periodic_branch(pattern, iterations, pc=pc)
