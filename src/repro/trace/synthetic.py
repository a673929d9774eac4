"""A parametric synthetic branch-trace generator.

The real evaluation traces come from running the SPEC-analog programs on the
ISA simulator (:mod:`repro.workloads`), but the Table 2 smoke experiment and
the tests need a *controlled* whole-program stream: many static branches
with a skewed visit profile, some periodic and some biased-random.
:func:`random_program` produces such a stream directly, bypassing the CPU,
and is deterministic given its ``seed``.  The single-branch fixtures
(periodic, interleaved, biased, loop) live with the tests.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.errors import ConfigError
from repro.trace.record import BranchClass, BranchRecord

_TEXT_BASE = 0x1000


def _record(pc: int, taken: bool) -> BranchRecord:
    target = pc + 0x40 if taken else pc + 4
    return BranchRecord(pc=pc, cls=BranchClass.CONDITIONAL, taken=taken, target=target)


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
