"""Static prediction schemes (section 5.3 comparators).

* :class:`AlwaysTaken` / :class:`AlwaysNotTaken` — the trivial baselines
  (~60 % / ~40 % on the paper's mix).
* :class:`BTFNPredictor` — Backward Taken, Forward Not taken: loop-friendly
  (misses once per loop exit) but poor on irregular forward branches.
* :class:`ProfilePredictor` — the simple profiling scheme: one pre-run
  counts taken/not-taken per static branch and freezes the majority
  direction into the (notional) opcode prediction bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.predictors.base import ConditionalBranchPredictor
from repro.trace.columnar import conditional_branches
from repro.trace.record import BranchRecord


class AlwaysTaken(ConditionalBranchPredictor):
    """Predict every conditional branch taken."""

    def predict(self, pc: int, target: int) -> bool:
        return True

    def update(self, pc: int, target: int, taken: bool) -> None:
        pass

    @property
    def name(self) -> str:
        return "AlwaysTaken"


class AlwaysNotTaken(ConditionalBranchPredictor):
    """Predict every conditional branch not taken."""

    def predict(self, pc: int, target: int) -> bool:
        return False

    def update(self, pc: int, target: int, taken: bool) -> None:
        pass

    @property
    def name(self) -> str:
        return "AlwaysNotTaken"


class BTFNPredictor(ConditionalBranchPredictor):
    """Backward Taken, Forward Not taken.

    The direction is static per branch site: taken if the encoded target
    precedes the branch (a loop-closing edge), not-taken otherwise.
    """

    def predict(self, pc: int, target: int) -> bool:
        return target < pc

    def update(self, pc: int, target: int, taken: bool) -> None:
        pass

    @property
    def name(self) -> str:
        return "BTFN"


class ProfilePredictor(ConditionalBranchPredictor):
    """Per-branch majority direction from a profiling run.

    Args:
        bias: static branch pc -> profiled majority direction.
        default_taken: direction for branches never seen while profiling
            (taken, since ~60 % of conditional branches are taken).

    The paper profiles and executes on the same data set, making this the
    best static per-branch predictor achievable; running the profiled bits
    over the same trace reproduces exactly the paper's analytic accuracy
    (sum of per-branch majority counts over total branches).
    """

    def __init__(self, bias: Mapping[int, bool], default_taken: bool = True):
        self.bias: Dict[int, bool] = dict(bias)
        self.default_taken = default_taken

    @classmethod
    def from_trace(
        cls, records: Iterable[BranchRecord], default_taken: bool = True
    ) -> "ProfilePredictor":
        """Profile a trace: count taken vs not-taken per static branch and
        keep the majority (ties resolve to taken)."""
        balance: Dict[int, int] = {}
        for pc, _target, taken in conditional_branches(records):
            balance[pc] = balance.get(pc, 0) + (1 if taken else -1)
        return cls(
            {pc: net >= 0 for pc, net in balance.items()},
            default_taken=default_taken,
        )

    def predict(self, pc: int, target: int) -> bool:
        return self.bias.get(pc, self.default_taken)

    def update(self, pc: int, target: int, taken: bool) -> None:
        pass

    @property
    def name(self) -> str:
        return "Profile"
