"""The Two-Level Adaptive Training predictor (the paper's contribution).

:class:`TwoLevelAdaptivePredictor` is the section 2 scheme: a per-address
history register table (level one) indexing a global pattern table of
automata (level two).  Both levels update on every resolved branch, which is
what makes the scheme *adaptive* — unlike Static Training, the
pattern-history information tracks the current execution.

:class:`DelayedUpdatePredictor` models the other section 3.2 concern: in a
deep pipeline the previous outcome of a branch may not have resolved when the
next prediction is needed.  It delays updates by a configurable number of
branch slots and (optionally, per the paper) predicts *taken* for a branch
with an in-flight unresolved instance.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.errors import ConfigError
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.hrt import HistoryRegisterTable
from repro.predictors.pattern_table import PatternTable


class TwoLevelAdaptivePredictor(ConditionalBranchPredictor):
    """AT(HRT, PT) — Two-Level Adaptive Training.

    Args:
        hrt: history-register-table front-end (IHRT / AHRT / HHRT).  Its
            ``init_payload`` is set to the all-ones history (section 4.2:
            registers initialise to 1s because most branches are taken) and
            the table is reset to apply it.
        pattern_table: the shared second level.  Its ``history_length`` fixes
            the history register width k.
    """

    def __init__(self, hrt: HistoryRegisterTable, pattern_table: PatternTable):
        self.hrt = hrt
        self.pattern_table = pattern_table
        self.history_length = pattern_table.history_length
        self._mask = (1 << self.history_length) - 1
        hrt.init_payload = self._mask
        hrt.reset()

    def predict(self, pc: int, target: int) -> bool:
        history = self.hrt.get(pc)
        return self.pattern_table.predict(history)

    def update(self, pc: int, target: int, taken: bool) -> None:
        history = self.hrt.get(pc)
        self.pattern_table.update(history, taken)
        new_history = ((history << 1) | (1 if taken else 0)) & self._mask
        self.hrt.put(pc, new_history)

    def observe(self, pc: int, target: int, taken: bool) -> bool:
        # Fused predict+update: predict's hrt.get leaves the entry resident
        # and most-recently-used, so update's repeat lookup always hits the
        # same register — one get plus the fused pattern-table access gives
        # the identical prediction, transition, and final table state.
        history = self.hrt.get(pc)
        prediction = self.pattern_table.observe(history, taken)
        self.hrt.put(pc, ((history << 1) | (1 if taken else 0)) & self._mask)
        return prediction

    def reset(self) -> None:
        self.hrt.reset()
        self.pattern_table.reset()

    @property
    def name(self) -> str:
        k = self.history_length
        return (
            f"AT({self.hrt.spec_name}{k}SR),"
            f"PT(2^{k},{self.pattern_table.automaton.name}),)"
        )


class DelayedUpdatePredictor(ConditionalBranchPredictor):
    """Wrap any predictor so outcomes arrive ``delay`` branch slots late.

    Models unresolved branches in a deep pipeline: an update enters a FIFO
    and is applied to the wrapped predictor only after ``delay`` further
    updates have been issued.  With ``predict_taken_when_pending`` (the
    paper's tight-loop rule), a branch that has an unresolved instance in
    flight is simply predicted taken instead of stalling.
    """

    def __init__(
        self,
        inner: ConditionalBranchPredictor,
        delay: int,
        predict_taken_when_pending: bool = True,
    ):
        if delay < 0:
            raise ConfigError(f"delay must be >= 0, got {delay}")
        self.inner = inner
        self.delay = delay
        self.predict_taken_when_pending = predict_taken_when_pending
        self._pending: Deque[Tuple[int, int, bool]] = deque()

    def predict(self, pc: int, target: int) -> bool:
        if self.predict_taken_when_pending and any(
            entry[0] == pc for entry in self._pending
        ):
            return True
        return self.inner.predict(pc, target)

    def update(self, pc: int, target: int, taken: bool) -> None:
        self._pending.append((pc, target, taken))
        while len(self._pending) > self.delay:
            old_pc, old_target, old_taken = self._pending.popleft()
            self.inner.update(old_pc, old_target, old_taken)

    def flush(self) -> None:
        """Apply all in-flight updates (e.g. at end of trace)."""
        while self._pending:
            pc, target, taken = self._pending.popleft()
            self.inner.update(pc, target, taken)

    def reset(self) -> None:
        self._pending.clear()
        self.inner.reset()

    @property
    def name(self) -> str:
        return f"{self.inner.name}+delay{self.delay}"
