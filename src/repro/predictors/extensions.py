"""Post-paper variants (future-work ablations).

The paper keeps history *per address* feeding one *global* pattern table —
the organisation later taxonomised as **PAg**.  Yeh & Patt's 1992/1993
follow-ups and McFarling's work explored the other corners:

* :class:`GAgPredictor` — one global history register (GAg);
* :class:`GSharePredictor` — global history XOR address (gshare);
* :class:`TournamentPredictor` — McFarling's selector combining two
  component predictors per branch.

The per-address corners, PAp and PAs, are the family in
:mod:`repro.predictors.families.per_address`.  All of these are
clearly-labelled extensions so the ablation benches can show where
per-address history wins (independent per-branch periodic patterns) and
where global correlation helps, without claiming they appear in the 1991
paper.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.predictors.automata import A2, Automaton
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.pattern_table import PatternTable


class GAgPredictor(ConditionalBranchPredictor):
    """GAg: one global k-bit history register indexing a global pattern
    table.  The cheapest two-level organisation — no per-address table at
    all — at the cost of aliasing every branch into one history stream."""

    def __init__(self, history_length: int, automaton: Automaton = A2):
        self.pattern_table = PatternTable(history_length, automaton)
        self.history_length = history_length
        self._mask = (1 << history_length) - 1
        self._history = self._mask  # all-ones init, like the per-address HRs

    def predict(self, pc: int, target: int) -> bool:
        return self.pattern_table.predict(self._history)

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.pattern_table.update(self._history, taken)
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._mask

    def reset(self) -> None:
        self.pattern_table.reset()
        self._history = self._mask

    @property
    def name(self) -> str:
        return f"GAg({self.history_length},{self.pattern_table.automaton.name})"


class GSharePredictor(ConditionalBranchPredictor):
    """gshare: global history XOR branch address indexes a counter table.

    The XOR spreads different branches with the same recent global history
    across the table, reducing (not eliminating) aliasing relative to GAg.
    """

    def __init__(self, history_length: int, automaton: Automaton = A2):
        if history_length < 1:
            raise ConfigError(f"history length must be >= 1, got {history_length}")
        self.pattern_table = PatternTable(history_length, automaton)
        self.history_length = history_length
        self._mask = (1 << history_length) - 1
        self._history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc: int, target: int) -> bool:
        return self.pattern_table.predict(self._index(pc))

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.pattern_table.update(self._index(pc), taken)
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._mask

    def reset(self) -> None:
        self.pattern_table.reset()
        self._history = 0

    @property
    def name(self) -> str:
        return f"gshare({self.history_length},{self.pattern_table.automaton.name})"


class TournamentPredictor(ConditionalBranchPredictor):
    """McFarling-style tournament: a per-branch chooser between two
    component predictors.

    The chooser is a table of 2-bit counters indexed by branch address;
    it trains toward whichever component was right when they disagree.
    """

    def __init__(
        self,
        first: ConditionalBranchPredictor,
        second: ConditionalBranchPredictor,
        chooser_entries: int = 4096,
    ):
        if chooser_entries < 1:
            raise ConfigError(f"chooser_entries must be >= 1, got {chooser_entries}")
        self.first = first
        self.second = second
        self.chooser_entries = chooser_entries
        # counter >= 2 selects `first`; start neutral-ish toward `first`
        self._chooser = [2] * chooser_entries

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.chooser_entries

    def predict(self, pc: int, target: int) -> bool:
        if self._chooser[self._index(pc)] >= 2:
            return self.first.predict(pc, target)
        return self.second.predict(pc, target)

    def update(self, pc: int, target: int, taken: bool) -> None:
        first_prediction = self.first.predict(pc, target)
        second_prediction = self.second.predict(pc, target)
        index = self._index(pc)
        if first_prediction != second_prediction:
            counter = self._chooser[index]
            if first_prediction == taken:
                self._chooser[index] = min(3, counter + 1)
            else:
                self._chooser[index] = max(0, counter - 1)
        self.first.update(pc, target, taken)
        self.second.update(pc, target, taken)

    def reset(self) -> None:
        self._chooser = [2] * self.chooser_entries
        self.first.reset()
        self.second.reset()

    @property
    def name(self) -> str:
        return f"Tournament({self.first.name},{self.second.name})"
