"""The global pattern table (PT of section 2.1).

One entry per possible history pattern — ``2^k`` entries for k-bit history
registers — each holding the integer state of one pattern-history automaton.
All history registers index the same table, which is why the paper calls it a
*global* pattern table.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.predictors.automata import Automaton

#: the widest history a pattern table accepts (``2^24`` entries).
MAX_HISTORY_LENGTH = 24


class PatternTable:
    """A ``2^k``-entry table of automaton states.

    Args:
        history_length: k; the table has ``2 ** k`` entries.
        automaton: the Figure 2 machine stored in each entry.

    Entries initialise to the automaton's init state (state 3 for the
    counter-like machines, taken for Last-Time), per section 4.2.
    """

    __slots__ = ("history_length", "num_entries", "automaton", "_states")

    def __init__(self, history_length: int, automaton: Automaton):
        if history_length < 1:
            raise ConfigError(f"history length must be >= 1, got {history_length}")
        if history_length > MAX_HISTORY_LENGTH:
            raise ConfigError(
                f"history length {history_length} would allocate 2^{history_length} entries"
            )
        self.history_length = history_length
        self.num_entries = 1 << history_length
        self.automaton = automaton
        self._states: List[int] = [automaton.init_state] * self.num_entries

    def state(self, pattern: int) -> int:
        """Raw automaton state for a pattern (mainly for tests/inspection)."""
        return self._states[pattern & (self.num_entries - 1)]

    def predict(self, pattern: int) -> bool:
        """Predict the branch whose history register holds ``pattern``."""
        return self.automaton.predictions[self._states[pattern & (self.num_entries - 1)]]

    def update(self, pattern: int, taken: bool) -> None:
        """Advance the pattern's automaton with the resolved outcome."""
        index = pattern & (self.num_entries - 1)
        states = self._states
        states[index] = self.automaton.transitions[states[index]][1 if taken else 0]

    def observe(self, pattern: int, taken: bool) -> bool:
        """Fused :meth:`predict` + :meth:`update`: one entry lookup serves
        both the prediction read and the state transition."""
        index = pattern & (self.num_entries - 1)
        states = self._states
        state = states[index]
        automaton = self.automaton
        states[index] = automaton.transitions[state][1 if taken else 0]
        return automaton.predictions[state]

    def reset(self) -> None:
        """Reinitialise every entry (section 4.2 start-of-execution state)."""
        self._states = [self.automaton.init_state] * self.num_entries
