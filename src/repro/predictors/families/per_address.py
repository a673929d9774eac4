"""The per-address corners of Yeh & Patt's later taxonomy:
``PAp(k[,automaton])`` and ``PAs(k,sets[,automaton])``.

Both keep a k-bit history register per branch address (an ideal table,
registers initialised all-ones like the paper's IHRT) feeding pattern
tables of automata (A2 by default).  They differ only in which table a
branch reads: its own for PAp, the interference-free corner, and table
``(pc >> 2) % sets`` for PAs.  The paper's AT is the third corner, PAg,
with one global table (:mod:`.table2`).
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError, SpecParseError
from repro.predictors.automata import A2, Automaton, automaton_by_name
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.families import Family, history_length, register, replay_sessions
from repro.predictors.pattern_table import MAX_HISTORY_LENGTH
from repro.predictors.spec import PredictorSpec


class PerAddressPredictor(ConditionalBranchPredictor):
    """Per-address history over per-address (``sets=None``, PAp) or
    per-set (PAs) pattern tables.

    Every table's automaton states live in one dict keyed by ``(table,
    pattern)``; an entry absent from it holds the automaton's init state.
    Storage therefore grows with the patterns a trace reaches, not with
    ``tables x 2^k``.
    """

    def __init__(
        self, history_length: int, automaton: Automaton = A2, sets: Optional[int] = None
    ):
        if not 1 <= history_length <= MAX_HISTORY_LENGTH:
            raise ConfigError(
                f"history length must be in 1..{MAX_HISTORY_LENGTH}, got {history_length}"
            )
        if sets is not None and sets < 1:
            raise ConfigError(f"sets must be >= 1, got {sets}")
        self.history_length = history_length
        self.automaton = automaton
        self.sets = sets
        self._mask = (1 << history_length) - 1
        self._histories: Dict[int, int] = {}
        self._states: Dict[Tuple[int, int], int] = {}

    def table(self, pc: int) -> int:
        """The pattern table the branch at ``pc`` reads."""
        return pc if self.sets is None else (pc >> 2) % self.sets

    def predict(self, pc: int, target: int) -> bool:
        history = self._histories.get(pc, self._mask)
        state = self._states.get((self.table(pc), history), self.automaton.init_state)
        return self.automaton.predictions[state]

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.observe(pc, target, taken)

    def observe(self, pc: int, target: int, taken: bool) -> bool:
        automaton = self.automaton
        bit = 1 if taken else 0
        history = self._histories.get(pc, self._mask)
        key = (self.table(pc), history)
        state = self._states.get(key, automaton.init_state)
        self._states[key] = automaton.transitions[state][bit]
        self._histories[pc] = ((history << 1) | bit) & self._mask
        return automaton.predictions[state]

    def reset(self) -> None:
        self._histories.clear()
        self._states.clear()

    @property
    def name(self) -> str:
        if self.sets is None:
            return f"PAp({self.history_length},{self.automaton.name})"
        return f"PAs({self.history_length},{self.sets},{self.automaton.name})"


class _PerAddress(Family):
    """PAp (``per_set=False``) or PAs (``per_set=True``)."""

    def __init__(self, scheme: str, per_set: bool):
        self.scheme = scheme
        sets = r"\s*,\s*(?P<sets>\d+)" if per_set else ""
        self.grammar = re.compile(
            rf"^{scheme}\s*\(\s*(?P<k>\d+){sets}\s*(?:,\s*(?P<automaton>\w[\w-]*)\s*)?\)$",
            re.IGNORECASE,
        )

    def parse(self, text: str) -> Optional[PredictorSpec]:
        match = self.grammar.match(text)
        if match is None:
            return None
        fields = match.groupdict()
        try:
            automaton = automaton_by_name(fields["automaton"]) if fields["automaton"] else A2
        except ConfigError as exc:
            raise SpecParseError(f"{exc} in {text!r}") from exc
        sets = None if fields.get("sets") is None else int(fields["sets"])
        if sets is not None and sets < 1:
            raise SpecParseError(f"PAs sets must be >= 1 in {text!r}")
        return PredictorSpec(
            scheme=self.scheme,
            history_length=history_length(fields["k"], text),
            pt_automaton=automaton,
            sets=sets,
        )

    def canonical(self, spec: PredictorSpec) -> str:
        sets = "" if spec.sets is None else f"{spec.sets},"
        assert spec.pt_automaton is not None
        return f"{self.scheme}({spec.history_length},{sets}{spec.pt_automaton.name})"

    def build(
        self, spec: PredictorSpec, training_records: Any = None
    ) -> ConditionalBranchPredictor:
        assert spec.history_length is not None and spec.pt_automaton is not None
        return PerAddressPredictor(spec.history_length, spec.pt_automaton, spec.sets)

    direct_mask = replay_sessions


register(_PerAddress("PAp", per_set=False))
register(_PerAddress("PAs", per_set=True))
