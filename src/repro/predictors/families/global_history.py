"""The global-history extensions: ``GAg(k[,automaton])`` and
``gshare(k[,automaton])`` — one k-bit global history register indexing
(GAg, register initialised all-ones) or XOR-hashed with the branch
address into (gshare, register initialised zero) one shared pattern
table of automata (A2 by default)."""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.errors import ConfigError, SpecParseError
from repro.predictors.automata import A2, Automaton, automaton_by_name
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.extensions import GAgPredictor, GSharePredictor
from repro.predictors.families import Family, call_grammar, history_length, register
from repro.predictors.spec import PredictorSpec


def _automaton(spec: PredictorSpec) -> Automaton:
    return spec.pt_automaton or A2


class _GlobalHistory(Family):
    def __init__(self, scheme: str, predictor: Any, init_bit: int, hashed: bool):
        self.scheme, self.predictor = scheme, predictor
        self.init_bit, self.hashed = init_bit, hashed
        self.grammar = call_grammar(scheme, r"\w[\w-]*")

    def parse(self, text: str) -> Optional[PredictorSpec]:
        match = self.grammar.match(text)
        if match is None:
            return None
        try:
            automaton = automaton_by_name(match.group(2)) if match.group(2) else None
        except ConfigError as exc:
            raise SpecParseError(f"{exc} in {text!r}") from exc
        k = history_length(match.group(1), text)
        return PredictorSpec(scheme=self.scheme, history_length=k, pt_automaton=automaton)

    def canonical(self, spec: PredictorSpec) -> str:
        return f"{self.scheme}({spec.history_length},{_automaton(spec).name})"

    def build(
        self, spec: PredictorSpec, training_records: Any = None
    ) -> ConditionalBranchPredictor:
        return self.predictor(spec.history_length, _automaton(spec))

    def reserve(self, spec: PredictorSpec, ctx: Any) -> None:
        assert spec.history_length is not None
        ctx.reserve_global(spec.history_length, self.init_bit)

    def scan_request(self, spec: PredictorSpec, ctx: Any) -> Tuple[Any, Any, Automaton]:
        k = spec.history_length
        assert k is not None
        history = ctx.global_history(k, self.init_bit)
        if not self.hashed:
            return ("ghist", k), ctx.namespace(history), _automaton(spec)
        index = ((ctx.pc >> 2) ^ history) & ((1 << k) - 1)
        return ("gidx", k), ctx.namespace(index), _automaton(spec)


register(_GlobalHistory("GAg", GAgPredictor, init_bit=1, hashed=False))
register(_GlobalHistory("gshare", GSharePredictor, init_bit=0, hashed=True))
