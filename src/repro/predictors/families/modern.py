"""The modern comparators: ``perceptron(h[,rows])`` and
``tage(tables[,entry_bits])`` (:mod:`repro.predictors.modern`).  Both
read one init-0 global history register; TAGE's ``history_length`` is
its longest geometric table."""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.errors import SpecParseError
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.families import Family, call_grammar, register, replay_sessions
from repro.predictors.modern import (
    DEFAULT_ENTRY_BITS,
    DEFAULT_ROWS,
    MAX_HISTORY,
    MAX_TABLES,
    PerceptronPredictor,
    TagePredictor,
    TageState,
    tage_geometries,
)
from repro.predictors.spec import PredictorSpec


class _Modern(Family):
    def __init__(self) -> None:
        self.grammar = call_grammar(self.scheme, r"\d+")

    def parse(self, text: str) -> Optional[PredictorSpec]:
        match = self.grammar.match(text)
        if match is None:
            return None
        second = match.group(2)
        return self.make(int(match.group(1)), int(second) if second else None, text)

    def make(self, first: int, second: Optional[int], text: str) -> PredictorSpec:
        raise NotImplementedError


class _Perceptron(_Modern):
    scheme = "Perceptron"

    def make(self, first: int, second: Optional[int], text: str) -> PredictorSpec:
        if not 1 <= first <= MAX_HISTORY:
            raise SpecParseError(
                f"perceptron history length must be in 1..{MAX_HISTORY} in {text!r}"
            )
        rows = second if second is not None else DEFAULT_ROWS
        if rows < 1:
            raise SpecParseError(f"perceptron rows must be >= 1 in {text!r}")
        return PredictorSpec(scheme=self.scheme, history_length=first, rows=rows)

    def canonical(self, spec: PredictorSpec) -> str:
        return f"perceptron({spec.history_length},{spec.rows or DEFAULT_ROWS})"

    def build(
        self, spec: PredictorSpec, training_records: Any = None
    ) -> ConditionalBranchPredictor:
        assert spec.history_length is not None
        return PerceptronPredictor(spec.history_length, spec.rows or DEFAULT_ROWS)

    #: training fires on about a quarter of the records, too often for a
    #: columnar scan over the weight rows to beat the scalar ``observe``
    direct_mask = replay_sessions


class _Tage(_Modern):
    scheme = "TAGE"

    def reserve(self, spec: PredictorSpec, ctx: Any) -> None:
        assert spec.history_length is not None
        ctx.reserve_global(spec.history_length, 0)

    def make(self, first: int, second: Optional[int], text: str) -> PredictorSpec:
        if not 1 <= first <= MAX_TABLES:
            raise SpecParseError(f"tage tables must be in 1..{MAX_TABLES} in {text!r}")
        bits = second if second is not None else DEFAULT_ENTRY_BITS
        if not 1 <= bits <= 16:
            raise SpecParseError(f"tage entry bits must be in 1..16 in {text!r}")
        return PredictorSpec(
            scheme=self.scheme,
            history_length=tage_geometries(first)[-1],
            tage_tables=first,
            tage_entry_bits=bits,
        )

    def canonical(self, spec: PredictorSpec) -> str:
        return f"tage({spec.tage_tables},{spec.tage_entry_bits or DEFAULT_ENTRY_BITS})"

    def build(
        self, spec: PredictorSpec, training_records: Any = None
    ) -> ConditionalBranchPredictor:
        assert spec.tage_tables is not None
        return TagePredictor(spec.tage_tables, spec.tage_entry_bits or DEFAULT_ENTRY_BITS)

    def direct_mask(self, spec: PredictorSpec, ctx: Any, trainings: Mapping[str, Any]) -> Any:
        from repro.sim.kernels import _tage_predictions

        np = ctx.np
        assert spec.tage_tables is not None and spec.history_length is not None
        tables, bits = spec.tage_tables, spec.tage_entry_bits or DEFAULT_ENTRY_BITS
        histories = ctx.global_history(spec.history_length, 0)
        prediction = np.empty(len(ctx), dtype=bool)
        for rows, state in ctx.sessions(("tage",), lambda: TageState(tables, bits)):
            prediction[rows] = _tage_predictions(
                np, ctx.pc[rows], histories[rows], ctx.taken[rows], state
            )
        return prediction == ctx.taken_bool


for _family in (_Perceptron(), _Tage()):
    register(_family)
