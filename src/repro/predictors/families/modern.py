"""The modern comparators: ``perceptron(h[,rows])`` and
``tage(tables[,entry_bits])`` (:mod:`repro.predictors.modern`).  Both
read one init-0 global history register; TAGE's ``history_length`` is
its longest geometric table.  Both vector recipes walk their records in
order, one :mod:`repro.sim.kernels` walk object per session."""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.errors import SpecParseError
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.families import Family, call_grammar, register
from repro.predictors.modern import (
    DEFAULT_ENTRY_BITS,
    DEFAULT_ROWS,
    MAX_HISTORY,
    MAX_TABLES,
    PerceptronPredictor,
    TagePredictor,
    tage_geometries,
)
from repro.predictors.spec import PredictorSpec


class _Modern(Family):
    def __init__(self) -> None:
        self.grammar = call_grammar(self.scheme, r"\d+")

    def reserve(self, spec: PredictorSpec, ctx: Any) -> None:
        assert spec.history_length is not None
        ctx.reserve_global(spec.history_length, 0)

    def direct_mask(self, spec: PredictorSpec, ctx: Any, trainings: Mapping[str, Any]) -> Any:
        assert spec.history_length is not None
        windows = ctx.global_history(spec.history_length, 0)
        prediction = ctx.np.empty(len(ctx), dtype=bool)
        for rows, walk in ctx.sessions((self.scheme,), lambda: self.walk(spec)):
            prediction[rows] = walk.predict(
                ctx.np, ctx.pc[rows], windows[rows], ctx.taken_bool[rows]
            )
        return prediction == ctx.taken_bool

    def walk(self, spec: PredictorSpec) -> Any:
        """A fresh per-session walk object (:mod:`repro.sim.kernels`)."""
        raise NotImplementedError

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

    def walk(self, spec: PredictorSpec) -> Any:
        from repro.sim.kernels import PerceptronWalk

        assert spec.history_length is not None
        return PerceptronWalk(spec.history_length, spec.rows or DEFAULT_ROWS)


class _Tage(_Modern):
    scheme = "TAGE"

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

    def walk(self, spec: PredictorSpec) -> Any:
        from repro.sim.kernels import TageWalk

        assert spec.tage_tables is not None
        return TageWalk(spec.tage_tables, spec.tage_entry_bits or DEFAULT_ENTRY_BITS)


for _family in (_Perceptron(), _Tage()):
    register(_family)
