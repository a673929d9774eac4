"""The static schemes, named by bare words: Always Taken / Not Taken,
backward-taken forward-not-taken, and per-branch profiling."""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Tuple

from repro.errors import SpecParseError
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.families import Family, register
from repro.predictors.spec import PredictorSpec
from repro.predictors.static_schemes import (
    AlwaysNotTaken,
    AlwaysTaken,
    BTFNPredictor,
    ProfilePredictor,
)


class _Static(Family):
    """A scheme with no parameters and no run-time storage, accepted under
    any of its lower-case ``aliases``; ``mask`` maps a trace context to the
    scheme's correctness column."""

    def __init__(
        self,
        scheme: str,
        aliases: Tuple[str, ...],
        predictor: Optional[Callable[[], ConditionalBranchPredictor]] = None,
        mask: Optional[Callable[[Any], Any]] = None,
    ):
        self.scheme, self.aliases, self.predictor, self.mask = scheme, aliases, predictor, mask

    def parse(self, text: str) -> Optional[PredictorSpec]:
        return PredictorSpec(scheme=self.scheme) if text.lower() in self.aliases else None

    def canonical(self, spec: PredictorSpec) -> str:
        return self.scheme

    def build(
        self, spec: PredictorSpec, training_records: Any = None
    ) -> ConditionalBranchPredictor:
        assert self.predictor is not None
        return self.predictor()

    def direct_mask(self, spec: PredictorSpec, ctx: Any, trainings: Mapping[str, Any]) -> Any:
        assert self.mask is not None
        return self.mask(ctx)


class _Profile(_Static):
    """Each branch predicts its majority direction on the execution data
    set (ties taken) — the paper's profiling scheme."""

    def build(
        self, spec: PredictorSpec, training_records: Any = None
    ) -> ConditionalBranchPredictor:
        if training_records is None:
            raise SpecParseError("Profile needs training_records to build")
        return ProfilePredictor.from_trace(training_records)

    def training_role(self, spec: PredictorSpec) -> Optional[str]:
        return "test"

    def direct_mask(self, spec: PredictorSpec, ctx: Any, trainings: Mapping[str, Any]) -> Any:
        from repro.sim.sweep import _lookup

        unique_pc, bias = self.training(spec, trainings).profile_bias()
        prediction = _lookup(ctx.np, unique_pc, bias, ctx.namespace(ctx.pc), True)
        return prediction == ctx.taken_bool


for _scheme, _aliases, _predictor, _mask in (
    ("AlwaysTaken", ("alwaystaken", "taken"), AlwaysTaken, lambda ctx: ctx.taken_bool.copy()),
    ("AlwaysNotTaken", ("alwaysnottaken", "nottaken"), AlwaysNotTaken, lambda ctx: ~ctx.taken_bool),
    ("BTFN", ("btfn",), BTFNPredictor, lambda ctx: (ctx.target < ctx.pc) == ctx.taken_bool),
):
    register(_Static(_scheme, _aliases, _predictor, _mask))
register(_Profile("Profile", ("profile", "profiling")))
