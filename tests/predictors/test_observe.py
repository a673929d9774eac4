"""The fused ``observe`` hook must equal predict-then-update exactly.

Every override (two-level, Lee & Smith, PAp/PAs, perceptron, TAGE) and
the base-class default are driven with the same branch stream as a twin
predictor using the two-call protocol; predictions and final table state
must agree step for step.
"""

import random

import pytest

from repro.predictors.automata import A2, LAST_TIME
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.btb import LeeSmithPredictor
from repro.predictors.families.per_address import PerAddressPredictor
from repro.predictors.hrt import AHRT, HHRT, IHRT
from repro.predictors.modern import PerceptronPredictor, TagePredictor
from repro.predictors.pattern_table import PatternTable
from repro.predictors.static_schemes import BTFNPredictor
from repro.predictors.two_level import TwoLevelAdaptivePredictor


def _stream(n=4_000, static=97, seed=11):
    rng = random.Random(seed)
    pcs = [0x1000 + 4 * rng.randrange(2048) for _ in range(static)]
    for _ in range(n):
        pc = rng.choice(pcs)
        yield pc, pc ^ 0x40, rng.random() < 0.7


def _make_pairs():
    return [
        (
            TwoLevelAdaptivePredictor(AHRT(128), PatternTable(8, A2)),
            TwoLevelAdaptivePredictor(AHRT(128), PatternTable(8, A2)),
        ),
        (
            TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, LAST_TIME)),
            TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, LAST_TIME)),
        ),
        (
            TwoLevelAdaptivePredictor(HHRT(256), PatternTable(8, A2)),
            TwoLevelAdaptivePredictor(HHRT(256), PatternTable(8, A2)),
        ),
        (
            LeeSmithPredictor(AHRT(128), A2),
            LeeSmithPredictor(AHRT(128), A2),
        ),
        (PerAddressPredictor(6), PerAddressPredictor(6)),  # PAp
        (
            PerAddressPredictor(4, LAST_TIME, sets=16),  # PAs
            PerAddressPredictor(4, LAST_TIME, sets=16),
        ),
        (TagePredictor(4, 9), TagePredictor(4, 9)),
        (TagePredictor(1, 3), TagePredictor(1, 3)),
        (PerceptronPredictor(12, 512), PerceptronPredictor(12, 512)),
        (PerceptronPredictor(4, 1), PerceptronPredictor(4, 1)),
        (BTFNPredictor(), BTFNPredictor()),  # exercises the base-class default
    ]


@pytest.mark.parametrize(
    "fused, reference", _make_pairs(), ids=lambda p: getattr(p, "name", "?")
)
def test_observe_equals_predict_then_update(fused, reference):
    for pc, target, taken in _stream():
        expected = reference.predict(pc, target)
        reference.update(pc, target, taken)
        assert fused.observe(pc, target, taken) == expected


def test_default_observe_returns_the_prediction():
    class Alternating(ConditionalBranchPredictor):
        def __init__(self):
            self.flip = False

        def predict(self, pc, target):
            return self.flip

        def update(self, pc, target, taken):
            self.flip = not self.flip

    predictor = Alternating()
    assert predictor.observe(0x10, 0x20, True) is False
    assert predictor.observe(0x10, 0x20, True) is True
