"""Static Training: profiling pass, preset table semantics, Same/Diff."""

import pytest

from repro.errors import ConfigError
from repro.predictors.base import measure_accuracy
from repro.predictors.hrt import IHRT
from repro.predictors.static_training import (
    StaticTrainingPredictor,
    profile_pattern_table,
)
from repro.trace.synthetic import periodic_branch
from tests.synthetic import biased_branch


class TestProfilePatternTable:
    def test_learns_majority_per_pattern(self):
        trace = list(periodic_branch([True, True, False], 200))
        preset = profile_pattern_table(4, trace)
        # after TTF TTF..., pattern 1101 (last four outcomes) precedes a T
        assert preset[0b1101] is True
        # pattern 1011 precedes the F of the next group
        assert preset[0b1011] is False

    def test_unseen_patterns_default_taken(self):
        preset = profile_pattern_table(4, [])
        assert all(preset)
        assert len(preset) == 16

    def test_ignores_non_conditionals(self):
        from repro.trace.record import BranchClass, BranchRecord

        trace = [BranchRecord(0x10, BranchClass.RETURN, True, 0x20)] * 10
        assert profile_pattern_table(3, trace) == [True] * 8

    def test_invalid_length(self):
        with pytest.raises(ConfigError):
            profile_pattern_table(0, [])


class TestStaticTrainingPredictor:
    def test_perfect_on_training_pattern(self):
        trace = list(periodic_branch([True, False, False, True], 300))
        predictor = StaticTrainingPredictor.trained(IHRT(), 8, trace)
        warmup, scored = trace[:300], trace[300:]
        measure_accuracy(predictor, warmup)
        assert measure_accuracy(predictor, scored) == 1.0

    def test_pattern_table_is_frozen(self):
        """Unlike AT, ST never adapts: a pattern profiled as taken keeps
        predicting taken no matter what happens at run time."""
        train = list(periodic_branch([True], 100))
        predictor = StaticTrainingPredictor.trained(IHRT(), 4, train)
        test = list(periodic_branch([False], 200))
        accuracy = measure_accuracy(predictor, test)
        # after warm-up the history is all-zeros, profiled as (unseen ->
        # taken); ST keeps mispredicting forever
        assert accuracy < 0.1

    def test_diff_data_degrades(self):
        train = list(biased_branch(0.9, 3000, seed=1))
        test_same = list(biased_branch(0.9, 3000, seed=2))
        test_diff = list(biased_branch(0.1, 3000, seed=3))
        same = StaticTrainingPredictor.trained(IHRT(), 6, train, data_mode="Same")
        diff = StaticTrainingPredictor.trained(IHRT(), 6, train, data_mode="Diff")
        assert measure_accuracy(same, test_same) > 0.75
        assert measure_accuracy(diff, test_diff) < 0.45

    def test_preset_length_validated(self):
        with pytest.raises(ConfigError):
            StaticTrainingPredictor(IHRT(), 4, [True] * 15)

    def test_data_mode_validated(self):
        with pytest.raises(ConfigError):
            StaticTrainingPredictor(IHRT(), 2, [True] * 4, data_mode="Other")

    def test_reset_keeps_preset(self):
        trace = list(periodic_branch([True, False], 200))
        predictor = StaticTrainingPredictor.trained(IHRT(), 6, trace)
        measure_accuracy(predictor, trace)
        preset_before = list(predictor.preset)
        predictor.reset()
        assert predictor.preset == preset_before
        predictor.hrt.get(0x1000)  # the trace's branch: allocated afresh
        assert predictor.hrt.misses == 1

    def test_name_encodes_data_mode(self):
        predictor = StaticTrainingPredictor(IHRT(), 2, [True] * 4, data_mode="Diff")
        assert predictor.name == "ST(IHRT(,2SR),PT(2^2,PB),Diff)"
