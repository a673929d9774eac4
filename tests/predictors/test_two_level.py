"""The Two-Level Adaptive Training predictor: learning behaviour and the
delayed-update pipeline model."""

import pytest

from repro.errors import ConfigError
from repro.predictors.automata import A2
from repro.predictors.base import measure_accuracy
from repro.predictors.hrt import AHRT, IHRT
from repro.predictors.pattern_table import PatternTable
from repro.predictors.two_level import DelayedUpdatePredictor, TwoLevelAdaptivePredictor
from tests.synthetic import interleaved, periodic_branch


def make_at(history_length=8, hrt=None):
    hrt = hrt if hrt is not None else IHRT()
    return TwoLevelAdaptivePredictor(hrt, PatternTable(history_length, A2))


class TestLearning:
    def test_learns_any_short_periodic_pattern(self):
        """The core claim: patterns with period <= history length are
        predicted perfectly after warm-up."""
        for pattern in ([True, False], [True, True, False], [False, False, True, True]):
            predictor = make_at(history_length=8)
            trace = list(periodic_branch(pattern, repetitions=400))
            warmup, scored = trace[:400], trace[400:]
            measure_accuracy(predictor, warmup)
            assert measure_accuracy(predictor, scored) == 1.0

    def test_alternating_branch_beats_counter_semantics(self):
        """A strict alternation defeats a per-branch 2-bit counter (50%) but
        is trivial for two-level prediction."""
        predictor = make_at()
        trace = list(periodic_branch([True, False], repetitions=500))
        accuracy = measure_accuracy(predictor, trace[200:])
        assert accuracy > 0.98

    def test_per_address_histories_isolated_with_ihrt(self):
        predictor = make_at()
        trace = list(
            interleaved([(0x100, [True, False]), (0x200, [False, False, True])], 400)
        )
        measure_accuracy(predictor, trace[:600])
        assert measure_accuracy(predictor, trace[600:]) == 1.0

    def test_history_register_initialised_all_ones(self):
        predictor = make_at(history_length=4)
        assert predictor.hrt.init_payload == 0b1111
        # initial prediction: PT[1111] starts in state 3 -> taken
        assert predictor.predict(0x100, 0x200) is True

    def test_reset_restores_initial_behaviour(self):
        predictor = make_at()
        trace = list(periodic_branch([False], repetitions=50))
        measure_accuracy(predictor, trace)
        assert predictor.predict(0x1000, 0x40) is False
        predictor.reset()
        assert predictor.predict(0x1000, 0x40) is True

    def test_name_is_canonical_spec(self):
        predictor = make_at(history_length=12, hrt=AHRT(512))
        assert predictor.name == "AT(AHRT(512,12SR),PT(2^12,A2),)"


class TestDelayedUpdate:
    def test_zero_delay_equals_inner(self):
        trace = list(periodic_branch([True, False, True], 200))
        plain = make_at()
        delayed = DelayedUpdatePredictor(make_at(), delay=0)
        assert measure_accuracy(plain, trace) == measure_accuracy(delayed, trace)

    def test_updates_deferred(self):
        inner = make_at(history_length=4)
        delayed = DelayedUpdatePredictor(inner, delay=2, predict_taken_when_pending=False)
        delayed.update(0x10, 0x20, False)
        delayed.update(0x14, 0x24, False)
        # neither applied yet: inner histories untouched
        assert inner.hrt.get(0x10) == 0b1111
        delayed.update(0x18, 0x28, False)  # pushes the first one through
        assert inner.hrt.get(0x10) == 0b1110

    def test_pending_same_pc_predicts_taken(self):
        inner = make_at()
        delayed = DelayedUpdatePredictor(inner, delay=4)
        # drive the branch strongly not-taken first
        for _ in range(30):
            delayed.update(0x10, 0x20, False)
        delayed.flush()
        assert inner.predict(0x10, 0x20) is False
        delayed.update(0x10, 0x20, False)  # leave one unresolved in flight
        assert delayed.predict(0x10, 0x20) is True  # the tight-loop rule

    def test_flush_applies_everything(self):
        inner = make_at(history_length=4)
        delayed = DelayedUpdatePredictor(inner, delay=8)
        for _ in range(3):
            delayed.update(0x10, 0x20, False)
        delayed.flush()
        assert inner.hrt.get(0x10) == 0b1000

    def test_delay_cost_is_visible_on_tight_patterns(self):
        """With the outcome arriving late, a learnable pattern costs accuracy
        — the section 3.2 phenomenon the wrapper models."""
        trace = list(periodic_branch([True, False], 400))
        prompt = measure_accuracy(make_at(), trace)
        late = measure_accuracy(
            DelayedUpdatePredictor(make_at(), delay=3, predict_taken_when_pending=False),
            trace,
        )
        assert late < prompt

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            DelayedUpdatePredictor(make_at(), delay=-1)

    def test_reset_clears_pending(self):
        inner = make_at(history_length=4)
        delayed = DelayedUpdatePredictor(inner, delay=4)
        delayed.update(0x10, 0x20, False)
        delayed.reset()
        delayed.flush()
        assert inner.hrt.get(0x10) == 0b1111

    def test_name_mentions_delay(self):
        assert "+delay3" in DelayedUpdatePredictor(make_at(), delay=3).name
