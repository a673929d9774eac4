"""Lee & Smith BTB designs: per-address automaton, no pattern level."""

from repro.predictors.automata import A2, LAST_TIME
from repro.predictors.base import measure_accuracy
from repro.predictors.btb import LeeSmithPredictor
from repro.predictors.hrt import AHRT, IHRT
from tests.synthetic import biased_branch, loop_branch, periodic_branch


class TestLeeSmith:
    def test_counter_learns_biased_branch(self):
        predictor = LeeSmithPredictor(IHRT(), A2)
        trace = list(biased_branch(0.95, 2000, seed=4))
        assert measure_accuracy(predictor, trace) > 0.9

    def test_counter_misses_once_per_loop_exit(self):
        predictor = LeeSmithPredictor(IHRT(), A2)
        trace = list(loop_branch(trip_count=10, iterations=200))
        accuracy = measure_accuracy(predictor, trace)
        assert abs(accuracy - 0.9) < 0.02  # ~1 miss per 10 iterations

    def test_counter_fails_on_alternation(self):
        """The motivating weakness: a strict alternation drives a 2-bit
        counter to ~50 percent while two-level prediction nails it."""
        predictor = LeeSmithPredictor(IHRT(), A2)
        trace = list(periodic_branch([True, False], 1000))
        assert measure_accuracy(predictor, trace) < 0.6

    def test_last_time_zero_on_alternation(self):
        predictor = LeeSmithPredictor(IHRT(), LAST_TIME)
        trace = list(periodic_branch([True, False], 500))
        warmup, scored = trace[:10], trace[10:]
        measure_accuracy(predictor, warmup)
        assert measure_accuracy(predictor, scored) == 0.0

    def test_initialised_taken(self):
        predictor = LeeSmithPredictor(IHRT(), A2)
        assert predictor.predict(0x9999000, 0x40) is True

    def test_per_branch_state_isolated(self):
        predictor = LeeSmithPredictor(IHRT(), A2)
        for _ in range(8):
            predictor.update(0x100, 0x40, False)
        assert predictor.predict(0x100, 0x40) is False
        assert predictor.predict(0x200, 0x40) is True

    def test_practical_hrt_front_end(self):
        predictor = LeeSmithPredictor(AHRT(16), A2)
        trace = list(biased_branch(0.9, 500, seed=5))
        assert measure_accuracy(predictor, trace) > 0.8

    def test_reset(self):
        predictor = LeeSmithPredictor(IHRT(), A2)
        for _ in range(8):
            predictor.update(0x10, 0x40, False)
        predictor.reset()
        assert predictor.predict(0x10, 0x40) is True

    def test_name(self):
        assert LeeSmithPredictor(AHRT(512), A2).name == "LS(AHRT(512,A2),,)"
        assert LeeSmithPredictor(IHRT(), LAST_TIME).name == "LS(IHRT(,LT),,)"
