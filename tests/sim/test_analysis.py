"""Interference and convergence analysis."""

import pytest

from repro.errors import ConfigError
from repro.predictors.automata import A2
from repro.predictors.hrt import IHRT
from repro.predictors.pattern_table import PatternTable
from repro.predictors.spec import parse_spec
from repro.predictors.two_level import TwoLevelAdaptivePredictor
from repro.sim.analysis import (
    accuracy_within_bounds,
    convergence_point,
    misprediction_mass,
    pattern_conflicts,
    per_site_accuracy_many,
    per_site_replay,
    top_mispredicted,
    windowed_accuracy,
)
from tests.synthetic import interleaved, periodic_branch


class TestPatternConflicts:
    def test_single_periodic_branch_is_conflict_free(self):
        trace = list(periodic_branch([True, True, False], 300))
        stats = pattern_conflicts(trace, history_length=6)
        # warm-up transitions contribute a handful of contested patterns at
        # most; steady state is perfectly consistent
        assert stats.conflict_rate < 0.02
        assert stats.updates_total == 900

    def test_conflicting_branches_detected(self):
        # window TFT continues F for the alternating branch, T for the
        # period-3 branch: with 3-bit histories their PT entries collide
        trace = list(
            interleaved([(0x10, [True, False]), (0x20, [True, True, False])], 600)
        )
        stats = pattern_conflicts(trace, history_length=3)
        assert stats.conflict_rate > 0.1
        assert stats.contested_patterns >= 1

    def test_longer_history_separates_conflicts(self):
        trace = list(
            interleaved([(0x10, [True, False]), (0x20, [True, True, False])], 600)
        )
        short = pattern_conflicts(trace, history_length=3).conflict_rate
        long = pattern_conflicts(trace, history_length=10).conflict_rate
        assert long < short

    def test_validation(self):
        with pytest.raises(ConfigError):
            pattern_conflicts([], history_length=0)

    def test_empty_trace(self):
        stats = pattern_conflicts([])
        assert stats.conflict_rate == 0.0
        assert stats.contested_fraction == 0.0


class TestWindowedAccuracy:
    def _predictor(self):
        return TwoLevelAdaptivePredictor(IHRT(), PatternTable(8, A2))

    def test_window_count(self):
        trace = list(periodic_branch([True, False], 1250))  # 2500 conditionals
        accuracies = windowed_accuracy(self._predictor(), trace, window=1000)
        assert len(accuracies) == 3  # 1000 + 1000 + 500

    def test_warmup_visible_then_converges(self):
        trace = list(periodic_branch([True, False, False, True, False], 2000))
        accuracies = windowed_accuracy(self._predictor(), trace, window=500)
        assert accuracies[-1] > accuracies[0]
        assert accuracies[-1] > 0.99

    def test_validation(self):
        with pytest.raises(ConfigError):
            windowed_accuracy(self._predictor(), [], window=0)


class TestConvergencePoint:
    def test_finds_settle_index(self):
        assert convergence_point([0.5, 0.8, 0.97, 0.98, 0.975], tolerance=0.01) == 2

    def test_immediate_convergence(self):
        assert convergence_point([0.97, 0.97, 0.97]) == 0

    def test_empty(self):
        assert convergence_point([]) is None


class TestPerSiteHelpers:
    """The multi-predictor pass and the H2P/bounds utilities added for the
    static cross-validation layer."""

    def _trace(self):
        return list(
            interleaved([(0x10, [True, False]), (0x20, [True, True, False])], 300)
        )

    def _predictor(self):
        return TwoLevelAdaptivePredictor(IHRT(), PatternTable(8, A2))

    def test_many_matches_single_pass_per_predictor(self):
        trace = self._trace()
        combined = per_site_accuracy_many(
            {"a": self._predictor(), "b": self._predictor()}, trace
        )
        single = per_site_accuracy_many({"": self._predictor()}, trace)[""]
        assert combined["a"] == single
        assert combined["b"] == single

    def test_self_profiling_specs_read_packed_columns(self, eqntott_trace):
        """Profile and ST-Same profile the very trace they score; from a
        packed trace they read its conditional columns and must give the
        maps the record list gives."""
        specs = {
            text: parse_spec(text)
            for text in ("Profile", "ST(IHRT(,8SR),PT(2^8,PB),Same)")
        }
        from_packed = per_site_replay(specs, eqntott_trace.packed())
        assert from_packed == per_site_replay(specs, eqntott_trace.records)
        assert all(from_packed.values())

    def test_misprediction_mass(self):
        assert misprediction_mass({0x10: (90, 100), 0x20: (100, 100)}) == {
            0x10: 10,
            0x20: 0,
        }

    def test_top_mispredicted_orders_by_mass_then_pc(self):
        per_site = {
            0x30: (90, 100),   # 10 misses
            0x10: (50, 100),   # 50 misses
            0x20: (50, 100),   # 50 misses, higher pc than 0x10
            0x40: (100, 100),  # perfect: must never rank
        }
        assert top_mispredicted(per_site, n=5) == [0x10, 0x20, 0x30]
        assert top_mispredicted(per_site, n=1) == [0x10]

    def test_bounds_accept_exact_and_interval(self):
        per_site = {0x10: (90, 100)}
        assert accuracy_within_bounds(per_site, {0x10: (90, 90, 100)}) == []
        assert accuracy_within_bounds(per_site, {0x10: (80, 95, 100)}) == []

    def test_bounds_report_violations(self):
        per_site = {0x10: (90, 100)}
        out_of_interval = accuracy_within_bounds(per_site, {0x10: (95, 100, 100)})
        assert len(out_of_interval) == 1 and "0x" in out_of_interval[0]
        missing = accuracy_within_bounds(per_site, {})
        assert len(missing) == 1
        count_mismatch = accuracy_within_bounds(per_site, {0x10: (90, 90, 99)})
        assert len(count_mismatch) == 1

    def test_bounds_flag_sites_that_never_ran(self):
        violations = accuracy_within_bounds({}, {0x10: (1, 2, 3)})
        assert len(violations) == 1
