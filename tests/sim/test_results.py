"""Result containers and geometric means."""

import math

import pytest

from repro.sim.results import (
    BenchmarkResult,
    PredictionStats,
    SweepResult,
    geometric_mean,
)


class TestGeometricMean:
    def test_basic(self):
        assert abs(geometric_mean([0.25, 1.0]) - 0.5) < 1e-12

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_single(self):
        assert abs(geometric_mean([0.97]) - 0.97) < 1e-12

    def test_zero_clamped(self):
        assert geometric_mean([0.0, 1.0]) > 0.0

    def test_at_most_arithmetic_mean(self):
        values = [0.9, 0.5, 0.99]
        assert geometric_mean(values) <= sum(values) / len(values)


class TestPredictionStats:
    def test_rates(self):
        stats = PredictionStats(conditional_total=100, conditional_correct=97)
        assert stats.accuracy == 0.97

    def test_empty(self):
        stats = PredictionStats()
        assert stats.accuracy == 0.0


def _result(scheme, benchmark, correct, total=100):
    return BenchmarkResult(
        scheme, benchmark, PredictionStats(conditional_total=total, conditional_correct=correct)
    )


class TestSweepResult:
    @pytest.fixture()
    def sweep(self):
        sweep = SweepResult()
        sweep.add(_result("AT", "gcc", 94), category="integer")
        sweep.add(_result("AT", "tomcatv", 98), category="fp")
        sweep.add(_result("LS", "gcc", 88), category="integer")
        sweep.add(_result("LS", "tomcatv", 95), category="fp")
        return sweep

    def test_schemes_and_benchmarks(self, sweep):
        assert sweep.schemes() == ["AT", "LS"]
        assert sweep.benchmarks() == ["gcc", "tomcatv"]

    def test_accuracy_lookup(self, sweep):
        assert sweep.accuracy("AT", "gcc") == 0.94

    def test_means_by_category(self, sweep):
        assert abs(sweep.mean("AT") - math.sqrt(0.94 * 0.98)) < 1e-12
        assert sweep.mean("AT", "integer") == 0.94
        assert sweep.mean("AT", "fp") == 0.98
