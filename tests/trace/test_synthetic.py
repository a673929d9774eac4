"""Synthetic trace generators: exact patterns, biases, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.trace.record import BranchClass
from repro.trace.stats import static_branch_census, taken_rate
from repro.trace.synthetic import random_program
from tests.synthetic import biased_branch, interleaved, loop_branch, periodic_branch


class TestPeriodicBranch:
    def test_exact_pattern(self):
        outcomes = [record.taken for record in periodic_branch([True, False], 3)]
        assert outcomes == [True, False, True, False, True, False]

    def test_single_pc(self):
        records = list(periodic_branch([True], 5, pc=0x4444))
        assert {record.pc for record in records} == {0x4444}
        assert all(record.cls is BranchClass.CONDITIONAL for record in records)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ConfigError):
            list(periodic_branch([], 1))


class TestLoopBranch:
    def test_trip_count_pattern(self):
        outcomes = [record.taken for record in loop_branch(trip_count=3, iterations=2)]
        assert outcomes == [True, True, False, True, True, False]

    def test_trip_one_never_taken(self):
        assert not any(record.taken for record in loop_branch(1, 5))

    def test_invalid_trip(self):
        with pytest.raises(ConfigError):
            list(loop_branch(0, 1))


class TestBiasedBranch:
    @given(st.floats(0.1, 0.9), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_bias_approximately_honoured(self, probability, seed):
        records = list(biased_branch(probability, 3000, seed=seed))
        assert abs(taken_rate(records) - probability) < 0.08

    def test_deterministic_per_seed(self):
        a = list(biased_branch(0.5, 100, seed=3))
        b = list(biased_branch(0.5, 100, seed=3))
        assert a == b

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            list(biased_branch(1.5, 10))


class TestInterleaved:
    def test_round_robin_with_independent_patterns(self):
        records = list(interleaved([(0x10, [True]), (0x20, [False, True])], 4))
        assert [record.pc for record in records] == [0x10, 0x20] * 4
        branch_b = [record.taken for record in records if record.pc == 0x20]
        assert branch_b == [False, True, False, True]

    def test_requires_specs(self):
        with pytest.raises(ConfigError):
            list(interleaved([], 3))


class TestRandomProgram:
    def test_static_population(self):
        records = list(random_program(50, 5000, seed=9))
        census = static_branch_census(records)
        assert 10 < census.static_conditional <= 50

    def test_deterministic(self):
        assert list(random_program(10, 500, seed=2)) == list(
            random_program(10, 500, seed=2)
        )

    def test_count_honoured(self):
        assert len(list(random_program(5, 1234, seed=0))) == 1234

    def test_invalid_static_branches(self):
        with pytest.raises(ConfigError):
            list(random_program(0, 10))
