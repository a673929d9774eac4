"""Global pattern table behaviour."""

import pytest

from repro.errors import ConfigError
from repro.predictors.automata import A2, LAST_TIME
from repro.predictors.pattern_table import PatternTable


class TestConstruction:
    def test_size_and_init(self):
        table = PatternTable(4, A2)
        assert table.num_entries == 16
        assert all(table.state(pattern) == 3 for pattern in range(16))

    def test_last_time_init(self):
        table = PatternTable(3, LAST_TIME)
        assert all(table.predict(pattern) for pattern in range(8))

    def test_bad_length(self):
        with pytest.raises(ConfigError):
            PatternTable(0, A2)
        with pytest.raises(ConfigError):
            PatternTable(30, A2)


class TestOperation:
    def test_entries_independent(self):
        table = PatternTable(4, A2)
        for _ in range(4):
            table.update(0b0101, False)
        assert table.predict(0b0101) is False
        assert table.predict(0b0100) is True  # untouched neighbour

    def test_pattern_masked_into_range(self):
        table = PatternTable(4, A2)
        table.update(0xF5, False)  # aliases to 0x5
        table.update(0xF5, False)
        assert table.predict(0x5) is False

    def test_reset(self):
        table = PatternTable(4, A2)
        for _ in range(4):
            table.update(1, False)
        table.reset()
        assert table.predict(1) is True

    def test_update_follows_automaton(self):
        table = PatternTable(2, A2)
        sequence = [False, False, True, True, False]
        state = A2.init_state
        for outcome in sequence:
            table.update(3, outcome)
            state = A2.next_state(state, outcome)
            assert table.state(3) == state
