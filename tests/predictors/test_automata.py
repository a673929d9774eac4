"""The Figure 2 automata: exact transition semantics and invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.predictors.automata import (
    A1,
    A2,
    A3,
    A4,
    AUTOMATA,
    Automaton,
    LAST_TIME,
    automaton_by_name,
)
from tests.predictors.helpers import next_state

_ALL = list(AUTOMATA.values())


class TestLastTime:
    def test_predicts_last_outcome(self):
        state = LAST_TIME.init_state
        for outcome in (True, False, False, True):
            state = next_state(LAST_TIME, state, outcome)
            assert LAST_TIME.predict(state) == outcome

    def test_initialised_taken(self):
        assert LAST_TIME.predict(LAST_TIME.init_state) is True


class TestA1:
    def test_not_taken_only_when_no_taken_recorded(self):
        # state encodes last two outcomes; after two not-takens -> predict NT
        state = A1.init_state
        state = next_state(A1, state, False)
        state = next_state(A1, state, False)
        assert A1.predict(state) is False
        state = next_state(A1, state, True)
        assert A1.predict(state) is True

    def test_single_not_taken_still_predicts_taken(self):
        state = next_state(A1, A1.init_state, False)
        assert A1.predict(state) is True


class TestA2:
    def test_saturating_counter_values(self):
        # walking down from 3 with not-takens: 3 -> 2 -> 1 -> 0 -> 0
        state = 3
        expectations = [2, 1, 0, 0]
        for expected in expectations:
            state = next_state(A2, state, False)
            assert state == expected
        # walking up with takens: 0 -> 1 -> 2 -> 3 -> 3
        expectations = [1, 2, 3, 3]
        for expected in expectations:
            state = next_state(A2, state, True)
            assert state == expected

    def test_prediction_threshold(self):
        assert [A2.predict(state) for state in range(4)] == [False, False, True, True]

    def test_hysteresis_absorbs_single_noise(self):
        # strong-taken, one not-taken, still predicts taken
        state = next_state(A2, 3, False)
        assert A2.predict(state) is True


class TestA3A4:
    @pytest.mark.parametrize("automaton", [A3, A4])
    def test_counter_like(self, automaton):
        assert automaton.num_states == 4
        assert [automaton.predict(state) for state in range(4)] == [
            False,
            False,
            True,
            True,
        ]
        assert automaton.init_state == 3

    @pytest.mark.parametrize("automaton", [A3, A4])
    def test_hysteresis_differs_from_last_time(self, automaton):
        """One noisy not-taken in the strong state must not flip the
        prediction (the property Last-Time lacks; an automaton without it
        degenerates to Last-Time, as the paper's Figure 5 discussion implies)."""
        state = next_state(automaton, 3, False)
        assert automaton.predict(state) is True

    def test_all_four_state_machines_distinct(self):
        tables = {automaton.transitions for automaton in (A1, A2, A3, A4)}
        assert len(tables) == 4


class TestInvariants:
    @given(
        automaton=st.sampled_from(_ALL),
        outcomes=st.lists(st.booleans(), max_size=64),
    )
    def test_states_stay_in_range(self, automaton, outcomes):
        state = automaton.init_state
        for outcome in outcomes:
            state = next_state(automaton, state, outcome)
            assert 0 <= state < automaton.num_states

    @given(automaton=st.sampled_from(_ALL))
    def test_saturation_under_constant_input(self, automaton):
        """Feeding a constant outcome long enough must converge to a fixed
        point that predicts that outcome."""
        for outcome in (True, False):
            state = automaton.init_state
            for _ in range(automaton.num_states + 1):
                state = next_state(automaton, state, outcome)
            assert next_state(automaton, state, outcome) == state
            assert automaton.predict(state) == outcome


class TestLookup:
    @pytest.mark.parametrize("name", ["A2", "a2", "LT", "Last-Time", "last_time"])
    def test_lookup_variants(self, name):
        assert automaton_by_name(name) in _ALL

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            automaton_by_name("A9")


class TestValidation:
    def test_mismatched_tables_rejected(self):
        with pytest.raises(ConfigError):
            Automaton("bad", ((0, 1), (0, 1)), (True,), 0)

    def test_init_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Automaton("bad", ((0, 1), (0, 1)), (True, False), 5)

    def test_transition_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Automaton("bad", ((0, 9), (0, 1)), (True, False), 0)
