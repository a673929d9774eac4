"""Reference helpers shared by the predictor tests."""

from repro.predictors.automata import Automaton


def next_state(automaton: Automaton, state: int, taken: bool) -> int:
    """The transition ``S' = delta(S, R)`` of the paper's equation 2."""
    return automaton.transitions[state][1 if taken else 0]
