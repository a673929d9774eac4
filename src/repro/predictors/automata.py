"""Pattern-history state machines (Figure 2 of the paper).

Each pattern-table entry holds the state of one small Moore machine; the
prediction is a function of the state (``lambda`` in the paper's equation 1)
and the state advances with each outcome (``delta`` in equation 2).  An
:class:`Automaton` is a *description* of such a machine — transition table
plus prediction table — so the pattern table can store plain integer states.

The five machines:

* **Last-Time (LT)** — one bit: predict whatever happened last time this
  pattern appeared.
* **A1** — records the outcomes of the last two occurrences of the pattern;
  predicts not-taken only when *neither* recorded outcome was taken.
* **A2** — the classic two-bit saturating up/down counter: increment on
  taken, decrement on not-taken, predict taken when the count is >= 2.
* **A3**, **A4** — described in the paper only as "similar to A2" with
  near-identical measured accuracy.  The printed figure is not available in
  the source text, so they are reconstructed here as the two standard
  saturating-counter variants from the contemporary literature: A3 breaks a
  strong state directly to the opposite weak state on a mispredicting
  outcome (3 -not-taken-> 1, 0 -taken-> 2), and A4 saturates *towards* a
  direction in a single step from the weak state (1 -taken-> 3,
  2 -not-taken-> 0) while leaving strong-state exits gradual.  Both satisfy
  the paper's stated property (four states, counter-like, accuracy within
  noise of A2), which is what the Figure 5 reproduction asserts.

All automata are initialised to their most-taken state (state 3 for the
four-state machines, state 1 for Last-Time) per section 4.2, because about
60 percent of conditional branches are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class Automaton:
    """An immutable finite-state machine description.

    Attributes:
        name: short name used in predictor spec strings (``A2``, ``LT`` ...).
        transitions: ``transitions[state]`` is a pair
            ``(next_if_not_taken, next_if_taken)``.
        predictions: ``predictions[state]`` is the Boolean prediction the
            machine makes while in ``state``.
        init_state: state every pattern-table entry starts in (section 4.2).
    """

    name: str
    transitions: Tuple[Tuple[int, int], ...]
    predictions: Tuple[bool, ...]
    init_state: int

    def __post_init__(self) -> None:
        n = len(self.transitions)
        if len(self.predictions) != n:
            raise ConfigError(f"{self.name}: predictions/transitions length mismatch")
        if not 0 <= self.init_state < n:
            raise ConfigError(f"{self.name}: init_state {self.init_state} out of range")
        for state, (off, on) in enumerate(self.transitions):
            if not (0 <= off < n and 0 <= on < n):
                raise ConfigError(f"{self.name}: transition out of range in state {state}")

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def predict(self, state: int) -> bool:
        """The Moore output ``z = lambda(S)`` (equation 1)."""
        return self.predictions[state]


LAST_TIME = Automaton(
    name="LT",
    transitions=((0, 1), (0, 1)),
    predictions=(False, True),
    init_state=1,
)

# State encodes the last two occurrences' outcomes as bits (older << 1 | newer).
# Predict not-taken only when no recorded outcome was taken (state 0).
A1 = Automaton(
    name="A1",
    transitions=tuple(((state << 1) & 3, ((state << 1) | 1) & 3) for state in range(4)),
    predictions=(False, True, True, True),
    init_state=3,
)

# Saturating up/down counter; predict taken when counter >= 2.
A2 = Automaton(
    name="A2",
    transitions=((0, 1), (0, 2), (1, 3), (2, 3)),
    predictions=(False, False, True, True),
    init_state=3,
)

# A2 variant: the weak-taken state saturates upward in one step, and a
# mispredicting not-taken from weak-taken falls straight to strong-not-taken.
# Retains A2's essential hysteresis (one noise outcome in a strong state
# does not flip the prediction), unlike Last-Time.
A3 = Automaton(
    name="A3",
    transitions=((0, 1), (0, 3), (0, 3), (2, 3)),
    predictions=(False, False, True, True),
    init_state=3,
)

# A2 variant: the weak states saturate in one step; strong exits stay gradual.
A4 = Automaton(
    name="A4",
    transitions=((0, 3), (0, 3), (0, 3), (2, 3)),
    predictions=(False, False, True, True),
    init_state=3,
)

AUTOMATA: Dict[str, Automaton] = {
    automaton.name: automaton for automaton in (LAST_TIME, A1, A2, A3, A4)
}


def automaton_by_name(name: str) -> Automaton:
    """Look up an automaton by its spec-string name (case-insensitive).

    Accepts ``LT`` and the ``Last-Time`` long form.
    """
    key = name.strip().upper()
    if key in ("LAST-TIME", "LASTTIME", "LAST_TIME"):
        key = "LT"
    try:
        return AUTOMATA[key]
    except KeyError as exc:
        raise ConfigError(
            f"unknown automaton {name!r}; expected one of {sorted(AUTOMATA)}"
        ) from exc
