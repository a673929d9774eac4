"""Differential tests against brute-force reference models.

The production structures are optimised (packed ints, OrderedDict LRU,
inlined shift arithmetic); these tests check them against transparently
simple reference implementations over hypothesis-generated access
sequences, so any optimisation bug shows up as a divergence.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.predictors.automata import A2
from repro.predictors.base import measure_accuracy
from repro.predictors.hrt import AHRT, _index_hash
from repro.predictors.pattern_table import PatternTable
from repro.predictors.two_level import DelayedUpdatePredictor, TwoLevelAdaptivePredictor
from repro.predictors.hrt import IHRT
from repro.sim.engine import simulate
from repro.trace.record import BranchClass, BranchRecord
from tests.predictors.helpers import next_state


# ----------------------------------------------------------------------
# reference: a saturating counter defined arithmetically
# ----------------------------------------------------------------------
class TestA2AgainstArithmeticCounter:
    @given(outcomes=st.lists(st.booleans(), max_size=200))
    def test_equivalent(self, outcomes):
        state = 3
        counter = 3
        for taken in outcomes:
            state = next_state(A2, state, taken)
            counter = min(3, counter + 1) if taken else max(0, counter - 1)
            assert state == counter
            assert A2.predict(state) == (counter >= 2)


# ----------------------------------------------------------------------
# reference: AHRT against a dict-of-lists LRU model
# ----------------------------------------------------------------------
class _ReferenceAHRT:
    """Transparent model: per set, a python list ordered LRU -> MRU."""

    def __init__(self, entries: int, init_payload: int, associativity: int = 4):
        self.num_sets = entries // associativity
        self.associativity = associativity
        self.init_payload = init_payload
        self.sets: Dict[int, List[Tuple[int, int]]] = {}
        self.free: Dict[int, int] = {}

    def get(self, pc: int) -> int:
        index = _index_hash(pc, self.num_sets)
        ways = self.sets.setdefault(index, [])
        for position, (tag, payload) in enumerate(ways):
            if tag == pc:
                ways.append(ways.pop(position))  # move to MRU
                return payload
        remaining_free = self.free.get(index, self.associativity)
        if remaining_free > 0:
            self.free[index] = remaining_free - 1
            payload = self.init_payload
        else:
            _victim, payload = ways.pop(0)  # LRU, payload inherited
        ways.append((pc, payload))
        return payload

    def put(self, pc: int, payload: int) -> None:
        index = _index_hash(pc, self.num_sets)
        ways = self.sets.setdefault(index, [])
        for position, (tag, _old) in enumerate(ways):
            if tag == pc:
                ways.pop(position)
                ways.append((pc, payload))
                return


class TestAHRTAgainstReference:
    @given(
        entries=st.sampled_from([4, 8, 32]),
        operations=st.lists(
            st.tuples(
                st.integers(0, 40).map(lambda n: 0x1000 + 4 * n),
                st.one_of(st.none(), st.integers(0, 255)),
            ),
            max_size=300,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_payload_stream(self, entries, operations):
        """Interleaved get/put sequences return identical payloads."""
        real = AHRT(entries, init_payload=7)
        model = _ReferenceAHRT(entries, init_payload=7)
        for pc, maybe_payload in operations:
            assert real.get(pc) == model.get(pc), pc
            if maybe_payload is not None:
                real.put(pc, maybe_payload)
                model.put(pc, maybe_payload)


# ----------------------------------------------------------------------
# reference: the full AT predictor written naively
# ----------------------------------------------------------------------
class _ReferenceTwoLevel:
    """AT with an ideal table, written with no shared state tricks."""

    def __init__(self, k: int):
        self.k = k
        self.histories: Dict[int, List[bool]] = {}
        self.states: Dict[Tuple[bool, ...], int] = {}

    def _history(self, pc: int) -> Tuple[bool, ...]:
        return tuple(self.histories.get(pc, [True] * self.k))

    def predict(self, pc: int) -> bool:
        state = self.states.get(self._history(pc), 3)
        return state >= 2

    def update(self, pc: int, taken: bool) -> None:
        pattern = self._history(pc)
        state = self.states.get(pattern, 3)
        self.states[pattern] = min(3, state + 1) if taken else max(0, state - 1)
        history = list(self.histories.get(pc, [True] * self.k))
        history.pop(0)
        history.append(taken)
        self.histories[pc] = history


_EVENTS = st.lists(
    st.tuples(st.integers(0, 12).map(lambda n: 0x100 + 4 * n), st.booleans()),
    max_size=400,
)


class TestTwoLevelAgainstReference:
    @given(k=st.sampled_from([2, 4, 8]), events=_EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_identical_predictions(self, k, events):
        real = TwoLevelAdaptivePredictor(IHRT(), PatternTable(k, A2))
        model = _ReferenceTwoLevel(k)
        for pc, taken in events:
            assert real.predict(pc, 0) == model.predict(pc)
            real.update(pc, 0, taken)
            model.update(pc, taken)


# ----------------------------------------------------------------------
# wrapper equivalences
# ----------------------------------------------------------------------
def _trace_from_events(events) -> List[BranchRecord]:
    return [
        BranchRecord(pc, BranchClass.CONDITIONAL, taken, pc + 0x40)
        for pc, taken in events
    ]


class TestWrapperEquivalences:
    @given(events=_EVENTS)
    @settings(max_examples=30, deadline=None)
    def test_delay_zero_is_transparent(self, events):
        trace = _trace_from_events(events)
        plain = TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, A2))
        wrapped = DelayedUpdatePredictor(
            TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, A2)), delay=0
        )
        assert measure_accuracy(plain, trace) == measure_accuracy(wrapped, trace)

    @given(events=_EVENTS)
    @settings(max_examples=30, deadline=None)
    def test_engine_matches_measure_accuracy(self, events):
        trace = _trace_from_events(events)
        first = TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, A2))
        second = TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, A2))
        engine_accuracy = simulate(first, trace).accuracy
        helper_accuracy = measure_accuracy(second, trace)
        if trace:
            assert engine_accuracy == helper_accuracy
