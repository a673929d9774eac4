"""The perceptron and TAGE walks against their scalar references.

:class:`~repro.sim.kernels.PerceptronWalk` keeps each weight row as one
lane-packed int and :class:`~repro.sim.kernels.TageWalk` keeps TAGE's
tables as flat lists with the update rule inlined.  Both must predict,
record for record, what :class:`PerceptronPredictor` and
:class:`TagePredictor` predict: through the walk itself, through the
offline fused recipe, and through the multi-session scorer fed random
chunks of two or three interleaved sessions.

The streams join long constant runs, alternating runs and random outcomes
over a small pc pool.  Runs drive weights toward the 8-bit rails and keep
TAGE's useful counters up; the period-``h`` streams of
:class:`TestPerceptronRails` push a weight onto +127 and then onto -128,
and preset rows start whole rows at the rails.  Tiny TAGE tables (one
entry bit) make tags collide and the useful counters decay.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors.modern import PerceptronPredictor, TagePredictor
from repro.predictors.spec import parse_spec
from repro.sim.backend import has_numpy
from repro.sim.streaming import ScalarStreamingScorer, make_multi_scorer
from repro.trace.columnar import pack_records
from repro.trace.record import BranchClass, BranchRecord

needs_numpy = pytest.mark.skipif(not has_numpy(), reason="NumPy not installed")

#: more pcs than a one-bit TAGE table has entries, spread over several
#: perceptron rows (and all on row 0 of a one-row table)
PCS = [0x1000, 0x1004, 0x1008, 0x100C, 0x2000, 0x2010, 0x3004]

_SEGMENT = st.one_of(
    # a constant run of one branch
    st.tuples(st.just("run"), st.sampled_from(PCS), st.booleans(), st.integers(1, 200)),
    # one branch alternating taken / not taken
    st.tuples(st.just("alternate"), st.sampled_from(PCS), st.booleans(), st.integers(1, 60)),
    # random branches and outcomes
    st.lists(st.tuples(st.sampled_from(PCS), st.booleans()), min_size=1, max_size=30),
)
STREAMS = st.lists(_SEGMENT, min_size=1, max_size=8)


def _records(segments):
    """The conditional records a list of stream segments describes."""
    branches = []
    for segment in segments:
        if isinstance(segment, list):
            branches.extend(segment)
        elif segment[0] == "run":
            _kind, pc, taken, length = segment
            branches.extend([(pc, taken)] * length)
        else:
            _kind, pc, taken, length = segment
            branches.extend((pc, taken ^ bool(i & 1)) for i in range(length))
    return [
        BranchRecord(pc=pc, cls=BranchClass.CONDITIONAL, taken=taken, target=pc + 64)
        for pc, taken in branches
    ]


def _mismatch(got, expected):
    """Where ``got`` first differs from ``expected`` (None if nowhere): a
    short failure message, where pytest would diff thousands of entries."""
    if list(got) == list(expected):
        return None
    pairs = zip(got, expected)
    return next((i for i, (a, b) in enumerate(pairs) if a != b), min(len(got), len(expected)))


def _oracle(spec, records):
    """The scalar reference's per-record predictions."""
    observe = parse_spec(spec).build().observe
    return [observe(r.pc, r.target, r.taken) for r in records]


def _columns(records, history_length):
    """``(pc, global-history windows, outcomes)`` columns of ``records``,
    the history starting all not-taken."""
    import numpy as np

    from repro.sim.kernels import _history_global

    taken = np.array([r.taken for r in records], dtype=np.int8)
    pc = np.array([r.pc for r in records], dtype=np.int64)
    return pc, _history_global(np, taken, history_length, 0), taken.astype(bool)


def _walked(walk, records, history_length):
    import numpy as np

    return walk.predict(np, *_columns(records, history_length)).tolist()


def _offline(spec, records):
    """Per-record predictions of the offline fused recipe."""
    from repro.sim.sweep import TraceContext, _FusedScores

    ctx = TraceContext(pack_records(records))
    correct = _FusedScores([parse_spec(spec)], ctx, {}).correct(0)
    return (correct == ctx.taken_bool).tolist()


def _served(spec, streams, rng):
    """Each session's predictions when ``streams`` (one per session) are cut
    into random chunks, interleaved in random order and fed as random
    groups of batches to one vector multi-session scorer."""
    fused = make_multi_scorer(spec, "vector")
    pending = []
    for key, records in enumerate(streams):
        fused.open_session(key)
        chunks, start = [], 0
        while start < len(records):
            size = rng.randint(1, max(1, len(records) // 2))
            chunks.append((key, records[start:start + size]))
            start += size
        pending.append(chunks)
    batches = []
    while any(pending):
        chunks = rng.choice([chunks for chunks in pending if chunks])
        batches.append(chunks.pop(0))
    served = {key: [] for key in range(len(streams))}
    while batches:
        take = rng.randint(1, 4)
        call, batches = batches[:take], batches[take:]
        for (key, _chunk), out in zip(call, fused.feed_many(call)):
            served[key].extend(out)
    for key, records in enumerate(streams):
        reference = ScalarStreamingScorer(parse_spec(spec))
        reference.feed(records)
        assert fused.close_session(key) == reference.stats
    return [served[key] for key in range(len(streams))]


@needs_numpy
class TestPerceptronWalk:
    """The lane-packed walk == :class:`PerceptronPredictor`, for every h."""

    @given(
        h=st.integers(1, 62),
        rows=st.sampled_from([1, 7, 512]),
        segments=STREAMS,
    )
    @settings(deadline=None, max_examples=60)
    def test_walk_and_recipe_match_the_predictor(self, h, rows, segments):
        from repro.sim.kernels import PerceptronWalk

        records = _records(segments)
        spec = f"perceptron({h},{rows})"
        expected = _oracle(spec, records)
        assert _mismatch(_walked(PerceptronWalk(h, rows), records, h), expected) is None
        assert _mismatch(_offline(spec, records), expected) is None

    @given(
        h=st.integers(1, 62),
        rows=st.sampled_from([1, 7, 512]),
        streams=st.lists(STREAMS, min_size=2, max_size=3),
        rng=st.randoms(use_true_random=False),
    )
    @settings(deadline=None, max_examples=40)
    def test_interleaved_sessions_match_the_predictor(self, h, rows, streams, rng):
        spec = f"perceptron({h},{rows})"
        streams = [_records(segments) for segments in streams]
        served = _served(spec, streams, rng)
        expected = [_oracle(spec, records) for records in streams]
        assert [_mismatch(*pair) for pair in zip(served, expected)] == [None] * len(streams)


def _periodic(history_length, length):
    """A stream whose outcome repeats the one ``h`` branches ago, then one
    whose outcome inverts it: weight ``h`` climbs to +127, then falls to
    -128 (``theta >= 127`` from ``h = 59`` on, so training keeps pushing
    it).  Its two pcs share a row of a seven-row table."""
    rng = random.Random(0)
    outcomes = [rng.random() < 0.5 for _ in range(history_length)]
    while len(outcomes) < length:
        outcomes.append(outcomes[-history_length])
    while len(outcomes) < 2 * length:
        outcomes.append(not outcomes[-history_length])
    return [
        BranchRecord(pc=(0x1000, 0x101C)[i % 2], cls=BranchClass.CONDITIONAL, taken=taken, target=0)
        for i, taken in enumerate(outcomes)
    ]


def _packed_row(weights):
    from repro.sim.kernels import _LANE_OFFSET

    return sum((w + _LANE_OFFSET) << (16 * i) for i, w in enumerate(weights))


@needs_numpy
class TestPerceptronRails:
    """Weights stepping past [-128, 127] clamp in the walk as in the
    predictor."""

    @pytest.mark.parametrize("h,rows", [(59, 1), (62, 1), (62, 7)])
    def test_periodic_streams_reach_both_rails(self, h, rows):
        from repro.sim.kernels import PerceptronWalk

        records = _periodic(h, 2000)
        predictor = PerceptronPredictor(h, rows)
        expected, rails = [], set()
        for r in records:
            expected.append(predictor.observe(r.pc, r.target, r.taken))
            row = predictor._weights[(r.pc >> 2) % rows]
            rails.update(w for w in (127, -128) if w in row)
        assert rails == {127, -128}
        spec = f"perceptron({h},{rows})"
        assert _mismatch(_walked(PerceptronWalk(h, rows), records, h), expected) is None
        assert _mismatch(_offline(spec, records), expected) is None
        served = _served(spec, [records, records[::-1]], random.Random(h))
        assert _mismatch(served[0], expected) is None
        assert _mismatch(served[1], _oracle(spec, records[::-1])) is None

    @given(
        h=st.integers(1, 62),
        weights=st.data(),
        segments=STREAMS,
    )
    @settings(deadline=None, max_examples=60)
    def test_rows_preset_at_the_rails(self, h, weights, segments):
        from repro.sim.kernels import PerceptronWalk

        rows = 7
        rail = st.sampled_from([-128, -127, 126, 127, 0])
        preset = [weights.draw(st.lists(rail, min_size=h + 1, max_size=h + 1)) for _ in range(rows)]
        predictor = PerceptronPredictor(h, rows)
        predictor._weights = [list(row) for row in preset]
        walk = PerceptronWalk(h, rows)
        walk.weights = [_packed_row(row) for row in preset]
        walk.sums = [sum(row) for row in preset]
        records = _records(segments)
        expected = [predictor.observe(r.pc, r.target, r.taken) for r in records]
        assert _mismatch(_walked(walk, records, h), expected) is None
        assert _mismatch(walk.weights, [_packed_row(row) for row in predictor._weights]) is None
        assert _mismatch(walk.sums, [sum(row) for row in predictor._weights]) is None


@needs_numpy
class TestTageWalk:
    """The flat-table walk == :class:`TagePredictor`, for every geometry."""

    @given(
        tables=st.integers(1, 4),
        entry_bits=st.integers(1, 9),
        segments=STREAMS,
    )
    @settings(deadline=None, max_examples=80)
    def test_walk_and_recipe_match_the_predictor(self, tables, entry_bits, segments):
        from repro.sim.kernels import TageWalk

        records = _records(segments)
        spec = f"tage({tables},{entry_bits})"
        expected = _oracle(spec, records)
        walk = TageWalk(tables, entry_bits)
        assert _mismatch(_walked(walk, records, 4 << (tables - 1)), expected) is None
        assert _mismatch(_offline(spec, records), expected) is None
        # the flat tables end where the predictor's tables end
        predictor = TagePredictor(tables, entry_bits)
        for r in records:
            predictor.observe(r.pc, r.target, r.taken)
        state = predictor.state
        assert _mismatch(walk.base, state.base) is None
        assert _mismatch(walk.tag, [t for row in state.tag for t in row]) is None
        assert _mismatch(walk.ctr, [c for row in state.ctr for c in row]) is None
        assert _mismatch(walk.useful, [u for row in state.useful for u in row]) is None

    @given(
        tables=st.integers(1, 4),
        entry_bits=st.integers(1, 9),
        streams=st.lists(STREAMS, min_size=2, max_size=3),
        rng=st.randoms(use_true_random=False),
    )
    @settings(deadline=None, max_examples=60)
    def test_interleaved_sessions_match_the_predictor(self, tables, entry_bits, streams, rng):
        spec = f"tage({tables},{entry_bits})"
        streams = [_records(segments) for segments in streams]
        served = _served(spec, streams, rng)
        expected = [_oracle(spec, records) for records in streams]
        assert [_mismatch(*pair) for pair in zip(served, expected)] == [None] * len(streams)
