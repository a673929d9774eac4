"""Streaming scorers: chunked scoring must be bit-exact with whole-trace
scoring, for every backend and any chunking.

The core invariant (see :mod:`repro.sim.streaming`): ``feed(a); feed(b)``
produces the same per-record predictions and the same accumulated stats as
``feed(a + b)`` — and both equal the scalar engine.  The property tests
chunk random traces at random boundaries through the fused multi-session
scorer (one session or several) and compare with
:class:`ScalarStreamingScorer`; the workload test replays real traces in
awkward chunk sizes through every spec family.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.predictors.spec import parse_spec
from repro.sim.backend import has_numpy
from repro.sim.engine import simulate
from repro.sim.streaming import (
    FusedPredictions,
    ScalarMultiSessionScorer,
    ScalarStreamingScorer,
    VectorMultiSessionScorer,
    make_multi_scorer,
    needs_training,
)
from repro.trace.columnar import pack_records
from repro.trace.record import BranchClass, BranchRecord

needs_numpy = pytest.mark.skipif(not has_numpy(), reason="NumPy not installed")

#: one spec per streaming kernel shape (mirrors kernels' VECTOR_SPECS).
STREAM_SPECS = [
    "AlwaysTaken",
    "AlwaysNotTaken",
    "BTFN",
    "Profile",
    "LS(IHRT(,A2),,)",
    "AT(IHRT(,6SR),PT(2^6,A2),)",
    "ST(IHRT(,6SR),PT(2^6,PB),Same)",
    "GAg(6,A2)",
    "gshare(8,A2)",
    # finite HRTs: the vector session carries an incremental LRU replay
    # (AHRT) or re-keys by bucket hash (HHRT); tiny tables force evictions
    # and collisions under the five-pc record pool
    "AT(AHRT(64,4SR),PT(2^4,A2),)",
    "AT(AHRT(4,4SR),PT(2^4,A2),)",
    "AT(HHRT(4,4SR),PT(2^4,A2),)",
    "LS(AHRT(4,A2),,)",
    "LS(HHRT(4,A2),,)",
    "ST(AHRT(4,6SR),PT(2^6,PB),Same)",
    "ST(HHRT(4,6SR),PT(2^6,PB),Same)",
    # modern subsystem: carried weight table / TageState plus a carried
    # global-history window; perceptron(4,1) maximises row aliasing and
    # tage(1,3) keeps allocation churning under the five-pc pool
    "perceptron(8,16)",
    "perceptron(4,1)",
    "tage(4,9)",
    "tage(1,3)",
]

_MIXED_RECORDS = st.lists(
    st.builds(
        BranchRecord,
        pc=st.sampled_from([0x1000, 0x1004, 0x1008, 0x2000, 0x2004]),
        cls=st.sampled_from([BranchClass.CONDITIONAL, BranchClass.IMM_UNCONDITIONAL]),
        taken=st.booleans(),
        target=st.integers(0, 0xFFFF),
        is_call=st.just(False),
    ),
    max_size=80,
)


def _chunks(records, sizes):
    """Split ``records`` at the cumulative ``sizes`` boundaries."""
    out, start = [], 0
    for size in sizes:
        out.append(records[start:start + size])
        start += size
    if start < len(records):
        out.append(records[start:])
    return out


class _OneSession:
    """One session of the fused vector scorer, in the ``feed`` shape of
    :class:`ScalarStreamingScorer`."""

    def __init__(self, spec, training_records=None):
        self.fused = make_multi_scorer(spec, "vector")
        self.fused.open_session(0, training_records)

    def feed(self, records):
        return self.fused.feed_many([(0, records)])[0]

    @property
    def stats(self):
        return self.fused.session_stats(0)


def _feed_chunked(scorer, records, rng):
    predictions = []
    start = 0
    while start < len(records):
        size = rng.randint(1, max(1, len(records) // 3))
        predictions.extend(scorer.feed(records[start:start + size]))
        start += size
    return predictions


@needs_numpy
class TestChunkInvariance:
    """One fused session fed in chunks == the scalar engine fed whole."""

    @pytest.mark.parametrize("spec_text", STREAM_SPECS)
    @given(records=_MIXED_RECORDS, seed=st.integers(0, 2**16))
    @settings(deadline=None, max_examples=25)
    def test_chunked_equals_whole(self, spec_text, records, seed):
        spec = parse_spec(spec_text)
        training = records if needs_training(spec) else None
        whole = ScalarStreamingScorer(spec, training_records=training)
        chunked = _OneSession(spec, training)
        rng = random.Random(seed)
        assert _feed_chunked(chunked, records, rng) == whole.feed(records)
        assert chunked.stats == whole.stats

    @pytest.mark.parametrize("spec_text", STREAM_SPECS)
    @given(records=_MIXED_RECORDS)
    @settings(deadline=None, max_examples=25)
    def test_vector_equals_scalar(self, spec_text, records):
        spec = parse_spec(spec_text)
        training = records if needs_training(spec) else None
        vector = _OneSession(spec, training)
        scalar = ScalarStreamingScorer(spec, training_records=training)
        assert vector.feed(records) == scalar.feed(records)
        assert vector.stats == scalar.stats

    def test_stats_match_offline_engine(self, eqntott_trace):
        records = eqntott_trace.records
        for spec_text in STREAM_SPECS:
            spec = parse_spec(spec_text)
            training = records if needs_training(spec) else None
            scorer = _OneSession(spec, training)
            for chunk in _chunks(records, [1, 7, 300, 4096]):
                scorer.feed(chunk)
            expected = simulate(
                spec.build(training_records=training), pack_records(records)
            )
            assert scorer.stats == expected, spec_text


class TestDispatch:
    @needs_numpy
    def test_finite_hrt_gets_vector_session(self):
        for spec_text in ("AT(AHRT(64,4SR),PT(2^4,A2),)", "LS(HHRT(64,A2),,)"):
            scorer = make_multi_scorer(spec_text, "vector")
            assert isinstance(scorer, VectorMultiSessionScorer)
            assert scorer.backend == "vector"

    @needs_numpy
    def test_vector_selected_when_possible(self):
        assert isinstance(make_multi_scorer("BTFN", "vector"), VectorMultiSessionScorer)
        assert isinstance(make_multi_scorer("BTFN", "auto"), VectorMultiSessionScorer)

    def test_scalar_always_available(self):
        assert isinstance(make_multi_scorer("BTFN", "scalar"), ScalarMultiSessionScorer)

    def test_spec_text_accepted(self):
        scorer = make_multi_scorer("GAg(4,A2)", "scalar")
        assert scorer.spec.scheme == "GAg"

    def test_needs_training(self):
        assert needs_training(parse_spec("Profile"))
        assert needs_training(parse_spec("ST(IHRT(,4SR),PT(2^4,PB),Same)"))
        assert needs_training(parse_spec("ST(IHRT(,4SR),PT(2^4,PB),Diff)"))
        assert not needs_training(parse_spec("AT(IHRT(,4SR),PT(2^4,A2),)"))

    @pytest.mark.parametrize("backend", ["scalar", "auto"])
    def test_training_required(self, backend):
        with pytest.raises(ConfigError, match="training"):
            make_multi_scorer("Profile", backend).open_session(0)
        with pytest.raises(ConfigError, match="training"):
            ScalarStreamingScorer(parse_spec("Profile"))

    def test_skipped_records_are_none(self, periodic_trace):
        call = BranchRecord(
            pc=0x9000, cls=BranchClass.IMM_UNCONDITIONAL, taken=True,
            target=0x100, is_call=True,
        )
        scorer = ScalarStreamingScorer(parse_spec("AlwaysTaken"))
        predictions = scorer.feed([call] + periodic_trace[:3] + [call])
        assert predictions[0] is None and predictions[-1] is None
        assert predictions[1:4] == [True, True, True]
        assert scorer.stats.conditional_total == 3


@needs_numpy
class TestMultiSessionFusion:
    """feed_many over N namespaced sessions == N independent scorers.

    The cross-session fusion invariant (see
    :class:`repro.sim.streaming.MultiSessionScorer`): any interleaving of
    per-session batches through one fused scorer is bit-exact with running
    each session through its own :class:`ScalarStreamingScorer`, record
    lists and :class:`PackedTrace` columns alike.  A single stream is the
    one-session chunk-invariance case.
    """

    @pytest.mark.parametrize("spec_text", STREAM_SPECS)
    @given(
        streams=st.lists(_MIXED_RECORDS, min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
        packed=st.booleans(),
    )
    @settings(deadline=None, max_examples=20)
    def test_interleaved_equals_independent(self, spec_text, streams, seed, packed):
        spec = parse_spec(spec_text)
        fused = make_multi_scorer(spec, "vector")
        references = {}
        for key, records in enumerate(streams):
            training = records if needs_training(spec) else None
            fused.open_session(key, training)
            references[key] = ScalarStreamingScorer(spec, training_records=training)

        # chop every stream at random boundaries, then interleave the
        # chunks randomly across feed_many calls of random width
        rng = random.Random(seed)
        queue = []
        for key, records in enumerate(streams):
            start = 0
            while start < len(records):
                size = rng.randint(1, max(1, len(records) // 3))
                queue.append((key, records[start:start + size]))
                start += size
        merged = []
        cursors = {key: [c for c in queue if c[0] == key] for key in references}
        while any(cursors.values()):
            key = rng.choice([k for k, v in cursors.items() if v])
            merged.append(cursors[key].pop(0))

        served = {key: [] for key in references}
        position = 0
        while position < len(merged):
            width = rng.randint(1, 3)
            call = merged[position:position + width]
            if packed:
                call = [(key, pack_records(chunk)) for key, chunk in call]
            position += width
            for (key, _chunk), result in zip(call, fused.feed_many(call)):
                if isinstance(result, FusedPredictions):
                    result = result.to_list()
                served[key].extend(result)

        for key, records in enumerate(streams):
            expected = references[key].feed(records)
            assert served[key] == expected, f"{spec_text} session {key}"
            assert fused.session_stats(key) == references[key].stats
            assert fused.close_session(key) == references[key].stats

    @pytest.mark.parametrize("spec_text", STREAM_SPECS)
    def test_scalar_facade_matches_vector(self, spec_text, periodic_trace):
        records = periodic_trace[:120]
        spec = parse_spec(spec_text)
        training = records if needs_training(spec) else None
        scalar = make_multi_scorer(spec, "scalar")
        vector = make_multi_scorer(spec, "vector")
        assert isinstance(scalar, ScalarMultiSessionScorer)
        assert isinstance(vector, VectorMultiSessionScorer)
        for fused in (scalar, vector):
            fused.open_session(7, training)
        batches = [(7, records[:50]), (7, records[50:])]
        flat_scalar = [p for out in scalar.feed_many(batches) for p in out]
        flat_vector = [p for out in vector.feed_many(batches) for p in out]
        assert flat_scalar == flat_vector
        assert scalar.close_session(7) == vector.close_session(7)

    def test_slot_recycling_reinitialises_state(self, program_trace):
        # keyed automaton state (AT) and carried per-slot objects (the
        # perceptron predictor, the TAGE state) must all start pristine
        records = program_trace[:400]
        for spec in ("AT(IHRT(,6SR),PT(2^6,A2),)", "perceptron(4,1)", "tage(2,5)"):
            fused = make_multi_scorer(spec, "vector")
            fused.open_session(1)
            first = [p for out in fused.feed_many([(1, records)]) for p in out]
            fused.close_session(1)
            # the recycled slot must start from pristine predictor state
            fused.open_session(2)
            second = [p for out in fused.feed_many([(2, records)]) for p in out]
            assert first == second, spec
            fused.close_session(2)
            assert fused.active == 0

    def test_mid_stream_close_leaves_others_exact(self, periodic_trace):
        records = periodic_trace[:90]
        fused = make_multi_scorer("gshare(8,A2)", "vector")
        reference = ScalarStreamingScorer(parse_spec("gshare(8,A2)"))
        fused.open_session(0)
        fused.open_session(1)
        served = []
        served.extend(fused.feed_many([(0, records[:30]), (1, records[:30])])[0])
        fused.close_session(1)  # session 0 must not notice
        served.extend(fused.feed_many([(0, records[30:])])[0])
        assert served == reference.feed(records)
        assert fused.close_session(0) == reference.stats

    def test_unknown_session_rejected(self):
        fused = make_multi_scorer("BTFN", "vector")
        with pytest.raises(ConfigError, match="not open"):
            fused.feed_many([(9, [])])
        with pytest.raises(ConfigError, match="not open"):
            fused.close_session(9)
        fused.open_session(3)
        with pytest.raises(ConfigError, match="already open"):
            fused.open_session(3)

    def test_fused_predictions_shape(self, periodic_trace):
        call = BranchRecord(
            pc=0x9000, cls=BranchClass.IMM_UNCONDITIONAL, taken=True,
            target=0x100, is_call=True,
        )
        records = [call] + periodic_trace[:3] + [call]
        fused = make_multi_scorer("AlwaysTaken", "vector")
        fused.open_session(0)
        (result,) = fused.feed_many([(0, pack_records(records))])
        assert isinstance(result, FusedPredictions)
        assert result.length == 5
        assert list(result.index) == [1, 2, 3]
        assert result.to_list() == [None, True, True, True, None]
