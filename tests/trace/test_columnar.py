"""Columnar packed traces: lossless round-trip, file parity, fast-path parity."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.errors import TraceFormatError
from repro.predictors.automata import A2
from repro.predictors.hrt import AHRT
from repro.predictors.pattern_table import PatternTable
from repro.predictors.two_level import TwoLevelAdaptivePredictor
from repro.sim.engine import simulate, simulate_packed
from repro.trace.columnar import (
    PackedTrace,
    conditional_only,
    pack_conditional_stream,
    pack_flags,
    pack_records,
    read_packed_trace,
    unpack_flags,
)
from repro.trace.encoding import write_trace
from repro.trace.record import BranchClass, BranchRecord
from repro.trace.synthetic import random_program

_BRANCH_CLASSES = [
    BranchClass.CONDITIONAL,
    BranchClass.RETURN,
    BranchClass.IMM_UNCONDITIONAL,
    BranchClass.REG_UNCONDITIONAL,
]

#: all branch classes crossed with all taken/is_call combinations
_RECORDS = st.lists(
    st.builds(
        BranchRecord,
        pc=st.integers(0, 0xFFFFFFFF),
        cls=st.sampled_from(_BRANCH_CLASSES),
        taken=st.booleans(),
        target=st.integers(0, 0xFFFFFFFF),
        is_call=st.booleans(),
    ),
    max_size=80,
)


class TestRoundTrip:
    @given(_RECORDS)
    def test_pack_unpack_is_lossless(self, records):
        packed = pack_records(records)
        assert len(packed) == len(records)
        assert packed.to_records() == records

    @given(_RECORDS)
    def test_conditional_columns_match(self, records):
        packed = pack_records(records)
        conditionals = [r for r in records if r.cls is BranchClass.CONDITIONAL]
        assert packed.num_conditional == len(conditionals)
        assert list(packed.cond_pc) == [r.pc for r in conditionals]
        assert list(packed.cond_target) == [r.target for r in conditionals]
        assert packed.cond_taken == tuple(r.taken for r in conditionals)

    @given(_RECORDS)
    def test_conditional_only_equals_packed_conditional_records(self, records):
        conditionals = [r for r in records if r.cls is BranchClass.CONDITIONAL]
        packed = conditional_only(pack_records(records))
        expected = pack_records(conditionals)
        assert packed == expected
        assert packed.num_conditional == len(conditionals)
        assert (packed.cond_pc, packed.cond_target, packed.cond_taken) == (
            expected.cond_pc,
            expected.cond_target,
            expected.cond_taken,
        )

    @given(_RECORDS)
    def test_file_parity_with_record_reader(self, records):
        buffer = io.BytesIO()
        write_trace(records, buffer)
        buffer.seek(0)
        assert read_packed_trace(buffer).to_records() == records

    @given(
        st.dictionaries(
            st.integers(0, 0x1FFFFFFFF), st.integers(0, 0x1FFFFFFFF), min_size=1
        ),
        st.data(),
    )
    def test_conditional_stream_equals_packed_records(self, targets, data):
        # addresses past 32 bits are masked, as pack_records masks them
        stream = data.draw(
            st.lists(st.tuples(st.sampled_from(sorted(targets)), st.booleans()))
        )
        packed = pack_conditional_stream(stream, targets)
        expected = pack_records(
            BranchRecord(pc, BranchClass.CONDITIONAL, taken, targets[pc])
            for pc, taken in stream
        )
        assert packed == expected
        assert packed.num_conditional == expected.num_conditional
        assert (packed.cond_pc, packed.cond_target, packed.cond_taken) == (
            expected.cond_pc,
            expected.cond_target,
            expected.cond_taken,
        )

    def test_exhaustive_flag_byte_round_trip(self):
        for cls in _BRANCH_CLASSES:
            for taken in (False, True):
                for is_call in (False, True):
                    flags = pack_flags(taken, cls, is_call)
                    assert unpack_flags(flags) == (taken, cls, is_call)

    def test_iteration_yields_records(self):
        records = [
            BranchRecord(0x100, BranchClass.CONDITIONAL, True, 0x80),
            BranchRecord(0x104, BranchClass.RETURN, True, 0x200),
        ]
        assert list(pack_records(records)) == records


class TestValidation:
    def test_non_branch_flags_rejected(self):
        with pytest.raises(TraceFormatError, match="NON_BRANCH"):
            unpack_flags(int(BranchClass.NON_BRANCH) << 1)

    def test_column_length_mismatch_rejected(self):
        from array import array

        with pytest.raises(TraceFormatError, match="mismatch"):
            PackedTrace(array("I", [1]), array("I", []), b"\x01")


class TestSimulatePacked:
    """The columnar fast path must score identically to the record loop."""

    def _trace(self):
        return list(random_program(static_branches=60, count=5_000, seed=3))

    def test_matches_record_loop(self):
        records = self._trace()
        baseline = simulate(
            TwoLevelAdaptivePredictor(AHRT(128), PatternTable(8, A2)), records
        )
        packed = simulate_packed(
            TwoLevelAdaptivePredictor(AHRT(128), PatternTable(8, A2)),
            pack_records(records),
        )
        assert packed == baseline

    def test_simulate_dispatches_on_packed_trace(self):
        records = self._trace()
        baseline = simulate(
            TwoLevelAdaptivePredictor(AHRT(128), PatternTable(8, A2)), records
        )
        dispatched = simulate(
            TwoLevelAdaptivePredictor(AHRT(128), PatternTable(8, A2)),
            pack_records(records),
        )
        assert dispatched == baseline


class TestLazyDerivedColumns:
    """The conditional-only columns are derived on first access, not in
    ``__init__``; flag validation stays eager."""

    def _packed(self):
        return pack_records(
            [
                BranchRecord(0x100, BranchClass.CONDITIONAL, True, 0x80),
                BranchRecord(0x104, BranchClass.RETURN, True, 0x200),
                BranchRecord(0x108, BranchClass.CONDITIONAL, False, 0x90),
            ]
        )

    def test_init_does_not_materialise(self):
        packed = self._packed()
        assert packed._cond_columns is None
        # the eager count never touches the derived columns
        assert packed.num_conditional == 2
        assert packed._cond_columns is None

    def test_access_builds_and_caches(self):
        packed = self._packed()
        assert packed.cond_pc == (0x100, 0x108)
        first = packed._cond_columns
        assert first is not None
        assert packed.cond_taken == (True, False)
        assert packed.cond_target == (0x80, 0x90)
        assert packed._cond_columns is first  # one derivation, three views

    def test_invalid_flags_still_raise_eagerly(self):
        from array import array

        with pytest.raises(TraceFormatError, match="invalid branch flags"):
            PackedTrace(array("I", [1, 2]), array("I", [3, 4]), b"\x01\xff")

    def test_truncated_body_reports_counts(self):
        records = [BranchRecord(0x100, BranchClass.CONDITIONAL, True, 0x80)] * 4
        buffer = io.BytesIO()
        write_trace(records, buffer)
        clipped = io.BytesIO(buffer.getvalue()[:-5])
        with pytest.raises(TraceFormatError, match=r"promised 4 records.*complete"):
            read_packed_trace(clipped)
