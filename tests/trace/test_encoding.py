"""Binary trace format: round-trip, streaming, corruption handling."""

import io
import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import TraceFormatError
from repro.trace.encoding import MAGIC, decode_record, iter_trace, read_trace, write_trace
from repro.trace.record import BranchClass, BranchRecord

_RECORDS = st.lists(
    st.builds(
        BranchRecord,
        pc=st.integers(0, 0xFFFFFFFF),
        cls=st.sampled_from(
            [
                BranchClass.CONDITIONAL,
                BranchClass.RETURN,
                BranchClass.IMM_UNCONDITIONAL,
                BranchClass.REG_UNCONDITIONAL,
            ]
        ),
        taken=st.booleans(),
        target=st.integers(0, 0xFFFFFFFF),
        is_call=st.booleans(),
    ),
    max_size=50,
)


class TestRoundTrip:
    @given(_RECORDS)
    def test_memory_round_trip(self, records):
        buffer = io.BytesIO()
        assert write_trace(records, buffer) == len(records)
        buffer.seek(0)
        assert read_trace(buffer) == records

    def test_file_round_trip(self, tmp_path):
        records = [
            BranchRecord(0x1000, BranchClass.CONDITIONAL, True, 0x1040),
            BranchRecord(0x1010, BranchClass.RETURN, True, 0x2000, False),
            BranchRecord(0x1020, BranchClass.IMM_UNCONDITIONAL, True, 0x3000, True),
        ]
        path = tmp_path / "trace.trc"
        write_trace(records, path)
        assert read_trace(path) == records

    def test_iter_trace_streams(self, tmp_path):
        records = [BranchRecord(4 * i, BranchClass.CONDITIONAL, bool(i % 2), 4 * i + 64)
                   for i in range(10)]
        path = tmp_path / "t.trc"
        write_trace(records, path)
        iterator = iter_trace(path)
        assert next(iterator) == records[0]
        assert list(iterator) == records[1:]

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trc"
        assert write_trace([], path) == 0
        assert read_trace(path) == []


class TestCorruption:
    def test_bad_magic(self):
        buffer = io.BytesIO(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace(buffer)

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            read_trace(io.BytesIO(MAGIC))

    def test_truncated_body(self):
        buffer = io.BytesIO()
        write_trace(
            [BranchRecord(0, BranchClass.CONDITIONAL, True, 4)] * 3, buffer
        )
        data = buffer.getvalue()[:-5]
        with pytest.raises(TraceFormatError, match="truncated trace body"):
            read_trace(io.BytesIO(data))

    def test_invalid_class_rejected(self):
        buffer = io.BytesIO()
        write_trace([BranchRecord(0, BranchClass.CONDITIONAL, True, 4)], buffer)
        data = bytearray(buffer.getvalue())
        data[16 + 4] = (BranchClass.NON_BRANCH << 1)  # flags byte of record 0
        with pytest.raises(TraceFormatError, match="NON_BRANCH"):
            read_trace(io.BytesIO(bytes(data)))

    def test_reserved_flag_bits_rejected(self):
        """Bits 5..7 of the flag byte are reserved: a taken conditional with
        bit 5 set is refused by every decoder, not silently accepted."""
        record = struct.pack("<IBI", 0x100, 0x21, 0x80)
        with pytest.raises(TraceFormatError, match="flags"):
            decode_record(record)
        data = MAGIC + (1).to_bytes(4, "little") + bytes(4) + record
        with pytest.raises(TraceFormatError, match="flags"):
            read_trace(io.BytesIO(data))
