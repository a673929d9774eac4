"""Binary trace format stability.

The on-disk layout is a compatibility contract (cached traces outlive
library versions).  These tests pin the exact bytes of the current v2
format so an accidental layout change fails loudly instead of silently
corrupting caches, and pin that retired v1 files (13-byte records with a
trailing reserved word) are refused rather than misread.
"""

import io

import pytest

from repro.errors import TraceFormatError
from repro.trace.columnar import pack_records
from repro.trace.encoding import MAGIC, read_trace, write_trace
from repro.trace.record import BranchClass, BranchRecord

#: byte-for-byte golden encoding of two known records
GOLDEN_RECORDS = [
    BranchRecord(0x00001040, BranchClass.CONDITIONAL, True, 0x00001080, False),
    BranchRecord(0x00001100, BranchClass.IMM_UNCONDITIONAL, True, 0x00002000, True),
]
GOLDEN_BYTES = (
    b"YPTRACE2"                       # magic
    + (2).to_bytes(4, "little")        # record count
    + (0).to_bytes(4, "little")        # reserved
    # record 0: pc, flags (taken=1 | cls 0 << 1), target
    + (0x1040).to_bytes(4, "little")
    + bytes([0b0000_0001])
    + (0x1080).to_bytes(4, "little")
    # record 1: pc, flags (taken | cls 2 << 1 | call 0x10), target
    + (0x1100).to_bytes(4, "little")
    + bytes([0b0001_0101])
    + (0x2000).to_bytes(4, "little")
)

#: the same two records in the retired v1 layout (reserved uint32 per record)
GOLDEN_BYTES_V1 = (
    b"YPTRACE1"
    + (2).to_bytes(4, "little")
    + (0).to_bytes(4, "little")
    + (0x1040).to_bytes(4, "little")
    + bytes([0b0000_0001])
    + (0x1080).to_bytes(4, "little")
    + (0).to_bytes(4, "little")
    + (0x1100).to_bytes(4, "little")
    + bytes([0b0001_0101])
    + (0x2000).to_bytes(4, "little")
    + (0).to_bytes(4, "little")
)


class TestGoldenLayout:
    def test_writer_produces_golden_bytes(self):
        buffer = io.BytesIO()
        write_trace(GOLDEN_RECORDS, buffer)
        assert buffer.getvalue() == GOLDEN_BYTES

    def test_reader_accepts_golden_bytes(self):
        assert read_trace(io.BytesIO(GOLDEN_BYTES)) == GOLDEN_RECORDS

    def test_magic_is_stable(self):
        assert MAGIC == b"YPTRACE2"

    def test_record_size_is_9_bytes(self):
        buffer = io.BytesIO()
        write_trace(GOLDEN_RECORDS[:1], buffer)
        assert len(buffer.getvalue()) == 16 + 9


class TestLegacyV1:
    def test_reader_rejects_v1_bytes(self):
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_trace(io.BytesIO(GOLDEN_BYTES_V1))

    def test_packed_reader_rejects_v1_bytes(self):
        with pytest.raises(TraceFormatError, match="bad magic"):
            pack_records(read_trace(io.BytesIO(GOLDEN_BYTES_V1)))

    def test_writer_no_longer_emits_v1(self):
        buffer = io.BytesIO()
        write_trace(GOLDEN_RECORDS, buffer)
        assert buffer.getvalue()[:8] == b"YPTRACE2"
