"""Wire protocol unit tests: framing, record payloads, prediction bytes."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.serve import protocol
from repro.trace.encoding import RECORD_SIZE
from repro.trace.record import BranchClass, BranchRecord

_RECORDS = st.lists(
    st.builds(
        BranchRecord,
        pc=st.integers(0, 0xFFFFFFFF),
        cls=st.sampled_from(list(BranchClass)[:4]),
        taken=st.booleans(),
        target=st.integers(0, 0xFFFFFFFF),
        is_call=st.booleans(),
    ),
    max_size=30,
)


def _read(data: bytes, max_frame: int = protocol.MAX_FRAME_BYTES):
    async def _go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_frame(reader, max_frame)

    return asyncio.run(_go())


class TestFraming:
    def test_header_layout(self):
        frame = protocol.pack_frame(protocol.FRAME_BYE, b"xyz")
        assert frame[:4] == (3).to_bytes(4, "little")
        assert frame[4] == protocol.FRAME_BYE
        assert frame[5:] == b"xyz"

    @given(payload=st.binary(max_size=200), frame_type=st.integers(1, 14))
    @settings(deadline=None, max_examples=50)
    def test_roundtrip(self, payload, frame_type):
        data = protocol.pack_frame(frame_type, payload)
        assert _read(data) == (frame_type, payload)

    def test_clean_eof_is_none(self):
        assert _read(b"") is None

    def test_truncated_header(self):
        data = protocol.pack_frame(protocol.FRAME_OK, b"abc")[:3]
        with pytest.raises(ProtocolError, match="mid frame header"):
            _read(data)

    def test_truncated_payload(self):
        data = protocol.pack_frame(protocol.FRAME_OK, b"abcdef")[:-2]
        with pytest.raises(ProtocolError, match="mid frame"):
            _read(data)

    def test_oversized_frame_rejected_before_payload_read(self):
        data = protocol.pack_frame(protocol.FRAME_RECORDS2, b"x" * 64)
        with pytest.raises(ProtocolError) as excinfo:
            _read(data, max_frame=16)
        assert excinfo.value.code == "frame-too-large"


class TestJsonFrames:
    def test_roundtrip(self):
        frame = protocol.pack_json(protocol.FRAME_OK, {"b": 1, "a": [2, 3]})
        frame_type, payload = _read(frame)
        assert protocol.unpack_json(payload, frame_type) == {"a": [2, 3], "b": 1}

    def test_error_frame(self):
        frame_type, payload = _read(protocol.pack_error("bad-spec", "no such"))
        assert frame_type == protocol.FRAME_ERROR
        body = protocol.unpack_json(payload, frame_type)
        assert body == {"code": "bad-spec", "error": "no such"}
        assert body["code"] in protocol.ERROR_CODES

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.unpack_json(b"{nope", protocol.FRAME_HELLO)
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.unpack_json(b"[1, 2]", protocol.FRAME_HELLO)


class TestRecordFrames:
    @given(records=_RECORDS)
    @settings(deadline=None, max_examples=50)
    def test_roundtrip(self, records):
        frame_type, payload = _read(protocol.pack_records2(7, records))
        assert frame_type == protocol.FRAME_RECORDS2
        sid, body = protocol.split_session_payload(payload, frame_type)
        assert sid == 7
        assert len(body) == len(records) * RECORD_SIZE
        assert protocol.unpack_records(body) == records

    def test_train_frame_type(self):
        frame = protocol.pack_records2(3, [], protocol.FRAME_TRAIN2)
        assert _read(frame) == (protocol.FRAME_TRAIN2, protocol.SESSION_ID.pack(3))

    def test_ragged_payload_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.unpack_records(b"\x00" * (RECORD_SIZE + 1))
        assert excinfo.value.code == "bad-frame"


class TestPredictionBytes:
    def test_encode_decode(self, periodic_trace):
        records = periodic_trace[:6]
        predictions = [True, True, False, None, True, False]
        payload = protocol.encode_predictions(records, predictions)
        decoded = protocol.decode_predictions(payload)
        assert decoded[3] is None
        for record, prediction, entry in zip(records, predictions, decoded):
            if prediction is None:
                continue
            assert entry == (prediction, record.taken, prediction == record.taken)

    def test_flag_bits(self):
        record = BranchRecord(
            pc=4, cls=BranchClass.CONDITIONAL, taken=True, target=8
        )
        (byte,) = protocol.encode_predictions([record], [True])
        assert byte == protocol.PRED_TAKEN | protocol.PRED_ACTUAL | protocol.PRED_CORRECT
        (byte,) = protocol.encode_predictions([record], [False])
        assert byte == protocol.PRED_ACTUAL
        (byte,) = protocol.encode_predictions([record], [None])
        assert byte == protocol.PRED_SKIPPED
