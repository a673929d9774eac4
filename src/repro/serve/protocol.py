"""Wire protocol for the prediction service.

Every message is a *frame*::

    uint32 length   (little-endian, size of the payload in bytes)
    uint8  type     (FRAME_* constant)
    bytes  payload  (length bytes)

A connection opens with a HELLO carrying ``"version": 2`` (and an
optional ``max_sessions`` request); the OK reply echoes ``version`` and the
granted ``max_sessions``.  The connection then carries any number of
logical predictor sessions, each named by a client-chosen 32-bit session
id:

* ``OPEN`` / ``CLOSE`` (JSON) start and end a logical session — OPEN is
  answered with an ``OK``, CLOSE with that session's final ``STATS``;
* ``TRAIN2`` / ``RECORDS2`` carry ``uint32 session_id``
  (:data:`SESSION_ID`) followed by a whole number of 9-byte YPTRACE2
  records — exactly the on-disk record layout of
  :mod:`repro.trace.encoding` (``encode_record`` / ``decode_record``);
* ``PREDICTIONS2`` answers each ``RECORDS2`` frame with the same session-id
  prefix and one byte per submitted record:

  * ``PRED_SKIPPED`` (0x80) — the record was not a conditional branch, so
    the direction predictor did not score it;
  * otherwise a combination of ``PRED_TAKEN`` (predicted direction),
    ``PRED_ACTUAL`` (the trace's actual outcome, echoed) and
    ``PRED_CORRECT``;

* ``STATS_REQUEST`` (optionally ``{"session": id}``) is answered with a
  ``STATS`` frame anywhere after OK;
* ``BYE`` ends the whole connection, closing every remaining session.

Control frames (``HELLO``, ``OK``, ``OPEN``, ``CLOSE``, ``STATS``,
``ERROR``) carry UTF-8 JSON objects.  ``ERROR`` payloads are
``{"code": <ERROR_CODES entry>, "error": <message>}`` and map onto
:class:`repro.errors.ProtocolError`.

Any protocol violation earns the connection a single ``ERROR`` frame and a
close; other connections are unaffected.
"""

from __future__ import annotations

import asyncio
import json
import struct
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError, TraceFormatError
from repro.sim.backend import numpy_or_none
from repro.trace.columnar import PackedTrace
from repro.trace.encoding import RECORD_SIZE, decode_record, encode_record
from repro.trace.record import BranchRecord

__all__ = [
    "FRAME_HELLO",
    "FRAME_OK",
    "FRAME_STATS_REQUEST",
    "FRAME_STATS",
    "FRAME_BYE",
    "FRAME_ERROR",
    "FRAME_OPEN",
    "FRAME_CLOSE",
    "FRAME_RECORDS2",
    "FRAME_PREDICTIONS2",
    "FRAME_TRAIN2",
    "FRAME_NAMES",
    "ERROR_CODES",
    "HEADER",
    "SESSION_ID",
    "MAX_FRAME_BYTES",
    "MAX_SESSION_ID",
    "PROTOCOL_VERSION",
    "PRED_TAKEN",
    "PRED_ACTUAL",
    "PRED_CORRECT",
    "PRED_SKIPPED",
    "pack_frame",
    "pack_json",
    "pack_error",
    "pack_records2",
    "pack_predictions2",
    "split_session_payload",
    "unpack_records",
    "unpack_records_packed",
    "unpack_json",
    "encode_predictions",
    "encode_predictions_fused",
    "decode_predictions",
    "read_frame",
]

#: frame header: payload length + frame type.
HEADER = struct.Struct("<IB")

#: session-id prefix of record-bearing frames (little-endian uint32).
SESSION_ID = struct.Struct("<I")

#: the protocol version every HELLO must carry.
PROTOCOL_VERSION = 2

#: largest client-chosen logical session id (fits the uint32 prefix).
MAX_SESSION_ID = 0xFFFFFFFF

#: default cap on a single frame's payload (server and client enforce it).
MAX_FRAME_BYTES = 1 << 20

FRAME_HELLO = 1
FRAME_OK = 2
FRAME_STATS_REQUEST = 6
FRAME_STATS = 7
FRAME_BYE = 8
FRAME_ERROR = 9
FRAME_OPEN = 10
FRAME_CLOSE = 11
FRAME_RECORDS2 = 12
FRAME_PREDICTIONS2 = 13
FRAME_TRAIN2 = 14

FRAME_NAMES: Dict[int, str] = {
    FRAME_HELLO: "HELLO",
    FRAME_OK: "OK",
    FRAME_STATS_REQUEST: "STATS_REQUEST",
    FRAME_STATS: "STATS",
    FRAME_BYE: "BYE",
    FRAME_ERROR: "ERROR",
    FRAME_OPEN: "OPEN",
    FRAME_CLOSE: "CLOSE",
    FRAME_RECORDS2: "RECORDS2",
    FRAME_PREDICTIONS2: "PREDICTIONS2",
    FRAME_TRAIN2: "TRAIN2",
}

#: stable machine-readable error codes carried by ERROR frames.
ERROR_CODES = (
    "bad-frame",        # unknown type, truncated payload, bad record bytes
    "frame-too-large",  # payload length exceeds the server's frame cap
    "bad-hello",        # HELLO payload unparseable or missing fields
    "bad-spec",         # predictor spec string rejected by the registry
    "bad-backend",      # backend name unknown or unavailable
    "bad-session",      # session id unknown, duplicate, or over the cap
    "protocol",         # frame legal but out of order for the session state
    "timeout",          # connection idle past the server's read timeout
    "busy",             # server at its max-connections limit
    "internal",         # unexpected server-side failure
)

# prediction byte flags
PRED_TAKEN = 0x01
PRED_ACTUAL = 0x02
PRED_CORRECT = 0x04
PRED_SKIPPED = 0x80


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def pack_frame(frame_type: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload."""
    return HEADER.pack(len(payload), frame_type) + payload


def pack_json(frame_type: int, obj: Any) -> bytes:
    return pack_frame(frame_type, json.dumps(obj, sort_keys=True).encode("utf-8"))


def pack_error(code: str, message: str) -> bytes:
    """A typed ERROR frame (``code`` must be an :data:`ERROR_CODES` entry)."""
    return pack_json(FRAME_ERROR, {"code": code, "error": message})


def unpack_json(payload: bytes, frame_type: int) -> Dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        name = FRAME_NAMES.get(frame_type, str(frame_type))
        raise ProtocolError(f"{name} payload is not valid JSON: {exc}", "bad-frame") from exc
    if not isinstance(obj, dict):
        name = FRAME_NAMES.get(frame_type, str(frame_type))
        raise ProtocolError(f"{name} payload must be a JSON object", "bad-frame")
    return obj


def pack_records2(
    session_id: int,
    records: Sequence[BranchRecord],
    frame_type: int = FRAME_RECORDS2,
) -> bytes:
    """A RECORDS2/TRAIN2 frame: session-id prefix + YPTRACE2 records."""
    return pack_frame(
        frame_type,
        SESSION_ID.pack(session_id)
        + b"".join(encode_record(record) for record in records),
    )


def pack_predictions2(session_id: int, prediction_bytes: bytes) -> bytes:
    """A PREDICTIONS2 frame: session-id prefix + prediction bytes."""
    return pack_frame(
        FRAME_PREDICTIONS2, SESSION_ID.pack(session_id) + prediction_bytes
    )


def split_session_payload(payload: bytes, frame_type: int) -> Tuple[int, bytes]:
    """Split a session-scoped payload into ``(session id, rest)``.

    Raises :class:`ProtocolError` (code ``bad-frame``) when the payload is
    too short to carry the session-id prefix.
    """
    if len(payload) < SESSION_ID.size:
        name = FRAME_NAMES.get(frame_type, str(frame_type))
        raise ProtocolError(
            f"{name} payload of {len(payload)} bytes is too short for the"
            f" {SESSION_ID.size}-byte session id",
            "bad-frame",
        )
    (session_id,) = SESSION_ID.unpack_from(payload)
    return session_id, payload[SESSION_ID.size:]


def unpack_records(payload: bytes) -> List[BranchRecord]:
    """Decode a record frame's payload; raises :class:`ProtocolError` (code
    ``bad-frame``) when the payload is not whole valid records."""
    if len(payload) % RECORD_SIZE:
        raise ProtocolError(
            f"record payload of {len(payload)} bytes is not a multiple of the"
            f" {RECORD_SIZE}-byte record size",
            "bad-frame",
        )
    try:
        return [
            decode_record(payload, offset)
            for offset in range(0, len(payload), RECORD_SIZE)
        ]
    except TraceFormatError as exc:
        raise ProtocolError(f"bad record in frame: {exc}", "bad-frame") from exc


_ADDR_TYPECODE = "I" if array("I").itemsize >= 4 else "L"
_WIRE_DTYPE = None  # built on first use; numpy may be absent


def unpack_records_packed(payload: bytes) -> "Optional[PackedTrace]":
    """Decode a record payload straight into a :class:`PackedTrace`.

    The columnar twin of :func:`unpack_records`: the wire layout *is* an
    interleaved array of 9-byte records, so NumPy splits it into columns
    without materialising a :class:`BranchRecord` per record — the serve
    tier's ingest fast path.  Flag validation (same rejections as
    :func:`decode_record`) happens in :class:`PackedTrace` at C speed.
    Returns None when NumPy is unavailable; callers fall back to
    :func:`unpack_records`.
    """
    np = numpy_or_none()
    if np is None:
        return None
    if len(payload) % RECORD_SIZE:
        raise ProtocolError(
            f"record payload of {len(payload)} bytes is not a multiple of the"
            f" {RECORD_SIZE}-byte record size",
            "bad-frame",
        )
    global _WIRE_DTYPE
    if _WIRE_DTYPE is None:
        _WIRE_DTYPE = np.dtype(
            [("pc", "<u4"), ("flags", "u1"), ("target", "<u4")]
        )
    arr = np.frombuffer(payload, dtype=_WIRE_DTYPE)

    def _column(values: Any) -> array:
        col = array(_ADDR_TYPECODE)
        kind = "=u4" if col.itemsize == 4 else "=u8"
        col.frombytes(values.astype(kind, copy=False).tobytes())
        return col

    try:
        return PackedTrace(
            _column(arr["pc"]), _column(arr["target"]), arr["flags"].tobytes()
        )
    except TraceFormatError as exc:
        raise ProtocolError(f"bad record in frame: {exc}", "bad-frame") from exc


# ----------------------------------------------------------------------
# prediction bytes
# ----------------------------------------------------------------------
def encode_predictions(
    records: Sequence[BranchRecord], predictions: Sequence[Optional[bool]]
) -> bytes:
    """One response byte per record from a scorer's prediction list."""
    out = bytearray(len(records))
    for index, (record, prediction) in enumerate(zip(records, predictions)):
        if prediction is None:
            out[index] = PRED_SKIPPED
        else:
            byte = PRED_TAKEN if prediction else 0
            if record.taken:
                byte |= PRED_ACTUAL
            if prediction == record.taken:
                byte |= PRED_CORRECT
            out[index] = byte
    return bytes(out)


def encode_predictions_fused(fused: Any) -> bytes:
    """Vectorized twin of :func:`encode_predictions`.

    ``fused`` is a :class:`repro.sim.streaming.FusedPredictions` (duck-typed
    here to keep the protocol layer free of simulator imports): ``length``
    records total, of which the conditionals at positions ``index`` carry
    ``predicted``/``taken`` direction columns.  Non-conditional positions
    encode as ``PRED_SKIPPED``; byte semantics are identical to the scalar
    encoder.  Requires NumPy (only reachable via the packed ingest path).
    """
    np = numpy_or_none()
    out = np.full(fused.length, PRED_SKIPPED, dtype=np.uint8)
    if len(fused.index):
        predicted = fused.predicted.astype(bool, copy=False)
        taken = fused.taken.astype(bool, copy=False)
        byte = np.where(predicted, PRED_TAKEN, 0).astype(np.uint8)
        byte |= np.where(taken, PRED_ACTUAL, 0).astype(np.uint8)
        byte |= np.where(predicted == taken, PRED_CORRECT, 0).astype(np.uint8)
        out[fused.index] = byte
    return out.tobytes()


def decode_predictions(payload: bytes) -> "List[Optional[Tuple[bool, bool, bool]]]":
    """Inverse of :func:`encode_predictions`: ``(predicted, actual,
    correct)`` per scored record, ``None`` for skipped records."""
    out: "List[Optional[Tuple[bool, bool, bool]]]" = []
    for byte in payload:
        if byte & PRED_SKIPPED:
            out.append(None)
        else:
            out.append(
                (bool(byte & PRED_TAKEN), bool(byte & PRED_ACTUAL), bool(byte & PRED_CORRECT))
            )
    return out


# ----------------------------------------------------------------------
# frame readers
# ----------------------------------------------------------------------
def _check_length(length: int, max_frame: int) -> None:
    if length > max_frame:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the {max_frame}-byte limit",
            "frame-too-large",
        )


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> "Optional[Tuple[int, bytes]]":
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` on a truncated frame or one whose payload
    exceeds ``max_frame`` (the payload is *not* read in that case — the
    caller must drop the connection).
    """
    header = await reader.read(HEADER.size)
    if not header:
        return None
    while len(header) < HEADER.size:
        more = await reader.read(HEADER.size - len(header))
        if not more:
            raise ProtocolError("connection closed mid frame header", "bad-frame")
        header += more
    length, frame_type = HEADER.unpack(header)
    _check_length(length, max_frame)
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid frame: expected {length} payload bytes,"
            f" got {len(exc.partial)}",
            "bad-frame",
        ) from exc
    return frame_type, payload
