"""Compact binary trace format with writer/reader.

Version 2 layout (all little-endian):

* 16-byte header: magic ``b"YPTRACE2"``, ``uint32`` record count,
  ``uint32`` reserved (zero).
* one 9-byte record per branch: ``uint32 pc``, ``uint8`` packed class/taken
  (bit 0 = taken, bits 1..3 = class, bit 4 = is_call, bits 5..7 reserved
  and zero), ``uint32 target``.

The flag byte is packed and checked by :mod:`repro.trace.columnar`
(``pack_flags`` / ``unpack_flags``), the one pair every reader shares.

The format exists so long trace generations can be cached on disk (the ISA
simulator is the expensive stage; predictor sweeps re-read the cache).  It is
deliberately simple rather than clever — traces compress well externally if
needed, and a fixed record size keeps the reader trivially seekable.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

from repro.errors import TraceFormatError
from repro.trace.columnar import pack_flags, unpack_flags
from repro.trace.record import BranchRecord

MAGIC = b"YPTRACE2"
_HEADER = struct.Struct("<8sII")
#: one YPTRACE2 record: ``pc``, flag byte, ``target``.
RECORD = struct.Struct("<IBI")

PathOrFile = Union[str, Path, IO[bytes]]


#: size in bytes of one YPTRACE2 record — the unit the prediction
#: service's record frames are counted in.
RECORD_SIZE = RECORD.size


def encode_record(record: BranchRecord) -> bytes:
    """Encode one record in the YPTRACE2 9-byte wire layout.

    The single-record unit shared by the trace-file writer and the
    prediction service's record frames (:mod:`repro.serve.protocol`).
    """
    return RECORD.pack(
        record.pc & 0xFFFFFFFF,
        pack_flags(record.taken, record.cls, record.is_call),
        record.target & 0xFFFFFFFF,
    )


def decode_record(data: bytes, offset: int = 0) -> BranchRecord:
    """Decode one YPTRACE2 record from ``data`` at ``offset``.

    Raises :class:`~repro.errors.TraceFormatError` on short input or an
    invalid flag byte (bad class, NON_BRANCH, a reserved bit set).
    """
    if len(data) - offset < RECORD_SIZE:
        raise TraceFormatError(
            f"truncated record: need {RECORD_SIZE} bytes,"
            f" got {max(len(data) - offset, 0)}"
        )
    pc, flags, target = RECORD.unpack_from(data, offset)
    taken, cls, is_call = unpack_flags(flags)
    return BranchRecord(pc=pc, cls=cls, taken=taken, target=target, is_call=is_call)


def write_trace(records: Iterable[BranchRecord], destination: PathOrFile) -> int:
    """Write ``records`` to ``destination``; return the count.

    ``destination`` may be a path or a binary file object.  The record count
    is written into the header, so the iterable is drained into the body
    first.
    """
    body = io.BytesIO()
    count = 0
    for record in records:
        body.write(encode_record(record))
        count += 1

    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as handle:
            handle.write(_HEADER.pack(MAGIC, count, 0))
            handle.write(body.getvalue())
    else:
        destination.write(_HEADER.pack(MAGIC, count, 0))
        destination.write(body.getvalue())
    return count


def read_header(handle: IO[bytes]) -> int:
    """Consume and validate a trace header; return its record count."""
    header = handle.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, count, _reserved = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
    return count


def read_trace(source: PathOrFile) -> List[BranchRecord]:
    """Read a full trace into memory.

    Raises :class:`~repro.errors.TraceFormatError` on bad magic, truncated
    body, or invalid record contents.
    """
    return list(iter_trace(source))


def iter_trace(source: PathOrFile) -> Iterator[BranchRecord]:
    """Stream records from ``source`` without materialising the whole list."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from _iter_handle(handle)
    else:
        yield from _iter_handle(source)


def _iter_handle(handle: IO[bytes]) -> Iterator[BranchRecord]:
    count = read_header(handle)
    for index in range(count):
        raw = handle.read(RECORD_SIZE)
        if len(raw) != RECORD_SIZE:
            raise TraceFormatError(
                f"truncated trace body: header promised {count} records"
                f" ({count * RECORD_SIZE} bytes), stream ended at record"
                f" {index} ({index * RECORD_SIZE + len(raw)} bytes received)"
            )
        pc, flags, target = RECORD.unpack(raw)
        taken, cls, is_call = unpack_flags(flags)
        yield BranchRecord(pc=pc, cls=cls, taken=taken, target=target, is_call=is_call)
