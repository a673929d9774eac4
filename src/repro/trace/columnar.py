"""Columnar (structure-of-arrays) packed trace representation.

A branch trace is normally a ``List[BranchRecord]`` — convenient, but a
Python sweep pays tuple attribute lookups and enum identity checks for every
one of the millions of records it replays.  :class:`PackedTrace` stores the
same information as parallel machine-typed columns:

* ``pc`` / ``target`` — ``array('I')`` of 32-bit addresses,
* ``flags`` — ``bytes``, one byte per record in exactly the on-disk flag
  layout of :mod:`repro.trace.encoding` (bit 0 = taken, bits 1..3 = class,
  bit 4 = is_call),

plus three *derived* conditional-only columns (``cond_pc``, ``cond_target``,
``cond_taken``) so the direction-predictor hot loop in
:func:`repro.sim.engine.simulate` touches nothing but the records it
scores.  The derived columns are computed lazily on first access (flag
validation still happens eagerly in ``__init__``): warm cache loads and
the vectorized kernel backend never pay for boxed tuples they do not
read.  The round-trip ``records -> pack_records -> to_records`` is
lossless for every valid branch record (32-bit addresses, all four branch
classes, both flag bits).
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import TraceFormatError
from repro.trace.record import BranchClass, BranchRecord

#: bits a valid flag byte may use: taken (0x01), class 0..3 (0x06), call (0x10).
_VALID_FLAG_MASK = 0x17
_CLS_MASK = 0x0E
_RETURN_BITS = int(BranchClass.RETURN) << 1

_ADDR_TYPECODE = "I" if array("I").itemsize >= 4 else "L"

#: translate table mapping a flag byte to 1 for conditional records, else 0,
#: so ``sum(flags.translate(...))`` counts conditionals without a Python loop.
_CONDITIONAL_TABLE = bytes(
    1 if not byte & _CLS_MASK else 0 for byte in range(256)
)
#: translate table keeping only a flag byte's taken bit
_TAKEN_TABLE = bytes(byte & 1 for byte in range(256))


def pack_flags(taken: bool, cls: BranchClass, is_call: bool) -> int:
    """Pack the per-record flag byte (same layout as the binary format)."""
    return (1 if taken else 0) | (int(cls) << 1) | (0x10 if is_call else 0)


def unpack_flags(flags: int) -> Tuple[bool, BranchClass, bool]:
    """Inverse of :func:`pack_flags`; rejects invalid or non-branch classes."""
    if flags & ~_VALID_FLAG_MASK:
        cls_value = (flags >> 1) & 0x7
        if cls_value == int(BranchClass.NON_BRANCH):
            raise TraceFormatError("NON_BRANCH records are not allowed in traces")
        raise TraceFormatError(f"invalid branch flags {flags:#04x}")
    return bool(flags & 1), BranchClass((flags >> 1) & 0x3), bool(flags & 0x10)


class PackedTrace:
    """A branch trace packed into parallel columns.

    Build one with :func:`pack_records`; convert back with
    :meth:`to_records`.  Iterating a :class:`PackedTrace` yields
    :class:`BranchRecord` objects, so it can stand in for a record list
    anywhere a plain iterable is expected, while
    :func:`conditional_branches` (and so :func:`repro.sim.engine.simulate`)
    reads its conditional-only columns instead.
    """

    __slots__ = ("pc", "target", "flags", "_num_conditional", "_cond_columns", "__weakref__")

    def __init__(self, pc: array, target: array, flags: bytes):
        if not (len(pc) == len(target) == len(flags)):
            raise TraceFormatError(
                f"column length mismatch: pc={len(pc)} target={len(target)}"
                f" flags={len(flags)}"
            )
        # Flag validation stays eager — a malformed trace must fail at
        # construction, not at first replay — but runs at C speed: a byte
        # column has at most 256 distinct values, so checking set(flags)
        # never scales with trace length.
        invalid = {f for f in set(flags) if f & ~_VALID_FLAG_MASK}
        if invalid:
            for f in flags:  # find the first offender for a precise message
                if f in invalid:
                    unpack_flags(f)  # raises
        self.pc = pc
        self.target = target
        self.flags = flags
        # bytes.translate + sum stay in C; the count is needed eagerly by
        # the stats plumbing and is cheap, unlike the boxed columns below.
        self._num_conditional = sum(flags.translate(_CONDITIONAL_TABLE))
        # The derived conditional-only columns are computed lazily (cached
        # on first access): warm cache loads never touch them, and the
        # vector backend reads the raw byte columns directly.
        self._cond_columns: Optional[
            Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]
        ] = None

    def _derive_cond_columns(
        self,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]:
        # Tuples rather than arrays: the replay loop reads every element
        # once per simulated predictor, and tuples hand back already-boxed
        # ints where an array would have to re-box on every pass.
        if self._cond_columns is None:
            cond_pc = []
            cond_target = []
            cond_taken = []
            append_pc = cond_pc.append
            append_target = cond_target.append
            append_taken = cond_taken.append
            pc = self.pc
            target = self.target
            for index, f in enumerate(self.flags):
                if not f & _CLS_MASK:  # BranchClass.CONDITIONAL == 0
                    append_pc(pc[index])
                    append_target(target[index])
                    append_taken(bool(f & 1))
            self._cond_columns = (tuple(cond_pc), tuple(cond_target), tuple(cond_taken))
        return self._cond_columns

    @property
    def cond_pc(self) -> Tuple[int, ...]:
        """Addresses of the conditional records (lazy, cached)."""
        return self._derive_cond_columns()[0]

    @property
    def cond_target(self) -> Tuple[int, ...]:
        """Targets of the conditional records (lazy, cached)."""
        return self._derive_cond_columns()[1]

    @property
    def cond_taken(self) -> Tuple[bool, ...]:
        """Outcomes of the conditional records (lazy, cached)."""
        return self._derive_cond_columns()[2]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.flags)

    @property
    def num_conditional(self) -> int:
        """Number of conditional-branch records in the trace."""
        return self._num_conditional

    def __iter__(self) -> Iterator[BranchRecord]:
        for pc, target, flags in zip(self.pc, self.target, self.flags):
            taken, cls, is_call = unpack_flags(flags)
            yield BranchRecord(pc=pc, cls=cls, taken=taken, target=target, is_call=is_call)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return (
            list(self.pc) == list(other.pc)
            and list(self.target) == list(other.target)
            and self.flags == other.flags
        )

    def to_records(self) -> List[BranchRecord]:
        """Unpack back into the ordinary record-list representation."""
        return list(self)


def conditional_branches(
    records: "Union[Iterable[BranchRecord], PackedTrace]",
) -> Iterable[Tuple[int, int, bool]]:
    """``(pc, target, taken)`` of every conditional record, in trace order.

    A :class:`PackedTrace` is read through its conditional-only columns, so
    no :class:`BranchRecord` is boxed: this is the walk the scalar engine
    (:func:`repro.sim.engine.simulate`) and every profiling pass share.
    """
    if isinstance(records, PackedTrace):
        return zip(records.cond_pc, records.cond_target, records.cond_taken)
    return (
        (record.pc, record.target, record.taken)
        for record in records
        if record.cls is BranchClass.CONDITIONAL
    )


def pack_records(records: Iterable[BranchRecord]) -> PackedTrace:
    """Pack an iterable of records into a :class:`PackedTrace` (lossless)."""
    pcs = array(_ADDR_TYPECODE)
    targets = array(_ADDR_TYPECODE)
    flags = bytearray()
    for record in records:
        pcs.append(record.pc & 0xFFFFFFFF)
        targets.append(record.target & 0xFFFFFFFF)
        flags.append(pack_flags(record.taken, record.cls, record.is_call))
    return PackedTrace(pcs, targets, bytes(flags))


def pack_conditional_stream(
    stream: Sequence[Tuple[int, bool]], targets: Mapping[int, int]
) -> PackedTrace:
    """Pack a ``(pc, taken)`` sequence of conditional branches (lossless).

    Equal to ``pack_records`` of the conditional records with targets
    ``targets[pc]``, without building them: the flag byte is the taken
    bit (class CONDITIONAL, no call bit), addresses are masked to 32 bits
    as :func:`pack_records` masks them, and, every record being
    conditional, the conditional-only columns are the columns themselves.
    """
    pcs = [pc & 0xFFFFFFFF for pc, _ in stream]
    branch_targets = [targets[pc] & 0xFFFFFFFF for pc, _ in stream]
    taken = [bool(outcome) for _, outcome in stream]
    packed = PackedTrace(
        array(_ADDR_TYPECODE, pcs), array(_ADDR_TYPECODE, branch_targets), bytes(taken)
    )
    packed._cond_columns = (tuple(pcs), tuple(branch_targets), tuple(taken))
    return packed


def conditional_only(packed: PackedTrace) -> PackedTrace:
    """The conditional records of ``packed``, in order, as a trace of their own.

    Equal to ``pack_records`` of those records, but selected at C speed;
    every record being conditional, the conditional-only columns are the
    columns themselves.
    """
    keep = packed.flags.translate(_CONDITIONAL_TABLE)
    pcs = tuple(compress(packed.pc, keep))
    targets = tuple(compress(packed.target, keep))
    flags = bytes(compress(packed.flags, keep))
    conditional = PackedTrace(
        array(_ADDR_TYPECODE, pcs), array(_ADDR_TYPECODE, targets), flags
    )
    taken = tuple(map(bool, flags.translate(_TAKEN_TABLE)))
    conditional._cond_columns = (pcs, targets, taken)
    return conditional
