"""Trace plumbing: record model, columnar packing, binary and text
formats, the content-addressed trace store, statistics.

This subpackage is the contract between the trace *producers* (the ISA
simulator in :mod:`repro.isa`, the synthetic generators in
:mod:`repro.trace.synthetic`) and the trace *consumer* (the branch-prediction
simulator in :mod:`repro.sim`).  A trace is simply an iterable of
:class:`~repro.trace.record.BranchRecord`.
"""

from repro.trace.record import BranchClass, BranchRecord, InstructionMix
from repro.trace.columnar import PackedTrace, pack_records
from repro.trace.encoding import read_trace, write_trace
from repro.trace.stats import (
    StaticBranchCensus,
    static_branch_census,
    taken_rate,
)
from repro.trace.text_format import read_text_trace, write_text_trace

__all__ = [
    "BranchClass",
    "BranchRecord",
    "InstructionMix",
    "PackedTrace",
    "StaticBranchCensus",
    "pack_records",
    "read_text_trace",
    "read_trace",
    "static_branch_census",
    "taken_rate",
    "write_text_trace",
    "write_trace",
]
