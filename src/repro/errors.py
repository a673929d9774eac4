"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an application boundary.  Subsystems define
narrower classes below it; raising a bare ``ValueError`` from library code is
reserved for genuine programming errors (bad types, impossible arguments).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.columnar import PackedTrace


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class AssemblyError(ReproError):
    """A source program could not be assembled.

    Carries the source line number when known so tooling can point at the
    offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """An instruction could not be encoded to, or decoded from, binary."""


class ExecutionError(ReproError):
    """The CPU interpreter hit a fault (bad opcode, unmapped jump, ...).

    ``trace`` holds the branches that executed before the fault when the
    error leaves :meth:`repro.isa.cpu.CPU.run`, and None otherwise.
    """

    def __init__(self, message: str, pc: int | None = None):
        self.pc = pc
        self.trace: PackedTrace | None = None
        if pc is not None:
            message = f"pc={pc:#010x}: {message}"
        super().__init__(message)


class TraceFormatError(ReproError):
    """A trace file or stream is malformed."""


class StoreError(TraceFormatError):
    """A trace-store shard is corrupt, truncated, or unreadable.

    Messages follow the truncation convention of the trace readers: report
    the promised byte/record counts next to what was actually received, so
    ``repro cache --verify`` output pinpoints the damage.  Subclasses
    :class:`TraceFormatError` because a shard is just a columnar trace
    container; catching the narrower type distinguishes store-layer damage
    from a malformed ``.trc`` file.
    """


class ConfigError(ReproError):
    """A predictor or experiment configuration is invalid."""


class SpecParseError(ConfigError):
    """A predictor specification string (Table 2 naming convention) is
    syntactically or semantically invalid."""


class WorkloadError(ReproError):
    """A workload or data set was requested that does not exist or cannot
    be built."""


class KernelError(ReproError):
    """A vectorized kernel was asked to score a spec it cannot express
    exactly (or NumPy is unavailable); callers fall back to the scalar
    engine."""


class ProtocolError(ReproError):
    """A prediction-service frame was malformed or violated the session
    protocol (see :mod:`repro.serve.protocol`).

    Carries a stable machine-readable ``code`` (one of
    :data:`repro.serve.protocol.ERROR_CODES`) so clients and tests can
    distinguish failure modes without parsing the message text.  The server
    reports these to the offending connection as typed error frames; the
    client raises them when such a frame arrives.
    """

    def __init__(self, message: str, code: str = "protocol"):
        self.code = code
        super().__init__(message)
