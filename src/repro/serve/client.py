"""Client libraries for the prediction service.

:class:`MuxPredictionClient` is the asyncio client: one TCP connection
carrying many logical sessions, each with its own spec and predictor
state.  Submissions pipeline — ``submit`` returns an awaitable without
waiting for the answer, so thousands of sessions can keep frames in
flight concurrently::

    client = await MuxPredictionClient.connect("127.0.0.1", 9797)
    await client.open(0, "BTFN")
    await client.open(1, "AT(IHRT(,6SR),PT(2^6,A2),)")
    fut_a = await client.submit(0, records_a)
    fut_b = await client.submit(1, records_b)
    results_a, results_b = await fut_a, await fut_b
    final = await client.finish()

:class:`PredictionClient` is the blocking single-session surface for
scripts and REPLs — session 0 of a :class:`MuxPredictionClient` driven on
a private event loop::

    with PredictionClient.connect("127.0.0.1", 9797, "BTFN") as client:
        results = client.predict(records)          # one round trip
        summary = client.finish()                  # final session stats

``predict`` returns one entry per submitted record: a
:class:`PredictionResult` for conditional branches, ``None`` for records
the direction predictor does not score.  Both clients raise
:class:`~repro.errors.ProtocolError` (with the server's typed error code)
when the server reports a fault.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import (
    Any,
    Awaitable,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TypeVar,
)

from repro.errors import ProtocolError
from repro.trace.record import BranchRecord
from repro.serve import protocol
from repro.serve.protocol import (
    FRAME_BYE,
    FRAME_CLOSE,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_OK,
    FRAME_OPEN,
    FRAME_PREDICTIONS2,
    FRAME_RECORDS2,
    FRAME_STATS,
    FRAME_STATS_REQUEST,
    FRAME_TRAIN2,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SESSION_ID,
)

__all__ = [
    "PredictionResult",
    "MuxPredictionClient",
    "PredictionClient",
]

_T = TypeVar("_T")


class PredictionResult(NamedTuple):
    """One scored conditional branch: the served prediction and outcome."""

    predicted: bool  #: direction the session's predictor chose
    actual: bool  #: the trace's actual outcome (echoed by the server)
    correct: bool  #: ``predicted == actual``


def _as_results(payload: bytes) -> "List[Optional[PredictionResult]]":
    return [
        None if entry is None else PredictionResult(*entry)
        for entry in protocol.decode_predictions(payload)
    ]


class MuxPredictionClient:
    """One connection multiplexing many predictor sessions.

    Replies are demultiplexed by a background reader task: OPEN
    acknowledgements, per-session prediction frames and stats frames each
    form their own FIFO lane, matching the server's ordering guarantees.
    A server ERROR is connection-fatal — it fails every in-flight future
    and all subsequent calls with the typed :class:`ProtocolError`.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame: int = MAX_FRAME_BYTES,
    ):
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self.connection_info: Dict[str, Any] = {}
        self.session_info: Dict[int, Dict[str, Any]] = {}
        self._pending_ok: "Deque[asyncio.Future]" = deque()
        self._pending_stats: "Deque[asyncio.Future]" = deque()
        self._pending_predictions: "Dict[int, Deque[asyncio.Future]]" = {}
        self._broken: Optional[BaseException] = None
        self._reader_task: "Optional[asyncio.Task]" = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_sessions: int = 4096,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> "MuxPredictionClient":
        """Connect and negotiate a HELLO with ``max_sessions``."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, max_frame)
        client._reader_task = asyncio.ensure_future(client._demux_loop())
        try:
            future = client._expect(client._pending_ok)
            writer.write(
                protocol.pack_json(
                    FRAME_HELLO,
                    {"version": PROTOCOL_VERSION, "max_sessions": max_sessions},
                )
            )
            await writer.drain()
            client.connection_info = protocol.unpack_json(await future, FRAME_OK)
        except BaseException:
            await client.close()
            raise
        return client

    @property
    def max_sessions(self) -> int:
        """The session limit the server granted this connection."""
        return int(self.connection_info.get("max_sessions", 1))

    # -- demultiplexing ------------------------------------------------
    async def _demux_loop(self) -> None:
        try:
            while True:
                frame = await protocol.read_frame(self._reader, self._max_frame)
                if frame is None:
                    self._fail_all(
                        ProtocolError("server closed the connection", "bad-frame")
                    )
                    return
                frame_type, payload = frame
                if frame_type == FRAME_ERROR:
                    error = protocol.unpack_json(payload, FRAME_ERROR)
                    self._fail_all(
                        ProtocolError(
                            str(error.get("error", "server error")),
                            str(error.get("code", "internal")),
                        )
                    )
                    return
                if frame_type == FRAME_OK:
                    self._resolve(self._pending_ok, payload)
                elif frame_type == FRAME_PREDICTIONS2:
                    sid, body = protocol.split_session_payload(payload, frame_type)
                    lane = self._pending_predictions.get(sid)
                    if lane is None:
                        raise ProtocolError(
                            f"PREDICTIONS for session {sid} nobody asked about",
                            "bad-frame",
                        )
                    self._resolve(lane, body)
                elif frame_type == FRAME_STATS:
                    self._resolve(self._pending_stats, payload)
                else:
                    name = protocol.FRAME_NAMES.get(frame_type, str(frame_type))
                    raise ProtocolError(f"unexpected {name} frame", "bad-frame")
        except asyncio.CancelledError:
            self._fail_all(ProtocolError("client closed", "bad-frame"))
            raise
        except BaseException as exc:
            self._fail_all(exc)

    @staticmethod
    def _resolve(lane: "Deque[asyncio.Future]", payload: bytes) -> None:
        if not lane:
            raise ProtocolError("reply frame with no request in flight", "bad-frame")
        future = lane.popleft()
        if not future.done():
            future.set_result(payload)

    def _fail_all(self, exc: BaseException) -> None:
        if self._broken is None:
            self._broken = exc
        lanes: List[Deque[asyncio.Future]] = [self._pending_ok, self._pending_stats]
        lanes.extend(self._pending_predictions.values())
        for lane in lanes:
            while lane:
                future = lane.popleft()
                if not future.done():
                    future.set_exception(exc)

    def _check(self) -> None:
        if self._broken is not None:
            raise self._broken

    def _expect(self, lane: "Deque[asyncio.Future]") -> "asyncio.Future":
        future = asyncio.get_running_loop().create_future()
        lane.append(future)
        return future

    # -- the verbs -----------------------------------------------------
    async def open(
        self, session: int, spec: str, backend: Optional[str] = None
    ) -> Dict[str, Any]:
        """Open logical session ``session`` with its own spec/backend."""
        self._check()
        request: Dict[str, Any] = {"session": session, "spec": spec}
        if backend is not None:
            request["backend"] = backend
        future = self._expect(self._pending_ok)
        self._writer.write(protocol.pack_json(FRAME_OPEN, request))
        await self._writer.drain()
        info = protocol.unpack_json(await future, FRAME_OK)
        self.session_info[session] = info
        self._pending_predictions.setdefault(session, deque())
        return info

    async def train(self, session: int, records: Iterable[BranchRecord]) -> None:
        """Stream training records for one session (no reply)."""
        self._check()
        self._writer.write(
            protocol.pack_records2(session, list(records), FRAME_TRAIN2)
        )
        await self._writer.drain()

    async def submit(
        self, session: int, records: Sequence[BranchRecord]
    ) -> "asyncio.Future":
        """Send one chunk; return a future of its prediction results.

        Does not wait for the answer — await the returned future whenever
        convenient, keeping any number of chunks (across any number of
        sessions) in flight.
        """
        self._check()
        lane = self._pending_predictions.setdefault(session, deque())
        future = self._expect(lane)
        self._writer.write(protocol.pack_records2(session, records))
        await self._writer.drain()
        return _ResultFuture(future)

    async def submit_payload(self, session: int, payload: bytes) -> "_ResultFuture":
        """Like :meth:`submit`, but ``payload`` is already-encoded record
        bytes (YPTRACE2 layout) — load generators streaming the same chunk
        to many sessions encode it once instead of once per session."""
        self._check()
        lane = self._pending_predictions.setdefault(session, deque())
        future = self._expect(lane)
        self._writer.write(
            protocol.pack_frame(FRAME_RECORDS2, SESSION_ID.pack(session) + payload)
        )
        await self._writer.drain()
        return _ResultFuture(future)

    async def train_payload(self, session: int, payload: bytes) -> None:
        """Like :meth:`train`, over already-encoded record bytes."""
        self._check()
        self._writer.write(
            protocol.pack_frame(FRAME_TRAIN2, SESSION_ID.pack(session) + payload)
        )
        await self._writer.drain()

    async def predict(
        self, session: int, records: Sequence[BranchRecord]
    ) -> "List[Optional[PredictionResult]]":
        """Score one chunk synchronously (submit + await)."""
        return await (await self.submit(session, records))

    async def stats(self, session: Optional[int] = None) -> Dict[str, Any]:
        """Server-wide stats, plus one session's when ``session`` given."""
        self._check()
        future = self._expect(self._pending_stats)
        if session is None:
            self._writer.write(protocol.pack_frame(FRAME_STATS_REQUEST))
        else:
            self._writer.write(
                protocol.pack_json(FRAME_STATS_REQUEST, {"session": session})
            )
        await self._writer.drain()
        return protocol.unpack_json(await future, FRAME_STATS)

    async def close_session(self, session: int) -> Dict[str, Any]:
        """Close one logical session; returns its final stats frame."""
        self._check()
        future = self._expect(self._pending_stats)
        self._writer.write(protocol.pack_json(FRAME_CLOSE, {"session": session}))
        await self._writer.drain()
        final = protocol.unpack_json(await future, FRAME_STATS)
        self.session_info.pop(session, None)
        return final

    async def finish(self) -> Dict[str, Any]:
        """End the connection cleanly; returns the final stats frame."""
        self._check()
        future = self._expect(self._pending_stats)
        self._writer.write(protocol.pack_frame(FRAME_BYE))
        await self._writer.drain()
        final = protocol.unpack_json(await future, FRAME_STATS)
        await self.close()
        return final

    async def close(self) -> None:
        if self._reader_task is not None and not self._reader_task.done():
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    async def __aenter__(self) -> "MuxPredictionClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()


class _ResultFuture:
    """Awaitable decoding a raw prediction payload into results."""

    def __init__(self, payload_future: "asyncio.Future"):
        self._payload_future = payload_future

    def __await__(self) -> Any:
        payload = yield from self._payload_future.__await__()
        return _as_results(payload)

    async def raw(self) -> bytes:
        """The undecoded prediction bytes (one byte per submitted record).

        For callers that only need aggregate counts — summing scored and
        correct bytes is vastly cheaper than boxing a
        :class:`PredictionResult` per record."""
        return await self._payload_future


class PredictionClient:
    """Blocking predictor session (scripts, REPLs): session 0 of a
    :class:`MuxPredictionClient` on a private event loop."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        mux: MuxPredictionClient,
        timeout: Optional[float] = 30.0,
    ):
        self._loop = loop
        self._mux = mux
        self._timeout = timeout
        self.session_info: Dict[str, Any] = {}

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        spec: str,
        backend: Optional[str] = None,
        timeout: Optional[float] = 30.0,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> "PredictionClient":
        """Open a session: TCP connect, HELLO and OPEN."""
        loop = asyncio.new_event_loop()
        try:
            mux = loop.run_until_complete(
                asyncio.wait_for(
                    MuxPredictionClient.connect(
                        host, port, max_sessions=1, max_frame=max_frame
                    ),
                    timeout,
                )
            )
        except BaseException:
            loop.close()
            raise
        client = cls(loop, mux, timeout)
        try:
            client.session_info = client._run(mux.open(0, spec, backend))
        except BaseException:
            client.close()
            raise
        return client

    def _run(self, call: "Awaitable[_T]") -> _T:
        return self._loop.run_until_complete(asyncio.wait_for(call, self._timeout))

    @property
    def backend(self) -> Optional[str]:
        """The backend the server resolved for this session."""
        return self.session_info.get("backend")

    def train(self, records: Iterable[BranchRecord]) -> None:
        """Stream profiling/training records (before the first predict)."""
        self._run(self._mux.train(0, records))

    def predict(
        self, records: Sequence[BranchRecord]
    ) -> "List[Optional[PredictionResult]]":
        """Score a chunk of the stream; one result per submitted record."""
        return self._run(self._mux.predict(0, records))

    def stats(self) -> Dict[str, Any]:
        """The server's live stats frame (server-wide + this session)."""
        return self._run(self._mux.stats(0))

    def finish(self) -> Dict[str, Any]:
        """End the session cleanly; returns its final stats frame."""
        final = self._run(self._mux.close_session(0))
        self._run(self._mux.finish())
        self.close()
        return final

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._loop.run_until_complete(self._mux.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
