"""The asyncio prediction server.

A client connection carries one or many *predictor sessions*.  Its HELLO
(``"version": 2``) negotiates *session multiplexing*: the client then OPENs
logical sessions — each with its own Table 2 predictor spec, backend and
predictor state — and interleaves record frames for thousands of them over
the single TCP stream, every frame carrying its session id.

**Cross-session batch fusion.**  Scoring is no longer per connection: a
single server-wide score loop drains everything queued during the previous
event-loop tick — from *all* sessions on *all* connections — groups it by
(spec, resolved backend) into *fusion groups*, and scores each group's
queued batches with one fused call into a
:class:`~repro.sim.streaming.MultiSessionScorer`.  Per-session predictor
state is namespaced inside the scorer, so fusion is bit-exact with running
every session alone, under any chunking and interleaving; what fusion buys
is batch size — under load the vector kernels see one large batch per tick
instead of dozens of small ones, and per-record cost collapses.  Each
RECORDS2 frame is still answered individually, in per-session order.

**A tick, not a frame.**  With several sessions active a tick lingers so
their frames fuse, until every answer written earlier is repaid by its
session's next RECORDS2 (``fuse_window`` only bounds the linger).  A
tick's replies leave each connection in one write, and each connection
has one read-deadline timer.

**Robustness.**  Malformed frames, oversized frames, protocol violations,
bad specs/backends/session-ids and read timeouts each earn the *offending
connection* one typed ERROR frame and a close; the server and every other
connection keep running.  A connection limit rejects surplus clients with
``busy``.  A consumer that stops reading its predictions for longer than
the read timeout is disconnected rather than allowed to stall the shared
score loop.  ``stop()`` (installed on SIGTERM/SIGINT by
:meth:`PredictionServer.install_signal_handlers`) stops accepting, drains
in-flight sessions for a grace period, then cancels stragglers.  The
STATS_REQUEST frame exposes live counters — active/peak logical sessions,
records served, the batch-size histogram (fused batches show up as buckets
larger than any single client chunk), fusion counters and per-scheme
scoring latency — so the service is observable with nothing but a client.
For multi-process scale-out, see :mod:`repro.serve.supervisor`.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError, ProtocolError, ReproError, SpecParseError
from repro.predictors.spec import PredictorSpec, parse_spec
from repro.sim.backend import resolve_backend
from repro.sim.results import PredictionStats
from repro.sim.streaming import (
    FusedPredictions,
    MultiSessionScorer,
    make_multi_scorer,
    needs_training,
)
from repro.trace.record import BranchRecord
from repro.serve import protocol
from repro.serve.protocol import (
    FRAME_BYE,
    FRAME_CLOSE,
    FRAME_HELLO,
    FRAME_OK,
    FRAME_OPEN,
    FRAME_RECORDS2,
    FRAME_STATS,
    FRAME_STATS_REQUEST,
    FRAME_TRAIN2,
    MAX_FRAME_BYTES,
    MAX_SESSION_ID,
    PROTOCOL_VERSION,
)

__all__ = ["ServerConfig", "ServeStats", "PredictionServer"]


def _parse_records(payload: bytes) -> Any:
    """Decode a RECORDS2 payload, columnar when NumPy allows.

    The packed form flows through the scorers unchanged: the vector engine
    consumes the columns directly (and answers with a
    :class:`FusedPredictions`), the scalar engine iterates it like any
    record sequence.
    """
    packed = protocol.unpack_records_packed(payload)
    if packed is None:
        return protocol.unpack_records(payload)
    return packed


@dataclass
class ServerConfig:
    """Tunables of a :class:`PredictionServer`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port is ``server.port``
    backend: Optional[str] = None  #: session default; None = process default
    max_connections: int = 64
    max_frame_bytes: int = MAX_FRAME_BYTES
    read_timeout: float = 30.0  #: seconds a session may sit idle mid-stream
    drain_timeout: float = 10.0  #: grace period for in-flight sessions on stop
    queue_frames: int = 64  #: per-connection frame backlog before backpressure
    max_sessions: int = 4096  #: logical sessions one connection may hold
    #: upper limit, in seconds, of the score loop's linger: it collects
    #: frames from concurrent sessions so they fuse into one kernel call,
    #: and ends earlier once every answered session has sent its next
    #: frame; never applied while a single session is active
    #: (request-response latency is unchanged for a lone session)
    fuse_window: float = 0.002


#: how a tick's linger ended: every answered session sent its next frame,
#: ``fuse_window`` ran out, the queue filled, or no linger (one session)
LINGER_EXITS = ("refilled", "deadline", "capacity", "none")


class ServeStats:
    """Server-wide counters reported by the STATS frame."""

    def __init__(self) -> None:
        self.sessions_total = 0
        self.active_sessions = 0
        self.peak_sessions = 0
        self.records_served = 0
        self.frames = 0
        self.errors = 0
        #: micro-batch size histogram, keyed by power-of-two bucket ceiling.
        self.batch_sizes: Dict[int, int] = {}
        #: batches that fused records from more than one session.
        self.fused_batches = 0
        #: most sessions ever fused into one scoring call.
        self.max_fused_sessions = 0
        #: per-scheme scoring cost: batches, records, seconds.
        self.schemes: Dict[str, Dict[str, float]] = {}
        #: scoring ticks, the seconds they lingered, how each linger ended.
        self.ticks = 0
        self.linger_seconds = 0.0
        self.linger_exits: Dict[str, int] = dict.fromkeys(LINGER_EXITS, 0)

    def session_opened(self) -> None:
        self.sessions_total += 1
        self.active_sessions += 1
        self.peak_sessions = max(self.peak_sessions, self.active_sessions)

    def session_closed(self) -> None:
        self.active_sessions -= 1

    def record_tick(self, ended: str, seconds: float) -> None:
        self.ticks += 1
        self.linger_seconds += seconds
        self.linger_exits[ended] += 1

    def record_batch(
        self, scheme: str, size: int, seconds: float, sessions: int = 1
    ) -> None:
        bucket = 1 << max(size - 1, 0).bit_length()
        self.batch_sizes[bucket] = self.batch_sizes.get(bucket, 0) + 1
        if sessions > 1:
            self.fused_batches += 1
        self.max_fused_sessions = max(self.max_fused_sessions, sessions)
        entry = self.schemes.setdefault(
            scheme, {"batches": 0, "records": 0, "seconds": 0.0}
        )
        entry["batches"] += 1
        entry["records"] += size
        entry["seconds"] += seconds
        self.records_served += size

    def as_dict(self) -> Dict[str, Any]:
        schemes = {}
        for scheme, entry in sorted(self.schemes.items()):
            mean_us = (
                1e6 * entry["seconds"] / entry["batches"] if entry["batches"] else 0.0
            )
            schemes[scheme] = {
                "batches": int(entry["batches"]),
                "records": int(entry["records"]),
                "seconds": round(entry["seconds"], 6),
                "mean_batch_us": round(mean_us, 1),
            }
        return {
            "active_sessions": self.active_sessions,
            "peak_sessions": self.peak_sessions,
            "sessions_total": self.sessions_total,
            "records_served": self.records_served,
            "frames": self.frames,
            "errors": self.errors,
            "fused_batches": self.fused_batches,
            "max_fused_sessions": self.max_fused_sessions,
            "batch_size_histogram": {
                str(bucket): count for bucket, count in sorted(self.batch_sizes.items())
            },
            "schemes": schemes,
            "ticks": self.ticks,
            "linger_s": round(self.linger_seconds, 6),
            "linger_exits": dict(self.linger_exits),
        }


class _FusionGroup:
    """All live sessions of one (spec, resolved backend) pair."""

    def __init__(self, spec: PredictorSpec, resolved_backend: str):
        self.spec = spec
        self.scheme = spec.canonical()
        self.resolved_backend = resolved_backend
        self.scorer: MultiSessionScorer = make_multi_scorer(spec, resolved_backend)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.scheme, self.resolved_backend)


@dataclass
class _Session:
    """One logical predictor session, one of many multiplexed over a
    connection."""

    key: int  #: server-global id; namespaces this session's predictor state
    sid: int  #: client-chosen session id, unique within its connection
    conn: "_Connection"
    spec: PredictorSpec
    backend_request: Optional[str]
    resolved_backend: str
    training: List[BranchRecord] = field(default_factory=list)
    group: Optional[_FusionGroup] = None
    started: bool = False  #: first RECORDS2 seen; scorer state exists
    closed: bool = False
    owed: int = 0  #: answers written that no later RECORDS2 has repaid

    def stats(self) -> PredictionStats:
        if self.started and not self.closed and self.group is not None:
            return self.group.scorer.session_stats(self.key)
        return PredictionStats()

    def as_dict(self) -> Dict[str, Any]:
        stats = self.stats()
        return {
            "session": self.sid,
            "scheme": self.spec.canonical(),
            "backend": self.resolved_backend,
            "conditional": stats.conditional_total,
            "correct": stats.conditional_correct,
            "accuracy": stats.accuracy,
        }


class _Connection:
    """Per-TCP-connection state: the negotiated session cap and the
    logical sessions."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.hello_done = False
        self.max_sessions = 1
        self.sessions: Dict[int, _Session] = {}  #: client sid -> session
        self.out: List[bytes] = []  #: this tick's frames, sent in one write
        self.waiting_since: Optional[float] = None  #: None: not reading
        self.deadline: Optional[asyncio.TimerHandle] = None


class PredictionServer:
    """Serve branch-prediction sessions over TCP (see module docstring)."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.stats = ServeStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "Set[asyncio.Task]" = set()
        self._groups: Dict[Tuple[str, str], _FusionGroup] = {}
        self._queue: "Optional[asyncio.Queue[Tuple[Any, ...]]]" = None
        self._score_task: "Optional[asyncio.Task]" = None
        self._next_session = 0
        self._owed = 0  #: sum of every session's ``owed``
        self._refill: "Optional[asyncio.Future[str]]" = None  #: linger waiter
        self._outbox: Set[_Connection] = set()  #: connections with frames to send
        self._stopping = False
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, sock: Optional[socket.socket] = None) -> None:
        """Bind and start accepting connections.

        ``sock`` lets a supervisor hand this server a pre-bound listening
        socket (``SO_REUSEPORT`` sibling or an inherited fd); otherwise the
        configured host/port is bound here.
        """
        self._queue = asyncio.Queue(
            maxsize=max(self.config.queue_frames, 1)
            * max(self.config.max_connections, 1)
        )
        self._score_task = asyncio.create_task(self._score_loop())
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )

    @property
    def port(self) -> int:
        """The bound TCP port (useful with the ephemeral default)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def active_sessions(self) -> int:
        """Open *logical* sessions (not TCP connections)."""
        return self.stats.active_sessions

    @property
    def active_connections(self) -> int:
        return len(self._connections)

    def install_signal_handlers(self) -> None:
        """Arrange a graceful drain on SIGTERM / SIGINT."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # e.g. non-Unix event loops

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` has completed (e.g. via SIGTERM)."""
        await self._closed.wait()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight sessions, then shut down.

        ``drain=True`` gives active sessions ``config.drain_timeout``
        seconds to finish their streams before cancellation; ``False``
        cancels immediately.
        """
        if self._stopping:
            await self._closed.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = set(self._connections)
        if pending and drain:
            _done, pending = await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._score_task is not None:
            self._score_task.cancel()
            await asyncio.gather(self._score_task, return_exceptions=True)
        self._closed.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        if len(self._connections) >= self.config.max_connections or self._stopping:
            self.stats.errors += 1
            await self._send_error(
                writer, "busy", f"server at its {self.config.max_connections}-connection limit"
            )
            await self._close_writer(writer)
            return
        self._connections.add(task)
        conn = _Connection(reader, writer)
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass  # server shutdown cancelled this connection; end quietly
        finally:
            if conn.deadline is not None:
                conn.deadline.cancel()
            # a vanished client leaves its sessions behind; free their
            # fused predictor state (queued batches are skipped via
            # session.closed)
            for session in list(conn.sessions.values()):
                self._end_session(session)
            try:
                await self._close_writer(writer)
            except asyncio.CancelledError:
                writer.close()
            self._connections.discard(task)

    async def _read_loop(self, conn: _Connection) -> None:
        """Decode frames and feed the server's fused scoring queue.

        Every exit path of this coroutine closes only this connection;
        typed errors are reported to the client before the close.
        """
        reader, writer = conn.reader, conn.writer
        loop = asyncio.get_running_loop()
        self._arm_deadline(conn)
        try:
            while True:
                conn.waiting_since = loop.time()
                try:
                    frame = await protocol.read_frame(reader, self.config.max_frame_bytes)
                except asyncio.TimeoutError:
                    self.stats.errors += 1
                    await self._send_error(
                        writer,
                        "timeout",
                        f"no frame within the {self.config.read_timeout:g}s read timeout",
                    )
                    return
                conn.waiting_since = None
                if frame is None:  # client closed (mid-stream disconnect is fine)
                    return
                frame_type, payload = frame
                self.stats.frames += 1
                if frame_type == FRAME_HELLO:
                    self._handle_hello(conn, payload)
                elif frame_type == FRAME_BYE:
                    for session in conn.sessions.values():
                        self._repay(session, session.owed)
                    future = loop.create_future()
                    await self._enqueue(("bye", conn, future))
                    await future
                    return
                elif not conn.hello_done:
                    raise ProtocolError("frame before HELLO", "protocol")
                elif frame_type == FRAME_TRAIN2:
                    sid, body = protocol.split_session_payload(payload, frame_type)
                    session = self._session(conn, sid, frame_type)
                    if session.started:
                        raise ProtocolError(
                            "TRAIN2 after the first RECORDS2 frame", "protocol"
                        )
                    session.training.extend(protocol.unpack_records(body))
                elif frame_type == FRAME_RECORDS2:
                    sid, body = protocol.split_session_payload(payload, frame_type)
                    session = self._session(conn, sid, frame_type)
                    records = _parse_records(body)
                    if not session.started:
                        self._start_scoring(session)
                    self._repay(session, min(session.owed, 1))
                    await self._enqueue(("records", session, records))
                elif frame_type == FRAME_OPEN:
                    self._handle_open(conn, payload)
                elif frame_type == FRAME_CLOSE:
                    obj = protocol.unpack_json(payload, frame_type)
                    sid = obj.get("session")
                    if not isinstance(sid, int):
                        raise ProtocolError(
                            "CLOSE must carry an integer 'session'", "bad-session"
                        )
                    session = self._session(conn, sid, frame_type)
                    # drop it from the connection now so the sid can be
                    # reused; predictor state is freed by the score loop
                    # after queued batches flush
                    del conn.sessions[sid]
                    self._repay(session, session.owed)
                    await self._enqueue(("close", session))
                elif frame_type == FRAME_STATS_REQUEST:
                    session: Optional[_Session] = None
                    if payload:
                        obj = protocol.unpack_json(payload, frame_type)
                        sid = obj.get("session")
                        if isinstance(sid, int):
                            session = self._session(conn, sid, frame_type)
                        elif sid is not None:
                            raise ProtocolError(
                                "STATS_REQUEST 'session' must be an integer",
                                "bad-session",
                            )
                    await self._enqueue(("stats", conn, session))
                else:
                    name = protocol.FRAME_NAMES.get(frame_type, str(frame_type))
                    raise ProtocolError(
                        f"unexpected frame type {name} from client", "bad-frame"
                    )
        except ProtocolError as exc:
            self.stats.errors += 1
            await self._send_error(writer, exc.code, str(exc))
        except SpecParseError as exc:
            self.stats.errors += 1
            await self._send_error(writer, "bad-spec", str(exc))
        except ConfigError as exc:
            self.stats.errors += 1
            await self._send_error(writer, "bad-backend", str(exc))
        except ReproError as exc:
            self.stats.errors += 1
            await self._send_error(writer, "internal", str(exc))
        except (ConnectionResetError, BrokenPipeError):
            return  # mid-stream disconnect; nothing to report to anyone

    def _arm_deadline(self, conn: _Connection) -> None:
        """Start the connection's one read-deadline timer: it fails the
        read once the loop has waited ``read_timeout`` for a frame, else
        re-arms for the end of the current wait."""
        loop = asyncio.get_running_loop()
        timeout = self.config.read_timeout

        def _check() -> None:
            since, now = conn.waiting_since, loop.time()
            if since is not None and now - since >= timeout:
                conn.reader.set_exception(asyncio.TimeoutError())
            else:
                start = now if since is None else since
                conn.deadline = loop.call_at(start + timeout, _check)

        conn.deadline = loop.call_later(timeout, _check)

    async def _enqueue(self, item: Tuple[Any, ...]) -> None:
        queue = self._queue
        assert queue is not None
        await queue.put(item)
        if queue.full():
            self._wake("capacity")

    def _repay(self, session: _Session, count: int) -> None:
        """Clear ``count`` of the session's unrepaid answers; the linger
        ends once no session owes one."""
        if count:
            session.owed -= count
            self._owed -= count
            if self._owed == 0:
                self._wake("refilled")

    def _wake(self, ended: str) -> None:
        if self._refill is not None and not self._refill.done():
            self._refill.set_result(ended)

    # ------------------------------------------------------------------
    # handshake and session management
    # ------------------------------------------------------------------
    def _handle_hello(self, conn: _Connection, payload: bytes) -> None:
        if conn.hello_done:
            raise ProtocolError("duplicate HELLO", "protocol")
        hello = protocol.unpack_json(payload, FRAME_HELLO)
        version = hello.get("version")
        if version != PROTOCOL_VERSION or "spec" in hello:
            raise ProtocolError(
                f"HELLO must carry \"version\": {PROTOCOL_VERSION} and no spec"
                f" (got version {version!r}); sessions are opened with OPEN"
                " frames",
                "bad-hello",
            )
        requested = hello.get("max_sessions", self.config.max_sessions)
        if not isinstance(requested, int) or requested < 1:
            raise ProtocolError(
                "HELLO 'max_sessions' must be a positive integer", "bad-hello"
            )
        conn.max_sessions = min(requested, self.config.max_sessions)
        conn.hello_done = True
        conn.writer.write(
            protocol.pack_json(
                FRAME_OK,
                {"version": PROTOCOL_VERSION, "max_sessions": conn.max_sessions},
            )
        )

    def _handle_open(self, conn: _Connection, payload: bytes) -> None:
        obj = protocol.unpack_json(payload, FRAME_OPEN)
        sid = obj.get("session")
        if not isinstance(sid, int) or not 0 <= sid <= MAX_SESSION_ID:
            raise ProtocolError(
                "OPEN must carry an integer 'session' id in [0, 2^32)",
                "bad-session",
            )
        if sid in conn.sessions:
            raise ProtocolError(f"session {sid} is already open", "bad-session")
        if len(conn.sessions) >= conn.max_sessions:
            raise ProtocolError(
                f"connection at its negotiated {conn.max_sessions}-session limit",
                "bad-session",
            )
        spec_text, backend = obj.get("spec"), obj.get("backend")
        if not isinstance(spec_text, str) or not spec_text:
            raise ProtocolError("OPEN must carry a 'spec' string", "bad-session")
        spec = parse_spec(spec_text)  # SpecParseError -> bad-spec
        if backend is not None and not isinstance(backend, str):
            raise ProtocolError("'backend' must be a string", "bad-backend")
        if backend is None:
            backend = self.config.backend
        # resolve now so an impossible request fails the OPEN, not the
        # first RECORDS2 frame; ConfigError -> bad-backend
        resolved = resolve_backend(backend)
        self._next_session += 1
        session = _Session(
            key=self._next_session,
            sid=sid,
            conn=conn,
            spec=spec,
            backend_request=backend,
            resolved_backend=resolved,
        )
        conn.sessions[sid] = session
        self.stats.session_opened()
        conn.writer.write(
            protocol.pack_json(
                FRAME_OK,
                {
                    "session": sid,
                    "scheme": spec.canonical(),
                    "backend": resolved,
                    "needs_training": needs_training(spec),
                },
            )
        )

    @staticmethod
    def _session(conn: _Connection, sid: int, frame_type: int) -> _Session:
        session = conn.sessions.get(sid)
        if session is None:
            name = protocol.FRAME_NAMES.get(frame_type, str(frame_type))
            raise ProtocolError(f"{name} for unknown session {sid}", "bad-session")
        return session

    def _start_scoring(self, session: _Session) -> None:
        """Bind the session into its fusion group at the first RECORDS2."""
        training = session.training if session.training else None
        if needs_training(session.spec) and training is None:
            raise ProtocolError(
                f"{session.spec.canonical()} sessions need TRAIN2 frames before"
                " RECORDS2",
                "protocol",
            )
        group_key = (session.spec.canonical(), session.resolved_backend)
        group = self._groups.get(group_key)
        if group is None:
            group = _FusionGroup(session.spec, session.resolved_backend)
            self._groups[group_key] = group
        group.scorer.open_session(session.key, training)
        session.training = []  # the scorer owns them now; free the buffer
        session.group = group
        session.started = True

    def _end_session(self, session: _Session) -> None:
        """Free a session's fused predictor state (idempotent)."""
        if session.closed:
            return
        session.closed = True
        self._repay(session, session.owed)
        conn = session.conn
        if conn.sessions.get(session.sid) is session:
            del conn.sessions[session.sid]
        if session.started and session.group is not None:
            group = session.group
            group.scorer.close_session(session.key)
            if group.scorer.active == 0:
                self._groups.pop(group.key, None)
        self.stats.session_closed()

    # ------------------------------------------------------------------
    # the fused score loop
    # ------------------------------------------------------------------
    async def _score_loop(self) -> None:
        """Drain the server-wide queue per tick; score each fusion group's
        queued batches with one fused call; answer every frame in order."""
        queue = self._queue
        assert queue is not None
        loop = asyncio.get_running_loop()
        while True:
            items = [await queue.get()]
            lingered = loop.time()
            ended = await self._linger(queue)
            self.stats.record_tick(ended, loop.time() - lingered)
            while True:  # everything already queued = this scoring tick
                try:
                    items.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            pending: "Dict[_FusionGroup, List[Tuple[_Session, List[BranchRecord]]]]" = {}
            for item in items:
                kind = item[0]
                if kind == "records":
                    _kind, session, records = item
                    if not session.closed and session.group is not None:
                        pending.setdefault(session.group, []).append(
                            (session, records)
                        )
                    continue
                # control frames order against scoring: flush first
                self._flush(pending)
                if kind == "stats":
                    _kind, conn, session = item
                    self._write(
                        conn,
                        protocol.pack_json(
                            FRAME_STATS, self._stats_payload(session)
                        ),
                    )
                elif kind == "close":
                    _kind, session = item
                    # snapshot *before* teardown so the final stats still
                    # count this session as active
                    payload = self._stats_payload(session, final=True)
                    self._end_session(session)
                    self._write(
                        session.conn, protocol.pack_json(FRAME_STATS, payload)
                    )
                elif kind == "bye":
                    _kind, conn, future = item
                    payload = self._bye_payload(conn)
                    for session in list(conn.sessions.values()):
                        self._end_session(session)
                    self._write(conn, protocol.pack_json(FRAME_STATS, payload))
                    if not future.done():
                        future.set_result(None)
            self._flush(pending)
            await self._drain()

    async def _linger(self, queue: "asyncio.Queue[Tuple[Any, ...]]") -> str:
        """Hold the tick open so frames from concurrent sessions fuse into
        it; returns how the linger ended (one of :data:`LINGER_EXITS`)."""
        if self.stats.active_sessions <= 1 or self.config.fuse_window <= 0:
            return "none"
        if queue.full():
            return "capacity"
        if self._owed == 0:
            return "refilled"
        loop = asyncio.get_running_loop()
        self._refill = loop.create_future()
        timer = loop.call_later(self.config.fuse_window, self._wake, "deadline")
        try:
            return await self._refill
        finally:
            timer.cancel()
            self._refill = None

    def _flush(
        self,
        pending: "Dict[_FusionGroup, List[Tuple[_Session, List[BranchRecord]]]]",
    ) -> None:
        """One fused scoring call per group; answer each frame in order."""
        for group, entries in pending.items():
            batches = [(session.key, records) for session, records in entries]
            started = time.perf_counter()
            try:
                predictions = group.scorer.feed_many(batches)
            except Exception as exc:
                # scoring failure: fail every involved connection, spare the
                # rest of the server
                self.stats.errors += 1
                for conn in {session.conn for session, _records in entries}:
                    self._write(
                        conn, protocol.pack_error("internal", f"scoring failed: {exc}")
                    )
                    self._send(conn)
                    conn.writer.close()
                continue
            elapsed = time.perf_counter() - started
            total = sum(len(records) for _session, records in entries)
            self.stats.record_batch(
                group.scheme,
                total,
                elapsed,
                sessions=len({session.key for session, _records in entries}),
            )
            for (session, records), frame_predictions in zip(entries, predictions):
                if isinstance(frame_predictions, FusedPredictions):
                    body = protocol.encode_predictions_fused(frame_predictions)
                else:
                    body = protocol.encode_predictions(records, frame_predictions)
                self._write(session.conn, protocol.pack_predictions2(session.sid, body))
                session.owed += 1
                self._owed += 1
        pending.clear()

    def _write(self, conn: _Connection, data: bytes) -> None:
        """Buffer a frame; the connection's tick output leaves in one write."""
        conn.out.append(data)
        self._outbox.add(conn)

    @staticmethod
    def _send(conn: _Connection) -> None:
        if not conn.out:
            return
        try:
            conn.writer.writelines(conn.out)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # client vanished mid-answer; its reader cleans up
        conn.out = []

    async def _drain(self) -> None:
        """Send every buffered tick output; disconnect consumers too slow
        to take it (they would otherwise stall the shared score loop)."""
        touched, self._outbox = self._outbox, set()
        if not touched:
            return
        for conn in touched:
            self._send(conn)

        async def _drain_one(conn: _Connection) -> None:
            try:
                await asyncio.wait_for(
                    conn.writer.drain(), timeout=self.config.read_timeout
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.TimeoutError:
                conn.writer.close()

        await asyncio.gather(
            *(_drain_one(conn) for conn in touched), return_exceptions=True
        )

    def _stats_payload(
        self, session: Optional[_Session], final: bool = False
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"server": self.stats.as_dict()}
        if session is not None:
            payload["session"] = session.as_dict()
        if final:
            payload["final"] = True
        return payload

    def _bye_payload(self, conn: _Connection) -> Dict[str, Any]:
        return {
            "server": self.stats.as_dict(),
            "final": True,
            "sessions": [session.as_dict() for session in conn.sessions.values()],
        }

    # ------------------------------------------------------------------
    async def _send_error(
        self, writer: asyncio.StreamWriter, code: str, message: str
    ) -> None:
        try:
            writer.write(protocol.pack_error(code, message))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass  # a vanished client, or the read deadline (drain re-raises it)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
