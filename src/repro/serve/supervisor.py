"""Pre-fork worker pool for the prediction service.

One :class:`Supervisor` forks N worker processes, each running a full
:class:`~repro.serve.server.PredictionServer` event loop on the *same*
TCP port.  The port is claimed once by the supervisor with a
``SO_REUSEPORT`` probe socket (bound, never listening, so it takes no
connections); every worker then binds its own ``SO_REUSEPORT`` listening
socket and the kernel load-balances incoming connections across them.
Where ``SO_REUSEPORT`` is unavailable the supervisor falls back to
binding and listening a single socket itself and letting the forked
workers ``accept()`` from the inherited fd.

Workers are managed with the same fork-and-pipe pattern as the sweep
pool in :mod:`repro.sim.parallel`: the ``fork`` start method (predictor
state is process-local, nothing needs pickling), one duplex pipe per
worker for readiness, stats polling and shutdown, and SIGTERM handlers
all the way down — signalling the supervisor drains every worker
gracefully (each finishes its in-flight sessions within the configured
drain timeout).

A small control endpoint on its own port answers the standard
STATS_REQUEST frame with per-worker ``ServeStats`` plus their aggregate,
so a fleet is observable with one round trip::

    supervisor = Supervisor(ServerConfig(), workers=4)
    supervisor.start()
    ... clients connect to supervisor.port ...
    aggregated = supervisor.stats()
    supervisor.stop()          # SIGTERM-equivalent graceful drain
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.serve import protocol
from repro.serve.protocol import FRAME_BYE, FRAME_STATS, FRAME_STATS_REQUEST
from repro.serve.server import LINGER_EXITS, PredictionServer, ServerConfig

__all__ = ["Supervisor", "WorkerInfo", "aggregate_worker_stats"]

_READY_TIMEOUT = 30.0  #: seconds for a forked worker to come up
_STATS_TIMEOUT = 5.0  #: seconds for a worker to answer a stats poll


@dataclass
class WorkerInfo:
    """One forked worker as the supervisor sees it."""

    worker_id: int
    process: Any
    pipe: Any
    pid: int = 0
    alive: bool = True
    final_stats: Optional[Dict[str, Any]] = None
    lock: threading.Lock = field(default_factory=threading.Lock)


def aggregate_worker_stats(
    workers: "List[Dict[str, Any]]",
) -> Dict[str, Any]:
    """Sum per-worker ``ServeStats`` dicts into one fleet-wide view.

    Counters and linger exits add; histograms and per-scheme tallies merge;
    ``peak_sessions`` adds too (each worker peaked independently, so the
    sum is the fleet's upper bound, exact when load is steady).
    """
    aggregate: Dict[str, Any] = {
        "active_sessions": 0,
        "peak_sessions": 0,
        "sessions_total": 0,
        "records_served": 0,
        "frames": 0,
        "errors": 0,
        "fused_batches": 0,
        "max_fused_sessions": 0,
        "batch_size_histogram": {},
        "schemes": {},
        "ticks": 0,
        "linger_s": 0.0,
        "linger_exits": dict.fromkeys(LINGER_EXITS, 0),
    }
    for stats in workers:
        if not stats:
            continue
        for key in (
            "active_sessions",
            "peak_sessions",
            "sessions_total",
            "records_served",
            "frames",
            "errors",
            "fused_batches",
            "ticks",
            "linger_s",
        ):
            aggregate[key] += stats.get(key, 0)
        for ended, count in stats.get("linger_exits", {}).items():
            aggregate["linger_exits"][ended] += count
        aggregate["max_fused_sessions"] = max(
            aggregate["max_fused_sessions"], stats.get("max_fused_sessions", 0)
        )
        for bucket, count in stats.get("batch_size_histogram", {}).items():
            histogram = aggregate["batch_size_histogram"]
            histogram[bucket] = histogram.get(bucket, 0) + count
        for scheme, entry in stats.get("schemes", {}).items():
            merged = aggregate["schemes"].setdefault(
                scheme, {"batches": 0, "records": 0, "seconds": 0.0}
            )
            merged["batches"] += entry.get("batches", 0)
            merged["records"] += entry.get("records", 0)
            merged["seconds"] += entry.get("seconds", 0.0)
    aggregate["linger_s"] = round(aggregate["linger_s"], 6)
    for entry in aggregate["schemes"].values():
        entry["seconds"] = round(entry["seconds"], 6)
        entry["mean_batch_us"] = round(
            1e6 * entry["seconds"] / entry["batches"] if entry["batches"] else 0.0, 1
        )
    aggregate["batch_size_histogram"] = {
        bucket: aggregate["batch_size_histogram"][bucket]
        for bucket in sorted(aggregate["batch_size_histogram"], key=int)
    }
    return aggregate


def _worker_main(
    config: ServerConfig,
    worker_id: int,
    pipe: Any,
    inherited: "Optional[socket.socket]",
    reuseport_addr: "Optional[Tuple[str, int]]",
) -> None:
    """Entry point of a forked worker: one server, one event loop."""
    import asyncio

    # the supervisor's SIGINT (^C in a terminal) is handled there; each
    # worker drains on the SIGTERM the supervisor forwards
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    async def _run() -> None:
        if reuseport_addr is not None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind(reuseport_addr)
            sock.listen(128)
        else:
            assert inherited is not None
            sock = inherited
        server = PredictionServer(config)
        await server.start(sock=sock)
        server.install_signal_handlers()
        loop = asyncio.get_running_loop()

        def _on_command() -> None:
            try:
                command = pipe.recv()
            except (EOFError, OSError):
                # the supervisor vanished; drain and exit
                with contextlib.suppress(ValueError, OSError):
                    loop.remove_reader(pipe.fileno())
                asyncio.ensure_future(server.stop())
                return
            if command == "stats":
                payload = server.stats.as_dict()
                payload["worker"] = worker_id
                payload["pid"] = os.getpid()
                with contextlib.suppress(BrokenPipeError, OSError):
                    pipe.send(("stats", payload))
            elif command == "stop":
                asyncio.ensure_future(server.stop())

        loop.add_reader(pipe.fileno(), _on_command)
        pipe.send(("ready", os.getpid(), server.port))
        await server.wait_closed()
        with contextlib.suppress(ValueError, OSError):
            loop.remove_reader(pipe.fileno())
        payload = server.stats.as_dict()
        payload["worker"] = worker_id
        payload["pid"] = os.getpid()
        with contextlib.suppress(BrokenPipeError, OSError):
            pipe.send(("final", payload))

    try:
        asyncio.run(_run())
    finally:
        with contextlib.suppress(OSError):
            pipe.close()


class Supervisor:
    """Pre-fork pool of prediction servers sharing one listen port."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        workers: int = 2,
        control: bool = True,
    ):
        if workers < 1:
            raise ConfigError(f"need at least one worker, got {workers}")
        self.config = config or ServerConfig()
        self.workers = workers
        self._control_enabled = control
        self._workers: List[WorkerInfo] = []
        self._probe: Optional[socket.socket] = None
        self._inherited: Optional[socket.socket] = None
        self._port = 0
        self._control_sock: Optional[socket.socket] = None
        self._control_thread: Optional[threading.Thread] = None
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The shared TCP port clients connect to."""
        assert self._started, "supervisor not started"
        return self._port

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def control_port(self) -> int:
        """Port of the aggregated-stats endpoint (0 when disabled)."""
        if self._control_sock is None:
            return 0
        return self._control_sock.getsockname()[1]

    @property
    def reuseport(self) -> bool:
        """True when workers share the port via ``SO_REUSEPORT``."""
        return self._probe is not None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Claim the port, fork the workers, wait until all accept."""
        if self._started:
            return
        try:
            context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-fork platform
            raise ConfigError(
                "the pre-fork supervisor needs the 'fork' start method"
            ) from exc
        # Import the vector backend *before* forking: every worker inherits
        # the already-initialised module via copy-on-write instead of paying
        # a ~100 ms import on its first scoring frame — which would show up
        # as a first-request latency cliff on every worker.
        from repro.sim.backend import numpy_or_none

        numpy_or_none()
        reuseport_addr = self._claim_port()
        for worker_id in range(self.workers):
            parent_pipe, child_pipe = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    self.config,
                    worker_id,
                    child_pipe,
                    self._inherited,
                    reuseport_addr,
                ),
                daemon=False,
            )
            process.start()
            child_pipe.close()
            self._workers.append(WorkerInfo(worker_id, process, parent_pipe))
        self._started = True
        try:
            for worker in self._workers:
                message = self._recv(worker, _READY_TIMEOUT)
                if not (isinstance(message, tuple) and message[0] == "ready"):
                    raise ConfigError(
                        f"worker {worker.worker_id} failed to start"
                        f" (got {message!r})"
                    )
                worker.pid = message[1]
                if self._port == 0:
                    self._port = message[2]
        except BaseException:
            self.stop(drain=False)
            raise
        if self._control_enabled:
            self._start_control()

    def _claim_port(self) -> "Optional[Tuple[str, int]]":
        """Bind the shared port once; returns the REUSEPORT address for
        workers, or None when falling back to an inherited socket."""
        if hasattr(socket, "SO_REUSEPORT"):
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                probe.bind((self.config.host, self.config.port))
            except OSError:
                probe.close()
            else:
                # bound but never listening: reserves the port (surviving
                # worker restarts) without joining the accept group
                self._probe = probe
                self._port = probe.getsockname()[1]
                return (self.config.host, self._port)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        self._inherited = listener
        self._port = listener.getsockname()[1]
        return None

    # ------------------------------------------------------------------
    def _recv(self, worker: WorkerInfo, timeout: float) -> Any:
        """Next message from one worker's pipe, or None on timeout/death."""
        try:
            if not worker.pipe.poll(timeout):
                return None
            return worker.pipe.recv()
        except (EOFError, OSError):
            worker.alive = False
            return None

    def _poll_stats(self, worker: WorkerInfo) -> "Optional[Dict[str, Any]]":
        with worker.lock:
            if not worker.alive or not worker.process.is_alive():
                return worker.final_stats
            try:
                worker.pipe.send("stats")
            except (BrokenPipeError, OSError):
                worker.alive = False
                return worker.final_stats
            deadline = time.monotonic() + _STATS_TIMEOUT
            while True:
                message = self._recv(worker, max(deadline - time.monotonic(), 0.0))
                if message is None:
                    return worker.final_stats
                if message[0] == "stats":
                    return message[1]
                if message[0] == "final":
                    worker.final_stats = message[1]
                    return worker.final_stats

    def stats(self) -> Dict[str, Any]:
        """Per-worker stats plus their fleet-wide aggregate."""
        per_worker: List[Dict[str, Any]] = []
        for worker in self._workers:
            stats = self._poll_stats(worker)
            if stats is None:
                stats = {"worker": worker.worker_id, "pid": worker.pid}
            stats.setdefault("worker", worker.worker_id)
            stats["alive"] = worker.alive and worker.process.is_alive()
            per_worker.append(stats)
        return {
            "workers": per_worker,
            "aggregate": aggregate_worker_stats(per_worker),
            "worker_count": len(self._workers),
            "reuseport": self.reuseport,
        }

    # ------------------------------------------------------------------
    def stop(self, drain: bool = True) -> Dict[str, Any]:
        """Drain and reap every worker; returns the final stats view."""
        if self._stopping:
            return {"workers": [], "aggregate": aggregate_worker_stats([])}
        self._stopping = True
        self._stop_control()
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.pipe.send("stop")
                except (BrokenPipeError, OSError):
                    pass
            if not drain and worker.process.is_alive():
                with contextlib.suppress(OSError):
                    worker.process.terminate()
        grace = self.config.drain_timeout + 5.0 if drain else 5.0
        deadline = time.monotonic() + grace
        for worker in self._workers:
            with worker.lock:
                while worker.alive:
                    message = self._recv(
                        worker, max(deadline - time.monotonic(), 0.0)
                    )
                    if message is None:
                        break
                    if message[0] == "final":
                        worker.final_stats = message[1]
                        break
            worker.process.join(max(deadline - time.monotonic(), 0.1))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                with contextlib.suppress(OSError):
                    worker.process.kill()
                worker.process.join(5.0)
            worker.alive = False
            with contextlib.suppress(OSError):
                worker.pipe.close()
        if self._probe is not None:
            with contextlib.suppress(OSError):
                self._probe.close()
            self._probe = None
        if self._inherited is not None:
            with contextlib.suppress(OSError):
                self._inherited.close()
            self._inherited = None
        per_worker = [
            worker.final_stats
            or {"worker": worker.worker_id, "pid": worker.pid, "alive": False}
            for worker in self._workers
        ]
        return {
            "workers": per_worker,
            "aggregate": aggregate_worker_stats(per_worker),
        }

    def join(self) -> None:
        """Block until every worker process has exited (e.g. SIGTERM)."""
        for worker in self._workers:
            worker.process.join()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT on the supervisor drain the whole pool."""

        def _handler(signum: int, _frame: Any) -> None:
            self.stop(drain=True)

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # aggregated-stats control endpoint
    # ------------------------------------------------------------------
    def _start_control(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, 0))
        sock.listen(8)
        sock.settimeout(0.25)
        self._control_sock = sock
        self._control_thread = threading.Thread(
            target=self._control_loop, name="serve-control", daemon=True
        )
        self._control_thread.start()

    def _stop_control(self) -> None:
        if self._control_sock is not None:
            with contextlib.suppress(OSError):
                self._control_sock.close()
        if self._control_thread is not None:
            self._control_thread.join(2.0)
            self._control_thread = None

    def _control_loop(self) -> None:
        assert self._control_sock is not None
        while not self._stopping:
            try:
                conn, _addr = self._control_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(5.0)
            stream = conn.makefile("rb")
            try:
                while True:
                    header = stream.read(protocol.HEADER.size)
                    if len(header) < protocol.HEADER.size:
                        break
                    length, frame_type = protocol.HEADER.unpack(header)
                    if length > protocol.MAX_FRAME_BYTES:
                        break
                    if len(stream.read(length)) < length:
                        break  # payloads carry nothing the endpoint reads
                    if frame_type == FRAME_STATS_REQUEST:
                        conn.sendall(
                            protocol.pack_json(FRAME_STATS, self.stats())
                        )
                    elif frame_type == FRAME_BYE:
                        payload = self.stats()
                        payload["final"] = True
                        conn.sendall(protocol.pack_json(FRAME_STATS, payload))
                        break
                    else:
                        conn.sendall(
                            protocol.pack_error(
                                "bad-frame",
                                "the control endpoint only answers"
                                " STATS_REQUEST and BYE",
                            )
                        )
                        break
            except OSError:
                pass
            finally:
                stream.close()  # the socket closes only once its file does
                with contextlib.suppress(OSError):
                    conn.close()
