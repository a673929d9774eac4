"""Pre-fork supervisor tests: shared port, drain semantics, aggregation.

Each test forks real worker processes on an ephemeral loopback port, so
they exercise the same code path as ``repro serve --workers N``: port
claiming (``SO_REUSEPORT`` or the inherited-socket fallback), multiplexed
sessions spread across workers, graceful drain on stop/SIGTERM, and the
fleet-wide stats aggregation.
"""

from __future__ import annotations

import os
import signal
import socket

import pytest

from repro.errors import ConfigError
from repro.predictors.spec import parse_spec
from repro.serve import protocol
from repro.serve.loadgen import SessionPlan, run_loadgen
from repro.serve.server import ServerConfig, ServeStats
from repro.serve.supervisor import Supervisor, aggregate_worker_stats
from repro.sim.streaming import ScalarStreamingScorer


def _plans(records, count=4):
    specs = ["BTFN", "GAg(6,A2)"]
    return [
        SessionPlan(spec=specs[i % len(specs)], variant="prog", records=records)
        for i in range(count)
    ]


def _check_parity(outcomes):
    for outcome in outcomes:
        reference = ScalarStreamingScorer(parse_spec(outcome.plan.spec))
        reference.feed(outcome.plan.records)
        assert (outcome.conditional, outcome.correct) == (
            reference.stats.conditional_total,
            reference.stats.conditional_correct,
        ), outcome.plan.spec


class TestWorkerPool:
    def test_two_workers_multiplexed_parity(self, program_trace):
        """Sessions spread across 2 workers stay bit-exact, stats aggregate."""
        records = program_trace[:400]
        supervisor = Supervisor(ServerConfig(), workers=2, control=False)
        supervisor.start()
        try:
            assert supervisor.port > 0
            outcomes = run_loadgen(
                supervisor.host,
                supervisor.port,
                _plans(records),
                chunk=128,
                window=2,
                connections=2,
            )
            _check_parity(outcomes)
            live = supervisor.stats()
            assert live["worker_count"] == 2
            assert len(live["workers"]) == 2
            assert live["aggregate"]["sessions_total"] == 4
            assert live["aggregate"]["records_served"] == 4 * len(records)
            assert live["aggregate"]["errors"] == 0
        finally:
            final = supervisor.stop()
        # the drained final view still carries every worker's counters
        assert final["aggregate"]["records_served"] == 4 * len(records)
        assert all(
            not worker.process.is_alive() for worker in supervisor._workers
        )

    def test_one_connection_per_session_through_the_pool(self, program_trace):
        records = program_trace[:200]
        supervisor = Supervisor(ServerConfig(), workers=2, control=False)
        supervisor.start()
        try:
            outcomes = run_loadgen(
                supervisor.host,
                supervisor.port,
                _plans(records, count=3),
                chunk=100,
                window=2,
                connections=None,  # one connection per session
            )
            _check_parity(outcomes)
        finally:
            supervisor.stop()

    def test_inherited_socket_fallback(self, program_trace, monkeypatch):
        """Without SO_REUSEPORT the workers accept from one inherited fd."""
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        records = program_trace[:150]
        supervisor = Supervisor(ServerConfig(), workers=2, control=False)
        supervisor.start()
        try:
            assert supervisor.reuseport is False
            outcomes = run_loadgen(
                supervisor.host,
                supervisor.port,
                _plans(records, count=2),
                chunk=75,
                window=1,
                connections=2,
            )
            _check_parity(outcomes)
        finally:
            supervisor.stop()

    def test_worker_sigterm_drains(self, program_trace):
        """SIGTERM to a worker finishes its sessions and reports finals."""
        records = program_trace[:100]
        supervisor = Supervisor(ServerConfig(), workers=2, control=False)
        supervisor.start()
        try:
            outcomes = run_loadgen(
                supervisor.host,
                supervisor.port,
                _plans(records, count=2),
                chunk=50,
                window=1,
                connections=1,
            )
            _check_parity(outcomes)
            victim = supervisor._workers[0]
            os.kill(victim.pid, signal.SIGTERM)
            victim.process.join(10)
            assert not victim.process.is_alive()
            # its final stats stay pollable after death
            stats = supervisor.stats()
            assert stats["worker_count"] == 2
            dead = [w for w in stats["workers"] if not w["alive"]]
            assert len(dead) == 1
        finally:
            final = supervisor.stop()
        assert final["aggregate"]["errors"] == 0

    def test_supervisor_signal_handler_stops_pool(self):
        supervisor = Supervisor(ServerConfig(), workers=1, control=False)
        supervisor.start()
        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        try:
            supervisor.install_signal_handlers()
            handler = signal.getsignal(signal.SIGTERM)
            assert callable(handler)
            handler(signal.SIGTERM, None)  # what the kernel would invoke
            for worker in supervisor._workers:
                worker.process.join(10)
                assert not worker.process.is_alive()
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)
            supervisor.stop()

    def test_worker_count_validated(self):
        with pytest.raises(ConfigError, match="at least one worker"):
            Supervisor(ServerConfig(), workers=0)


class TestControlEndpoint:
    def test_stats_request_over_the_wire(self, program_trace):
        records = program_trace[:120]
        supervisor = Supervisor(ServerConfig(), workers=2, control=True)
        supervisor.start()
        try:
            assert supervisor.control_port > 0
            run_loadgen(
                supervisor.host,
                supervisor.port,
                _plans(records, count=2),
                chunk=60,
                window=1,
                connections=1,
            )
            with socket.create_connection(
                (supervisor.host, supervisor.control_port), timeout=10
            ) as sock:
                sock.sendall(protocol.pack_frame(protocol.FRAME_STATS_REQUEST))
                stream = sock.makefile("rb")
                length, frame_type = protocol.HEADER.unpack(
                    stream.read(protocol.HEADER.size)
                )
                body = stream.read(length)
            assert frame_type == protocol.FRAME_STATS
            payload = protocol.unpack_json(body, frame_type)
            assert payload["worker_count"] == 2
            assert payload["aggregate"]["records_served"] == 2 * len(records)
            assert len(payload["workers"]) == 2
        finally:
            supervisor.stop()


class TestAggregation:
    def test_aggregate_worker_stats(self):
        merged = aggregate_worker_stats(
            [
                {
                    "active_sessions": 1,
                    "peak_sessions": 3,
                    "sessions_total": 5,
                    "records_served": 100,
                    "frames": 10,
                    "errors": 0,
                    "fused_batches": 2,
                    "max_fused_sessions": 4,
                    "batch_size_histogram": {"512": 2, "1024": 1},
                    "schemes": {"BTFN": {"batches": 3, "records": 60, "seconds": 0.3}},
                },
                {
                    "active_sessions": 0,
                    "peak_sessions": 2,
                    "sessions_total": 4,
                    "records_served": 50,
                    "frames": 5,
                    "errors": 1,
                    "fused_batches": 1,
                    "max_fused_sessions": 6,
                    "batch_size_histogram": {"1024": 2, "64": 1},
                    "schemes": {"BTFN": {"batches": 1, "records": 40, "seconds": 0.1}},
                },
                {},  # a worker that died before reporting
            ]
        )
        assert merged["sessions_total"] == 9
        assert merged["records_served"] == 150
        assert merged["errors"] == 1
        assert merged["fused_batches"] == 3
        assert merged["max_fused_sessions"] == 6
        assert merged["batch_size_histogram"] == {"64": 1, "512": 2, "1024": 3}
        scheme = merged["schemes"]["BTFN"]
        assert scheme["batches"] == 4 and scheme["records"] == 100
        assert scheme["mean_batch_us"] == pytest.approx(1e5, rel=0.01)

    def test_aggregate_sums_tick_counters(self):
        first, second = ServeStats(), ServeStats()
        first.record_tick("refilled", 0.25)
        first.record_tick("deadline", 0.5)
        second.record_tick("refilled", 0.125)
        second.record_tick("none", 0.0)
        merged = aggregate_worker_stats([first.as_dict(), second.as_dict(), {}])
        assert merged["ticks"] == 4
        assert merged["linger_s"] == pytest.approx(0.875)
        assert merged["linger_exits"] == {
            "refilled": 2, "deadline": 1, "capacity": 0, "none": 1,
        }
