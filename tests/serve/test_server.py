"""Prediction server end-to-end tests.

Covers the ISSUE acceptance criteria: served per-branch predictions are
bit-exact with the offline engine for every scheme family on all fourteen
workload variants (scalar and vector sessions); every fault — malformed
frame, oversized frame, mid-stream disconnect, read timeout — closes only
the offending connection; the stats frame reports live counters; the
connection limit and graceful shutdown behave.  Sessions ride
:class:`MuxPredictionClient` or raw protocol frames.

No pytest-asyncio: each test drives its own event loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import struct
import threading
import time

import pytest

from repro.errors import ProtocolError
from repro.predictors.spec import parse_spec
from repro.serve import protocol
from repro.serve.client import MuxPredictionClient, PredictionClient
from repro.serve.server import PredictionServer, ServerConfig
from repro.sim.backend import has_numpy
from repro.sim.engine import simulate
from repro.sim.streaming import ScalarStreamingScorer, needs_training
from repro.trace.columnar import pack_records
from repro.workloads.base import get_workload, workload_names

#: one spec per scheme family, including the scalar-fallback AHRT/HHRT pair.
FAMILY_SPECS = [
    "AlwaysTaken",
    "AlwaysNotTaken",
    "BTFN",
    "Profile",
    "LS(IHRT(,A2),,)",
    "AT(IHRT(,6SR),PT(2^6,A2),)",
    "ST(IHRT(,6SR),PT(2^6,PB),Same)",
    "GAg(6,A2)",
    "gshare(8,A2)",
    "AT(AHRT(512,6SR),PT(2^6,A2),)",
    "LS(HHRT(256,A2),,)",
    "perceptron(8,16)",
    "tage(2,5)",
    "PAp(6,A2)",
    "PAs(6,4,A2)",
]

BACKENDS = ["scalar", "vector"] if has_numpy() else ["scalar"]


async def _started_server(config=None):
    server = PredictionServer(config or ServerConfig())
    await server.start()
    return server


HELLO = protocol.pack_json(protocol.FRAME_HELLO, {"version": 2})


def _open(spec, backend=None, sid=0):
    request = {"session": sid, "spec": spec}
    if backend is not None:
        request["backend"] = backend
    return protocol.pack_json(protocol.FRAME_OPEN, request)


async def _expect_error(reader, code):
    """Skipping OK replies, the next frame must be an ERROR carrying ``code``."""
    while True:
        frame = await asyncio.wait_for(protocol.read_frame(reader), timeout=5)
        assert frame is not None, f"connection closed before the {code} ERROR frame"
        frame_type, payload = frame
        if frame_type != protocol.FRAME_OK:
            break
    assert frame_type == protocol.FRAME_ERROR
    body = protocol.unpack_json(payload, frame_type)
    assert body["code"] == code, body
    return body


async def _raw_session(server, spec="BTFN"):
    """A raw connection past HELLO and the OPEN of session 0."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(HELLO + _open(spec))
    for _ in range(2):  # the HELLO's and the OPEN's OK
        frame = await protocol.read_frame(reader)
        assert frame is not None and frame[0] == protocol.FRAME_OK
    return reader, writer


async def _one_session(server, spec="BTFN", backend=None):
    """A client with ``spec`` open as session 0."""
    client = await MuxPredictionClient.connect(server.host, server.port)
    await client.open(0, spec, backend)
    return client


async def _finish(client):
    """Close session 0, then the connection; return the session's final
    stats frame."""
    final = await client.close_session(0)
    await client.finish()
    return final


async def _session_roundtrip(server, records, spec="BTFN"):
    """One healthy session: predict ``records``, return (results, final)."""
    client = await _one_session(server, spec)
    results = await client.predict(0, records)
    return results, await _finish(client)


class TestParity:
    """Served predictions == the offline engine, bit for bit."""

    def test_all_variants_all_families(self, trace_cache, small_scale):
        """Every scheme family on all 14 workload variants, every backend."""
        variants = []
        for name in workload_names():
            variants.append((name, "test"))
            if get_workload(name).has_training_set:
                variants.append((name, "train"))
        assert len(variants) == 14

        async def _run():
            server = await _started_server()
            try:
                for name, role in variants:
                    trace = trace_cache.get(get_workload(name), role, small_scale)
                    records = trace.records[:1000]
                    for spec_text in FAMILY_SPECS:
                        for backend in BACKENDS:
                            await self._check_session(
                                server, spec_text, backend, records,
                                f"{name}:{role}",
                            )
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    @staticmethod
    async def _check_session(server, spec_text, backend, records, label):
        spec = parse_spec(spec_text)
        training = records if needs_training(spec) else None
        reference = ScalarStreamingScorer(spec, training_records=training)
        expected = reference.feed(records)

        client = await _one_session(server, spec_text, backend)
        if training is not None:
            await client.train(0, training)
        served = []
        for start in range(0, len(records), 256):
            served.extend(await client.predict(0, records[start:start + 256]))
        final = await _finish(client)

        context = f"{spec_text} [{backend}] on {label}"
        got = [None if r is None else r.predicted for r in served]
        assert got == expected, context
        session = final["session"]
        assert (session["conditional"], session["correct"]) == (
            reference.stats.conditional_total,
            reference.stats.conditional_correct,
        ), context

    def test_training_session_matches_offline(self, program_trace):
        """ST/Profile sessions: TRAIN2 frames reproduce the offline build."""
        records = program_trace[:1500]

        async def _run():
            server = await _started_server()
            try:
                for spec_text in ("Profile", "ST(IHRT(,6SR),PT(2^6,PB),Same)"):
                    spec = parse_spec(spec_text)
                    expected = simulate(
                        spec.build(training_records=records), pack_records(records)
                    )
                    client = await _one_session(server, spec_text)
                    assert client.session_info[0]["needs_training"] is True
                    await client.train(0, records[:800])
                    await client.train(0, records[800:])
                    await client.predict(0, records)
                    final = await _finish(client)
                    session = final["session"]
                    assert session["conditional"] == expected.conditional_total
                    assert session["correct"] == expected.conditional_correct
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())


class TestFaultIsolation:
    """Each fault closes only the offending connection."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "bad",
        [
            "AT(AHRT(3,6SR),PT(2^6,A2),)",
            "AT(AHRT(0,6SR),PT(2^6,A2),)",
            "AT(HHRT(0,6SR),PT(2^6,A2),)",
            "LS(AHRT(6,A2),,)",
        ],
    )
    def test_bad_geometry_refused_at_open(self, bad, backend, program_trace):
        """An HRT geometry no engine can build is a ``bad-spec`` at OPEN,
        before any record is sent; the next session is served bit-exactly."""
        records = program_trace[:400]
        good = "AT(AHRT(4,6SR),PT(2^6,A2),)"
        expected = ScalarStreamingScorer(parse_spec(good)).feed(records)

        async def _run():
            server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(HELLO + _open(bad, backend))
                await writer.drain()
                await _expect_error(reader, "bad-spec")
                writer.close()
                client = await _one_session(server, good, backend)
                served = await client.predict(0, records)
                await _finish(client)
                assert [None if r is None else r.predicted for r in served] == expected
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_malformed_frame(self, program_trace):
        records = program_trace[:200]

        async def _run():
            server = await _started_server()
            try:
                survivor = await _one_session(server)
                await survivor.predict(0, records)

                reader, writer = await _raw_session(server)
                # a RECORDS2 payload that is not whole 9-byte records
                writer.write(protocol.pack_frame(
                    protocol.FRAME_RECORDS2, protocol.SESSION_ID.pack(0) + b"\x00" * 10
                ))
                await writer.drain()
                await _expect_error(reader, "bad-frame")
                assert await protocol.read_frame(reader) is None  # closed
                writer.close()

                # the surviving session and the server are unaffected
                await survivor.predict(0, records)
                await survivor.finish()
                await _session_roundtrip(server, records)
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_oversized_frame(self, program_trace):
        records = program_trace[:10]  # stays under the tiny 128-byte frame cap

        async def _run():
            server = await _started_server(ServerConfig(max_frame_bytes=128))
            try:
                reader, writer = await _raw_session(server)
                writer.write(protocol.pack_frame(
                    protocol.FRAME_RECORDS2, b"\x00" * 900
                ))
                await writer.drain()
                await _expect_error(reader, "frame-too-large")
                writer.close()

                await _session_roundtrip(server, records)  # server alive
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_mid_stream_disconnect(self, program_trace):
        records = program_trace[:200]

        async def _run():
            server = await _started_server()
            try:
                survivor = await _one_session(server)
                await survivor.predict(0, records)

                # vanish cleanly after OK (no BYE)
                _reader, writer = await _raw_session(server)
                writer.close()

                # vanish mid frame header
                _reader, writer = await _raw_session(server)
                writer.write(b"\x07\x00")  # 2 of the 5 header bytes
                await writer.drain()
                writer.close()

                await asyncio.sleep(0.05)
                await survivor.predict(0, records)
                await survivor.finish()
                for _ in range(100):  # session reaping is asynchronous
                    if server.active_sessions == 0:
                        break
                    await asyncio.sleep(0.02)
                assert server.active_sessions == 0
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_read_timeout(self, program_trace):
        records = program_trace[:100]

        async def _run():
            server = await _started_server(ServerConfig(read_timeout=0.15))
            try:
                reader, writer = await _raw_session(server)
                # ... then go silent past the read timeout
                await _expect_error(reader, "timeout")
                assert await protocol.read_frame(reader) is None
                writer.close()

                await _session_roundtrip(server, records)  # server alive
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())


class TestProtocolEnforcement:
    def _expect_session_error(self, code, *frames):
        """Send ``frames`` on a fresh connection; expect a ``code`` ERROR."""
        async def _run():
            server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"".join(frames))
                await writer.drain()
                body = await _expect_error(reader, code)
                writer.close()
                return body
            finally:
                await server.stop(drain=False)

        return asyncio.run(_run())

    def test_bad_spec(self):
        self._expect_session_error("bad-spec", HELLO, _open("Bogus("))

    def test_bad_hello(self):
        self._expect_session_error(
            "bad-hello", protocol.pack_json(protocol.FRAME_HELLO, {"no_spec": 1})
        )

    def test_bad_backend(self):
        self._expect_session_error("bad-backend", HELLO, _open("BTFN", "simd"))
        # a non-string backend is a backend fault, not a HELLO one
        self._expect_session_error("bad-backend", HELLO, _open("BTFN", 7))

    def test_records_before_hello(self):
        self._expect_session_error("protocol", protocol.pack_records2(0, []))

    def test_duplicate_hello(self):
        self._expect_session_error("protocol", HELLO, HELLO)

    def test_unknown_frame_type(self):
        self._expect_session_error("bad-frame", HELLO, protocol.pack_frame(42))

    def test_training_scheme_requires_train_frames(self):
        body = self._expect_session_error(
            "protocol", HELLO, _open("Profile"), protocol.pack_records2(0, [])
        )
        assert "TRAIN" in body["error"]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "frame_type",
        [protocol.FRAME_TRAIN2, protocol.FRAME_RECORDS2],
        ids=["TRAIN2", "RECORDS2"],
    )
    def test_reserved_flag_bits_refused(self, frame_type, backend, monkeypatch):
        """A flag byte with a reserved bit set is a bad record on every
        ingest path; the scalar leg also decodes RECORDS2 without NumPy."""
        if backend == "scalar":
            monkeypatch.setattr(protocol, "numpy_or_none", lambda: None)
        record = struct.pack("<IBI", 0x100, 0x21, 0x80)  # taken conditional + bit 5
        self._expect_session_error(
            "bad-frame",
            HELLO,
            _open("BTFN", backend),
            protocol.pack_frame(frame_type, protocol.SESSION_ID.pack(0) + record),
        )

    def test_client_raises_typed_error(self):
        async def _run():
            server = await _started_server()
            try:
                client = await MuxPredictionClient.connect(server.host, server.port)
                with pytest.raises(ProtocolError) as excinfo:
                    await client.open(0, "NotAScheme((")
                assert excinfo.value.code == "bad-spec"
                await client.close()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())


class TestOperations:
    def test_stats_frame(self, program_trace):
        records = program_trace[:600]

        async def _run():
            server = await _started_server()
            try:
                spec_text = "AT(IHRT(,6SR),PT(2^6,A2),)"
                client = await _one_session(server, spec_text)
                await client.predict(0, records[:300])
                await client.predict(0, records[300:])
                stats = await client.stats(0)
                live = stats["server"]
                assert live["active_sessions"] == 1
                assert live["records_served"] == 600
                assert live["errors"] == 0
                assert sum(live["batch_size_histogram"].values()) >= 2
                scheme = live["schemes"][parse_spec(spec_text).canonical()]
                assert scheme["records"] == 600
                assert scheme["mean_batch_us"] >= 0.0
                session = stats["session"]
                assert 0.0 < session["accuracy"] <= 1.0
                final = await client.finish()
                assert final["final"] is True
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_connection_limit(self):
        async def _run():
            server = await _started_server(ServerConfig(max_connections=1))
            try:
                first = await _one_session(server)
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await _expect_error(reader, "busy")
                writer.close()
                await first.finish()  # the admitted session is unaffected
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_graceful_stop(self, program_trace):
        records = program_trace[:200]

        async def _run():
            server = await _started_server()
            port = server.port
            results, final = await _session_roundtrip(server, records)
            assert final["session"]["conditional"] > 0
            await server.stop()
            await server.wait_closed()
            assert server.active_sessions == 0
            with pytest.raises(OSError):
                await asyncio.open_connection(server.host, port)

        asyncio.run(_run())

    def test_sync_client(self, program_trace):
        """The blocking client against a server on a separate thread."""
        records = program_trace[:400]
        box = {}
        started = threading.Event()

        def _serve():
            async def _main():
                server = await _started_server()
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                started.set()
                await server.wait_closed()

            asyncio.run(_main())

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            with PredictionClient.connect(
                "127.0.0.1", box["server"].port, "GAg(6,A2)"
            ) as client:
                assert client.backend in ("scalar", "vector")
                served = client.predict(records)
                reference = ScalarStreamingScorer(parse_spec("GAg(6,A2)"))
                expected = reference.feed(records)
                got = [None if r is None else r.predicted for r in served]
                assert got == expected
                final = client.finish()
                assert final["session"]["conditional"] == (
                    reference.stats.conditional_total
                )
        finally:
            asyncio.run_coroutine_threadsafe(
                box["server"].stop(), box["loop"]
            ).result(10)
            thread.join(10)


class TestLoadgen:
    def test_bench_serve_payload(self, trace_cache):
        from repro.serve.loadgen import bench_serve

        payload = bench_serve(
            sessions=4, scale=1500, chunk=256, window=3, cache=trace_cache
        )
        assert payload["totals"]["parity"] == "verified"
        assert len(payload["sessions"]) == 4
        assert payload["totals"]["records"] == sum(
            session["records"] for session in payload["sessions"]
        )
        assert payload["totals"]["records_per_sec"] > 0
        latency = payload["totals"]["latency"]
        assert 0 <= latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]
        assert payload["server"]["sessions_total"] == 4
        assert payload["server"]["errors"] == 0
        for session in payload["sessions"]:
            assert session["backend"] in ("scalar", "vector")
            assert 0.0 < session["accuracy"] <= 1.0


class TestTicks:
    """The score loop pays per tick: the linger ends on refill, the read
    deadline re-arms per frame, a scoring failure fails only its
    connection."""

    def test_linger_ends_on_refill(self, program_trace):
        records = program_trace[:640]

        async def _run():
            server = await _started_server(ServerConfig(fuse_window=1.0))
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port, max_sessions=2
                )
                for sid in (0, 1):
                    await client.open(sid, "BTFN")

                async def _closed_loop(sid):  # window 1: one frame in flight
                    for start in range(0, len(records), 64):
                        if start:
                            # session 1 refills later, so each linger waits
                            # for its frame and ends when it arrives
                            await asyncio.sleep(0.05 * sid)
                        await client.predict(sid, records[start:start + 64])

                started = time.perf_counter()
                await asyncio.gather(_closed_loop(0), _closed_loop(1))
                final = await client.finish()
                return time.perf_counter() - started, final["server"]
            finally:
                await server.stop(drain=False)

        elapsed, stats = asyncio.run(_run())
        # a fixed 1 s linger per tick would take at least 10 s
        assert elapsed < 3.0, elapsed
        assert stats["linger_exits"]["refilled"] > 0, stats
        assert stats["ticks"] == sum(stats["linger_exits"].values())
        assert stats["linger_s"] < 3.0

    def test_idle_session_costs_one_window_per_answer(self, program_trace):
        records = program_trace[:640]
        spec = "GAg(6,A2)"

        async def _run():
            server = await _started_server(ServerConfig(fuse_window=1.0))
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port, max_sessions=2
                )
                for sid in (0, 1):
                    await client.open(sid, spec)
                # session 0 finishes its frames first and stays open: its
                # last answer is never repaid by a next frame
                idle = await client.predict(0, records[:64])
                started = time.perf_counter()
                served = []
                for start in range(0, len(records), 64):
                    served += await client.predict(1, records[start:start + 64])
                elapsed = time.perf_counter() - started
                final = await client.finish()
                return idle, served, elapsed, final["server"]
            finally:
                await server.stop(drain=False)

        idle, served, elapsed, stats = asyncio.run(_run())
        # waiting the whole window on every one of the ten ticks took 10.5 s
        assert elapsed < 3.0, elapsed
        assert stats["linger_exits"]["deadline"] >= 1, stats
        assert stats["ticks"] == sum(stats["linger_exits"].values())

        def expected(stream):
            return ScalarStreamingScorer(parse_spec(spec)).feed(stream)

        assert [None if r is None else r.predicted for r in idle] == expected(records[:64])
        assert [None if r is None else r.predicted for r in served] == expected(records)

    def test_read_deadline_rearms_per_frame(self, program_trace):
        frame = protocol.pack_records2(0, program_trace[:32])

        async def _run():
            server = await _started_server(ServerConfig(read_timeout=0.3))
            try:
                reader, writer = await _raw_session(server)
                # a frame every 0.12 s for 1.2 s, four read timeouts long
                for _ in range(10):
                    writer.write(frame)
                    sent = time.perf_counter()
                    reply = await asyncio.wait_for(protocol.read_frame(reader), 5)
                    assert reply is not None
                    assert reply[0] == protocol.FRAME_PREDICTIONS2
                    await asyncio.sleep(0.12)
                await _expect_error(reader, "timeout")
                waited = time.perf_counter() - sent  # silent since the last frame
                assert await protocol.read_frame(reader) is None
                writer.close()
                return waited
            finally:
                await server.stop(drain=False)

        assert 0.25 <= asyncio.run(_run()) < 2.0

    def test_scoring_failure_fails_only_its_connection(
        self, program_trace, monkeypatch
    ):
        from repro.serve import server as server_module

        records = program_trace[:1200]
        failing = parse_spec("gshare(8,A2)").canonical()
        make = server_module.make_multi_scorer

        def _faulty(spec, backend):
            scorer = make(spec, backend)
            if spec.canonical() == failing:
                def _boom(batches):
                    raise RuntimeError("injected scoring fault")

                scorer.feed_many = _boom
            return scorer

        monkeypatch.setattr(server_module, "make_multi_scorer", _faulty)

        async def _failing_connection(server):
            reader, writer = await _raw_session(server, failing)
            writer.write(protocol.pack_records2(0, records[:100]))
            body = await _expect_error(reader, "internal")
            assert "injected scoring fault" in body["error"]
            assert await protocol.read_frame(reader) is None  # then closed
            writer.close()

        async def _run():
            server = await _started_server()
            try:
                survivor = await _one_session(server, "GAg(6,A2)")
                served = await survivor.predict(0, records[:400])
                # the failure and a healthy frame land in the same ticks
                _, middle = await asyncio.gather(
                    _failing_connection(server),
                    survivor.predict(0, records[400:800]),
                )
                served += middle + await survivor.predict(0, records[800:])
                await survivor.finish()
                return served, server.stats.errors
            finally:
                await server.stop(drain=False)

        served, errors = asyncio.run(_run())
        expected = ScalarStreamingScorer(parse_spec("GAg(6,A2)")).feed(records)
        assert [None if r is None else r.predicted for r in served] == expected
        assert errors == 1
