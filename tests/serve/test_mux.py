"""Session multiplexing end-to-end tests.

The acceptance property: any interleaving of logical sessions over shared
connections — mixed specs, mixed chunk sizes, sessions closing mid-stream
— produces per-session predictions and final statistics bit-exact with the
offline engine, on both backends.  Plus the protocol state machine itself:
HELLO negotiation (and the refusal of anything but version 2), session-id
reuse, per-session stats and cross-session fusion counters.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.predictors.spec import parse_spec
from repro.serve import protocol
from repro.serve.client import MuxPredictionClient
from repro.serve.server import PredictionServer, ServerConfig
from repro.sim.backend import has_numpy
from repro.sim.streaming import ScalarStreamingScorer, needs_training
from repro.trace.record import BranchClass, BranchRecord

BACKENDS = ["scalar", "vector"] if has_numpy() else ["scalar"]

#: spec pool for the interleaving property: one per fusion-kernel shape,
#: including the AHRT/HHRT carried-replay paths and a training scheme.
MUX_SPECS = [
    "BTFN",
    "AT(IHRT(,6SR),PT(2^6,A2),)",
    "GAg(6,A2)",
    "gshare(8,A2)",
    "LS(IHRT(,A2),,)",
    "AT(AHRT(4,4SR),PT(2^4,A2),)",
    "LS(HHRT(4,A2),,)",
    "ST(IHRT(,6SR),PT(2^6,PB),Same)",
    "perceptron(4,1)",
    "tage(1,3)",
]

_RECORD = st.builds(
    BranchRecord,
    pc=st.sampled_from([0x1000, 0x1004, 0x1008, 0x2000, 0x2004]),
    cls=st.sampled_from([BranchClass.CONDITIONAL, BranchClass.IMM_UNCONDITIONAL]),
    taken=st.booleans(),
    target=st.integers(0, 0xFFFF),
    is_call=st.just(False),
)


def _reference(spec_text, records, backend):
    """Offline truth: the scalar streaming scorer (backend-independent)."""
    spec = parse_spec(spec_text)
    training = records if needs_training(spec) else None
    scorer = ScalarStreamingScorer(spec, training_records=training)
    return scorer.feed(records), scorer.stats


async def _serve():
    server = PredictionServer(ServerConfig())
    await server.start()
    return server


class TestInterleaving:
    """The headline property, driven over the real wire."""

    @given(
        streams=st.lists(
            st.lists(_RECORD, max_size=60), min_size=2, max_size=4
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(deadline=None, max_examples=10)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multiplexed_sessions_bit_exact(self, streams, seed, backend):
        rng = random.Random(seed)
        specs = [rng.choice(MUX_SPECS) for _ in streams]

        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                for sid, (spec_text, records) in enumerate(zip(specs, streams)):
                    await client.open(sid, spec_text, backend)
                    if needs_training(parse_spec(spec_text)):
                        # training split across two TRAIN2 frames
                        half = len(records) // 2
                        await client.train(sid, records[:half])
                        await client.train(sid, records[half:])

                # random per-session chunk boundaries, randomly merged
                cursors = {}
                for sid, records in enumerate(streams):
                    chunks, start = [], 0
                    while start < len(records):
                        size = rng.randint(1, max(1, len(records) // 3))
                        chunks.append(records[start:start + size])
                        start += size
                    cursors[sid] = chunks
                served = {sid: [] for sid in cursors}
                in_flight = []
                while any(cursors.values()) or in_flight:
                    live = [s for s, c in cursors.items() if c]
                    if live and (not in_flight or rng.random() < 0.6):
                        sid = rng.choice(live)
                        chunk = cursors[sid].pop(0)
                        in_flight.append(
                            (sid, await client.submit(sid, chunk))
                        )
                    else:
                        sid, future = in_flight.pop(0)
                        served[sid].extend(await future)

                for sid, (spec_text, records) in enumerate(zip(specs, streams)):
                    expected, stats = _reference(spec_text, records, backend)
                    got = [
                        None if r is None else r.predicted for r in served[sid]
                    ]
                    assert got == expected, f"session {sid}: {spec_text}"
                    final = await client.close_session(sid)
                    session = final["session"]
                    assert (session["conditional"], session["correct"]) == (
                        stats.conditional_total,
                        stats.conditional_correct,
                    ), f"session {sid}: {spec_text}"
                    assert final["final"] is True
                await client.finish()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_stream_close_isolated(self, program_trace, backend):
        """Closing one session mid-stream never perturbs its neighbours."""
        records = program_trace[:300]

        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                spec_text = "gshare(8,A2)"
                await client.open(0, spec_text, backend)
                await client.open(1, spec_text, backend)
                survivor = list(await client.predict(0, records[:150]))
                await client.predict(1, records[:50])
                await client.close_session(1)
                survivor.extend(await client.predict(0, records[150:]))

                expected, stats = _reference(spec_text, records, backend)
                got = [None if r is None else r.predicted for r in survivor]
                assert got == expected
                final = await client.close_session(0)
                assert final["session"]["conditional"] == stats.conditional_total
                await client.finish()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())


class TestV2Protocol:
    def test_hello_negotiation(self):
        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port, max_sessions=16
                )
                assert client.connection_info["version"] == 2
                assert client.max_sessions == 16
                # the server caps the grant at its own limit
                capped = await MuxPredictionClient.connect(
                    server.host, server.port, max_sessions=10**9
                )
                assert capped.max_sessions == ServerConfig().max_sessions
                await client.close()
                await capped.close()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_session_id_reuse_after_close(self, program_trace):
        records = program_trace[:120]

        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                await client.open(5, "BTFN")
                first = await client.predict(5, records)
                await client.close_session(5)
                # the freed sid opens again, with pristine predictor state
                await client.open(5, "BTFN")
                second = await client.predict(5, records)
                assert [r.predicted if r else None for r in first] == [
                    r.predicted if r else None for r in second
                ]
                await client.finish()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_unknown_and_duplicate_sessions(self):
        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                await client.open(1, "BTFN")
                with pytest.raises(ProtocolError) as excinfo:
                    await client.open(1, "BTFN")
                assert excinfo.value.code == "bad-session"
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

        async def _run_unknown():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                with pytest.raises(ProtocolError) as excinfo:
                    await client.predict(42, [])
                assert excinfo.value.code == "bad-session"
            finally:
                await server.stop(drain=False)

        asyncio.run(_run_unknown())

    def test_out_of_range_history_refused(self, program_trace):
        """An OPEN for a 2^30-entry table is refused as bad-spec before
        any predictor state exists, and the server keeps serving."""
        records = program_trace[:64]

        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                with pytest.raises(ProtocolError) as excinfo:
                    await client.open(0, "gshare(30,A2)")
                assert excinfo.value.code == "bad-spec"
                other = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                await other.open(0, "gshare(8,A2)")
                served = await other.predict(0, records)
                expected, _stats = _reference("gshare(8,A2)", records, "vector")
                assert [None if r is None else r.predicted for r in served] == expected
                await other.finish()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_session_cap_enforced(self):
        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port, max_sessions=2
                )
                await client.open(0, "BTFN")
                await client.open(1, "BTFN")
                with pytest.raises(ProtocolError) as excinfo:
                    await client.open(2, "BTFN")
                assert excinfo.value.code == "bad-session"
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_bye_reports_every_session(self, program_trace):
        records = program_trace[:80]

        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                for sid in range(3):
                    await client.open(sid, "BTFN")
                    await client.predict(sid, records)
                final = await client.finish()
                assert final["final"] is True
                assert len(final["sessions"]) == 3
                # satellite regression: the final server block must still
                # count the sessions that BYE itself is tearing down
                assert final["server"]["active_sessions"] == 3
                assert final["server"]["sessions_total"] == 3
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_close_stats_snapshot_before_teardown(self, program_trace):
        """Satellite (a): the CLOSE-path STATS still shows the session."""
        records = program_trace[:80]

        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                await client.open(0, "BTFN")
                await client.predict(0, records)
                final = await client.close_session(0)
                assert final["server"]["active_sessions"] == 1
                live = await client.stats()
                assert live["server"]["active_sessions"] == 0
                await client.finish()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    @staticmethod
    def _refused_then_served(frames, code, records):
        """``frames`` on a fresh connection earn a ``code`` ERROR and a
        close; a second connection on the same server is still served."""

        async def _run():
            server = await _serve()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"".join(frames))
                await writer.drain()
                frame = await asyncio.wait_for(protocol.read_frame(reader), 5)
                while frame is not None and frame[0] == protocol.FRAME_OK:
                    frame = await asyncio.wait_for(protocol.read_frame(reader), 5)
                assert frame is not None and frame[0] == protocol.FRAME_ERROR
                assert protocol.unpack_json(frame[1], frame[0])["code"] == code
                assert await protocol.read_frame(reader) is None  # closed
                writer.close()

                client = await MuxPredictionClient.connect(server.host, server.port)
                await client.open(0, "GAg(6,A2)")
                served = await client.predict(0, records)
                expected, _stats = _reference("GAg(6,A2)", records, "scalar")
                assert [None if r is None else r.predicted for r in served] == expected
                await client.finish()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    @pytest.mark.parametrize(
        "hello",
        [
            {"spec": "GAg(6,A2)"},
            {"version": 1, "spec": "GAg(6,A2)"},
            {"version": 1},
            {"version": 3},
            {},
            {"version": 2, "spec": "GAg(6,A2)"},
        ],
        ids=["v1-spec", "v1", "v1-no-spec", "v3", "no-version", "v2-spec"],
    )
    def test_non_v2_hello_refused(self, program_trace, hello):
        self._refused_then_served(
            [protocol.pack_json(protocol.FRAME_HELLO, hello)],
            "bad-hello",
            program_trace[:200],
        )

    @pytest.mark.parametrize("frame_type", [3, 4, 5])
    def test_retired_frame_types_refused(self, program_trace, frame_type):
        """The single-session TRAIN/RECORDS/PREDICTIONS types are unknown."""
        self._refused_then_served(
            [
                protocol.pack_json(protocol.FRAME_HELLO, {"version": 2}),
                protocol.pack_frame(frame_type, b"\x00" * 9),
            ],
            "bad-frame",
            program_trace[:200],
        )


@pytest.mark.skipif(not has_numpy(), reason="NumPy not installed")
class TestFusion:
    def test_fused_batches_counted(self, program_trace):
        """Concurrent sessions of one spec fuse into single kernel calls."""
        records = program_trace[:400]

        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                sids = list(range(6))
                for sid in sids:
                    await client.open(sid, "AT(IHRT(,6SR),PT(2^6,A2),)")

                async def _drive(sid):
                    for start in range(0, len(records), 100):
                        await client.predict(sid, records[start:start + 100])

                await asyncio.gather(*(_drive(sid) for sid in sids))
                stats = (await client.stats())["server"]
                assert stats["fused_batches"] > 0
                assert stats["max_fused_sessions"] > 1
                # fused kernel calls exceed any single submitted chunk
                assert max(
                    int(bucket) for bucket in stats["batch_size_histogram"]
                ) > 100
                expected, _stats = _reference(
                    "AT(IHRT(,6SR),PT(2^6,A2),)", records, "vector"
                )
                await client.finish()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_packed_wire_path_matches_reference(self, program_trace):
        """unpack_records_packed + FusedPredictions round the wire exactly."""
        records = program_trace[:300]

        async def _run():
            server = await _serve()
            try:
                client = await MuxPredictionClient.connect(
                    server.host, server.port
                )
                await client.open(0, "gshare(8,A2)")
                served = []
                for start in range(0, len(records), 64):
                    served.extend(
                        await client.predict(0, records[start:start + 64])
                    )
                expected, stats = _reference("gshare(8,A2)", records, "vector")
                got = [None if r is None else r.predicted for r in served]
                assert got == expected
                final = await client.close_session(0)
                assert final["session"]["conditional"] == stats.conditional_total
                assert final["session"]["correct"] == stats.conditional_correct
                await client.finish()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())
