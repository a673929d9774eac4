"""Load generator and benchmark harness for the prediction service.

``run_loadgen`` drives N concurrent predictor sessions against a server,
each replaying a workload variant's branch records in fixed-size chunks
with a configurable pipelining window (several RECORDS2 frames in flight
per session — this is what makes the server's per-tick micro-batching
visible), and reports aggregate throughput plus per-frame latency
percentiles.

Sessions ride :class:`~repro.serve.client.MuxPredictionClient`
connections.  With ``connections`` set, the loadgen opens that many and
spreads all the logical sessions across them, which is how thousands of
sessions are driven without thousands of sockets — and what makes the
server's cross-session batch fusion kick in.  Left unset, each session
gets a connection of its own.

``bench_serve`` is the ``repro bench-serve`` engine: it generates the
workload traces, starts an in-process server — or, with ``workers > 1``,
a pre-fork :class:`~repro.serve.supervisor.Supervisor` pool — on an
ephemeral port, fans out the sessions, optionally verifies every
session's served statistics bit-exactly against the offline engine, and
returns the ``BENCH_serve.json`` payload.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError, ReproError
from repro.predictors.spec import parse_spec
from repro.sim.backend import numpy_or_none
from repro.sim.kernels import score_spec
from repro.sim.streaming import needs_training
from repro.trace.encoding import RECORD_SIZE, encode_record
from repro.trace.record import BranchRecord
from repro.workloads.base import TraceCache, default_cache, get_workload
from repro.serve import protocol
from repro.serve.client import MuxPredictionClient
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.supervisor import Supervisor

__all__ = ["SessionPlan", "SessionOutcome", "run_loadgen", "bench_serve"]

#: default predictor specs exercised by ``repro bench-serve`` — one
#: vector-kernel session and one stateless scheme per workload variant.
DEFAULT_BENCH_SPECS = ("AT(IHRT(,6SR),PT(2^6,A2),)", "BTFN")

DEFAULT_BENCH_BENCHMARKS = ("eqntott", "tomcatv")


@dataclass
class SessionPlan:
    """One loadgen session: a spec replaying one workload variant."""

    spec: str
    variant: str  #: display label, e.g. ``eqntott:test``
    records: List[BranchRecord]
    training: Optional[List[BranchRecord]] = None
    backend: Optional[str] = None


@dataclass
class SessionOutcome:
    """What one session measured."""

    plan: SessionPlan
    backend: Optional[str] = None
    records_sent: int = 0
    frames: int = 0
    conditional: int = 0
    correct: int = 0
    accuracy: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    latencies: List[float] = field(default_factory=list)  #: per-frame seconds

    @property
    def wall_seconds(self) -> float:
        return max(self.finished - self.started, 1e-9)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method).

    The old nearest-rank rule made ``p99`` degenerate to ``max`` whenever a
    session had fewer than ~100 frames, which was every bench run.
    """
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


def _latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    to_ms = 1e3
    return {
        "frames": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50) * to_ms, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * to_ms, 3),
        "max_ms": round((ordered[-1] if ordered else 0.0) * to_ms, 3),
        "mean_ms": round(
            (sum(ordered) / len(ordered) if ordered else 0.0) * to_ms, 3
        ),
    }


def _encoded_chunks(
    records: Sequence[BranchRecord],
    chunk: int,
    cache: "Dict[Tuple[int, int], List[bytes]]",
) -> "List[bytes]":
    """Chunked wire payloads for a record list, encoded once per list.

    Bench plans share record lists across sessions, so the byte encoding —
    the loadgen's single biggest per-record cost — happens once per
    (workload variant, chunk size), not once per session."""
    key = (id(records), chunk)
    payloads = cache.get(key)
    if payloads is None:
        payloads = [
            b"".join(
                encode_record(record) for record in records[start:start + chunk]
            )
            for start in range(0, len(records), chunk)
        ]
        cache[key] = payloads
    return payloads


def _count_prediction_bytes(body: bytes) -> "Tuple[int, int]":
    """(scored, correct) totals of a raw PREDICTIONS payload."""
    np = numpy_or_none()
    if np is not None:
        arr = np.frombuffer(body, dtype=np.uint8)
        scored = (arr & protocol.PRED_SKIPPED) == 0
        correct = scored & ((arr & protocol.PRED_CORRECT) != 0)
        return int(scored.sum()), int(correct.sum())
    scored = correct = 0
    for byte in body:
        if not byte & protocol.PRED_SKIPPED:
            scored += 1
            if byte & protocol.PRED_CORRECT:
                correct += 1
    return scored, correct


async def _run_mux_session(
    client: MuxPredictionClient,
    sid: int,
    plan: SessionPlan,
    chunk: int,
    window: int,
    payload_cache: "Dict[Tuple[int, int], List[bytes]]",
) -> SessionOutcome:
    """Replay one plan as a logical session on a shared connection."""
    outcome = SessionOutcome(plan=plan)
    info = await client.open(sid, plan.spec, plan.backend)
    outcome.backend = info.get("backend")

    if plan.training:
        for payload in _encoded_chunks(plan.training, chunk, payload_cache):
            await client.train_payload(sid, payload)

    chunks = _encoded_chunks(plan.records, chunk, payload_cache)
    outcome.started = time.perf_counter()
    in_flight: "deque[Tuple[Any, float, int]]" = deque()
    next_chunk = 0

    async def _collect_one() -> None:
        future, sent_at, size = in_flight.popleft()
        body = await future.raw()
        outcome.latencies.append(time.perf_counter() - sent_at)
        if len(body) != size:
            raise ProtocolError(
                f"PREDICTIONS size {len(body)} != {size} records sent",
                "bad-frame",
            )
        scored, correct = _count_prediction_bytes(body)
        outcome.conditional += scored
        outcome.correct += correct

    while next_chunk < len(chunks) or in_flight:
        if next_chunk < len(chunks) and len(in_flight) < window:
            payload = chunks[next_chunk]
            size = len(payload) // RECORD_SIZE
            next_chunk += 1
            sent_at = time.perf_counter()
            future = await client.submit_payload(sid, payload)
            in_flight.append((future, sent_at, size))
            outcome.records_sent += size
            outcome.frames += 1
        else:
            await _collect_one()
    outcome.finished = time.perf_counter()

    final = await client.close_session(sid)
    session = final.get("session", {})
    outcome.accuracy = float(session.get("accuracy", 0.0))
    server_conditional = int(session.get("conditional", -1))
    server_correct = int(session.get("correct", -1))
    if (server_conditional, server_correct) != (outcome.conditional, outcome.correct):
        raise ProtocolError(
            f"session summary {server_conditional}/{server_correct} disagrees with"
            f" the prediction bytes {outcome.conditional}/{outcome.correct}",
            "internal",
        )
    return outcome


async def _run_mux_connection(
    host: str,
    port: int,
    plans: "Sequence[Tuple[int, SessionPlan]]",
    chunk: int,
    window: int,
    payload_cache: "Dict[Tuple[int, int], List[bytes]]",
) -> "List[SessionOutcome]":
    """Drive many logical sessions concurrently over one connection."""
    client = await MuxPredictionClient.connect(
        host, port, max_sessions=max(len(plans), 1)
    )
    try:
        outcomes = await asyncio.gather(
            *(
                _run_mux_session(client, sid, plan, chunk, window, payload_cache)
                for sid, plan in plans
            )
        )
        await client.finish()
    finally:
        await client.close()
    return list(outcomes)


async def run_loadgen_async(
    host: str,
    port: int,
    plans: Sequence[SessionPlan],
    chunk: int = 512,
    window: int = 4,
    connections: Optional[int] = None,
) -> "List[SessionOutcome]":
    """Run every plan concurrently against ``host:port``.

    ``connections=None`` gives every session a connection of its own; an
    integer multiplexes all sessions over that many connections.
    """
    connections = _connection_count(len(plans), connections)
    assigned: "List[List[Tuple[int, SessionPlan]]]" = [
        [] for _ in range(connections)
    ]
    for index, plan in enumerate(plans):
        # session ids are local to their connection
        assigned[index % connections].append((len(assigned[index % connections]), plan))
    # encode every distinct (record list, chunk) payload sequence up front:
    # lazy encoding inside a session coroutine would stall the shared event
    # loop mid-run and show up as a latency tail on every other session
    payload_cache: "Dict[Tuple[int, int], List[bytes]]" = {}
    for plan in plans:
        _encoded_chunks(plan.records, chunk, payload_cache)
        if plan.training:
            _encoded_chunks(plan.training, chunk, payload_cache)
    grouped = await asyncio.gather(
        *(
            _run_mux_connection(host, port, group, chunk, window, payload_cache)
            for group in assigned
            if group
        )
    )
    # restore the plan order so callers can zip outcomes with plans
    by_plan = {id(outcome.plan): outcome for group in grouped for outcome in group}
    return [by_plan[id(plan)] for plan in plans]


def _connection_count(sessions: int, connections: Optional[int]) -> int:
    """How many connections ``sessions`` sessions are spread over."""
    if connections is None:
        return max(sessions, 1)
    return max(1, min(connections, sessions or 1))


def run_loadgen(
    host: str,
    port: int,
    plans: Sequence[SessionPlan],
    chunk: int = 512,
    window: int = 4,
    connections: Optional[int] = None,
) -> "List[SessionOutcome]":
    """Blocking wrapper for driving an externally-started server."""
    return asyncio.run(
        run_loadgen_async(host, port, plans, chunk, window, connections)
    )


# ----------------------------------------------------------------------
# the `repro bench-serve` engine
# ----------------------------------------------------------------------
def _build_plans(
    specs: Sequence[str],
    benchmarks: Sequence[str],
    sessions: int,
    scale: int,
    cache: TraceCache,
    backend: Optional[str],
) -> "List[SessionPlan]":
    """Session ``i`` replays spec ``i mod S`` on benchmark ``(i mod S +
    i div S) mod B``: the first ``S`` sessions already reach ``min(S, B)``
    benchmarks, and ``S * B`` sessions cover every (spec, benchmark) pair
    once."""
    variants: "List[Tuple[str, str, List[BranchRecord]]]" = []
    for name in benchmarks:
        workload = get_workload(name)
        records = cache.get(workload, "test", scale).records
        variants.append((name, f"{name}:test", records))
    plans: "List[SessionPlan]" = []
    for index in range(sessions):
        spec_text = specs[index % len(specs)]
        rotation = index % len(specs) + index // len(specs)
        _name, label, records = variants[rotation % len(variants)]
        parsed = parse_spec(spec_text)
        # plans of the same variant share one record list: sessions never
        # mutate it, and sharing lets the loadgen encode each (variant,
        # chunk) payload sequence exactly once
        training = records if needs_training(parsed) else None
        plans.append(
            SessionPlan(
                spec=spec_text,
                variant=label,
                records=records,
                training=training,
                backend=backend,
            )
        )
    return plans


def _verify_outcomes(outcomes: Sequence[SessionOutcome]) -> None:
    """Served statistics must equal the offline engine's, bit for bit."""
    from repro.trace.columnar import pack_records

    for outcome in outcomes:
        plan = outcome.plan
        spec = parse_spec(plan.spec)
        offline = score_spec(
            spec,
            pack_records(plan.records),
            backend=plan.backend,
            training=None if plan.training is None else pack_records(plan.training),
        )
        if (offline.conditional_total, offline.conditional_correct) != (
            outcome.conditional,
            outcome.correct,
        ):
            raise ReproError(
                f"parity failure for {plan.spec} on {plan.variant}: served"
                f" {outcome.correct}/{outcome.conditional}, offline"
                f" {offline.conditional_correct}/{offline.conditional_total}"
            )


def bench_serve(
    specs: Sequence[str] = DEFAULT_BENCH_SPECS,
    benchmarks: Sequence[str] = DEFAULT_BENCH_BENCHMARKS,
    sessions: int = 4,
    scale: int = 20_000,
    chunk: int = 512,
    window: int = 4,
    backend: Optional[str] = None,
    verify: bool = True,
    cache: Optional[TraceCache] = None,
    server_config: Optional[ServerConfig] = None,
    connections: Optional[int] = None,
    workers: int = 1,
) -> Dict[str, Any]:
    """Benchmark the serve tier; returns the BENCH_serve payload.

    Starts a server on an ephemeral loopback port — in-process for
    ``workers=1``, a pre-fork :class:`Supervisor` pool otherwise —
    replays ``sessions`` concurrent predictor sessions over the workload
    traces (multiplexed over ``connections`` connections when given),
    and (with ``verify``) checks every session's served accuracy
    statistics against the offline engine — a failed parity check raises.
    """
    cache = cache if cache is not None else default_cache()
    plans = _build_plans(specs, benchmarks, sessions, scale, cache, backend)
    config = server_config or ServerConfig()

    if workers > 1:
        supervisor = Supervisor(config, workers=workers, control=False)
        supervisor.start()
        try:
            outcomes = run_loadgen(
                supervisor.host, supervisor.port, plans, chunk, window, connections
            )
        finally:
            final = supervisor.stop()
        server_stats: Dict[str, Any] = dict(final["aggregate"])
        server_stats["workers"] = final["workers"]
    else:

        async def _run() -> "Tuple[List[SessionOutcome], Dict[str, Any]]":
            server = PredictionServer(config)
            await server.start()
            try:
                result = await run_loadgen_async(
                    server.host, server.port, plans, chunk, window, connections
                )
            finally:
                await server.stop()
            return result, server.stats.as_dict()

        outcomes, server_stats = asyncio.run(_run())
    if verify:
        _verify_outcomes(outcomes)

    all_latencies = [value for outcome in outcomes for value in outcome.latencies]
    started = min(outcome.started for outcome in outcomes)
    finished = max(outcome.finished for outcome in outcomes)
    wall = max(finished - started, 1e-9)
    total_records = sum(outcome.records_sent for outcome in outcomes)
    frame_counts = sorted(outcome.frames for outcome in outcomes)
    return {
        "config": {
            "sessions": sessions,
            "specs": list(specs),
            "benchmarks": list(benchmarks),
            "scale": scale,
            "chunk": chunk,
            "window": window,
            "backend": backend or "auto",
            "workers": workers,
            "connections": _connection_count(sessions, connections),
        },
        "sessions": [
            {
                "spec": outcome.plan.spec,
                "variant": outcome.plan.variant,
                "backend": outcome.backend,
                "records": outcome.records_sent,
                "frames": outcome.frames,
                "conditional": outcome.conditional,
                "correct": outcome.correct,
                "accuracy": round(outcome.accuracy, 6),
                "records_per_sec": round(outcome.records_sent / outcome.wall_seconds, 1),
                "latency": _latency_summary(outcome.latencies),
            }
            for outcome in outcomes
        ],
        "totals": {
            "records": total_records,
            "wall_seconds": round(wall, 4),
            "records_per_sec": round(total_records / wall, 1),
            "latency": _latency_summary(all_latencies),
            "frames": sum(frame_counts),
            "frames_per_session": {
                "min": frame_counts[0] if frame_counts else 0,
                "median": _percentile(frame_counts, 0.5) if frame_counts else 0,
                "max": frame_counts[-1] if frame_counts else 0,
            },
            "parity": "verified" if verify else "skipped",
        },
        "server": server_stats,
    }
