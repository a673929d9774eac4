"""serve: ``repro serve`` in its own process, driven by a closed loop.

Set-up builds the eqntott and gcc test traces cold into an empty store,
loads them back the way a separate loadgen process would (boxing the
records), and starts ``python3 -m repro serve --port 0`` — the command a
user runs, with its default single worker — as a process of its own, so
the server runs the program's own code with none of the benchmark's
wrappers.  Each op is one loadgen round from this process: twelve
sessions (six predictor families on two benchmarks, so every session has
a same-spec partner to fuse with) multiplexed over two protocol-v2
connections, each session keeping ``repro loadgen``'s default window of 4
frames in flight (a closed loop).  Every frame is timed from send to reply.
``peak_rss_mb`` is the server's.
"""

from __future__ import annotations

import asyncio
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import ROOT, Measurement, OpRecord, end_to_end, fresh_store, run_op
from layers import Capture
from tracing import Tracer

#: label -> spec; the labels name the per-family metrics
SPECS = {
    "at_ihrt": "AT(IHRT(,12SR),PT(2^12,A2),)",
    "at_ahrt": "AT(AHRT(512,12SR),PT(2^12,A2),)",
    "gshare": "gshare(12)",
    "btfn": "BTFN",
    "tage": "tage(4,9)",
    "perceptron": "perceptron(12,512)",
}
BENCHMARKS = ("eqntott", "gcc")
#: short rounds, so a run holds ~28 of them: one round's latencies swing by
#: up to 50% from the next's, so a run's figures settle only over many rounds
SCALE = 10_000
HOST = "127.0.0.1"
CHUNK = 512
#: frames in flight per session: the ``repro loadgen --window`` default
WINDOW = 4
CONNECTIONS = 2
#: op index of the traced in-process replay (timed ops count from 0)
REPLAY_LEG = -3


@dataclass
class State:
    store: Path
    server: subprocess.Popen
    port: int
    plans: List[Any]
    #: benchmark -> the test trace's records, as the loadgen replays them
    records: Dict[str, List[Any]]


class Serve:
    name = "serve"
    scale = SCALE
    #: set-ups per run (``setup_s`` is their median); each is short, and
    #: starting a server process varies from one to the next
    setups = 7

    def __init__(self, seed: int, run_dir: Path, capture: Capture, tracer: Tracer):
        self.pairs = [(label, bench) for label in SPECS for bench in BENCHMARKS]
        random.Random(seed).shuffle(self.pairs)
        self.run_dir = run_dir
        self.tracer = tracer

    def setup(self, index: int) -> State:
        from repro.serve.loadgen import SessionPlan
        from repro.workloads.base import TraceCache, get_workload

        store = fresh_store(self.run_dir)
        builder = TraceCache(disk_dir=store)
        for name in BENCHMARKS:
            builder.get(get_workload(name), "test", SCALE)
        loader = TraceCache(disk_dir=store)
        records = {
            name: loader.get(get_workload(name), "test", SCALE).records
            for name in BENCHMARKS
        }
        plans = [
            SessionPlan(spec=SPECS[label], variant=bench, records=records[bench])
            for label, bench in self.pairs
        ]
        server, port = start_server()
        return State(store, server, port, plans, records)

    def teardown(self, state: State) -> None:
        stop_server(state.server)
        shutil.rmtree(state.store, ignore_errors=True)

    def pid(self, state: State) -> int:
        return state.server.pid

    def prepare(self, state: State) -> None:
        pass

    def op(self, state: State, index: int) -> List[Any]:
        from repro.serve.loadgen import run_loadgen_async

        return self.tracer.call(
            "serve.loadgen",
            asyncio.run,
            run_loadgen_async(HOST, state.port, state.plans, CHUNK, WINDOW, CONNECTIONS),
        )

    def reference(self, state: State) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """Each session's (conditional, correct) from the scalar engine."""
        from repro.predictors.spec import parse_spec
        from repro.sim.kernels import score_spec
        from repro.trace.columnar import pack_records

        expected = {}
        for bench, records in state.records.items():
            packed = pack_records(records)
            for spec in SPECS.values():
                stats = score_spec(parse_spec(spec), packed, backend="scalar")
                expected[(spec, bench)] = (stats.conditional_total, stats.conditional_correct)
        return expected

    def check(self, state: State, reference: Any, outcomes: List[Any]) -> List[str]:
        problems = []
        if len(outcomes) != len(state.plans):
            problems.append(f"{len(outcomes)} sessions answered, {len(state.plans)} sent")
        for outcome in outcomes:
            plan = outcome.plan
            got = (outcome.conditional, outcome.correct)
            want = reference[(plan.spec, plan.variant)]
            if got != want:
                problems.append(f"{plan.spec} on {plan.variant}: served {got} != scalar {want}")
            if outcome.records_sent != len(plan.records):
                problems.append(f"{plan.spec} on {plan.variant}: sent {outcome.records_sent}")
        return problems

    def counts(self, state: State) -> Dict[str, int]:
        counts = {}
        for name, records in state.records.items():
            counts[name] = sum(1 for record in records if record.cls.name == "CONDITIONAL")
            counts[name + ":records"] = len(records)
        return counts

    # -- metrics -----------------------------------------------------------
    def metrics(self, result: Measurement, counts: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
        def wall(op: OpRecord) -> float:
            outcomes = op.produced
            return max(o.finished for o in outcomes) - min(o.started for o in outcomes)

        return end_to_end(
            result,
            branches=lambda op: sum(o.conditional for o in op.produced),
            records=lambda op: sum(o.records_sent for o in op.produced),
            frames=lambda op: [latency for o in op.produced for latency in o.latencies],
            seconds=wall,
        )

    def frame_count(self, result: Measurement) -> int:
        return sum(len(o.latencies) for op in result.good() for o in op.produced)

    def traced_legs(self, result: Measurement, tracer: Tracer) -> Dict[str, float]:
        """Server-side costs from STATS, and the in-process replay."""
        from repro.predictors.spec import parse_spec

        state = result.state
        rounds = max(len([op for op in result.ops if op.index >= -1]), 1)
        server = asyncio.run(server_stats(state.port))
        values: Dict[str, float] = {}
        batches = 0
        for label, spec in SPECS.items():
            entry = server["schemes"].get(parse_spec(spec).canonical(), {})
            values[f"serve.score_s.{label}"] = entry.get("seconds", 0.0) / rounds
            batches += entry.get("batches", 0)
        values["serve.fused_batches"] = server["fused_batches"] / rounds
        values["serve.batch_records"] = server["records_served"] / batches if batches else 0.0
        values["serve.frames"] = self.frame_count(result) / max(len(result.good()), 1)

        tracer.begin("replay-0", enabled=True)
        run_op(result, self.replay, self.check_replay, REPLAY_LEG, traced=True)
        tracer.end()
        for name, value in tracer.per_unit(phases=("replay",)).items():
            if name.startswith("streaming.feed_many."):
                label = name[len("streaming.feed_many."):-2]
                values[f"streaming.feed_many_s.{label}"] = value
        return values

    def replay(self, state: State, index: int) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """The served chunk sequence, fed in-process through one fused
        multi-session scorer per family (a session per benchmark)."""
        from repro.sim.streaming import make_multi_scorer
        from repro.trace.columnar import pack_records

        chunks = {
            bench: [
                pack_records(records[start:start + CHUNK])
                for start in range(0, len(records), CHUNK)
            ]
            for bench, records in state.records.items()
        }
        longest = max(len(sequence) for sequence in chunks.values())
        produced = {}
        for label, spec in SPECS.items():
            scorer = make_multi_scorer(spec)
            scorer.label = label
            for key in range(len(BENCHMARKS)):
                scorer.open_session(key)
            for step in range(longest):
                scorer.feed_many([
                    (key, chunks[bench][step])
                    for key, bench in enumerate(BENCHMARKS)
                    if step < len(chunks[bench])
                ])
            for key, bench in enumerate(BENCHMARKS):
                stats = scorer.close_session(key)
                produced[(spec, bench)] = (stats.conditional_total, stats.conditional_correct)
        return produced

    def check_replay(self, state: State, reference: Any, produced: Any) -> List[str]:
        return [
            f"replayed {key}: {produced.get(key)} != scalar {want}"
            for key, want in sorted(reference.items())
            if produced.get(key) != want
        ]


def start_server() -> Tuple[subprocess.Popen, int]:
    """``repro serve`` on an ephemeral port; returns it and the port."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", HOST, "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    banner = server.stdout.readline()  # "repro serve: listening on HOST:PORT ..."
    found = re.search(r"listening on [^:]+:(\d+)", banner)
    if found is None:
        stop_server(server)
        raise RuntimeError(f"repro serve did not start: {banner!r}")
    return server, int(found.group(1))


def stop_server(server: subprocess.Popen) -> None:
    """SIGTERM (a graceful drain), then wait until the process is gone."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        server.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        server.kill()
        server.communicate()


async def server_stats(port: int) -> Dict[str, Any]:
    """The server-wide counters of a STATS frame."""
    from repro.serve.client import MuxPredictionClient

    client = await MuxPredictionClient.connect(HOST, port)
    try:
        return (await client.stats())["server"]
    finally:
        await client.close()
