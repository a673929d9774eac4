"""Plumbing shared by every workload: the run loop, statistics and output.

A workload supplies these callables to :func:`measure`:

* ``setup(index)`` builds the program state an op needs, from nothing,
  into a fresh temporary store; it runs ``setups`` times and ``setup_s``
  is the median;
* ``reference(state)`` computes the oracle answers with the scalar engine
  (untimed, once);
* ``prepare(state)`` runs untimed before every op;
* ``op(state, index)`` does one unit of user-visible work and returns what
  it produced;
* ``check(state, reference, produced)`` returns a list of mismatches; an
  op that raises or mismatches counts as failed;
* ``pid(state)`` names the process whose memory the ops use: the run's
  own, or a server's.  ``peak_rss_mb`` is the median over the timed ops of
  its peak resident set during the op: set-up, the oracle and the host
  probes do not count.

Host speed.  The machines this runs on share their cores, and the speed
of the same fixed loop swings by 40-60% between runs minutes apart, and
by 30% between ops seconds apart.  So :func:`host_probe` runs between
set-ups and between ops, and each end-to-end time is reported
*normalised*: the time of each set-up or op is multiplied by
``REFERENCE_PROBE_S`` over the mean of the probes just before and after
it, i.e. it is in seconds of a host on which the probe takes
``REFERENCE_PROBE_S``.  The raw medians go into the ``info`` line next to
the probe's.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: checkout root: the benchmark is always run from there
ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
#: temporary trace stores and spill files (removed when the run ends)
WORK_DIR = BENCH_DIR / "work"
#: span dumps of traced runs
OUT_DIR = BENCH_DIR / "out"

#: probe time of the reference host that normalised times are quoted for
#: (about the probe's median on a 2-CPU container when it is quiet)
REFERENCE_PROBE_S = 0.04


def host_probe() -> float:
    """Seconds two fixed loops take right now (their geometric mean).

    One is interpreter-bound, like the ISA interpreter and the analysis
    layer; the other is a NumPy sort, like the vector kernels.  Their mix
    tracked the op time of every workload better than either alone."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(300_000):
        total += (i * i) % 7
        table[i & 1023] = total
    interpreted = time.perf_counter() - started
    try:
        import numpy as np
    except ImportError:
        return interpreted
    data = np.arange(400_000, dtype=np.int64) * 2654435761 % 1000003
    started = time.perf_counter()
    for _ in range(2):
        np.cumsum(data[np.argsort(data, kind="stable")])
    return math.sqrt(interpreted * (time.perf_counter() - started))


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def reset_peak_rss(pid: int) -> None:
    """Restart ``pid``'s resident-set high-water mark at its current size."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of ``pid`` since its last reset (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the kernel reports KiB
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(seed: int, scale: int, branch_counts: Dict[str, int]) -> Dict[str, Any]:
    """What makes a result comparable across machines."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "seed": seed,
        "scale": scale,
        "conditional_branches": branch_counts,
    }


def isolate() -> Path:
    """Point every cache and temporary file of this process into the
    checkout, so a run never touches ``~/.cache/repro-traces`` or a
    ``$REPRO_CACHE_DIR`` set outside, and always starts cold."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_DIR))
    scratch = run_dir / "tmp"
    scratch.mkdir()
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    # a stray default_cache() would land in this empty run directory
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "default-cache")
    os.environ.pop("REPRO_TRACE_CACHE", None)
    return run_dir


def fresh_store(run_dir: Path) -> Path:
    return Path(tempfile.mkdtemp(prefix="store-", dir=run_dir))


def cleanup(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        WORK_DIR.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass


@dataclass
class OpRecord:
    index: int
    seconds: float
    traced: bool
    ok: bool
    produced: Any = None
    #: host_probe() seconds around the op (0 when not probed)
    probe: float = 0.0
    #: peak resident set (MB) of the ops' process during the op
    peak_rss_mb: float = 0.0


@dataclass
class Measurement:
    """Everything one run measured, before it is turned into metrics."""

    #: (host seconds, probe seconds) of each set-up
    setups: List[Tuple[float, float]]
    ops: List[OpRecord] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    state: Any = None
    reference: Any = None

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def good(self, traced: bool = False) -> List[OpRecord]:
        """The timed ops (not the warm-up) that passed the gate."""
        return [
            op for op in self.ops
            if op.ok and op.index >= 0 and op.traced == traced
        ]


def measure(
    tracer: Any,
    seconds: float,
    setup: Callable[[int], Any],
    teardown: Callable[[Any], None],
    reference: Callable[[Any], Any],
    op: Callable[[Any, int], Any],
    check: Callable[[Any, Any, Any], List[str]],
    traced: bool,
    prepare: Callable[[Any], None] = lambda state: None,
    pid: Callable[[Any], int] = lambda state: os.getpid(),
    setups: int = 3,
    min_ops: int = 3,
) -> Measurement:
    """Set up ``setups`` times, warm up once, then run ops for ``seconds``.

    With ``traced`` the ops alternate between traced and untraced, so the
    traced run measures its own tracing overhead.
    """
    timings: List[Tuple[float, float]] = []
    state = None
    probe = host_probe()
    for index in range(setups):
        if state is not None:
            teardown(state)
        tracer.begin(f"setup-{index}", enabled=traced)
        started = time.perf_counter()
        state = setup(index)
        elapsed = time.perf_counter() - started
        tracer.end()
        after = host_probe()
        timings.append((elapsed, (probe + after) / 2))
        probe = after
    result = Measurement(setups=timings, state=state)
    try:
        run_ops(result, tracer, seconds, reference, op, check, traced, prepare, pid, min_ops)
    except BaseException:
        teardown(state)  # e.g. stop a server process before unwinding
        raise
    return result


def run_ops(
    result: Measurement,
    tracer: Any,
    seconds: float,
    reference: Callable[[Any], Any],
    op: Callable[[Any, int], Any],
    check: Callable[[Any, Any, Any], List[str]],
    traced: bool,
    prepare: Callable[[Any], None],
    pid: Callable[[Any], int],
    min_ops: int,
) -> None:
    state = result.state
    result.reference = reference(state)

    # one untimed warm-up op: lazy imports, page-ins of the mapped shards
    prepare(state)
    tracer.begin("warmup", enabled=False)
    run_op(result, op, check, -1, traced=False)
    tracer.end()

    gc.collect()  # the oracle's cyclic garbage would count in the first op's peak
    deadline = time.perf_counter() + seconds
    index = 0
    probe = host_probe()
    while time.perf_counter() < deadline or index < min_ops:
        with_trace = traced and index % 2 == 0
        prepare(state)
        reset_peak_rss(pid(state))
        tracer.begin(f"op-{index}", enabled=with_trace)
        run_op(result, op, check, index, traced=with_trace)
        tracer.end()
        result.ops[-1].peak_rss_mb = peak_rss_mb(pid(state))
        after = host_probe()
        result.ops[-1].probe = (probe + after) / 2
        probe = after
        index += 1


def run_op(
    result: Measurement,
    op: Callable[[Any, int], Any],
    check: Callable[[Any, Any, Any], List[str]],
    index: int,
    traced: bool,
) -> None:
    started = time.perf_counter()
    try:
        produced = op(result.state, index)
    except Exception:  # an op that raises is a failed op, not a crash
        seconds = time.perf_counter() - started
        problems = ["op raised:\n" + traceback.format_exc(limit=6)]
        produced = None
    else:
        seconds = time.perf_counter() - started
        try:
            problems = check(result.state, result.reference, produced)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc(limit=6)]
    for problem in problems[:5]:
        result.failures.append(f"op {index}: {problem}")
    result.ops.append(OpRecord(index, seconds, traced, ok=not problems, produced=produced))


def same_rows(got: Any, want: Any) -> bool:
    """Exact equality of report rows, where NaN equals NaN."""
    if isinstance(want, float) and isinstance(got, float):
        return got == want or (math.isnan(got) and math.isnan(want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(same_rows(got[k], want[k]) for k in want)
    if isinstance(want, (list, tuple)) and isinstance(got, (list, tuple)):
        return len(got) == len(want) and all(map(same_rows, got, want))
    return bool(got == want)


def end_to_end(
    result: Measurement,
    branches: Callable[[OpRecord], float],
    records: Callable[[OpRecord], float],
    frames: Callable[[OpRecord], Sequence[float]],
    seconds: Callable[[OpRecord], float] = lambda op: op.seconds,
) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, from the untraced timed ops.

    ``branches(op)`` and ``records(op)`` give the work an op did in
    ``seconds(op)``, and a rate is the ops' total work over their total
    seconds; ``frames(op)`` are the latencies (host seconds) a user waited
    on during the op.  Times are normalised to the reference host.
    """
    from repro.serve.loadgen import _percentile

    ops = result.good()
    latencies = sorted(
        latency * REFERENCE_PROBE_S / op.probe for op in ops for latency in frames(op)
    )
    total_s = sum(seconds(op) * REFERENCE_PROBE_S / op.probe for op in ops) or math.inf
    return {
        "setup_s": (median_or_zero([s * REFERENCE_PROBE_S / p for s, p in result.setups]), "s"),
        "branches_per_s": (sum(map(branches, ops)) / total_s, "1/s"),
        "records_per_s": (sum(map(records, ops)) / total_s, "1/s"),
        "frame_p50_ms": (_percentile(latencies, 0.50) * 1e3, "ms"),
        "frame_p99_ms": (_percentile(latencies, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (median_or_zero([op.peak_rss_mb for op in ops]), "MB"),
        "success_rate": (1.0 - result.failed / max(result.attempted, 1), "ratio"),
    }


def host_summary(result: Measurement) -> Dict[str, float]:
    """Raw (host) medians beside the probe, for the info line."""
    ops = result.good()
    return {
        "setup_s": median_or_zero([s for s, _p in result.setups]),
        "op_s": median_or_zero([op.seconds for op in ops]),
        "probe_s": median_or_zero([op.probe for op in ops]),
        "reference_probe_s": REFERENCE_PROBE_S,
    }


def tracing_overhead(result: Measurement) -> float:
    """Percent by which a traced op is slower than an untraced one."""
    traced = median_or_zero([op.seconds for op in result.good(traced=True)])
    plain = median_or_zero([op.seconds for op in result.good()])
    return 100.0 * (traced / plain - 1.0) if traced and plain else 0.0


def emit(
    metrics: Dict[str, Tuple[float, str]],
    attempted: int,
    failed: int,
    info: Dict[str, Any],
    failures: Sequence[str],
) -> None:
    """Print every metric by name with its unit, then the result line."""
    for problem in failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / max(attempted, 1):.6g} (failed {failed} of {attempted} ops)")
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
