"""Parallel sweep engine and columnar fast-path wall-clock benchmarks.

Two measurements back the performance layer:

* a fig7-style sweep (four AT history-length configurations over a benchmark
  subset) run serially and with a process pool (``--jobs``-equivalent),
  asserting the results are identical and printing the wall-clock speedup;
* ``simulate`` over a 50k-conditional trace as a record list vs its
  :class:`~repro.trace.columnar.PackedTrace` form.

Scale follows ``REPRO_BENCH_SCALE`` like the figure benches; the worker
count follows ``REPRO_BENCH_JOBS`` (default: all CPUs).  Speedup asserts are
deliberately loose — CI machines share cores — while the printed numbers are
the ones worth recording.
"""

from __future__ import annotations

import os
import time

from repro.predictors.automata import A2
from repro.predictors.hrt import AHRT
from repro.predictors.pattern_table import PatternTable
from repro.predictors.two_level import TwoLevelAdaptivePredictor
from repro.sim.engine import simulate
from repro.sim.runner import run_sweep
from repro.trace.columnar import pack_records
from repro.workloads.base import get_workload

SPECS = [
    "AT(AHRT(512,12SR),PT(2^12,A2),)",
    "AT(AHRT(512,10SR),PT(2^10,A2),)",
    "AT(AHRT(512,8SR),PT(2^8,A2),)",
    "AT(AHRT(512,6SR),PT(2^6,A2),)",
]


def _jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", 0)) or (os.cpu_count() or 1)


def test_parallel_sweep_speedup(bench_cache, bench_scale):
    """Serial vs process-pool wall clock on a fig7-style sweep."""
    benchmarks = ["eqntott", "espresso", "gcc", "li"]
    # warm the trace cache so both timings measure simulation, not trace
    # generation (matching a second `repro run` invocation)
    run_sweep(["BTFN"], benchmarks, bench_scale, bench_cache)

    start = time.perf_counter()
    serial = run_sweep(SPECS, benchmarks, bench_scale, bench_cache)
    serial_s = time.perf_counter() - start

    jobs = _jobs()
    start = time.perf_counter()
    parallel = run_sweep(SPECS, benchmarks, bench_scale, bench_cache, jobs=jobs)
    parallel_s = time.perf_counter() - start

    print(
        f"\nfig7-style sweep ({len(SPECS)} specs x {len(benchmarks)} benchmarks,"
        f" scale={bench_scale}):"
        f"\n  serial          {serial_s:8.2f} s"
        f"\n  jobs={jobs:<2d}         {parallel_s:8.2f} s"
        f"\n  speedup         {serial_s / parallel_s:8.2f}x"
    )

    for scheme in serial.schemes():
        assert serial.accuracies(scheme) == parallel.accuracies(scheme)
    if jobs > 1 and (os.cpu_count() or 1) > 1:
        assert parallel_s < serial_s, "process pool slower than serial"


def test_packed_vs_dataclass_simulate():
    """Columnar fast path vs the record-list loop on a 50k-conditional trace.

    Uses a real workload trace (eqntott) so the mix includes the
    non-conditional records the packed no-RAS loop gets to skip; best-of-5
    timings keep shared-machine noise out of the recorded number.
    """
    records = get_workload("eqntott").generate(max_conditional=50_000).records
    packed = pack_records(records)

    def predictor():
        return TwoLevelAdaptivePredictor(AHRT(512), PatternTable(12, A2))

    def best_of(run, repeats=5):
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            timings.append(time.perf_counter() - start)
        return min(timings), result

    records_s, baseline = best_of(lambda: simulate(predictor(), records))
    packed_s, fast = best_of(lambda: simulate(predictor(), packed))

    print(
        f"\nsimulate over eqntott, 50k conditional ({len(records)} records):"
        f"\n  record list     {records_s * 1e3:8.1f} ms"
        f"\n  packed columns  {packed_s * 1e3:8.1f} ms"
        f"\n  speedup         {records_s / packed_s:8.2f}x"
    )

    assert fast == baseline
    assert packed_s < records_s, "packed loop slower than the record loop"
