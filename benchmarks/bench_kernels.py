"""Vectorized kernels vs the scalar packed-trace engine, wall clock.

For each kernel family (two-level AT, per-address LS, global-history GAg,
stateless BTFN, the finite-HRT AHRT/HHRT replays, and the perceptron and
TAGE walks) the bench scores the
same spec over the same eqntott trace with both backends, asserts the stats
are identical, and prints best-of-5 timings.  A second test measures the
trace-store path end to end: building a trace into a cold store, loading it
back from a warm (memory-mapped) store, and simulating through the parallel
engine.  Scale follows ``REPRO_BENCH_SCALE`` like the figure benches (CI
smoke runs use a tiny value; ``paper`` selects the paper's 20M), and
setting ``REPRO_BENCH_RECORD=1`` merges the measured numbers into
``BENCH_kernels.json`` at the repo root.  Like ``BENCH_serve.json`` the
file is a dated trend log — ``{"entries": [{"date": ..., "kernels": ...,
"end_to_end": ...}, ...]}`` — so regressions are visible across recording
runs; a pre-trend single-payload file is auto-converted on read.  Each
test owns its own section of the day's entry, so recording one never
clobbers the other.

Skips entirely when NumPy is not installed (the kernels are an optional
fast path; the scalar engine remains the authority).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.predictors.spec import parse_spec
from repro.sim.backend import has_numpy
from repro.sim.engine import simulate
from repro.sim.kernels import score_spec
from repro.sim.runner import run_sweep
from repro.workloads.base import TraceCache, get_workload, parse_scale

DEFAULT_SCALE = 50_000

#: one spec per kernel shape (PT replay, per-address replay, global history,
#: stateless comparison, set-associative and hashed HRT front-ends, and the
#: two sequential walks).
FAMILIES = [
    ("two-level AT", "AT(IHRT(,12SR),PT(2^12,A2),)"),
    ("Lee-Smith LS", "LS(IHRT(,A2),,)"),
    ("global GAg", "GAg(12,A2)"),
    ("stateless BTFN", "BTFN"),
    ("AHRT two-level", "AT(AHRT(512,12SR),PT(2^12,A2),)"),
    ("HHRT two-level", "AT(HHRT(512,12SR),PT(2^12,A2),)"),
    ("perceptron", "perceptron(12,512)"),
    ("TAGE", "tage(4,9)"),
]

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _bench_scale() -> int:
    return parse_scale(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


def _best_of(run, repeats=5):
    timings = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def load_trend_entries(path: Path = _RESULT_PATH) -> list:
    """BENCH_kernels.json trend entries; none for a missing, corrupt or
    non-trend file."""
    try:
        existing = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    if isinstance(existing, dict) and isinstance(existing.get("entries"), list):
        return existing["entries"]
    return []


def _merge_record(section: str, payload: dict) -> None:
    """Merge one section into today's trend entry of BENCH_kernels.json."""
    import datetime

    entries = load_trend_entries()
    today = datetime.date.today().isoformat()
    if entries and entries[-1].get("date") == today:
        entry = entries[-1]
    else:
        entry = {"date": today}
        entries.append(entry)
    entry[section] = payload
    _RESULT_PATH.write_text(json.dumps({"entries": entries}, indent=2) + "\n")
    print(f"  recorded [{section}] @ {today} -> {_RESULT_PATH}")


def test_kernel_vs_scalar_speedup(bench_cache):
    if not has_numpy():
        pytest.skip("NumPy not installed; vector backend unavailable")
    scale = _bench_scale()
    trace = bench_cache.get(get_workload("eqntott"), "test", scale)
    packed = trace.packed()

    rows = []
    print(f"\nkernels vs scalar engine, eqntott at {scale} conditional"
          f" ({len(packed)} records), best of 5:")
    for label, spec_text in FAMILIES:
        spec = parse_spec(spec_text)
        scalar_s, baseline = _best_of(lambda: simulate(spec.build(), packed))
        kernel_s, fast = _best_of(lambda: score_spec(spec, packed, "vector"))
        assert fast == baseline, f"{spec_text} diverged from the scalar engine"
        speedup = scalar_s / kernel_s
        rows.append(
            {
                "family": label,
                "spec": spec.canonical(),
                "scalar_ms": round(scalar_s * 1e3, 2),
                "kernel_ms": round(kernel_s * 1e3, 2),
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"  {label:15s} scalar {scalar_s * 1e3:8.1f} ms"
            f"   kernel {kernel_s * 1e3:8.1f} ms   {speedup:6.2f}x"
        )

    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        _merge_record(
            "kernels",
            {
                "benchmark": "eqntott",
                "scale_conditional": scale,
                "trace_records": len(packed),
                "timing": "best of 5, seconds scaled to ms",
                "families": rows,
            },
        )

    # loose floor for CI smoke runs; the recorded 50k-scale numbers are the
    # ones that matter (ISSUE asks >=5x for at least one family there)
    assert max(row["speedup"] for row in rows) > 1.0


def test_store_end_to_end(tmp_path):
    """Trace build into a cold store, warm mmap reload, parallel simulate.

    The three phases the paper-scale recipe cares about: paying the ISA
    interpreter once (cold), proving warm loads are effectively free
    (mmap), and scoring a finite-HRT spec through the parallel engine on
    the stored trace.
    """
    if not has_numpy():
        pytest.skip("NumPy not installed; vector backend unavailable")
    scale = _bench_scale()
    workload = get_workload("eqntott")
    cache = TraceCache(disk_dir=tmp_path / "store")

    start = time.perf_counter()
    cache.ensure_on_disk(workload, "test", scale)
    cold_s = time.perf_counter() - start

    cache = TraceCache(disk_dir=tmp_path / "store")  # empty memory layer
    start = time.perf_counter()
    trace = cache.get(workload, "test", scale)
    warm_s = time.perf_counter() - start
    assert trace.mix.conditional == scale

    spec = "AT(AHRT(512,12SR),PT(2^12,A2),)"
    start = time.perf_counter()
    sweep = run_sweep([spec], ["eqntott"], scale, cache, jobs=2)
    simulate_s = time.perf_counter() - start
    accuracy = sweep.mean(sweep.schemes()[0])

    ratio = cold_s / warm_s if warm_s else float("inf")
    print(f"\nstore end-to-end, eqntott at {scale} conditional:")
    print(f"  cold build (generate + shard write)  {cold_s:8.3f} s")
    print(f"  warm load (mmap shard)               {warm_s:8.3f} s   {ratio:8.1f}x")
    print(f"  parallel simulate (jobs=2, {spec.split('(')[0]})"
          f"     {simulate_s:8.3f} s   acc={accuracy:.4f}")

    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        _merge_record(
            "end_to_end",
            {
                "benchmark": "eqntott",
                "scale_conditional": scale,
                "spec": spec,
                "cold_build_s": round(cold_s, 3),
                "warm_load_s": round(warm_s, 4),
                "warm_speedup": round(ratio, 1),
                "parallel_simulate_s": round(simulate_s, 3),
                "accuracy": round(accuracy, 4),
                "engine": "run_sweep jobs=2 over the mmap shard store",
            },
        )

    # the acceptance bar (>=10x) is asserted on the recorded paper-scale
    # run; CI smoke scales only need the warm load to win at all
    assert warm_s < cold_s
