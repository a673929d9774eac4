"""Fused sweep engine vs the per-cell path, wall clock.

The fused engine (:mod:`repro.sim.sweep`) scores a whole fig7-style spec
ladder in one pass over each benchmark's trace, sharing the per-pc
grouping, history windows and compose tables that a per-cell path
rebuilds for every (spec x benchmark) cell.  This bench times four ways
of producing the *identical* :class:`~repro.sim.results.SweepResult`:

* **per-cell, scalar** — :meth:`SweepRunner.run_one` on the scalar engine
  over every grid cell: the oracle the fused kernels are validated
  against, and the fixed reference the speedup gate divides by;
* **per-cell, vector** — ``run_one`` on the default backend, i.e. the fused
  engine run one spec at a time (recorded, not gated: it shares the fused
  kernels, so its ratio only measures what grouping specs saves);
* **fused, jobs=1** — the serial :meth:`SweepRunner.run`, one fused trace
  pass per benchmark;
* **fused, jobs=2** — the process-pool partitioning of
  :mod:`repro.sim.parallel`, one (benchmark x spec-group) task per worker.

All runners disable the sweep-result cache so the timings measure scoring,
not cache hits.  Scale follows ``REPRO_BENCH_SCALE`` (``paper`` selects
the paper's 20M conditional branches; repeats drop to 1 there), and
``REPRO_BENCH_RECORD=1`` appends a dated entry to ``BENCH_sweep.json`` at
the repo root, mirroring ``BENCH_serve.json``'s ``{"entries": [...]}``
shape — one entry per (scale, reference, grid) config, re-runs update in
place; each entry records ``nproc`` and the NumPy version.

Skips without NumPy: the per-cell and fused paths both fall back to the
scalar engine then, so there is no fusion speedup to measure.
"""

from __future__ import annotations

import datetime
import json
import os
import time
from pathlib import Path

import pytest

from repro.predictors.spec import parse_spec
from repro.sim.backend import has_numpy
from repro.sim.runner import SweepRunner
from repro.workloads.base import get_workload

DEFAULT_SCALE = 50_000

#: fused jobs=1 over scalar per-cell must beat this at DEFAULT_SCALE and up.
#: The BENCH_sweep.json entry of 2026-10-17 (nproc 2, NumPy 2.4.6) reads
#: 8.98x, and four runs that day read 8.0-16.2x; the floor is half the lowest.
SPEEDUP_FLOOR = 4.0

#: the fig7 AT history-length ladder — the grid shape every figure sweep
#: shares (same HRT geometry, varying history length / PT size)
SPECS = [
    "AT(AHRT(512,12SR),PT(2^12,A2),)",
    "AT(AHRT(512,10SR),PT(2^10,A2),)",
    "AT(AHRT(512,8SR),PT(2^8,A2),)",
    "AT(AHRT(512,6SR),PT(2^6,A2),)",
]

BENCHMARKS = ["eqntott", "gcc"]

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def _bench_scale() -> int:
    from repro.workloads.base import parse_scale

    return parse_scale(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


def _best_of(run, repeats):
    timings = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def _snapshot(sweep):
    """Order-stable (scheme, benchmark, accuracy) rows for equality checks."""
    return [
        (scheme, benchmark, accuracy)
        for scheme in sweep.schemes()
        for benchmark, accuracy in sorted(sweep.accuracies(scheme).items())
    ]


def _append_entry(entry: dict) -> None:
    """Append one dated entry, replacing any prior entry with the same config."""
    try:
        existing = json.loads(_RESULT_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        existing = {}
    entries = [
        row
        for row in existing.get("entries", [])
        if row.get("config") != entry["config"]
    ]
    entries.append(entry)
    _RESULT_PATH.write_text(json.dumps({"entries": entries}, indent=1) + "\n")
    print(f"  recorded -> {_RESULT_PATH}")


def test_fused_sweep_speedup(bench_cache):
    if not has_numpy():
        pytest.skip("NumPy not installed; fused kernels unavailable")
    scale = _bench_scale()
    repeats = 5 if scale <= 200_000 else 1
    parsed = [parse_spec(text) for text in SPECS]

    def runner(backend="auto"):
        return SweepRunner(
            BENCHMARKS, scale, bench_cache, backend=backend, result_cache=None
        )

    # warm the trace cache so every leg measures scoring, not trace generation
    for benchmark in BENCHMARKS:
        bench_cache.get(get_workload(benchmark), "test", scale)

    def per_cell(backend):
        r = runner(backend)
        cells = {
            (index, benchmark): r.run_one(spec, benchmark).stats
            for index, spec in enumerate(parsed)
            for benchmark in BENCHMARKS
        }
        return r.assemble(parsed, cells)

    cell_s, baseline = _best_of(lambda: per_cell("scalar"), repeats)
    vector_cell_s, vector_cells = _best_of(lambda: per_cell("auto"), repeats)
    fused_s, fused = _best_of(lambda: runner().run(parsed), repeats)
    jobs2_s, jobs2 = _best_of(lambda: runner().run(parsed, jobs=2), repeats)

    assert _snapshot(vector_cells) == _snapshot(baseline), "vector run_one diverged"
    assert _snapshot(fused) == _snapshot(baseline), "fused sweep diverged"
    assert _snapshot(jobs2) == _snapshot(baseline), "parallel sweep diverged"

    speedup = cell_s / fused_s
    print(
        f"\nfig7 ladder ({len(SPECS)} specs x {len(BENCHMARKS)} benchmarks,"
        f" scale={scale}, best of {repeats}):"
        f"\n  per-cell scalar {cell_s * 1e3:10.1f} ms"
        f"\n  per-cell vector {vector_cell_s * 1e3:10.1f} ms"
        f"\n  fused jobs=1    {fused_s * 1e3:10.1f} ms   {speedup:6.2f}x"
        f"   ({vector_cell_s / fused_s:.2f}x over vector run_one)"
        f"\n  fused jobs=2    {jobs2_s * 1e3:10.1f} ms"
        f"   {cell_s / jobs2_s:6.2f}x"
    )

    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        import numpy

        _append_entry(
            {
                "config": {
                    "backend": "auto",
                    "benchmarks": BENCHMARKS,
                    "reference": "scalar run_one",
                    "scale": scale,
                    "specs": [spec.canonical() for spec in parsed],
                },
                "date": datetime.date.today().isoformat(),
                "machine": {"nproc": len(os.sched_getaffinity(0)), "numpy": numpy.__version__},
                "timings": {
                    "best_of": repeats,
                    "per_cell_ms": round(cell_s * 1e3, 1),
                    "per_cell_vector_ms": round(vector_cell_s * 1e3, 1),
                    "fused_jobs1_ms": round(fused_s * 1e3, 1),
                    "fused_jobs2_ms": round(jobs2_s * 1e3, 1),
                    "speedup_jobs1": round(speedup, 2),
                    "speedup_jobs2": round(cell_s / jobs2_s, 2),
                    "speedup_over_vector_run_one": round(vector_cell_s / fused_s, 2),
                },
            }
        )

    # the recorded bar holds from 50k up; CI smoke scales only need fusion
    # to not lose
    floor = SPEEDUP_FLOOR if scale >= DEFAULT_SCALE else 1.0
    assert speedup > floor, f"fused sweep speedup {speedup:.2f}x under {floor}x"
