"""figures: the ``repro run`` engine over the paper's figure grids.

Set-up builds every test and train trace of the nine benchmarks cold into
an empty store (the ISA interpreter's work).  Each op then loads the
traces from that store into a fresh in-memory cache and scores figures 5
to 10 into an empty result cache with ``jobs=1``, the CLI default — the
sweep and kernel layers do nearly all of an op's work.
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import Measurement, end_to_end, fresh_store, median_or_zero, run_op, same_rows
from layers import Capture
from tracing import Tracer

FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10")
SCALE = 20_000
#: op indices of the traced ``jobs=1`` and ``jobs=nproc`` legs (timed ops
#: count from 0)
SERIAL_LEG = -2
PARALLEL_LEG = -3
#: adjacent (jobs=1, jobs=nproc) pairs that parallel.speedup is taken from
PAIRS = 4


class Figures:
    name = "figures"
    scale = SCALE
    #: set-ups per run (``setup_s`` is their median); each takes seconds
    setups = 3

    def __init__(self, seed: int, run_dir: Path, capture: Capture):
        from repro.workloads.base import workload_names

        # Figures keep the CLI's order: each scores only the cells earlier
        # figures left out of the result cache, so reordering them would
        # change how much work an op fuses, not just its inputs' order.
        self.benchmarks = workload_names()
        random.Random(seed).shuffle(self.benchmarks)
        self.figures = list(FIGURES)
        self.run_dir = run_dir
        self.capture = capture

    # -- the run loop's callables ----------------------------------------
    def setup(self, index: int) -> Path:
        from repro.workloads.base import TraceCache, get_workload

        store = fresh_store(self.run_dir)
        cache = TraceCache(disk_dir=store)
        for name in self.benchmarks:
            workload = get_workload(name)
            for role in sorted(workload.datasets):
                cache.get(workload, role, SCALE)
        return store

    def teardown(self, store: Path) -> None:
        shutil.rmtree(store, ignore_errors=True)

    def pid(self, store: Path) -> int:
        return os.getpid()

    def prepare(self, store: Path) -> None:
        from repro.sim.result_cache import ResultCache

        ResultCache(store / "results").clear()
        self.capture.reset()

    def grid(self, store: Path, backend: str = "auto", jobs: int = 1) -> Dict[str, Any]:
        """What ``repro run figN`` computes, for every figure."""
        from repro.experiments.registry import get_experiment
        from repro.workloads.base import TraceCache

        cache = TraceCache(disk_dir=store)
        return {
            figure: get_experiment(figure)
            .run(
                max_conditional=SCALE,
                benchmarks=self.benchmarks,
                cache=cache,
                jobs=jobs,
                backend=backend,
            )
            .rows
            for figure in self.figures
        }

    def op(self, store: Path, index: int) -> Tuple[Any, ...]:
        """The grid's rows, its cells, and the seconds of each benchmark
        row of each figure (the op's frames)."""
        rows = self.grid(store)
        return rows, dict(self.capture.cells), list(self.capture.rows_seconds)

    def reference(self, store: Path) -> Tuple[Dict[str, Any], Dict[Tuple[str, str], Tuple[int, int]]]:
        """Every cell and row scored by the scalar engine (the oracle)."""
        self.prepare(store)
        rows = self.grid(store, backend="scalar")
        return rows, dict(self.capture.cells)

    def check(self, store: Path, reference: Any, produced: Any) -> List[str]:
        want_rows, want_cells = reference
        rows, cells = produced[:2]
        problems = [
            f"{spec} on {bench}: {cells.get((spec, bench))} != scalar {want}"
            for (spec, bench), want in sorted(want_cells.items())
            if cells.get((spec, bench)) != want
        ]
        problems += [f"unexpected cell {key}" for key in sorted(set(cells) - set(want_cells))]
        problems += [
            f"{figure} rows differ from the scalar engine's"
            for figure in self.figures
            if not same_rows(rows.get(figure), want_rows[figure])
        ]
        return problems

    # -- metrics -----------------------------------------------------------
    def counts(self, store: Path) -> Dict[str, int]:
        from repro.workloads.base import TraceCache, get_workload

        cache = TraceCache(disk_dir=store)
        counts = {}
        for name in self.benchmarks:
            workload = get_workload(name)
            for role in sorted(workload.datasets):
                packed = cache.get(workload, role, SCALE).packed()
                label = name if role == "test" else f"{name}:{role}"
                counts[label] = packed.num_conditional
                counts[label + ":records"] = len(packed)
        return counts

    def metrics(self, result: Measurement, counts: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
        _rows, cells = result.reference
        branches = sum(total for _correct, total in cells.values())
        records = sum(counts[bench + ":records"] for _spec, bench in cells)

        return end_to_end(
            result,
            branches=lambda op: branches,
            records=lambda op: records,
            frames=lambda op: op.produced[2],
        )

    def frame_count(self, result: Measurement) -> int:
        return sum(len(op.produced[2]) for op in result.good())

    def traced_legs(self, result: Measurement, tracer: Tracer) -> Dict[str, float]:
        """The grid in adjacent pairs of a ``jobs=1`` and a ``jobs=nproc`` leg.

        Both legs of a pair are traced and run within seconds of each other,
        so host speed, which drifts between minutes, cancels in their ratio;
        the order inside a pair alternates.  Every leg's rows must equal the
        scalar reference.  ``parallel.speedup`` is the median over pairs of
        ``jobs=1`` seconds over ``jobs=nproc`` seconds."""
        jobs = os.cpu_count() or 1

        def check(store: Path, reference: Any, rows: Dict[str, Any]) -> List[str]:
            want_rows, _cells = reference
            return [
                f"{figure} rows differ from the scalar engine's"
                for figure in self.figures
                if not same_rows(rows.get(figure), want_rows[figure])
            ]

        legs = [("serial", SERIAL_LEG, 1), ("parallel", PARALLEL_LEG, jobs)]
        ratios = []
        for pair in range(PAIRS):
            seconds = {}
            for phase, leg, leg_jobs in legs if pair % 2 == 0 else legs[::-1]:
                self.prepare(result.state)
                tracer.begin(f"{phase}-{pair}", enabled=True)
                run_op(
                    result,
                    lambda store, index: self.grid(store, jobs=leg_jobs),
                    check,
                    leg,
                    traced=True,
                )
                tracer.end()
                if result.ops[-1].ok:
                    seconds[phase] = result.ops[-1].seconds
            if len(seconds) == 2:
                ratios.append(seconds["serial"] / seconds["parallel"])
        return {
            "parallel.sweep_s": tracer.per_unit(phases=("parallel",)).get("parallel.sweep_s", 0.0),
            "parallel.jobs": float(jobs),
            "parallel.speedup": median_or_zero(ratios),
        }
