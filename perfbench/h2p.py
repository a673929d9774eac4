"""h2p: the ``repro h2p`` engine — the fig11 report plus its site table.

Set-up builds the test traces cold into an empty store.  Each op loads
them into a fresh in-memory cache and runs what ``repro h2p`` runs: the
static analysis of every program (twice, once per table), fused per-site
scoring of AT, gshare, perceptron and TAGE, and the scalar parity pass
on the modern schemes.  The analysis layer, which figures never touches,
dominates.  gcc is left out: one analysis of it takes seconds even at
this scale, which would leave too few ops in a run to be steady.
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import Measurement, end_to_end, fresh_store, same_rows
from layers import Capture
from tracing import Tracer

BENCHMARKS = ("eqntott", "li")
SCALE = 10_000


class H2P:
    name = "h2p"
    scale = SCALE
    #: set-ups per run (``setup_s`` is their median); each is short
    setups = 7

    def __init__(self, seed: int, run_dir: Path, capture: Capture):
        self.benchmarks = list(BENCHMARKS)
        random.Random(seed).shuffle(self.benchmarks)
        self.run_dir = run_dir
        self.capture = capture

    def setup(self, index: int) -> Path:
        from repro.workloads.base import TraceCache, get_workload

        store = fresh_store(self.run_dir)
        cache = TraceCache(disk_dir=store)
        for name in self.benchmarks:
            cache.get(get_workload(name), "test", SCALE)
        return store

    def teardown(self, store: Path) -> None:
        shutil.rmtree(store, ignore_errors=True)

    def prepare(self, store: Path) -> None:
        self.capture.reset()

    def pid(self, store: Path) -> int:
        return os.getpid()

    def h2p(self, store: Path, backend: str = "auto") -> Tuple[Any, Any, List[Any]]:
        """What ``repro h2p`` computes: report rows, site rows, and the
        per-site maps they were derived from."""
        from repro.experiments import fig11_h2p
        from repro.workloads.base import TraceCache

        cache = TraceCache(disk_dir=store)
        report = fig11_h2p.run(SCALE, self.benchmarks, cache, backend=backend)
        sites = fig11_h2p.site_table(SCALE, self.benchmarks, cache, backend=backend)
        # the analysis layer scores its own scheme set; keep fig11's maps
        maps = [
            found for found in self.capture.site_maps
            if set(found) == set(fig11_h2p.SPECS)
        ]
        return report.rows, sites, maps

    def op(self, store: Path, index: int) -> Tuple[Any, Any, List[Any]]:
        return self.h2p(store)

    def reference(self, store: Path) -> Tuple[Any, Any, List[Any]]:
        """The same tables from per-site maps the scalar engine replayed."""
        self.prepare(store)
        return self.h2p(store, backend="scalar")

    def check(self, store: Path, reference: Any, produced: Any) -> List[str]:
        problems = []
        for label, got, want in zip(("report rows", "site rows"), produced, reference):
            if not same_rows(got, want):
                problems.append(f"{label} differ from the scalar engine's")
        got_maps, want_maps = produced[2], reference[2]
        if len(got_maps) != len(want_maps):
            problems.append(f"{len(got_maps)} per-site passes, scalar made {len(want_maps)}")
        for index, (got, want) in enumerate(zip(got_maps, want_maps)):
            name = self.benchmarks[index % len(self.benchmarks)]
            for spec in sorted(want):
                if got.get(spec) != want[spec]:
                    problems.append(f"{name}/{spec}: per-site map differs from scalar")
        return problems

    def counts(self, store: Path) -> Dict[str, int]:
        from repro.workloads.base import TraceCache, get_workload

        cache = TraceCache(disk_dir=store)
        counts = {}
        for name in self.benchmarks:
            packed = cache.get(get_workload(name), "test", SCALE).packed()
            counts[name] = packed.num_conditional
            counts[name + ":records"] = len(packed)
        return counts

    def metrics(self, result: Measurement, counts: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
        from repro.experiments import fig11_h2p

        # every scheme is reported over every branch twice per op: once in
        # the report and once in the site table
        passes = 2 * len(fig11_h2p.SPECS)
        branches = passes * sum(counts[name] for name in self.benchmarks)
        records = passes * sum(counts[name + ":records"] for name in self.benchmarks)
        return end_to_end(
            result,
            branches=lambda op: branches,
            records=lambda op: records,
            frames=lambda op: [op.seconds],
        )

    def frame_count(self, result: Measurement) -> int:
        return len(result.good())

    def traced_legs(self, result: Measurement, tracer: Tracer) -> Dict[str, float]:
        return {}
