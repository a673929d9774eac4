#!/usr/bin/env python3
"""The repository benchmark: one workload per run, measured from outside.

Run from the repository root::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``figures`` — ``repro run`` over the figure 5-10 grids;
* ``h2p``     — ``repro h2p``: static analysis plus per-site scoring;
* ``serve``   — ``repro serve`` (one-worker pool) under a closed-loop loadgen.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops, prints the per-layer metrics (per set-up and per
op), the tracing overhead, and writes every span to
``perfbench/out/<workload>-seed<N>-spans.json``.  Every run builds its
traces cold into a fresh store under ``perfbench/work/`` and removes it
at the end.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "h2p", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))

    from common import (
        OUT_DIR,
        cleanup,
        emit,
        environment,
        host_summary,
        isolate,
        measure,
        tracing_overhead,
    )
    from layers import Capture, install, per_layer
    from tracing import Tracer

    run_dir = isolate()
    tracer = Tracer()
    capture = Capture()
    try:
        install(tracer, capture)
        workload = _workload(args.workload, args.seed, run_dir, capture, tracer)
        result = measure(
            tracer,
            args.seconds,
            setup=workload.setup,
            teardown=workload.teardown,
            reference=workload.reference,
            op=workload.op,
            check=workload.check,
            traced=bool(args.trace),
            prepare=workload.prepare,
            pid=workload.pid,
            setups=workload.setups,
        )
        try:
            counts = workload.counts(result.state)
            legs = workload.traced_legs(result, tracer) if args.trace else {}
        finally:
            workload.teardown(result.state)
        info = environment(args.seed, workload.scale, counts)
        info["workload"] = args.workload
        info["host"] = host_summary(result)
        info["ops"] = len(result.good()) + len(result.good(traced=True))
        info["frames"] = workload.frame_count(result)
        if args.trace:
            values = per_layer(tracer)
            values.update(legs)
            values["tracing.overhead_pct"] = tracing_overhead(result)
            metrics = {
                entry["name"]: (float(values.get(entry["name"], 0.0)), entry["unit"])
                for entry in config["per_layer"]
            }
            tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json", info)
        else:
            measured = workload.metrics(result, counts)
            metrics = {entry["name"]: measured[entry["name"]] for entry in config["end_to_end"]}
        emit(metrics, result.attempted, result.failed, info, result.failures)
    finally:
        tracer.unpatch()
        cleanup(run_dir)
    return 0


def _workload(name, seed, run_dir, capture, tracer):
    if name == "figures":
        from figures import Figures

        return Figures(seed, run_dir, capture)
    if name == "h2p":
        from h2p import H2P

        return H2P(seed, run_dir, capture)
    from serve import Serve

    return Serve(seed, run_dir, capture, tracer)


if __name__ == "__main__":
    sys.exit(main())
