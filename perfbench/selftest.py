#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate, at toy scale.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it shows that an honest op passes the gate, and that a
wrong answer injected into the program (a bumped count inside the layer
that computes it), a wrong reference, or an op that raises each count
as a failed op.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, List

sys.path.insert(0, str(Path.cwd() / "src"))

from common import Measurement, cleanup, isolate, run_op  # noqa: E402
from layers import Capture, install  # noqa: E402
from tracing import Tracer  # noqa: E402

FAILURES: List[str] = []


def expect(label: str, workload: Any, state: Any, reference: Any, op: Callable, failed: int) -> None:
    measured = Measurement(setups=[(0.0, 0.0)], state=state, reference=reference)
    workload.prepare(state)
    run_op(measured, op, workload.check, 0, traced=False)
    verdict = "ok" if measured.failed == failed else "WRONG"
    print(f"{verdict}: {label}: {measured.failed} of {measured.attempted} failed")
    if measured.failed != failed:
        FAILURES.append(label)
        FAILURES.extend(measured.failures)


def raising(state: Any, index: int) -> Any:
    raise RuntimeError("injected")


def bumped(owner: Any, attribute: str, bump: Callable[[Any], Any]) -> Callable[[], None]:
    """Make ``owner.attribute`` return a wrong answer; returns the undo."""
    original = getattr(owner, attribute)

    def wrong(*args: Any, **kwargs: Any) -> Any:
        return bump(original(*args, **kwargs))

    setattr(owner, attribute, wrong)
    return lambda: setattr(owner, attribute, original)


def check_figures(run_dir: Path, capture: Capture) -> None:
    import figures
    import repro.sim.runner as runner

    figures.SCALE = 2_000
    workload = figures.Figures(1, run_dir, capture)
    workload.benchmarks = ["eqntott", "li"]
    state = workload.setup(0)
    reference = workload.reference(state)
    expect("figures honest op", workload, state, reference, workload.op, 0)

    def off_by_one(rows: List[Any]) -> List[Any]:
        rows[0].conditional_correct += 1
        return rows

    undo = bumped(runner, "fused_stats", off_by_one)
    try:
        expect("figures miscounted cell", workload, state, reference, workload.op, 1)
    finally:
        undo()
    rows, cells = reference
    key = sorted(cells)[0]
    correct, total = cells[key]
    wrong = (rows, {**cells, key: (correct, total + 1)})
    expect("figures wrong reference", workload, state, wrong, workload.op, 1)
    expect("figures op raises", workload, state, reference, raising, 1)
    workload.teardown(state)


def check_h2p(run_dir: Path, capture: Capture) -> None:
    import h2p
    import repro.sim.analysis as sim_analysis

    h2p.SCALE = 2_000
    workload = h2p.H2P(1, run_dir, capture)
    state = workload.setup(0)
    reference = workload.reference(state)
    expect("h2p honest op", workload, state, reference, workload.op, 0)

    def one_site_off(maps: Any) -> Any:
        if maps is not None:
            per_site = next(iter(maps.values()))
            pc = min(per_site)
            correct, total = per_site[pc]
            per_site[pc] = (correct - 1, total)
        return maps

    undo = bumped(sim_analysis, "per_site_accuracy_specs", one_site_off)
    try:
        expect("h2p miscounted site", workload, state, reference, workload.op, 1)
    finally:
        undo()
    expect("h2p op raises", workload, state, reference, raising, 1)
    workload.teardown(state)


def check_serve(run_dir: Path, capture: Capture, tracer: Tracer) -> None:
    import serve

    serve.SCALE = 2_000
    workload = serve.Serve(1, run_dir, capture, tracer)
    state = workload.setup(0)
    try:
        reference = workload.reference(state)
        expect("serve honest round", workload, state, reference, workload.op, 0)

        def misreported(state: Any, index: int) -> Any:
            outcomes = workload.op(state, index)
            outcomes[0].correct += 1
            return outcomes

        expect("serve miscounted session", workload, state, reference, misreported, 1)
        expect("serve round raises", workload, state, reference, raising, 1)
    finally:
        workload.teardown(state)


def main() -> int:
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    run_dir = isolate()
    tracer = Tracer()
    capture = Capture()
    try:
        install(tracer, capture)
        check_figures(run_dir, capture)
        check_h2p(run_dir, capture)
        check_serve(run_dir, capture, tracer)
    finally:
        tracer.unpatch()
        cleanup(run_dir)
    for line in FAILURES:
        print(line, file=sys.stderr)
    print("selftest", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
