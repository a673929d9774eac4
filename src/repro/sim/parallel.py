"""Parallel sweep execution over a process pool.

The experiment grid behind every figure used to fan out as independent
(spec x benchmark) cells; with the fused engine (:mod:`repro.sim.sweep`)
the natural unit of work is a **benchmark's whole spec group** — one
worker makes one pass over the trace and scores every fused spec against
shared intermediates.  :func:`run_parallel_sweep` therefore partitions
the grid as (benchmark -> spec-group):

* The coordinating process first *warms* a shared on-disk
  :class:`~repro.workloads.base.TraceCache` — every benchmark's ISA trace is
  generated exactly once per machine and written as a content-addressed
  shard (:mod:`repro.trace.store`), so workers only ever pay a warm,
  memory-mapped load whose pages the OS shares between them.  A memory-only
  cache is transparently given a temporary disk directory for the duration
  of the sweep.
* Each task is a picklable ``(benchmark, spec strings, cap, backend,
  cache results?)`` tuple.  On the vector backend one task carries a
  benchmark's whole spec list (scored by
  :meth:`~repro.sim.runner.SweepRunner.score_benchmark` in a single fused
  trace pass); on the scalar backend each spec is its own task, so the
  slow scalar cells spread across workers.  The backend is resolved
  (``auto`` -> ``scalar`` or ``vector``) once in the coordinating process
  so every worker scores with the same engine, and the coordinator's
  result-cache choice rides along so workers share the persisted rows.
* Results merge into the :class:`~repro.sim.results.SweepResult` in the
  deterministic (spec-order, then benchmark-order) sequence of the serial
  runner, regardless of task completion order, so serial and parallel sweeps
  are byte-identical.
* ``jobs <= 1``, pool start-up failure, or task pickling failure all fall
  back to the serial :meth:`~repro.sim.runner.SweepRunner.run` path with
  identical output.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.predictors.spec import PredictorSpec, parse_spec
from repro.sim.backend import resolve_backend
from repro.sim.results import PredictionStats, SweepResult
from repro.sim.sweep import training_role
from repro.workloads.base import TraceCache, get_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.runner import SweepRunner

#: (benchmark, spec strings scored together, conditional-branch cap,
#:  resolved backend, consult/fill the shared result cache?)
Task = Tuple[str, Tuple[str, ...], int, str, bool]
#: picklable flat result per spec: the two PredictionStats counters, or
#: ``None`` for a cell skipped as unavailable (ST-Diff without training data)
StatsTuple = Tuple[int, int]
GroupResult = Tuple[Optional[StatsTuple], ...]

_WORKER_CACHE: Optional[TraceCache] = None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means one worker per CPU."""
    if not jobs:
        return os.cpu_count() or 1
    return max(1, jobs)


def _init_worker(cache_dir: str) -> None:
    """Process-pool initializer: point this worker at the shared disk cache."""
    global _WORKER_CACHE
    _WORKER_CACHE = TraceCache(disk_dir=cache_dir)


def _run_task(task: Task) -> GroupResult:
    """Score one benchmark's spec group inside a worker process.

    The worker's :class:`TraceCache` opens the coordinator-warmed shards
    straight from the shared store directory (memory-mapped, zero-copy), and
    ``score_benchmark`` replays the trace once for the whole group.
    """
    from repro.sim.runner import AUTO_RESULT_CACHE, SweepRunner

    benchmark, spec_texts, cap, backend, cache_results = task
    assert _WORKER_CACHE is not None, "worker initializer did not run"
    runner = SweepRunner(
        benchmarks=[benchmark], max_conditional=cap, cache=_WORKER_CACHE,
        backend=backend,
        result_cache=AUTO_RESULT_CACHE if cache_results else None,
    )
    rows = runner.score_benchmark(list(spec_texts), benchmark, skip_unavailable=True)
    if _WORKER_CACHE.store is not None:  # a pool worker exits without finalizers
        _WORKER_CACHE.store.flush()
    return tuple(
        None if stats is None else (stats.conditional_total, stats.conditional_correct)
        for stats in rows
    )


def _check_available(
    specs: Sequence[PredictorSpec],
    benchmarks: Sequence[str],
    skip_unavailable: bool,
) -> None:
    """Raise the serial sweep's ST-Diff :class:`WorkloadError` up front.

    Workers always score with ``skip_unavailable=True`` (a ``None`` row per
    missing cell), so when the caller asked for hard failures the coordinator
    must perform the check itself, before any worker starts, to fail
    identically to the serial path.
    """
    if skip_unavailable:
        return
    for spec in specs:
        if training_role(spec) != "train":
            continue
        for benchmark in benchmarks:
            if not get_workload(benchmark).has_training_set:
                raise WorkloadError(
                    f"benchmark {benchmark!r} has no alternative training data set"
                    " (Table 3 marks it NA)"
                )


def _plan_groups(
    specs: Sequence[PredictorSpec], backend: str
) -> List[Tuple[int, ...]]:
    """Spec-index groups in deterministic order: on the vector backend the
    whole list (one fused trace pass per benchmark), on the scalar backend
    each spec alone."""
    if backend == "vector":
        return [tuple(range(len(specs)))] if specs else []
    return [(index,) for index in range(len(specs))]


def _warm_disk_cache(
    cache: TraceCache,
    specs: Sequence[PredictorSpec],
    benchmarks: Sequence[str],
    cap: int,
) -> None:
    """Generate every trace the sweep needs, once, into the disk layer."""
    needs_training = any(training_role(spec) == "train" for spec in specs)
    for benchmark in benchmarks:
        workload = get_workload(benchmark)
        cache.ensure_on_disk(workload, "test", cap)
        if needs_training and workload.has_training_set:
            cache.ensure_on_disk(workload, "train", cap)


def run_parallel_sweep(
    runner: "SweepRunner",
    specs: Sequence[object],
    jobs: Optional[int] = None,
    skip_unavailable: bool = True,
) -> SweepResult:
    """Run ``runner``'s sweep grid across ``jobs`` worker processes.

    Returns a :class:`SweepResult` identical to
    ``runner.run(specs, skip_unavailable)``.  Falls back to that serial path
    outright for ``jobs == 1`` and on any pool/pickling failure.
    """
    parsed = [
        spec if isinstance(spec, PredictorSpec) else parse_spec(str(spec))
        for spec in specs
    ]
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or not parsed:
        return runner.run(parsed, skip_unavailable)

    _check_available(parsed, runner.benchmarks, skip_unavailable)
    cap = runner.max_conditional
    backend = resolve_backend(runner.backend)
    groups = _plan_groups(parsed, backend)

    temp_dir: Optional[str] = None
    if runner.cache.disk_dir is not None:
        disk_cache = runner.cache
    else:
        temp_dir = tempfile.mkdtemp(prefix="repro-sweep-")
        disk_cache = runner.cache.with_disk(temp_dir)
    try:
        _warm_disk_cache(disk_cache, parsed, runner.benchmarks, cap)
        # a temp-dir spill has no durable store, so persisting rows keyed to
        # it would never be read back — skip the result cache in that case
        cache_results = runner.result_cache is not None and temp_dir is None
        cells: List[Tuple[str, Tuple[int, ...]]] = [
            (benchmark, group)
            for benchmark in runner.benchmarks
            for group in groups
        ]
        tasks: List[Task] = [
            (
                benchmark,
                tuple(parsed[index].canonical() for index in group),
                cap,
                backend,
                cache_results,
            )
            for benchmark, group in cells
        ]
        try:
            outcomes = _dispatch(tasks, jobs, str(disk_cache.disk_dir))
        except Exception:
            # pool start-up or pickling failure (restricted platforms, exotic
            # specs): the serial path always works and gives identical output
            return runner.run(parsed, skip_unavailable)
        return _merge(parsed, cells, outcomes, runner)
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)


def _dispatch(tasks: Sequence[Task], jobs: int, cache_dir: str) -> List[GroupResult]:
    """Run all tasks on the pool, preserving task order in the result list."""
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        initializer=_init_worker,
        initargs=(cache_dir,),
    ) as pool:
        return list(pool.map(_run_task, tasks, chunksize=1))


def _merge(
    specs: Sequence[PredictorSpec],
    cells: Sequence[Tuple[str, Tuple[int, ...]]],
    outcomes: Sequence[GroupResult],
    runner: "SweepRunner",
) -> SweepResult:
    """Assemble the SweepResult in the serial runner's deterministic order."""
    scored: Dict[Tuple[int, str], PredictionStats] = {}
    for (benchmark, group), rows in zip(cells, outcomes):
        for index, flat in zip(group, rows):
            if flat is None:
                continue
            scored[(index, benchmark)] = PredictionStats(*flat)
    return runner.assemble(specs, scored)
