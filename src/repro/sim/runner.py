"""Sweep orchestration: many predictor configurations x many benchmarks.

This is the experiment driver behind every figure: it generates (and caches)
each benchmark's trace once, builds each predictor configuration fresh per
benchmark, handles Static Training's two-pass protocol (profile the training
trace, test on the testing trace — Same or Diff data sets per Table 3), and
collects everything into a :class:`~repro.sim.results.SweepResult`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import WorkloadError
from repro.predictors.spec import PredictorSpec, parse_spec
from repro.sim.backend import resolve_backend
from repro.sim.kernels import score_spec
from repro.sim.result_cache import ResultCache
from repro.sim.results import BenchmarkResult, PredictionStats, SweepResult
from repro.sim.sweep import TraceContext, fused_stats, training_role
from repro.workloads.base import (
    DEFAULT_CONDITIONAL_BRANCHES,
    TraceCache,
    Workload,
    WorkloadTrace,
    default_cache,
    get_workload,
    workload_names,
)

SpecLike = Union[str, PredictorSpec]

#: sentinel for ``SweepRunner(result_cache=...)``: derive the sweep-result
#: cache from the trace cache's store directory (disabled when memory-only)
AUTO_RESULT_CACHE = "auto"


def _as_spec(spec: SpecLike) -> PredictorSpec:
    return spec if isinstance(spec, PredictorSpec) else parse_spec(spec)


class SweepRunner:
    """Runs predictor configurations over the benchmark suite.

    Args:
        benchmarks: workload names (defaults to all nine).
        max_conditional: per-benchmark conditional-branch cap (the paper's
            twenty-million equivalent; scaled for Python).
        cache: trace cache to use (defaults to the shared process cache).
        backend: simulation backend — ``auto`` (vector kernels when NumPy
            is available, scalar otherwise), ``scalar``, or ``vector``; see
            :mod:`repro.sim.backend`.  Results are identical either way.
        result_cache: where finished stats rows persist
            (:mod:`repro.sim.result_cache`).  The default
            :data:`AUTO_RESULT_CACHE` puts them in ``results/`` next to the
            trace cache's shard store (and disables caching for a
            memory-only trace cache); pass ``None`` to disable, or a
            :class:`~repro.sim.result_cache.ResultCache` to choose the
            location.
    """

    def __init__(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        max_conditional: int = DEFAULT_CONDITIONAL_BRANCHES,
        cache: Optional[TraceCache] = None,
        backend: str = "auto",
        result_cache: "Optional[ResultCache | str]" = AUTO_RESULT_CACHE,
    ):
        self.benchmarks = list(benchmarks) if benchmarks is not None else workload_names()
        self.max_conditional = max_conditional
        self.cache = cache if cache is not None else default_cache()
        self.backend = backend
        if result_cache == AUTO_RESULT_CACHE:
            store = self.cache.store
            self.result_cache: Optional[ResultCache] = (
                ResultCache(store.root / "results") if store is not None else None
            )
        else:
            assert result_cache is None or isinstance(result_cache, ResultCache)
            self.result_cache = result_cache

    # ------------------------------------------------------------------
    def _workload(self, name: str) -> Workload:
        return get_workload(name)

    def _role_trace(self, benchmark: str, role: str) -> WorkloadTrace:
        """The benchmark's cached ``"test"`` or ``"train"`` trace — the
        roles :func:`~repro.sim.sweep.training_role` reports — in its
        :class:`WorkloadTrace` form, so both backends share one cache
        entry."""
        workload = self._workload(benchmark)
        if role == "train" and not workload.has_training_set:
            raise WorkloadError(
                f"benchmark {benchmark!r} has no alternative training data set"
                " (Table 3 marks it NA)"
            )
        return self.cache.get(workload, role, self.max_conditional)

    # ------------------------------------------------------------------
    def run_one(self, spec: SpecLike, benchmark: str) -> BenchmarkResult:
        """Simulate one configuration on one benchmark."""
        parsed = _as_spec(spec)
        trace = self._role_trace(benchmark, "test")
        role = training_role(parsed)
        training = None if role is None else self._role_trace(benchmark, role).packed()
        # the vector kernels when NumPy is there, else the scalar engine over
        # the packed columns; either way the stats are bit-identical.  The
        # scalar path profiles the packed training trace, which iterates
        # lazily, so no training BranchRecord list is ever materialised
        stats = score_spec(
            parsed, trace.packed(), backend=self.backend, training=training
        )
        return BenchmarkResult(
            scheme=parsed.canonical(), benchmark=benchmark, stats=stats
        )

    # ------------------------------------------------------------------
    def _cell_stems(
        self, spec: PredictorSpec, workload: Workload
    ) -> Tuple[str, Optional[str]]:
        """The (test stem, training stem) naming one cell's trace inputs in
        the result-cache key."""
        test_stem = self.cache.stem_for(workload, "test", self.max_conditional)
        role = training_role(spec)
        if role is None:
            return test_stem, None
        return test_stem, self.cache.stem_for(workload, role, self.max_conditional)

    def score_benchmark(
        self,
        specs: Sequence[SpecLike],
        benchmark: str,
        skip_unavailable: bool = True,
    ) -> List[Optional[PredictionStats]]:
        """Score every spec against one benchmark, sharing the trace pass.

        This is the fused engine's entry point (also used by the parallel
        workers): on the vector backend the specs score through one
        :func:`repro.sim.sweep.fused_stats` call over shared trace
        intermediates, on the scalar backend through the per-spec path, and
        the result cache is consulted per cell either way.  Returns one
        stats row per spec, aligned with ``specs``; ``None`` marks an
        unavailable cell (ST-Diff on a benchmark without a Table 3
        training set) under ``skip_unavailable``.
        """
        parsed = [_as_spec(spec) for spec in specs]
        workload = self._workload(benchmark)
        results: List[Optional[PredictionStats]] = [None] * len(parsed)

        available: List[int] = []
        for index, spec in enumerate(parsed):
            if training_role(spec) == "train" and not workload.has_training_set:
                if skip_unavailable:
                    continue
                raise WorkloadError(
                    f"benchmark {benchmark!r} has no alternative training data set"
                    " (Table 3 marks it NA)"
                )
            available.append(index)

        backend = resolve_backend(self.backend)
        pending: List[int] = []
        for index in available:
            spec = parsed[index]
            if self.result_cache is not None:
                test_stem, train_stem = self._cell_stems(spec, workload)
                hit = self.result_cache.get(
                    spec.canonical(), test_stem, train_stem, backend
                )
                if hit is not None:
                    results[index] = hit
                    continue
            pending.append(index)

        if backend != "vector":
            for index in pending:
                results[index] = self.run_one(parsed[index], benchmark).stats
        elif pending:
            pending_specs = [parsed[index] for index in pending]
            trace = self.cache.get(workload, "test", self.max_conditional)
            trainings: Dict[str, TraceContext] = {}
            context = TraceContext(trace.packed())
            roles = {training_role(spec) for spec in pending_specs}
            if "test" in roles:
                trainings["test"] = context
            if "train" in roles:
                training = self._role_trace(benchmark, "train")
                trainings["train"] = TraceContext(training.packed())
            fused_rows = fused_stats(
                pending_specs, trace.packed(), context=context,
                training_contexts=trainings,
            )
            for index, stats in zip(pending, fused_rows):
                results[index] = stats
        if self.result_cache is not None:
            for index in pending:
                stats = results[index]
                if stats is None:
                    continue
                spec = parsed[index]
                test_stem, train_stem = self._cell_stems(spec, workload)
                self.result_cache.put(
                    spec.canonical(), test_stem, train_stem, backend, stats
                )
        return results

    def run(
        self,
        specs: Iterable[SpecLike],
        skip_unavailable: bool = True,
        jobs: int = 1,
    ) -> SweepResult:
        """Run every configuration over every benchmark.

        ``skip_unavailable`` silently skips (scheme, benchmark) cells that
        cannot exist — ST-Diff on the four benchmarks without a training set
        (the paper's Figure 8 leaves those columns blank too).

        The serial sweep walks the grid benchmark-major so each
        benchmark's trace intermediates are shared across the whole spec
        list by the fused engine (:meth:`score_benchmark`); the final
        :class:`SweepResult` is assembled in the historical (spec-order,
        then benchmark-order) sequence, so sweeps are byte-identical to
        the per-cell path.

        ``jobs`` > 1 fans (benchmark x spec-group) tasks out over that
        many worker processes (``0`` means one per CPU) via
        :func:`repro.sim.parallel.run_parallel_sweep`; the merged result
        is identical to the serial sweep.
        """
        parsed = [_as_spec(spec) for spec in specs]
        if jobs != 1:
            from repro.sim.parallel import run_parallel_sweep

            return run_parallel_sweep(self, parsed, jobs, skip_unavailable)
        cells: Dict[Tuple[int, str], PredictionStats] = {}
        for benchmark in self.benchmarks:
            for index, stats in enumerate(
                self.score_benchmark(parsed, benchmark, skip_unavailable)
            ):
                if stats is not None:
                    cells[(index, benchmark)] = stats
        return self.assemble(parsed, cells)

    def assemble(
        self,
        parsed: Sequence[PredictorSpec],
        cells: Mapping[Tuple[int, str], PredictionStats],
    ) -> SweepResult:
        """Collect scored cells into a :class:`SweepResult` in the
        deterministic (spec-order, then benchmark-order) sequence the
        per-cell sweep produced, regardless of scoring order."""
        sweep = SweepResult()
        for index, spec in enumerate(parsed):
            for benchmark in self.benchmarks:
                stats = cells.get((index, benchmark))
                if stats is None:
                    continue
                result = BenchmarkResult(
                    scheme=spec.canonical(), benchmark=benchmark, stats=stats
                )
                sweep.add(result, category=self._workload(benchmark).category)
        return sweep


def run_sweep(
    specs: Iterable[SpecLike],
    benchmarks: Optional[Sequence[str]] = None,
    max_conditional: int = DEFAULT_CONDITIONAL_BRANCHES,
    cache: Optional[TraceCache] = None,
    jobs: int = 1,
    backend: str = "auto",
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`.

    ``jobs`` > 1 (or ``0`` for one worker per CPU) runs the sweep on a
    process pool; see :meth:`SweepRunner.run`.  ``backend`` selects the
    simulation backend (``auto`` / ``scalar`` / ``vector``).
    """
    runner = SweepRunner(benchmarks, max_conditional, cache, backend=backend)
    return runner.run(specs, jobs=jobs)
