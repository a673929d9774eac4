"""The layer entry points the benchmark wraps, and what it observes there.

Span names are ``<layer>.<entry>`` (``<layer>.<entry>.<family>`` for work
that is split by predictor family); the per-layer metric of a span is its
name with ``_s`` after the entry, e.g. ``kernels.score_spec_s.tage``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

from tracing import Tracer


class Capture:
    """What the ops produced, recorded whether or not tracing is on."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: (canonical spec, benchmark) -> (correct, total), from every
        #: SweepRunner.score_benchmark row of the op
        self.cells: Dict[Tuple[str, str], Tuple[int, int]] = {}
        #: per-site maps returned by repro.sim.analysis, in call order
        self.site_maps: List[Dict[str, Dict[int, Tuple[int, int]]]] = []
        #: host seconds of each score_benchmark call: one benchmark's row
        #: of one figure
        self.rows_seconds: List[float] = []


def family(spec: Any) -> str:
    return str(spec.scheme).lower()


def install(tracer: Tracer, capture: Capture) -> None:
    """Wrap every layer entry point named in BENCHMARK.json's per_layer."""
    import repro.analysis
    import repro.analysis.predictability as predictability
    import repro.experiments.fig11_h2p as fig11
    import repro.serve.loadgen as loadgen
    import repro.sim.analysis as sim_analysis
    import repro.sim.kernels as kernels
    import repro.sim.parallel as parallel
    import repro.sim.runner as runner
    import repro.workloads.base as base
    from repro.isa.cpu import CPU
    from repro.sim.result_cache import ResultCache
    from repro.sim.streaming import VectorMultiSessionScorer
    from repro.trace.columnar import PackedTrace
    from repro.trace.store import TraceStore

    # -- isa ---------------------------------------------------------------
    tracer.patch(base, "assemble", "isa.assemble")
    tracer.patch(fig11, "assemble", "isa.assemble")

    def instructions(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        tracer.count("isa.instructions", result.instructions_executed)

    tracer.patch(CPU, "run", "isa.run", instructions)

    # -- trace -------------------------------------------------------------
    tracer.patch(base, "pack_records", "trace.pack")

    def stored(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        store, stem = args[0], args[1]
        if tracer.enabled:
            tracer.count("trace.store_bytes", store.path_for(stem).stat().st_size)

    tracer.patch(TraceStore, "store", "trace.store_write", stored)
    tracer.patch(TraceStore, "load", "trace.store_load")
    tracer.patch(PackedTrace, "to_records", "trace.to_records")

    # -- workloads (the two-level trace cache) -----------------------------
    def lookup(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        tracer.count("workloads.trace_lookups")

    def generated(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        tracer.count("workloads.trace_misses")

    tracer.patch(base.TraceCache, "get", "workloads.get", lookup)
    tracer.patch(base.Workload, "generate", "workloads.generate", generated)

    # -- sweep -------------------------------------------------------------
    def cells(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        _runner, specs, benchmark = args[0], args[1], args[2]
        capture.rows_seconds.append(seconds)
        for spec, stats in zip(specs, result):
            if stats is not None:
                text = spec if isinstance(spec, str) else spec.canonical()
                capture.cells[(text, benchmark)] = (
                    stats.conditional_correct,
                    stats.conditional_total,
                )

    tracer.patch(runner.SweepRunner, "score_benchmark", "sweep.score_benchmark", cells)

    def fused(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        tracer.count("sweep.fused_specs", len(args[0]))

    tracer.patch(runner, "fused_stats", "sweep.fused_stats", fused)

    def scalar(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        tracer.count("sweep.scalar_specs")

    tracer.patch(runner.SweepRunner, "run_one", "sweep.run_one", scalar)

    # -- result cache ------------------------------------------------------
    def looked_up(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        tracer.count("result_cache.misses" if result is None else "result_cache.hits")

    tracer.patch(ResultCache, "get", "result_cache.get", looked_up)
    tracer.patch(ResultCache, "put", "result_cache.put")

    # -- kernels (the per-spec dispatch: scalar engine or one vector kernel)
    def kernel_name(spec: Any, *args: Any, **kwargs: Any) -> str:
        return "kernels.score_spec." + family(spec)

    tracer.patch(runner, "score_spec", kernel_name)
    tracer.patch(kernels, "score_spec", kernel_name)

    # -- parallel ----------------------------------------------------------
    tracer.patch(parallel, "run_parallel_sweep", "parallel.sweep")

    # -- analysis ----------------------------------------------------------
    def sites(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        tracer.count("analysis.sites", len(result.sites))

    tracer.patch(repro.analysis, "analyze_program", "analysis.analyze_program", sites)
    tracer.patch(predictability, "walk_program", "analysis.walk")

    def site_maps(tracer: Tracer, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        if result is not None:
            capture.site_maps.append(result)

    tracer.patch(sim_analysis, "per_site_accuracy_specs", "sim_analysis.per_site", site_maps)
    tracer.patch(sim_analysis, "per_site_accuracy_many", "sim_analysis.per_site", site_maps)

    # -- serve (client side; the server's own costs come from STATS) --------
    tracer.patch(loadgen, "_encoded_chunks", "serve.encode")

    # -- streaming (the in-process replay of the served chunk sequence) -----
    def feed_name(scorer: Any, *args: Any, **kwargs: Any) -> str:
        return "streaming.feed_many." + getattr(scorer, "label", family(scorer.spec))

    tracer.patch(VectorMultiSessionScorer, "feed_many", feed_name)


def metric_name(span: str) -> str:
    """``kernels.score_spec.tage`` -> ``kernels.score_spec_s.tage``."""
    parts = span.split(".")
    return ".".join([parts[0], parts[1] + "_s", *parts[2:]])


def per_layer(tracer: Tracer) -> Dict[str, float]:
    """Per-unit layer figures under their BENCHMARK.json names."""
    raw = tracer.per_unit()
    values: Dict[str, float] = defaultdict(float)
    for name, value in raw.items():
        if name.endswith("_s") and "self_s." not in name:
            values[metric_name(name[:-2])] += value
        else:
            values[name] += value
    # set-up builds every trace, so only an op's lookups say anything
    ops = tracer.per_unit(phases=("op",))
    misses = ops.get("workloads.trace_misses", 0.0)
    values["workloads.trace_misses"] = misses
    values["workloads.trace_hits"] = ops.get("workloads.trace_lookups", 0.0) - misses
    run_s = values.get("isa.run_s", 0.0)
    values["isa.instructions_per_s"] = values.get("isa.instructions", 0.0) / run_s if run_s else 0.0
    return dict(values)
